"""Exact random-worlds reasoning by exhaustive enumeration.

A world is one assignment of sensitive values to persons that realizes every
bucket's value multiset exactly. All worlds are equally likely: each distinct
assignment is induced by the same number of within-bucket permutations, so
uniform weighting over distinct assignments is exact. Posteriors are computed
as exact rational fractions of world counts; no floating point anywhere.

This module is intentionally exponential: it exists as ground truth for the
polynomial engine and the worked examples, at small scale. Budgets guard every
enumeration.

``exact_posterior`` and ``knowledge_probability`` enumerate only the persons
the formula mentions: each bucket contributes the distinct value sequences of
its mentioned members, weighted by the multinomial count of their completions,
and buckets without mentioned persons contribute a constant factor that
cancels. This projection never visits more combinations than ``world_count``,
and its size is counted in polynomial time before enumerating, so a refused
call costs almost nothing. ``brute_force_max_disclosure`` enumerates whole
worlds through the same sequence enumerator, with every member mentioned.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    InconsistentKnowledgeError,
    ValidationError,
    _check_count,
)
from .knowledge import (
    Atom,
    Knowledge,
    _check_atoms,
    knowledge_holds,
    negation_as_implication,
    simple_implication,
)
from .table import Bucket, Bucketization

# Search families for brute_force_max_disclosure.
SIMPLE = "simple"
COMMON_CONSEQUENT = "simple-common-consequent"
NEGATED_ATOMS = "negated-atoms"


def world_count(bucketization: Bucketization) -> int:
    """Number of distinct worlds: product over buckets of n_b! / prod_s n_b(s)!."""
    total = 1
    for b in bucketization.buckets:
        ways = math.factorial(b.size)
        for c in b.counts:
            ways //= math.factorial(c)
        total *= ways
    return total


# ============================================================================
# Posteriors
# ============================================================================

def _mentioned_sequences(bucket: Bucket, q: int) -> list[tuple[tuple[str, ...], int]]:
    """Value sequences for q mentioned members, weighted by completion count.

    The weight of a partial assignment is the number of distinct ways to
    assign the remaining multiset to the remaining members:
    (n_b - q)! / prod_s (remaining count of s)!, or (n_b - q)! * taken /
    prod_s c_s!, where ``taken`` is the product of the counts the walk took
    values from. With q = n_b these are the bucket's distinct full
    assignments, each of weight 1. Sequences come out in lexicographic value
    order, which keeps every downstream enumeration deterministic.
    """
    base = math.factorial(bucket.size - q)
    whole = math.prod(map(math.factorial, bucket.counts))
    out: list[tuple[tuple[str, ...], int]] = []
    _walk_sequences(dict(sorted(bucket.histogram)), [], q, 1, out)
    return [(seq, base * taken // whole) for seq, taken in out]


def _walk_sequences(
    remaining: dict[str, int], seq: list[str], q: int, taken: int, out: list
) -> None:
    """Append (sequence, taken) for each length-q extension of ``seq`` that
    draws on the ``remaining`` value counts, in lexicographic value order.

    A module-level function rather than a closure that calls itself, which
    would be a reference cycle that only the cycle collector frees.
    """
    if len(seq) == q:
        out.append((tuple(seq), taken))
        return
    for v, c in remaining.items():
        if c:
            remaining[v] = c - 1
            seq.append(v)
            _walk_sequences(remaining, seq, q, taken * c, out)
            seq.pop()
            remaining[v] = c


def _projected_size(bucketization: Bucketization, mentioned: set[str]) -> int:
    """Number of combinations the projected enumeration would visit.

    Per bucket, the distinct length-q value sequences over its multiset are
    counted by a DP over the values: ways[t] counts length-t sequences over
    the values so far, and a value of count c puts j <= c copies among t
    positions in C(t, j) ways. Polynomial, so refusing is cheap.
    """
    size = 1
    for b in bucketization.buckets:
        q = sum(1 for p in b.members if p in mentioned)
        if q:
            ways = [1] + [0] * q
            for c in b.counts:
                ways = [
                    sum(ways[t - j] * math.comb(t, j) for j in range(min(c, t) + 1))
                    for t in range(q + 1)
                ]
            size *= ways[q]
    return size


def _posterior_projected(
    bucketization: Bucketization,
    knowledge: Knowledge,
    target: Atom | None,
    budget: int,
) -> tuple[int, int, int]:
    """(target-and-knowledge, knowledge, total) weights over projected worlds.

    Exactly proportional to the full enumeration: buckets without mentioned
    persons contribute a constant factor to every world, which cancels in the
    posterior, so they are skipped entirely (the returned total is the weight
    sum over the enumerated projection).
    """
    _check_count(budget, "budget")
    mentioned = {a.person for a in knowledge.atoms()}
    if target is not None:
        mentioned.add(target.person)
    size = _projected_size(bucketization, mentioned)
    if size > budget:
        raise BudgetExceededError(size, budget)

    groups: list[tuple[list[str], list[tuple[tuple[str, ...], int]]]] = []
    for b in bucketization.buckets:
        local = [p for p in b.members if p in mentioned]
        if local:
            groups.append((local, _mentioned_sequences(b, len(local))))

    num = den = total = 0
    for combo in itertools.product(*(seqs for _, seqs in groups)):
        w = 1
        assignment = {}
        for (local, _), (values, weight) in zip(groups, combo):
            w *= weight
            assignment.update(zip(local, values))
        total += w
        if knowledge_holds(assignment, knowledge):
            den += w
            if target is not None and assignment[target.person] == target.value:
                num += w
    return num, den, total


def exact_posterior(
    bucketization: Bucketization,
    knowledge: Knowledge,
    target: Atom,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Pr(target | bucketization and knowledge), as an exact rational.

    The fraction of knowledge-satisfying worlds that also satisfy the target.
    Raises InconsistentKnowledgeError when no world satisfies the knowledge
    and BudgetExceededError when the enumeration would exceed ``budget``.
    """
    _check_atoms([*knowledge.atoms(), target], bucketization.bucket_of, bucketization.domain)
    num, den, _ = _posterior_projected(bucketization, knowledge, target, budget)
    if den == 0:
        raise InconsistentKnowledgeError(
            "no world consistent with the bucketization satisfies the knowledge"
        )
    return Fraction(num, den)


def knowledge_probability(
    bucketization: Bucketization,
    knowledge: Knowledge,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Fraction:
    """Pr(knowledge | bucketization): the weight fraction of satisfying worlds."""
    _check_atoms(knowledge.atoms(), bucketization.bucket_of, bucketization.domain)
    _, den, total = _posterior_projected(bucketization, knowledge, None, budget)
    return Fraction(den, total)


# ============================================================================
# Brute-force maximum disclosure
# ============================================================================

class _Best:
    """Running maximum with a deterministic lexicographic witness tie-break.

    Witnesses are compared by (target atom, sorted implication list); on equal
    posterior values the smaller witness key wins. Atoms are listed in
    (person, value) order, so comparing atom indices compares atoms, and
    comparing (antecedent, consequent) index pairs compares the simple
    implications they stand for: ``key`` holds the target's index and the
    chosen pairs. Values compare by cross-multiplication, so everything stays
    in integers. ``scan`` holds the target masks a conjunction can still win
    with: a posterior cannot exceed 1, so once the value is 1 only the
    targets up to the best one can tie and win on a smaller key. ``scan`` is
    always a prefix of the target list, so an index into it is the target's
    index.
    """

    def __init__(self, target_masks: list[int]) -> None:
        self.scan = target_masks
        self.num = -1
        self.den = 1
        self.key: tuple = ()

    def score(self, mask: int, pairs: tuple[tuple[int, int], ...]) -> None:
        """Offer the conjunction with world set ``mask`` for its best target.

        Its denominator is fixed, so the first target in ``scan`` with the
        most worlds has the largest posterior and the least key among them.
        """
        nums = [(mask & tmask).bit_count() for tmask in self.scan]
        num = max(nums, default=0)
        if not num:
            return
        den = mask.bit_count()
        index = nums.index(num)
        lhs = num * self.den
        rhs = self.num * den
        if lhs < rhs or (lhs == rhs and (index, pairs) >= self.key):
            return
        self.num, self.den, self.key = num, den, (index, pairs)
        if num == den:
            self.scan = self.scan[: index + 1]


def _atom_masks(bucketization: Bucketization) -> tuple[list[Atom], list[int], int]:
    """Every (person, value) atom with its bitmask over the enumerated worlds.

    Atoms come in (person, value) order whatever the domain's order, so
    implications built from them come in witness-key order. The last item is
    the mask of all worlds.
    """
    per_bucket = [
        [values for values, _ in _mentioned_sequences(b, b.size)]
        for b in bucketization.buckets
    ]
    members = [b.members for b in bucketization.buckets]
    masks: dict[tuple[str, str], int] = {}
    bit = 1
    count = 0
    for world in itertools.product(*per_bucket):
        for ms, values in zip(members, world):
            for p, v in zip(ms, values):
                key = (p, v)
                masks[key] = masks.get(key, 0) | bit
        bit <<= 1
        count += 1
    atoms = [
        Atom(p, v)
        for p in sorted(bucketization.bucket_of)
        for v in sorted(bucketization.domain)
    ]
    return atoms, [masks.get((a.person, a.value), 0) for a in atoms], (1 << count) - 1


def _dedup_implications(
    pairs: Iterable[tuple[int, int]], masks: list[int], full: int
) -> list[tuple[tuple[int, int], int]]:
    """The pairs (a, c) for atoms[a] -> atoms[c] with distinct world-sets.

    Each kept pair comes with its world-set. A pair stands for its simple
    implication throughout the search: atoms are in (person, value) order,
    so pairs order as the implications' witness keys do. Drops a pair whose
    world-set repeats, keeping the first (lex-least). Sound for witness
    reconstruction: swapping an implication for an earlier one with the same
    world-set never changes a conjunction's world-set and never increases
    the witness sort key.
    """
    seen: set[int] = set()
    out = []
    for a, c in pairs:
        mask = (full ^ masks[a]) | masks[c]
        if mask not in seen:
            seen.add(mask)
            out.append(((a, c), mask))
    return out


def _extend_subsets(
    items: list[tuple[tuple[int, int], int]],
    k: int,
    best: _Best,
    start: int,
    mask: int,
    chosen: tuple[tuple[int, int], ...],
) -> None:
    """Score every conjunction of ``chosen`` with items[start:], up to k conjuncts.

    Subsets whose conjunction collapses onto a smaller, already-scored subset
    are skipped. Module level for the reason given at ``_walk_sequences``.
    """
    for i in range(start, len(items)):
        pair, imask = items[i]
        combined = mask & imask
        if combined == 0 or combined == mask:
            continue  # inconsistent, or equivalent to the subset without i
        pairs = chosen + (pair,)
        best.score(combined, pairs)
        if len(pairs) < k:
            _extend_subsets(items, k, best, i + 1, combined, pairs)


def brute_force_max_disclosure(
    bucketization: Bucketization,
    k: int,
    kind: str = SIMPLE,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Fraction, Knowledge, Atom]:
    """Exhaustive maximum of the posterior over a restricted knowledge family.

    ``kind`` picks the family: ``simple`` (conjunctions of k simple
    implications), ``simple-common-consequent`` (same, all sharing one
    consequent atom), or ``negated-atoms`` (conjunctions of k encoded
    negations). Returns the exact maximum with a lexicographically least
    witness (by target atom, then sorted implication list), least among the
    formulas with no removable conjunct: a conjunct that leaves the world set
    unchanged is never part of a reported witness. The witness does not
    depend on the order of ``bucketization.domain``. Exponential by design:
    any k is accepted, and both the world count and the number of
    conjunctions to search (sum over j <= min(k, n) of C(n, j) for the n
    distinct implications, summed over consequents for
    ``simple-common-consequent``) must fit ``budget``.
    """
    _check_count(k, "k")
    _check_count(budget, "budget")
    if kind not in (SIMPLE, COMMON_CONSEQUENT, NEGATED_ATOMS):
        raise ValidationError(f"unknown search family {kind!r}")
    if not bucketization.buckets:
        raise ValidationError("empty bucketization")
    wc = world_count(bucketization)
    if wc > budget:
        raise BudgetExceededError(wc, budget)
    atoms, masks, full = _atom_masks(bucketization)
    n = len(atoms)
    if kind == SIMPLE:
        groups = [itertools.product(range(n), repeat=2)]
    elif kind == COMMON_CONSEQUENT:
        groups = [[(a, c) for a in range(n)] for c in range(n)]
    else:
        domain = bucketization.domain
        index = {atom: i for i, atom in enumerate(atoms)}
        # a 1-value domain cannot express a negation; only k=0 remains
        groups = [
            [
                (a, index[negation_as_implication(atoms[a], domain).consequents[0]])
                for a in range(n)
            ]
            if len(domain) >= 2 else []
        ]
    searches = [_dedup_implications(pairs, masks, full) for pairs in groups]
    count = sum(
        math.comb(len(items), j) for items in searches for j in range(min(k, len(items)) + 1)
    )
    if count > budget:
        raise BudgetExceededError(count, budget, "search conjunction count")
    # at most k conjuncts: repeating one never changes the formula
    best = _Best(masks)
    best.score(full, ())
    if k:
        for items in searches:
            _extend_subsets(items, k, best, 0, full, ())
    target, pairs = best.key
    witness = Knowledge(tuple(simple_implication(atoms[a], atoms[c]) for a, c in pairs))
    return Fraction(best.num, best.den), witness, atoms[target]

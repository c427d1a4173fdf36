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
)
from .knowledge import (
    Atom,
    BasicImplication,
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
    remaining = dict(sorted(bucket.histogram))
    base = math.factorial(bucket.size - q)
    whole = math.prod(map(math.factorial, bucket.counts))
    out: list[tuple[tuple[str, ...], int]] = []
    seq: list[str] = []

    def rec(taken: int) -> None:
        if len(seq) == q:
            out.append((tuple(seq), base * taken // whole))
            return
        for v, c in remaining.items():
            if c:
                remaining[v] = c - 1
                seq.append(v)
                rec(taken * c)
                seq.pop()
                remaining[v] = c
    rec(1)
    return out


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

def _impl_key(impl: BasicImplication) -> tuple:
    return (
        tuple((a.person, a.value) for a in impl.antecedents),
        tuple((c.person, c.value) for c in impl.consequents),
    )


class _Best:
    """Running maximum with a deterministic lexicographic witness tie-break.

    Witnesses are compared by (target atom, sorted implication list); on equal
    posterior values the smaller witness key wins. Targets come in (person,
    value) order, so ``key`` holds the target's index and the chosen
    implications' precomputed keys. Values compare by cross-multiplication,
    so everything stays in integers. ``scan`` holds the target masks an offer
    can still win with: a posterior cannot exceed 1, so once the value is 1
    only the targets up to the best one can tie and win on a smaller key.
    ``scan`` is always a prefix of the target list, so an index into it is
    the target's index.
    """

    def __init__(self, target_masks: list[int]) -> None:
        self.scan = target_masks
        self.num = -1
        self.den = 1
        self.impls: tuple[BasicImplication, ...] = ()
        self.key: tuple = ()

    def offer(
        self,
        num: int,
        den: int,
        impls: tuple[BasicImplication, ...],
        keys: tuple,
        index: int,
    ) -> None:
        lhs = num * self.den
        rhs = self.num * den
        if lhs < rhs or (lhs == rhs and (index, keys) >= self.key):
            return
        self.num, self.den = num, den
        self.impls, self.key = impls, (index, keys)
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
    pairs: Iterable[tuple[int, int]], atoms: list[Atom], masks: list[int], full: int
) -> list[tuple[BasicImplication, int, tuple]]:
    """The simple implications atoms[a] -> atoms[c] with distinct world-sets.

    Drops an implication whose world-set repeats, keeping the first
    (lex-least). Sound for witness reconstruction: swapping an implication
    for an earlier one with the same world-set never changes a conjunction's
    world-set and never increases the witness sort key. Only kept
    implications are built, each with its world-set and witness key.
    """
    seen: set[int] = set()
    out = []
    for a, c in pairs:
        mask = (full ^ masks[a]) | masks[c]
        if mask not in seen:
            seen.add(mask)
            impl = simple_implication(atoms[a], atoms[c])
            out.append((impl, mask, _impl_key(impl)))
    return out


def _search_subsets(
    items: list[tuple[BasicImplication, int, tuple]],
    k: int,
    full: int,
    best: _Best,
) -> None:
    """Maximize the posterior over conjunctions of <= k of the given implications.

    Equals the maximum over exactly-k conjunctions: repeating a conjunct never
    changes the formula. Subsets whose conjunction collapses onto a smaller,
    already-visited subset are skipped. A conjunction's denominator is fixed,
    so it makes one offer: the first target in ``best.scan`` with the most
    worlds, which has the largest posterior and the least key among them.
    Once the value is 1, ``best.scan`` ends at the best target.
    """

    def score(mask: int, impls: tuple[BasicImplication, ...], keys: tuple) -> None:
        nums = [(mask & tmask).bit_count() for tmask in best.scan]
        num = max(nums, default=0)
        if num:
            best.offer(num, mask.bit_count(), impls, keys, nums.index(num))

    def extend(start: int, mask: int, chosen: tuple, keys: tuple) -> None:
        for i in range(start, len(items)):
            impl, imask, key = items[i]
            combined = mask & imask
            if combined == 0 or combined == mask:
                continue  # inconsistent, or equivalent to the subset without i
            impls, impl_keys = chosen + (impl,), keys + (key,)
            score(combined, impls, impl_keys)
            if len(impls) < k:
                extend(i + 1, combined, impls, impl_keys)

    score(full, (), ())
    if k:
        extend(0, full, (), ())


def brute_force_max_disclosure(
    bucketization: Bucketization,
    k: int,
    kind: str = SIMPLE,
    *,
    budget: int = DEFAULT_BUDGET,
    max_k: int = 3,
) -> tuple[Fraction, Knowledge, Atom]:
    """Exhaustive maximum of the posterior over a restricted knowledge family.

    ``kind`` picks the family: ``simple`` (conjunctions of k simple
    implications), ``simple-common-consequent`` (same, all sharing one
    consequent atom), or ``negated-atoms`` (conjunctions of k encoded
    negations). Returns the exact maximum with a lexicographically least
    witness (by target atom, then sorted implication list), least among the
    formulas with no removable conjunct: a conjunct that leaves the world set
    unchanged is never part of a reported witness. The witness does not
    depend on the order of ``bucketization.domain``. Exponential by design;
    k must not exceed ``max_k``, and both the world count and the number of
    conjunctions to search (sum over j <= k of C(n, j) for the n distinct
    implications, summed over consequents for ``simple-common-consequent``)
    must fit ``budget``.
    """
    if k < 0:
        raise ValidationError("k must be non-negative")
    if k > max_k:
        raise ValidationError(f"k={k} exceeds max_k={max_k}; raise max_k to insist")
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
    elif kind == NEGATED_ATOMS:
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
    else:
        raise ValidationError(f"unknown search family {kind!r}")
    searches = [_dedup_implications(pairs, atoms, masks, full) for pairs in groups]
    count = sum(
        math.comb(len(items), j) for items in searches for j in range(k + 1)
    )
    if count > budget:
        raise BudgetExceededError(count, budget, "search conjunction count")
    best = _Best(masks)
    for items in searches:
        _search_subsets(items, k, full, best)
    return Fraction(best.num, best.den), Knowledge(best.impls), atoms[best.key[0]]

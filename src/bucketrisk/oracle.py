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
    BudgetExceededError,
    InconsistentKnowledgeError,
    ValidationError,
)
from .knowledge import (
    Atom,
    BasicImplication,
    Knowledge,
    knowledge_holds,
    negation_as_implication,
    simple_implication,
)
from .table import Bucket, Bucketization

DEFAULT_BUDGET = 10_000_000

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


def _validate_atoms(bucketization: Bucketization, atoms: Iterable[Atom]) -> None:
    persons = bucketization.person_ids
    domain = set(bucketization.domain)
    for a in atoms:
        if a.person not in persons:
            raise ValidationError(f"unknown person {a.person!r}")
        if a.value not in domain:
            raise ValidationError(f"unknown sensitive value {a.value!r}")


# ============================================================================
# Posteriors
# ============================================================================

def _mentioned_sequences(bucket: Bucket, q: int) -> list[tuple[tuple[str, ...], int]]:
    """Value sequences for q mentioned members, weighted by completion count.

    The weight of a partial assignment is the number of distinct ways to
    assign the remaining multiset to the remaining members:
    (n_b - q)! / prod_s (remaining count of s)!. With q = n_b these are the
    bucket's distinct full assignments, each of weight 1. Sequences come out
    in lexicographic value order, which keeps every downstream enumeration
    deterministic.
    """
    remaining = dict(sorted(bucket.histogram))
    base = math.factorial(bucket.size - q)
    out: list[tuple[tuple[str, ...], int]] = []
    seq: list[str] = []

    def weight() -> int:
        w = base
        for c in remaining.values():
            w //= math.factorial(c)
        return w

    def rec() -> None:
        if len(seq) == q:
            out.append((tuple(seq), weight()))
            return
        for v, c in remaining.items():
            if c:
                remaining[v] = c - 1
                seq.append(v)
                rec()
                seq.pop()
                remaining[v] = c
    rec()
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
    _validate_atoms(bucketization, [*knowledge.atoms(), target])
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
    _validate_atoms(bucketization, knowledge.atoms())
    _, den, total = _posterior_projected(bucketization, knowledge, None, budget)
    return Fraction(den, total)


# ============================================================================
# Brute-force maximum disclosure
# ============================================================================

def _atom_key(atom: Atom) -> tuple[str, str]:
    return (atom.person, atom.value)


def _impl_key(impl: BasicImplication) -> tuple:
    return (
        tuple(_atom_key(a) for a in impl.antecedents),
        tuple(_atom_key(c) for c in impl.consequents),
    )


class _Best:
    """Running maximum with a deterministic lexicographic witness tie-break.

    Witnesses are compared by (target atom, sorted implication list); on equal
    posterior values the smaller witness key wins. Values compare by
    cross-multiplication, so everything stays in integers.
    """

    def __init__(self) -> None:
        self.num = -1
        self.den = 1
        self.impls: tuple[BasicImplication, ...] = ()
        self.target: Atom | None = None

    def offer(
        self,
        num: int,
        den: int,
        impls: tuple[BasicImplication, ...],
        target: Atom,
    ) -> None:
        lhs = num * self.den
        rhs = self.num * den
        if lhs < rhs:
            return
        if lhs == rhs:
            key = (_atom_key(target), tuple(_impl_key(i) for i in impls))
            assert self.target is not None
            best_key = (
                _atom_key(self.target),
                tuple(_impl_key(i) for i in self.impls),
            )
            if key >= best_key:
                return
        self.num, self.den = num, den
        self.impls, self.target = impls, target


def _atom_masks(
    bucketization: Bucketization,
) -> tuple[dict[tuple[str, str], int], int, list[Atom]]:
    """Bitmasks over the enumerated worlds for every (person, value) atom."""
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
        for v in bucketization.domain
    ]
    full = (1 << count) - 1
    for a in atoms:
        masks.setdefault((a.person, a.value), 0)
    return masks, full, atoms


def _dedup_implications(
    pairs: Iterable[tuple[BasicImplication, int]]
) -> list[tuple[BasicImplication, int]]:
    """Drop implications whose world-set repeats, keeping the first (lex-least).

    Sound for witness reconstruction: swapping an implication for an earlier
    one with the same world-set never changes a conjunction's world-set and
    never increases the witness sort key.
    """
    seen: dict[int, BasicImplication] = {}
    out = []
    for impl, mask in pairs:
        if mask not in seen:
            seen[mask] = impl
            out.append((impl, mask))
    return out


def _search_subsets(
    items: list[tuple[BasicImplication, int]],
    k: int,
    full: int,
    targets: list[tuple[Atom, int]],
    best: _Best,
) -> None:
    """Maximize the posterior over conjunctions of <= k of the given implications.

    Equals the maximum over exactly-k conjunctions: repeating a conjunct never
    changes the formula. Subsets whose conjunction collapses onto a smaller,
    already-visited subset are skipped.
    """

    def score(mask: int, impls: tuple[BasicImplication, ...]) -> None:
        den = mask.bit_count()
        for t, tmask in targets:
            num = (mask & tmask).bit_count()
            if num:
                best.offer(num, den, impls, t)

    def extend(start: int, mask: int, chosen: tuple[BasicImplication, ...]) -> None:
        if len(chosen) == k:
            return
        for i in range(start, len(items)):
            impl, imask = items[i]
            combined = mask & imask
            if combined == 0 or combined == mask:
                continue  # inconsistent, or equivalent to the subset without i
            score(combined, chosen + (impl,))
            extend(i + 1, combined, chosen + (impl,))

    score(full, ())
    extend(0, full, ())


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
    unchanged is never part of a reported witness. Exponential by design; the
    world count must fit ``budget`` and k must not exceed ``max_k``.
    """
    if k < 0:
        raise ValidationError("k must be non-negative")
    if k > max_k:
        raise ValidationError(f"k={k} exceeds max_k={max_k}; raise max_k to insist")
    wc = world_count(bucketization)
    if wc > budget:
        raise BudgetExceededError(wc, budget)
    masks, full, atoms = _atom_masks(bucketization)
    targets = [(a, masks[(a.person, a.value)]) for a in atoms]
    best = _Best()

    def impl_mask(impl: BasicImplication) -> int:
        antecedent = full
        for a in impl.antecedents:
            antecedent &= masks[(a.person, a.value)]
        consequent = 0
        for c in impl.consequents:
            consequent |= masks[(c.person, c.value)]
        return (full ^ antecedent) | consequent

    if kind == SIMPLE:
        items = _dedup_implications(
            (impl, impl_mask(impl))
            for impl in (simple_implication(a, c) for a in atoms for c in atoms)
        )
        _search_subsets(items, k, full, targets, best)
    elif kind == COMMON_CONSEQUENT:
        for consequent in atoms:
            items = _dedup_implications(
                (impl, impl_mask(impl))
                for impl in (simple_implication(a, consequent) for a in atoms)
            )
            _search_subsets(items, k, full, targets, best)
    elif kind == NEGATED_ATOMS:
        if len(bucketization.domain) >= 2:
            negations = [
                negation_as_implication(a, bucketization.domain) for a in atoms
            ]
        else:
            negations = []  # negation inexpressible; only k=0 remains
        items = _dedup_implications((n, impl_mask(n)) for n in negations)
        _search_subsets(items, k, full, targets, best)
    else:
        raise ValidationError(f"unknown search family {kind!r}")

    assert best.target is not None
    return Fraction(best.num, best.den), Knowledge(best.impls), best.target

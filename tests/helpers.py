"""Shared builders for synthetic tables, bucketizations, and small lattices."""

from __future__ import annotations

import csv
import io
import os
import random
from fractions import Fraction
from pathlib import Path

import bucketrisk
from bucketrisk import (
    Atom,
    BasicImplication,
    Bucketization,
    CurvePoint,
    Engine,
    Hierarchy,
    Knowledge,
    Table,
    make_bucket,
    minimize_within_bucket,
    negation_as_implication,
    simple_implication,
)
from bucketrisk.oracle import COMMON_CONSEQUENT, NEGATED_ATOMS, SIMPLE, _atom_masks

VALUES = ("a", "b", "c", "d")


def child_env(**extra: str) -> dict:
    """Environment for a Python child process that imports this bucketrisk."""
    src = str(Path(bucketrisk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def leq(finer: Bucketization, coarser: Bucketization) -> bool:
    """True iff every bucket of ``coarser`` is a union of buckets of ``finer``,
    two bucketizations of one person set."""
    assert finer.bucket_of.keys() == coarser.bucket_of.keys()
    home = coarser.bucket_of
    return all(len({home[person] for person in b.members}) <= 1 for b in finer.buckets)


def table_csv(table: Table) -> str:
    """The table as CSV, an "id" column first, that ``load_table`` reads back
    equal with ``id_column="id"``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", *table.attributes, table.sensitive_attribute])
    writer.writerows(table.records)
    return out.getvalue()


def read_curve_csv(text: str) -> list[CurvePoint]:
    """The exact points of ``emit_csv``'s output: an integer x stays an int."""
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["series", "x", "num", "den", "decimal"]
    return [
        CurvePoint(series, int(x) if x.isdigit() else float(x), Fraction(int(num), int(den)))
        for series, x, num, den, _ in rows
    ]


def bucketization_from_counts(count_maps, domain=None) -> Bucketization:
    """Build a bucketization from per-bucket {value: count} maps."""
    buckets = []
    pid = 0
    seen = set()
    for i, counts in enumerate(count_maps):
        members, values = [], []
        for value in sorted(counts):
            for _ in range(counts[value]):
                members.append(f"p{pid:03d}")
                values.append(value)
                pid += 1
        buckets.append(make_bucket(f"b{i}", members, values))
        seen.update(counts)
    if domain is None:
        domain = sorted(seen)
    return Bucketization(tuple(buckets), tuple(domain))


def random_bucketization(
    rng: random.Random,
    max_tuples: int = 8,
    max_buckets: int = 3,
    max_values: int = 4,
    min_values: int = 1,
) -> Bucketization:
    """A random small bucketization; every bucket non-empty."""
    n = rng.randint(2, max_tuples)
    num_buckets = rng.randint(1, min(max_buckets, n))
    domain = VALUES[: rng.randint(min_values, max_values)]
    home = [i if i < num_buckets else rng.randrange(num_buckets) for i in range(n)]
    buckets = []
    for b in range(num_buckets):
        members = [f"p{i:03d}" for i in range(n) if home[i] == b]
        values = [rng.choice(domain) for _ in members]
        buckets.append(make_bucket(f"b{b}", members, values))
    return Bucketization(tuple(buckets), domain)


def random_table_and_hierarchy(
    rng: random.Random,
    max_attributes: int = 3,
    max_tuples: int = 12,
) -> tuple[Table, Hierarchy]:
    """A random small table with a random generalization hierarchy.

    Each attribute gets at most two declared levels (a random two-group merge,
    then full suppression), so lattices stay at most 3 levels per attribute.
    """
    num_attributes = rng.randint(1, max_attributes)
    attributes = tuple(f"A{i}" for i in range(num_attributes))
    raw_sizes = [rng.randint(2, 3) for _ in attributes]
    domain = VALUES[: rng.randint(2, 3)]
    rows = []
    for _ in range(rng.randint(3, max_tuples)):
        raw = [f"r{rng.randrange(size)}" for size in raw_sizes]
        rows.append((*raw, rng.choice(domain)))
    *columns, sensitive = zip(*rows)
    person_ids = tuple(f"p{i:03d}" for i in range(len(rows)))
    table = Table(attributes, "S", person_ids, tuple(columns), sensitive, domain)

    levels = {}
    for j, attribute in enumerate(attributes):
        raws = [f"r{x}" for x in range(raw_sizes[j])]
        declared = []
        if rng.random() < 0.7:
            groups = [rng.randrange(2) for _ in raws]
            if len(set(groups)) == 1:
                groups[-1] = 1 - groups[-1]
            declared.append({r: f"g{g}" for r, g in zip(raws, groups)})
        declared.append("suppress")
        levels[attribute] = tuple(declared)
    return table, Hierarchy(attributes, levels)


def two_bucket_minimum(histograms, k: int) -> Fraction:
    """The across-bucket minimum r(k) with the atoms in at most two buckets.

    Bucket t holds the target atom and a <= k more, and one other bucket
    the other k - a. With w_b(h) bucket b's within-bucket minimum for h
    atoms, r(k) = min over t and a of (n_t/top_t) * w_t(a + 1) *
    W(t, k - a), where W(t, h) = min over j != t of w_j(h) and W(t, 0) = 1.
    A test-only reference for ``minimize_across_buckets``, which places
    atoms in any number of buckets.
    """
    engine = Engine()
    w = [[minimize_within_bucket(counts, h, engine=engine)[0] for h in range(k + 2)]
         for counts in histograms]
    m = len(histograms)
    return min(
        Fraction(sum(counts), counts[0]) * w[t][a + 1]
        * (1 if a == k else min(w[j][k - a] for j in range(m) if j != t))
        for t, counts in enumerate(histograms)
        for a in range(k + 1)
        if a == k or m > 1  # the other k - a atoms need a second bucket
    )


def reference_brute_force(bucketization, k, kind=SIMPLE):
    """The oracle's search as one offer per (conjunction, target) pair.

    A test-only reference for ``brute_force_max_disclosure``: the same
    family, deduplication and tie-break, scored target by target with every
    witness key built on demand. Atoms come from the oracle's own
    ``_atom_masks``, so domains should be sorted when comparing witnesses.
    """
    atoms, atom_masks, full = _atom_masks(bucketization)
    targets = list(zip(atoms, atom_masks))
    masks = {(a.person, a.value): mask for a, mask in targets}

    def items(impls):
        seen, out = set(), []
        for impl in impls:
            antecedent = full
            for a in impl.antecedents:
                antecedent &= masks[(a.person, a.value)]
            consequent = 0
            for c in impl.consequents:
                consequent |= masks[(c.person, c.value)]
            mask = (full ^ antecedent) | consequent
            if mask not in seen:
                seen.add(mask)
                out.append((impl, mask))
        return out

    best = _Best()
    if kind == SIMPLE:
        groups = [[simple_implication(a, c) for a in atoms for c in atoms]]
    elif kind == COMMON_CONSEQUENT:
        groups = [[simple_implication(a, c) for a in atoms] for c in atoms]
    else:
        assert kind == NEGATED_ATOMS
        domain = bucketization.domain
        groups = [
            [negation_as_implication(a, domain) for a in atoms]
            if len(domain) >= 2 else []
        ]
    for group in groups:
        _search_subsets(items(group), k, full, targets, best)
    return Fraction(best.num, best.den), Knowledge(best.impls), best.target


# The oracle's search loop before it made one offer per conjunction, kept
# verbatim for the reference above.


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

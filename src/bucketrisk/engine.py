"""Polynomial-time worst-case disclosure for implication-shaped knowledge.

The worst case over conjunctions of k basic implications is achieved by k
simple implications sharing one consequent atom A (the brute-force oracle
re-verifies this on random instances). For such knowledge,

    Pr(A | B and (A_i -> A for all i))  =  1 / (1 + r),
    r = Pr(not A and all not A_i | B) / Pr(A | B),

so maximizing disclosure means minimizing r over all choices of the k+1 atoms.
Two memoized dynamic programs do that:

* within one bucket: among atom sets whose per-person atom counts form a
  partition (k_0 >= k_1 >= ... >= 1), the minimum avoidance probability has a
  closed form using the bucket's most frequent values; the DP minimizes it
  over partitions.
* across buckets: distribute the k+1 atoms (one of which is the target A,
  always a most-frequent-value atom of its bucket) over the buckets,
  multiplying independent per-bucket factors.

One across-bucket sweep at k fills a row whose entry h is the answer for h
atoms, so it serves every h <= k. Three public readers share it:
``max_disclosure`` reads entry k and backtracks a witness, whose persons
come from the at most k + 1 buckets it names, ``disclosure_by_k`` the whole
row and ``disclosure_at`` entry k alone. All three take count tuples, so a
caller need not build buckets for them. With d_min the fewest
distinct values in any bucket, both knowledge classes disclose exactly 1 from
k = d_min - 1 on, so the last two sweep at most to d_min - 2 and give 1 from
d_min - 1 on.

The sweep runs from the last bucket to the first and fills a bucket's
within-bucket minima only as far as its scans read them: past the first zero
of the row below, every scan stops at once, so values, witnesses and counters
stay those of a sweep that fills them all (``_across_sweep`` says why). A
bucket whose histogram occurs more than k times after it is not scanned at
all: any placement that uses it leaves one of those k + 1 copies free, which
gives the same value, so its row is read off the row below in O(k)
(``Engine.repeat_rows`` counts such buckets).

All probabilities are exact rationals. Internally the DP works on
unnormalized (numerator, denominator) integer pairs compared by
cross-multiplication. Fractions appear only at the public boundary.

Work is memoized in an ``Engine`` session: one within-bucket table per
distinct histogram, shared by identical histograms, plus work counters.
Every entry point takes ``engine=`` and makes a fresh session without one,
so a one-shot call frees its tables on return; a caller that passes one
session to many calls, such as a lattice search, shares them across those.
``clear_cache()`` installs a session that calls without ``engine=`` then
share in the current context, and ``cache_info()`` returns it; the
benchmark's traced probe (``perfbench/run.py``) times the engine that way.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from typing import Callable, Sequence

from .errors import ValidationError
from .knowledge import Atom, BasicImplication, simple_implication
from .table import Bucket, Bucketization, _Frozen

Histograms = Bucketization | Sequence[tuple[int, ...]]


def avoidance_probability(bucket: Bucket, parts: Sequence[int]) -> Fraction:
    """Smallest probability that a set of atoms with this shape all fail.

    ``parts`` gives per-person atom counts (non-increasing, each >= 1) for
    len(parts) distinct persons of the bucket. The minimum over placements
    sits at the most frequent values: person i carries atoms for the top
    parts[i] values, and the probability that every atom is false is

        product over i of (n_b - i - (top parts[i] counts)) / (n_b - i).

    A non-positive numerator means no consistent world remains; the factor is
    clamped to 0. Counts past the bucket's distinct values are implicitly 0.
    """
    n = bucket.size
    if len(parts) > n:
        raise ValidationError(f"{len(parts)} involved persons exceed bucket size {n}")
    if any(p < 1 for p in parts):
        raise ValidationError("each involved person needs >= 1 atom")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValidationError("per-person atom counts must be non-increasing")
    counts = bucket.counts
    value = Fraction(1)
    for i, p in enumerate(parts):
        numerator = n - i - sum(counts[:p])
        if numerator <= 0:
            return Fraction(0)
        value *= Fraction(numerator, n - i)
    return value


# ============================================================================
# Within-bucket dynamic program
# ============================================================================

class _BucketTable:
    """Memoized minimizer of the avoidance probability for one histogram.

    States are (person index, cap on this person's atom count, atoms left);
    person i may take 1..cap atoms (caps enforce the non-increasing partition
    shape) or the walk may stop. Stopping early never undercuts the exact-k
    minimum (growing the largest part only shrinks the value), so the result
    equals the minimum over partitions of exactly k atoms, and minimize(0, h,
    h) is non-increasing in h. A cap above the atoms left allows nothing
    more than a cap equal to them, so states are keyed by min(cap, rem).
    """

    __slots__ = ("n", "_prefix", "memo", "choice", "evaluations")

    def __init__(self, counts: tuple[int, ...]):
        self.n = sum(counts)
        prefix = [0]
        for c in counts:
            prefix.append(prefix[-1] + c)
        self._prefix = prefix
        self.memo: dict[tuple[int, int, int], tuple[int, int]] = {}
        self.choice: dict[tuple[int, int, int], int] = {}
        self.evaluations = 0

    def top_sum(self, j: int) -> int:
        """Sum of the j largest counts (values past the distinct ones count 0)."""
        prefix = self._prefix
        return prefix[j] if j < len(prefix) else prefix[-1]

    def minimize(self, i: int, cap: int, rem: int) -> tuple[int, int]:
        if rem == 0 or i >= self.n:
            return (1, 1)
        cap = min(cap, rem)  # a cap above rem allows nothing more
        key = (i, cap, rem)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.evaluations += 1
        n = self.n
        denominator = n - i
        best_n, best_d = 1, 1
        best_choice = 0
        # descending so ties prefer concentrated shapes (fewer persons)
        for ki in range(cap, 0, -1):
            numerator = n - i - self.top_sum(ki)
            if numerator <= 0:
                cand_n, cand_d = 0, 1
            else:
                sub_n, sub_d = self.minimize(i + 1, ki, rem - ki)
                cand_n = numerator * sub_n
                cand_d = denominator * sub_d
            if cand_n * best_d < best_n * cand_d:
                best_n, best_d, best_choice = cand_n, cand_d, ki
                if cand_n == 0:
                    break
        self.memo[key] = (best_n, best_d)
        self.choice[key] = best_choice
        return (best_n, best_d)

    def best_partition(self, k: int) -> tuple[int, ...]:
        """The minimizing per-person atom counts for ``minimize(0, k, k)``."""
        self.minimize(0, k, k)
        parts = []
        i, cap, rem = 0, k, k
        while rem > 0 and i < self.n:
            ki = self.choice.get((i, min(cap, rem), rem), 0)
            if ki == 0:
                break  # stopped early: value already 0 with fewer atoms
            parts.append(ki)
            i, cap, rem = i + 1, ki, rem - ki
        return tuple(parts)


class Engine:
    """One session of engine work: within-bucket tables and work counters.

    ``tables`` maps histogram counts to a memoized within-bucket table;
    ``across_entries`` sums the across-bucket entries of every sweep and
    ``repeat_rows`` the bucket rows that the repeat rule of
    ``_across_sweep`` served without a scan. A session is not safe for
    concurrent use.
    """

    __slots__ = ("tables", "across_entries", "repeat_rows")

    def __init__(self) -> None:
        self.tables: dict[tuple[int, ...], _BucketTable] = {}
        self.across_entries = 0
        self.repeat_rows = 0

    def table(self, counts: tuple[int, ...]) -> _BucketTable:
        """The session's table for this histogram, made on first use."""
        table = self.tables.get(counts)
        if table is None:
            table = self.tables[counts] = _BucketTable(counts)
        return table

    @property
    def histograms(self) -> int:
        return len(self.tables)

    @property
    def within_entries(self) -> dict[tuple[int, ...], int]:
        return {c: len(t.memo) for c, t in self.tables.items()}

    @property
    def within_evaluations(self) -> int:
        return sum(t.evaluations for t in self.tables.values())


# Calls without engine= share this session once clear_cache() installs one.
_INSTALLED: ContextVar[Engine | None] = ContextVar("bucketrisk_engine", default=None)


def _session(engine: Engine | None) -> Engine:
    """The given session, else the installed one, else a fresh one."""
    if engine is None:
        engine = _INSTALLED.get()
    return Engine() if engine is None else engine


def clear_cache() -> None:
    """Make calls without ``engine=`` in this context share a new, empty session."""
    _INSTALLED.set(Engine())


def cache_info() -> Engine | None:
    """The session installed by ``clear_cache()`` in this context, or None."""
    return _INSTALLED.get()


def minimize_within_bucket(
    bucket: Bucket, k: int, *, engine: Engine | None = None
) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum avoidance probability over k atoms in one bucket, with its shape.

    Returns the minimum over all valid per-person count partitions of
    ``avoidance_probability`` together with a minimizing partition (which may
    use fewer than k atoms only when the value is already 0).
    """
    if k < 0:
        raise ValidationError("k must be non-negative")
    table = _session(engine).table(bucket.counts)
    value = table.minimize(0, k, k)
    return Fraction(*value), table.best_partition(k)


# ============================================================================
# Across-buckets dynamic program
# ============================================================================

class Placement(_Frozen):
    """Where the optimizer put the atoms.

    ``atom_counts[i]`` is the number of antecedent atoms assigned to bucket i
    (the target atom excluded); the target atom lives in bucket
    ``target_bucket``.
    """

    __slots__ = _fields = ("target_bucket", "atom_counts")

    def __init__(self, target_bucket: int, atom_counts: tuple[int, ...]) -> None:
        object.__setattr__(self, "target_bucket", target_bucket)
        object.__setattr__(self, "atom_counts", atom_counts)


def _checked_counts(
    histograms: Histograms, k: int, name: str = "k"
) -> tuple[Sequence[tuple[int, ...]], int]:
    """Check k and the input; return the count tuples and d_min - 1.

    A bucketization becomes its count tuples, each descending; count tuples
    pass through. d_min - 1 is the k from which both knowledge classes
    disclose exactly 1: in a bucket of d_min distinct values, one person can
    carry the target (its top value) plus an atom, or a negation, for each
    of the d_min - 1 other values. No world then gives that person another
    value, so r = 0 and the disclosure is 1; more knowledge cannot lower a
    worst case.
    """
    if k < 0:
        raise ValidationError(f"{name} must be non-negative")
    if isinstance(histograms, Bucketization):
        histograms = [b.counts for b in histograms.buckets]
    if not histograms:
        raise ValidationError("empty bucketization")
    return histograms, min(map(len, histograms)) - 1


def _across_sweep(
    histograms: Sequence[tuple[int, ...]], k: int, engine: Engine
) -> tuple[list, list[list[int]], list[list[int]]]:
    """The across-bucket DP for up to k antecedent atoms, in one sweep.

    ``histograms`` holds each bucket's counts, sorted in descending order;
    the DP reads nothing else of a bucket. Returns the row at bucket 0 with
    the target still to place, whose entry h is the minimum r, as an
    unnormalized pair, over placements of the target plus h atoms, and the
    back-pointer tables for that row. Entry h reads only entries h' <= h and
    within-bucket minima for up to h+1 atoms, so a sweep at k holds the
    exact answer for every h <= k.

    The sweep starts from the last bucket's two rows, read off its k + 2
    within-bucket minima: nothing is left to place after it, so its t-row
    entry h puts all h atoms there (back-pointer h) and its f-row entry h
    puts the target and h atoms there (code 2h + 1). It then scans buckets
    m - 2 down to 0.

    A bucket's within-bucket minima are filled only as far as its scans
    read them. The t-row below it (buckets i+1.., target placed) is
    non-increasing in h, because each within-bucket minimum is. So from its
    first zero entry z on, every entry is zero, and every scan of row i at
    h >= z takes the zero at hp = 0 and stops: no later candidate is
    strictly below 0. Row i then reads minima for at most max(z, 1) atoms
    (z = k + 1 when no entry is zero), with the same values, back-pointers
    and counts as a sweep that filled all k + 2.

    A bucket whose histogram occurs more than k times after it (``copies``)
    is not scanned. A placement that puts the target or hp >= 1 atoms into
    bucket i spreads its other atoms, at most k, over at most k later
    buckets, so one of the k + 1 later copies is free, and moving bucket i's
    share there gives the same value. No candidate that uses bucket i is
    then strictly below t_next[h] or f_next[h], and the strict-< scans keep
    hp = 0 in the t-row and, in the f-row, the first of the two minimal
    candidates in scan order: the target here with no extra atom (code 1),
    unless f_next[h] (code 0) is strictly smaller.
    """
    m = len(histograms)
    counts = histograms[-1]
    table = engine.table(counts)
    nb, top = table.n, counts[0]
    wbi = [table.minimize(0, h, h) for h in range(k + 2)]
    t_next = [(0, 1) if wn == 0 else (wn, wd) for wn, wd in wbi[:-1]]
    f_next = [(wn * nb, wd * top) for wn, wd in wbi[1:]]
    choice_t: list[list[int]] = [[]] * (m - 1) + [list(range(k + 1))]
    choice_f: list[list[int]] = [[]] * (m - 1) + [list(range(1, 2 * k + 2, 2))]
    copies = {counts: 1}  # occurrences after bucket i

    for i in range(m - 2, -1, -1):
        counts = histograms[i]
        table = engine.table(counts)
        nb, top = table.n, counts[0]
        seen = copies.get(counts, 0)
        copies[counts] = seen + 1
        if seen > k:
            # a free copy below: t-row as below, f-row of codes 1 and 0 only
            w1n, w1d = table.minimize(0, 1, 1)
            here = [(w1n * nb * t[0], w1d * top * t[1]) for t in t_next]
            cf = [0 if f[0] * c[1] < c[0] * f[1] else 1 for f, c in zip(f_next, here)]
            f_next = [c if code else f for f, c, code in zip(f_next, here, cf)]
            choice_t[i], choice_f[i] = [0] * (k + 1), cf
            engine.repeat_rows += 1
            continue
        z = next((h for h, e in enumerate(t_next) if e[0] == 0), k + 1)
        wbi = [table.minimize(0, h, h) for h in range(max(z, 1) + 1)]
        t_row, f_row, ct, cf = [], [], [], []
        for h in range(k + 1):
            # target already placed: just distribute h atoms, starting from
            # none here (hp = 0)
            bn, bd = t_next[h]
            bch = 0
            if bn:
                for hp in range(1, h + 1):
                    wn, wd = wbi[hp]
                    if wn == 0:
                        cn, cd = 0, 1
                    else:
                        sub = t_next[h - hp]
                        cn = wn * sub[0]
                        cd = wd * sub[1]
                    if cn * bd < bn * cd:
                        bn, bd, bch = cn, cd, hp
                        if cn == 0:
                            break
            t_row.append((bn, bd))
            ct.append(bch)
            # target not placed yet: it goes here (hp extra atoms alongside
            # it) or into a later bucket; (1, 0) is above every candidate,
            # whose denominators are positive
            bn, bd, bcf = 1, 0, 0
            for hp in range(h + 1):
                sub = t_next[h - hp]
                wn, wd = wbi[hp + 1]
                cn = wn * nb * sub[0]
                cd = wd * top * sub[1]
                if cn * bd < bn * cd:
                    bn, bd, bcf = cn, cd, hp * 2 + 1
                    if cn == 0:
                        break
                sub = f_next[h - hp]
                wn, wd = wbi[hp]
                if wn == 0:
                    cn, cd = 0, 1
                else:
                    cn = wn * sub[0]
                    cd = wd * sub[1]
                if cn * bd < bn * cd:
                    bn, bd, bcf = cn, cd, hp * 2
                    if cn == 0:
                        break
            f_row.append((bn, bd))
            cf.append(bcf)
        t_next, f_next = t_row, f_row
        choice_t[i] = ct
        choice_f[i] = cf

    engine.across_entries += 2 * m * (k + 1)
    return f_next, choice_t, choice_f


def minimize_across_buckets(
    histograms: Histograms, k: int, *, engine: Engine | None = None
) -> tuple[Fraction, Placement]:
    """Minimum of r over all placements of the k+1 atoms, with the placement.

    Buckets are independent, so a placement's r is the product of per-bucket
    avoidance minima, times n_b/n_b(top value) for the target atom's bucket
    (the target is always a most-frequent-value atom there, which both
    belongs to the numerator's minimal atom set and maximizes the
    denominator). The DP sweeps buckets once; states are (bucket, atoms still
    to place, target placed yet?). All k atoms are always placed: every
    within-bucket factor is <= 1, so using fewer can never win (and the
    padding argument makes the two minima equal). ``histograms`` is a
    bucketization or its count tuples.
    """
    histograms = _checked_counts(histograms, k)[0]
    m = len(histograms)
    row, choice_t, choice_f = _across_sweep(histograms, k, _session(engine))

    atom_counts = [0] * m
    target_bucket = -1
    h = k
    placed = False
    for i in range(m):
        if not placed:
            code = choice_f[i][h]
            hp, here = code >> 1, code & 1
            atom_counts[i] = hp
            if here:
                target_bucket = i
                placed = True
        else:
            if h == 0:
                break
            hp = choice_t[i][h]
            atom_counts[i] = hp
        h -= hp
    return Fraction(*row[k]), Placement(target_bucket, tuple(atom_counts))


def disclosure_by_k(
    histograms: Histograms, k_max: int, *, engine: Engine | None = None
) -> tuple[list[Fraction], list[Fraction]]:
    """Worst-case disclosure for every k = 0..k_max, for both knowledge classes.

    Returns (implications, negated atoms), each indexed by k. Entry k of the
    first equals ``max_disclosure(bucketization, k).disclosure`` and of the
    second ``max_disclosure_negated_atoms(bucketization, k)``, but one
    across-bucket sweep serves every k, no witness is built, and no column
    from saturation on (k = d_min - 1, where both classes reach 1) is
    computed: with d_min = 1 nothing is swept.
    """
    histograms, saturation = _checked_counts(histograms, k_max, "k_max")
    cap = min(k_max, saturation - 1)
    saturated = [Fraction(1)] * (k_max - cap)
    row = _across_sweep(histograms, cap, _session(engine))[0] if cap >= 0 else []
    implications = [Fraction(d, n + d) for n, d in row]
    return implications + saturated, _negated_atoms_series(histograms, cap) + saturated


def disclosure_at(
    histograms: Histograms, k: int, *, engine: Engine | None = None
) -> Fraction:
    """``max_disclosure(bucketization, k).disclosure``, with no witness.

    From k = d_min - 1 on it is 1 and, unlike in ``disclosure_by_k``, nothing
    is swept; below that it is entry k of one sweep at k.
    """
    histograms, saturation = _checked_counts(histograms, k)
    if k >= saturation:
        return Fraction(1)
    r_num, r_den = _across_sweep(histograms, k, _session(engine))[0][k]
    return Fraction(r_den, r_num + r_den)


# ============================================================================
# Reports and the negated-atoms baseline
# ============================================================================

class DisclosureReport(_Frozen):
    """Worst-case disclosure with a checkable witness.

    ``disclosure`` = 1/(1 + ratio). The witness is exactly k simple
    implications, every one with consequent ``target`` (padded by repetition
    or by the vacuous target->target when the optimum needs fewer distinct
    atoms); feeding them to the exact oracle reproduces ``disclosure``.
    ``bucket_atom_counts[i]`` counts the atom slots the optimizer assigned to
    bucket i, the target atom's slot included.
    """

    __slots__ = _fields = ("disclosure", "ratio", "target", "antecedents", "bucket_atom_counts",
                           "implications")

    def __init__(
        self,
        disclosure: Fraction,
        ratio: Fraction,
        target: Atom,
        antecedents: tuple[Atom, ...],
        bucket_atom_counts: tuple[int, ...],
        implications: tuple[BasicImplication, ...],
    ) -> None:
        object.__setattr__(self, "disclosure", disclosure)
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "antecedents", antecedents)
        object.__setattr__(self, "bucket_atom_counts", bucket_atom_counts)
        object.__setattr__(self, "implications", implications)


def _partition_atoms(
    bucket: Bucket, parts: Sequence[int], skip_first: bool
) -> list[Atom]:
    """Materialize a partition as atoms on the bucket's first persons.

    Person i carries the top parts[i] values. Indices past the distinct
    values have count 0: such atoms change nothing (the closed form adds 0
    and the implication is vacuous), so they are dropped. ``skip_first``
    omits person 0's top-value atom (the target atom).
    """
    atoms = []
    for person_index, p in enumerate(parts):
        person = bucket.members[person_index]
        for j in range(p):
            if skip_first and person_index == 0 and j == 0:
                continue
            value = bucket.value_at(j)
            if value is not None:
                atoms.append(Atom(person, value))
    return atoms


def max_disclosure(
    histograms: Histograms,
    k: int,
    buckets: Callable[[Sequence[int]], Sequence[Bucket]] | None = None,
    *,
    engine: Engine | None = None,
) -> DisclosureReport:
    """Worst-case posterior over conjunctions of k implications, with witness.

    ``histograms`` is a bucketization or its count tuples. The optimum reads
    only the counts; the witness names persons of the at most k + 1 buckets
    its placement uses. ``buckets`` builds those from their indices, in the
    order given, each with its count tuple's histogram (for example
    ``table.buckets_at``); a bucketization supplies its own.
    """
    if isinstance(histograms, Bucketization):
        own = histograms.buckets
        buckets = lambda indices: [own[i] for i in indices]
    histograms = _checked_counts(histograms, k)[0]
    if buckets is None:
        raise ValidationError("count tuples need buckets= to build a witness")
    engine = _session(engine)
    ratio, placement = minimize_across_buckets(histograms, k, engine=engine)
    disclosure = 1 / (1 + ratio)
    # atom slots per bucket, the target's slot included
    slots = list(placement.atom_counts)
    slots[placement.target_bucket] += 1
    named = [i for i, c in enumerate(slots) if c]
    antecedents: list[Atom] = []
    for i, b in zip(named, buckets(named), strict=True):
        if b.counts != histograms[i]:
            raise ValidationError(f"bucket {b.bucket_id!r} does not match histogram {i}")
        here = i == placement.target_bucket
        if here:
            target = Atom(b.members[0], b.histogram[0][0])
        parts = engine.table(histograms[i]).best_partition(slots[i])
        antecedents.extend(_partition_atoms(b, parts, skip_first=here))

    implications = [simple_implication(a, target) for a in antecedents]
    while len(implications) < k:
        # a repeated conjunct (or target->target) changes nothing
        implications.append(
            implications[0] if implications else simple_implication(target, target)
        )
    return DisclosureReport(
        disclosure=disclosure,
        ratio=ratio,
        target=target,
        antecedents=tuple(i.antecedents[0] for i in implications),
        bucket_atom_counts=tuple(slots),
        implications=tuple(implications),
    )


def _negated_atoms_series(
    histograms: Sequence[tuple[int, ...]], k: int
) -> list[Fraction]:
    """The negated-atoms bound for every k' <= k, for k up to saturation.

    Prefix sums run once per distinct histogram, candidates are compared by
    cross-multiplication, and a Fraction is built only for each k's maximum.
    """
    best = [(0, 1)] * (k + 1)
    for counts in dict.fromkeys(histograms):
        top, n = counts[0], sum(counts)
        covered = 0
        for j in range(k + 1):
            covered += counts[j]  # j < d_min <= len(counts)
            den = n - covered + top
            bn, bd = best[j]
            if top * bd > bn * den:
                best[j] = (top, den)
    return [Fraction(n, d) for n, d in best]


def max_disclosure_negated_atoms(histograms: Histograms, k: int) -> Fraction:
    """Worst-case posterior when the k knowledge units are negated atoms.

    The worst case concentrates every negation on one person (verified
    against the exhaustive negated-atoms search on random instances rather
    than proved): with u = min(k+1, distinct values), exclude u-1 of the
    bucket's top u values and target the remaining one, of count x. That
    gives x / (A + x) with A = n_b - (sum of the top u counts), which grows
    with x, so the best target is the most frequent value. ``histograms``
    is a bucketization or its count tuples.
    """
    histograms, saturation = _checked_counts(histograms, k)
    return _negated_atoms_series(histograms, min(k, saturation))[-1]

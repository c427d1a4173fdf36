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
``max_disclosure`` reads entry k and backtracks the placement and each
named bucket's partition, ``disclosure_by_k`` the whole row and
``disclosure_at`` entry k alone. A decision reader, ``disclosure_reaches``,
asks only whether entry k reaches a threshold c and stops the sweep at the
first bucket that proves it does. All four read count tuples alone and name
no person: ``max_disclosure`` imports ``knowledge._witness`` when called, to
spell its optimum out as atoms, so a search or a curve never loads the
knowledge layer. With d_min the fewest distinct values in any bucket, both
knowledge classes disclose exactly 1 from k = d_min - 1 on, so the last
three sweep at most to d_min - 2 and answer from d_min - 1 on without one.

The sweep runs from the last bucket to the first, fills a bucket's
within-bucket minima only as far as its scans read them, and stops each scan
at h // (s + 1) atoms for a bucket whose histogram occurs s more times after
it; ``_across_sweep`` says why its values, witnesses and counters stay those
of a sweep that fills every minimum and scans every share.

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

import numbers
from contextvars import ContextVar
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import ValidationError, _check_count, _check_sequence
from .table import Bucketization, _Frozen

if TYPE_CHECKING:
    from .table import Bucket

Histograms = Bucketization | Sequence[tuple[int, ...]]


def avoidance_probability(counts: tuple[int, ...], parts: Sequence[int]) -> Fraction:
    """Smallest probability that a set of atoms with this shape all fail.

    ``counts`` is a bucket's count tuple, in descending order. ``parts``
    gives per-person atom counts (non-increasing, each >= 1) for len(parts)
    distinct persons of the bucket. The minimum over placements sits at the
    most frequent values: person i carries atoms for the top parts[i]
    values, and the probability that every atom is false is

        product over i of (n_b - i - (top parts[i] counts)) / (n_b - i).

    A non-positive numerator means no consistent world remains; the factor is
    clamped to 0. Counts past the bucket's distinct values are implicitly 0.
    """
    _check_histogram(counts)
    _check_sequence(parts, "parts")
    n = sum(counts)
    if len(parts) > n:
        raise ValidationError(f"{len(parts)} involved persons exceed bucket size {n}")
    for p in parts:
        _check_count(p, "each involved person's atom count", least=1)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValidationError("per-person atom counts must be non-increasing")
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
    person i takes 1..cap atoms (caps enforce the non-increasing partition
    shape). A cap above the atoms left allows nothing more than a cap equal
    to them, so states are keyed by min(cap, rem). ``memo`` maps a state to
    (numerator, denominator, atoms for person i); ``rest[j]`` is n minus the
    sum of the j largest counts (0 from j = d on).

    The cover rule, for a bucket of d distinct values: minimize(0, h, h) is
    (0, 1) exactly when h >= d, where one person carries an atom for every
    value, and the root state answers that without a walk. Below d every
    factor is positive: person i holding p atoms has numerator rest[p] - i
    >= (d - p) - i >= i*(p - 1) + 1, because the i persons before it hold
    at least i*p of the h <= d - 1 atoms and each of the d - p values
    outside the top p counts at least 1. So no walk meets a zero, and every
    minimizing partition has exactly h atoms.
    """

    __slots__ = ("n", "rest", "memo", "evaluations")

    def __init__(self, counts: tuple[int, ...]):
        n = self.n = sum(counts)
        self.rest = [n - s for s in accumulate(counts, initial=0)]
        self.memo: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        self.evaluations = 0

    def minimize(self, i: int, cap: int, rem: int) -> tuple[int, int, int]:
        if rem == 0:
            return (1, 1, 0)
        cap = min(cap, rem)  # a cap above rem allows nothing more
        key = (i, cap, rem)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        self.evaluations += 1
        rest = self.rest
        if cap >= len(rest) - 1:  # the cover rule: one person covers every value
            return self.memo.setdefault(key, (0, 1, cap))
        denominator = self.n - i
        best_n, best_d, best_ki = 1, 1, 0
        # descending so ties prefer concentrated shapes (fewer persons)
        for ki in range(cap, 0, -1):
            sub_n, sub_d, _ = self.minimize(i + 1, ki, rem - ki)
            cand_n = (rest[ki] - i) * sub_n
            cand_d = denominator * sub_d
            if cand_n * best_d < best_n * cand_d:
                best_n, best_d, best_ki = cand_n, cand_d, ki
        best = self.memo[key] = (best_n, best_d, best_ki)
        return best

    def best_partition(self, k: int) -> tuple[int, ...]:
        """The minimizing per-person atom counts for ``minimize(0, k, k)``."""
        self.minimize(0, k, k)
        parts = []
        i, cap, rem = 0, k, k
        while rem > 0:
            ki = self.memo[i, min(cap, rem), rem][2]
            parts.append(ki)
            i, cap, rem = i + 1, ki, rem - ki
        return tuple(parts)


class Engine:
    """One session of engine work: within-bucket tables and work counters.

    ``tables`` maps histogram counts to a memoized within-bucket table;
    ``across_entries`` sums the across-bucket entries of the rows every
    sweep filled (2(k + 1) per row; a stopped sweep fills fewer rows) and
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
        """The session's table for this histogram, made on first use (unchecked:
        every reader passes its input through ``_checked_counts`` first)."""
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
    if engine is not None and not isinstance(engine, Engine):
        raise ValidationError(f"engine must be an Engine, not {type(engine).__name__}")
    return engine or _INSTALLED.get() or Engine()


def clear_cache() -> None:
    """Make calls without ``engine=`` in this context share a new, empty session."""
    _INSTALLED.set(Engine())


def cache_info() -> Engine | None:
    """The session installed by ``clear_cache()`` in this context, or None."""
    return _INSTALLED.get()


def minimize_within_bucket(
    counts: tuple[int, ...], k: int, *, engine: Engine | None = None
) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum avoidance probability over k atoms in one bucket, with its shape.

    ``counts`` is the bucket's count tuple, in descending order. Returns the
    minimum over all valid per-person count partitions of
    ``avoidance_probability`` together with a minimizing partition of
    exactly k atoms. From k = d, the bucket's distinct values, on the value
    is 0 and the partition is (k,): one person covers every value.
    """
    engine = _session(engine)
    _checked_counts([counts], k, engine)
    table = engine.table(counts)
    numerator, denominator, _ = table.minimize(0, k, k)
    return Fraction(numerator, denominator), table.best_partition(k)


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


def _check_histogram(counts: object) -> None:
    """Refuse what is not a count tuple: positive integers, descending."""
    if (type(counts) is tuple and counts and {*map(type, counts)} == {int}
            and counts[-1] > 0 and counts == tuple(sorted(counts, reverse=True))):
        return  # plain ints, checked without a call per count; the rest names a fault
    if not isinstance(counts, tuple) or not counts:
        raise ValidationError(f"{counts!r} is not a count tuple")
    try:
        for c in counts:
            _check_count(c, "each count", least=1)
    except ValidationError as exc:
        raise ValidationError(f"count tuple {counts!r}: {exc}") from None
    if counts != tuple(sorted(counts, reverse=True)):
        raise ValidationError(f"count tuple {counts!r} is not descending")


def _checked_counts(
    histograms: Histograms, k: int, engine: Engine, name: str = "k"
) -> tuple[Sequence[tuple[int, ...]], int]:
    """Check k and the input; return the count tuples and d_min - 1.

    A bucketization becomes its count tuples; anything else must be a list
    or a tuple of them. Each distinct count tuple that the session holds no
    table for is checked here, first to last, so a reader that answers
    without reading a tuple's counts (a saturated k, a stopped sweep)
    refuses a malformed one too. d_min - 1 is the k from which
    both knowledge classes disclose exactly 1: in a bucket of d_min distinct
    values, one person can carry the target (its top value) plus an atom, or
    a negation, for each of the d_min - 1 other values. No world then gives
    that person another value, so r = 0 and the disclosure is 1; more
    knowledge cannot lower a worst case.
    """
    _check_count(k, name)
    if isinstance(histograms, Bucketization):
        histograms = [b.counts for b in histograms.buckets]
    _check_sequence(histograms, "histograms")
    if not histograms:
        raise ValidationError("empty bucketization")
    try:
        unseen = [c for c in dict.fromkeys(histograms) if c not in engine.tables]
    except TypeError:  # an unhashable entry, so no count tuple: name the first
        unseen = histograms
    for counts in unseen:
        _check_histogram(counts)
    return histograms, min(map(len, histograms)) - 1


def _at_most(pair: tuple[int, int], bound: tuple[int, int]) -> bool:
    """pair <= bound for unnormalized pairs; a bound (n, 0) is above every pair."""
    return pair[0] * bound[1] <= bound[0] * pair[1]


def _across_sweep(
    histograms: Sequence[tuple[int, ...]],
    k: int,
    engine: Engine,
    *,
    stop: tuple[int, int] | None = None,
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
    read them. Let z be min(k + 1, the fewest distinct values among buckets
    i+1..). By the cover rule of ``_BucketTable``, the t-row below bucket i
    (buckets i+1.., target placed) is 0 exactly from entry z on: h atoms
    can cover a later bucket's values iff h >= z, and below that every
    factor is positive. So every scan of row i at h >= z takes the zero at
    hp = 0 and stops: no later candidate is strictly below 0.

    Nor does a scan read past the shares of bucket i that no earlier
    candidate dominates. Let s (``seen``) count the buckets after i with
    bucket i's histogram. Swapping the atom sets of two such buckets keeps
    a placement's value. The scans of entry h meet bucket i's share in the
    order (target, 0), (no target, 0), (target, 1), (no target, 1), ...
    Take a placement with hp atoms in bucket i, and a later copy that holds
    a share earlier in that order; an unused copy does. Swapping the two
    gives a placement whose share in bucket i comes earlier, so the
    candidate of that share is no larger, and the strict-< scan never picks
    hp. A candidate that can win thus needs each of the s copies to hold at
    least hp atoms, s * hp <= h - hp, and both scans of entry h stop at
    hp = h // (s + 1). Row i reads minima for at most z >= 1 atoms, with
    the same values, back-pointers and counts as a sweep that filled all
    k + 2 minima and scanned every hp <= h.

    At s > k (``copies``) the bound is 0 for every h, and the bucket is not
    scanned: its t-row is the row below with back-pointer 0, and its f-row
    keeps the first minimal of two candidates, the target here with no
    extra atom (code 1) unless f_next[h] (code 0) is strictly smaller. The
    target-here products depend only on the histogram and t_next, so they
    are kept per histogram until a scanned row replaces t_next.

    With ``stop``, a bound on r, the sweep returns early once entry k of
    the f-row is at most the bound: that entry is the least r over
    placements inside buckets i.., which is also a placement of the whole
    table, so the final r cannot exceed it. The back-pointer tables are
    then incomplete. Repeat rows leave the f-row's values as they were, so
    only the first row and scanned rows are checked.
    """
    m = len(histograms)
    counts = histograms[-1]
    table = engine.table(counts)
    nb, top = table.n, counts[0]
    wbi = [table.minimize(0, h, h) for h in range(k + 2)]
    t_next = [(wn, wd) for wn, wd, _ in wbi[:-1]]
    f_next = [(wn * nb, wd * top) for wn, wd, _ in wbi[1:]]
    choice_t: list[list[int]] = [[]] * (m - 1) + [list(range(k + 1))]
    choice_f: list[list[int]] = [[]] * (m - 1) + [list(range(1, 2 * k + 2, 2))]
    copies = {counts: 1}  # occurrences after bucket i
    repeats: dict[tuple[int, ...], list] = {}  # target-here products, per histogram
    i = m - 1  # t_next and f_next are bucket i's rows
    z = min(k + 1, len(counts))  # t_next is 0 exactly from entry z on
    stopped = stop is not None and _at_most(f_next[k], stop)

    while i and not stopped:
        i -= 1
        counts = histograms[i]
        table = engine.table(counts)
        nb, top = table.n, counts[0]
        seen = copies.get(counts, 0)
        copies[counts] = seen + 1
        if seen > k:
            # a free copy below: t-row as below, f-row of codes 1 and 0 only
            here = repeats.get(counts)
            if here is None:
                w1n, w1d, _ = table.minimize(0, 1, 1)
                here = repeats[counts] = [(w1n * nb * t[0], w1d * top * t[1]) for t in t_next]
            cf = [0 if f[0] * c[1] < c[0] * f[1] else 1 for f, c in zip(f_next, here)]
            f_next = [c if code else f for f, c, code in zip(f_next, here, cf)]
            choice_t[i], choice_f[i] = [0] * (k + 1), cf
            engine.repeat_rows += 1
            continue
        wbi = [table.minimize(0, h, h) for h in range(z + 1)]
        t_row, f_row, ct, cf = [], [], [], []
        for h in range(k + 1):
            most = h // (seen + 1)  # no scan wins past it
            # target already placed: just distribute h atoms, starting from
            # none here (hp = 0)
            bn, bd = t_next[h]
            bch = 0
            if bn:
                for hp in range(1, most + 1):
                    wn, wd, _ = wbi[hp]
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
            for hp in range(most + 1):
                sub = t_next[h - hp]
                wn, wd, _ = wbi[hp + 1]
                cn = wn * nb * sub[0]
                cd = wd * top * sub[1]
                if cn * bd < bn * cd:
                    bn, bd, bcf = cn, cd, hp * 2 + 1
                    if cn == 0:
                        break
                sub = f_next[h - hp]
                wn, wd, _ = wbi[hp]
                cn = wn * sub[0]
                cd = wd * sub[1]
                if cn * bd < bn * cd:
                    bn, bd, bcf = cn, cd, hp * 2
                    if cn == 0:
                        break
            f_row.append((bn, bd))
            cf.append(bcf)
        t_next, f_next = t_row, f_row
        z = min(z, len(counts))  # a repeat row's histogram occurs below it: z stays
        repeats.clear()
        choice_t[i] = ct
        choice_f[i] = cf
        stopped = stop is not None and _at_most(f_next[k], stop)

    engine.across_entries += 2 * (m - i) * (k + 1)
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
    engine = _session(engine)
    return _placed(_checked_counts(histograms, k, engine)[0], k, engine)


def _placed(
    histograms: Sequence[tuple[int, ...]], k: int, engine: Engine
) -> tuple[Fraction, Placement]:
    """``minimize_across_buckets`` on count tuples ``_checked_counts`` passed."""
    m = len(histograms)
    row, choice_t, choice_f = _across_sweep(histograms, k, engine)

    atom_counts = [0] * m
    target_bucket, h = -1, k
    for i in range(m):
        if target_bucket < 0:
            hp, here = divmod(choice_f[i][h], 2)
            if here:
                target_bucket = i
        elif h == 0:
            break
        else:
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
    engine = _session(engine)
    histograms, saturation = _checked_counts(histograms, k_max, engine, "k_max")
    cap = min(k_max, saturation - 1)
    saturated = [Fraction(1)] * (k_max - cap)
    row = _across_sweep(histograms, cap, engine)[0] if cap >= 0 else []
    negations = _negated_atoms_series(histograms, cap, engine) if cap >= 0 else []
    implications = [Fraction(d, n + d) for n, d in row]
    return implications + saturated, negations + saturated


def disclosure_at(
    histograms: Histograms, k: int, *, engine: Engine | None = None
) -> Fraction:
    """``max_disclosure(bucketization, k).disclosure``, with no witness.

    From k = d_min - 1 on it is 1 and, unlike in ``disclosure_by_k``, nothing
    is swept; below that it is entry k of one sweep at k.
    """
    engine = _session(engine)
    histograms, saturation = _checked_counts(histograms, k, engine)
    if k >= saturation:
        return Fraction(1)
    r_num, r_den = _across_sweep(histograms, k, engine)[0][k]
    return Fraction(r_den, r_num + r_den)


def disclosure_reaches(
    histograms: Histograms, k: int, c: Fraction, *, engine: Engine | None = None
) -> bool:
    """True iff ``disclosure_at(histograms, k) >= c``, for any finite real c.

    1/(1 + r) >= c iff r <= (1 - c)/c, so the sweep stops at the first
    bucket whose f-row entry k is already at most (1 - c)/c; a disclosure
    below c still sweeps every bucket. From k = d_min - 1 on nothing is
    swept.
    """
    engine = _session(engine)
    histograms, saturation = _checked_counts(histograms, k, engine)
    if not isinstance(c, numbers.Real):
        raise ValidationError("threshold c must be a real number")
    try:
        c = Fraction(c)
    except (ValueError, OverflowError):  # NaN or an infinity
        raise ValidationError("threshold c must be finite") from None
    if k >= saturation:
        return c <= 1
    bound = (c.denominator - c.numerator, c.numerator)
    return _at_most(_across_sweep(histograms, k, engine, stop=bound)[0][k], bound)


# ============================================================================
# Reports and the negated-atoms baseline
# ============================================================================

class DisclosureReport(_Frozen):
    """Worst-case disclosure with a checkable witness.

    The witness is exactly k simple implications, every one with consequent
    ``target`` (padded by repetition or by the vacuous target->target when
    the optimum needs fewer distinct atoms); feeding them to the exact
    oracle reproduces ``disclosure``.
    ``bucket_atom_counts[i]`` counts the atom slots the optimizer assigned to
    bucket i, the target atom's slot included.
    """

    __slots__ = _fields = ("disclosure", "target", "bucket_atom_counts", "implications")


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
    from .knowledge import _witness

    if isinstance(histograms, Bucketization):
        own = histograms.buckets
        buckets = lambda indices: [own[i] for i in indices]
    engine = _session(engine)
    histograms = _checked_counts(histograms, k, engine)[0]
    if buckets is None:
        raise ValidationError("count tuples need buckets= to build a witness")
    ratio, placement = _placed(histograms, k, engine)
    # atom slots per bucket, the target's slot included
    slots = list(placement.atom_counts)
    slots[placement.target_bucket] += 1
    parts = {i: engine.table(histograms[i]).best_partition(c) for i, c in enumerate(slots) if c}
    target, implications = _witness(histograms, parts, placement.target_bucket, buckets, k)
    return DisclosureReport(
        disclosure=1 / (1 + ratio),
        target=target,
        bucket_atom_counts=tuple(slots),
        implications=implications,
    )


def _negated_atoms_series(
    histograms: Sequence[tuple[int, ...]], k: int, engine: Engine
) -> list[Fraction]:
    """The negated-atoms bound for every k' <= k, for k up to saturation.

    Reads each distinct histogram's n and ``rest`` off its session table,
    compares by cross-multiplication, and builds a Fraction per k only.
    """
    best = [(0, 1)] * (k + 1)
    for table in dict.fromkeys(map(engine.table, histograms)):
        rest = table.rest
        top = table.n - rest[1]
        for j in range(k + 1):
            # the top j + 1 counts excluded, the target's count added back
            den = rest[j + 1] + top  # j + 1 <= d_min
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
    engine = _session(None)
    histograms, saturation = _checked_counts(histograms, k, engine)
    return _negated_atoms_series(histograms, min(k, saturation), engine)[-1]

import contextvars
import functools
import importlib
import inspect
import pkgutil
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bucketrisk import (
    Atom,
    Bucketization,
    Engine,
    Knowledge,
    Placement,
    SafetyThreshold,
    ValidationError,
    all_minimal_safe,
    avoidance_probability,
    buckets_at,
    disclosure_at,
    disclosure_by_k,
    exact_posterior,
    histograms,
    knowledge_probability,
    load_hierarchy,
    make_bucket,
    max_disclosure,
    max_disclosure_negated_atoms,
    minimize_across_buckets,
    minimize_within_bucket,
    negation_as_implication,
    partition,
    simple_implication,
)
import bucketrisk
from bucketrisk import engine as engine_module
from bucketrisk.oracle import NEGATED_ATOMS, brute_force_max_disclosure
from conftest import DATA
from helpers import bucketization_from_counts, random_bucketization, random_table_and_hierarchy


def bucket_from_counts(counts):
    values = [f"v{i}" for i, c in enumerate(counts) for _ in range(c)]
    members = [f"p{j}" for j in range(len(values))]
    return make_bucket("b", members, values)


def partitions(total, cap=None):
    """All non-increasing positive tuples summing to ``total``."""
    cap = total if cap is None else cap
    if total == 0:
        yield ()
        return
    for first in range(min(cap, total), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def test_avoidance_goldens(demo_bucketization):
    male = demo_bucketization.buckets[0]  # counts (2, 2, 1)
    assert avoidance_probability(male, []) == 1
    assert avoidance_probability(male, [1]) == Fraction(3, 5)
    assert avoidance_probability(male, [2]) == Fraction(1, 5)
    assert avoidance_probability(male, [1, 1]) == Fraction(3, 10)
    assert avoidance_probability(male, [3]) == 0
    assert avoidance_probability(male, [9]) == 0  # counts past distinct are 0


def test_avoidance_validation(demo_bucketization):
    male = demo_bucketization.buckets[0]
    with pytest.raises(ValidationError):
        avoidance_probability(male, [1, 2])  # increasing
    with pytest.raises(ValidationError):
        avoidance_probability(male, [1] * 6)  # more persons than the bucket
    with pytest.raises(ValidationError):
        avoidance_probability(male, [0])


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_avoidance_equals_world_counting(seed):
    # the closed form against the oracle, on the closed form's own atom layout
    rng = random.Random(seed)
    counts = sorted(
        (rng.randint(1, 4) for _ in range(rng.randint(1, 3))), reverse=True
    )
    bucket = bucket_from_counts(counts)
    b13n = Bucketization(
        (bucket,), tuple(f"v{i}" for i in range(len(counts))) + ("zz",)
    )
    k = rng.randint(0, 3)
    parts = rng.choice(list(partitions(k))) if k else ()
    if len(parts) > bucket.size:
        parts = (k,)
    atoms = [
        Atom(bucket.members[i], bucket.value_at(j))
        for i, p in enumerate(parts)
        for j in range(p)
        if bucket.value_at(j) is not None
    ]
    negations = Knowledge(
        tuple(negation_as_implication(a, b13n.domain) for a in atoms)
    )
    assert avoidance_probability(bucket, parts) == knowledge_probability(
        b13n, negations
    )


def test_minimize_within_goldens(demo_bucketization):
    male = demo_bucketization.buckets[0]
    assert minimize_within_bucket(male, 0) == (1, ())
    assert minimize_within_bucket(male, 1) == (Fraction(3, 5), (1,))
    assert minimize_within_bucket(male, 2) == (Fraction(1, 5), (2,))
    value, parts = minimize_within_bucket(male, 3)
    assert value == 0 and sum(parts) <= 3
    with pytest.raises(ValidationError):
        minimize_within_bucket(male, -1)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_minimize_within_equals_enumeration(seed):
    rng = random.Random(seed)
    counts = sorted(
        (rng.randint(1, 3) for _ in range(rng.randint(1, 4))), reverse=True
    )
    bucket = bucket_from_counts(counts)
    k = rng.randint(0, 4)
    value, parts = minimize_within_bucket(bucket, k)
    explicit = min(
        avoidance_probability(bucket, p)
        for p in partitions(k)
        if len(p) <= bucket.size
    )
    assert value == explicit
    # the reported shape achieves the value (possibly with fewer atoms at 0)
    assert avoidance_probability(bucket, parts) == value
    assert sum(parts) == k or (value == 0 and sum(parts) < k)


def test_minimize_across_goldens(demo_bucketization):
    b = demo_bucketization
    assert minimize_across_buckets(b, 0) == (Fraction(3, 2), Placement(0, (0, 0)))
    assert minimize_across_buckets(b, 1) == (Fraction(1, 2), Placement(0, (1, 0)))
    assert minimize_across_buckets(b, 2) == (Fraction(0), Placement(0, (2, 0)))
    with pytest.raises(ValidationError):
        minimize_across_buckets(b, -1)
    with pytest.raises(ValidationError):
        minimize_across_buckets(Bucketization((), b.domain), 1)
    with pytest.raises(ValidationError):
        max_disclosure_negated_atoms(Bucketization((), b.domain), 1)


def test_max_disclosure_demo_reports(demo_bucketization):
    b = demo_bucketization
    bob_flu = Atom("Bob", "Flu")

    r0 = max_disclosure(b, 0)
    assert r0.disclosure == Fraction(2, 5)
    assert r0.ratio == Fraction(3, 2)
    assert r0.target == bob_flu
    assert r0.implications == ()
    assert r0.bucket_atom_counts == (1, 0)

    r1 = max_disclosure(b, 1)
    assert r1.disclosure == Fraction(2, 3)
    assert r1.target == bob_flu
    assert r1.implications == (
        simple_implication(Atom("Bob", "Lung Cancer"), bob_flu),
    )
    assert r1.bucket_atom_counts == (2, 0)

    r2 = max_disclosure(b, 2)
    assert r2.disclosure == 1
    assert r2.implications == (
        simple_implication(Atom("Bob", "Lung Cancer"), bob_flu),
        simple_implication(Atom("Bob", "Mumps"), bob_flu),
    )
    assert r2.bucket_atom_counts == (3, 0)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_report_invariants(seed):
    rng = random.Random(seed)
    b = random_bucketization(rng)
    k = rng.randint(0, 4)
    report = max_disclosure(b, k)
    assert len(report.implications) == k
    assert report.disclosure == Fraction(1) / (1 + report.ratio)
    assert all(i.consequents == (report.target,) for i in report.implications)
    assert sum(report.bucket_atom_counts) == k + 1
    assert len(report.bucket_atom_counts) == len(b.buckets)
    assert report.antecedents == tuple(i.antecedents[0] for i in report.implications)
    # the witness replays through the exact oracle
    assert (
        exact_posterior(b, Knowledge(report.implications), report.target)
        == report.disclosure
    )


def test_monotone_in_k():
    rng = random.Random(11)
    for _ in range(8):
        b = random_bucketization(rng)
        values = [max_disclosure(b, k).disclosure for k in range(5)]
        assert all(a <= c for a, c in zip(values, values[1:]))
        negated = [max_disclosure_negated_atoms(b, k) for k in range(5)]
        assert all(a <= c for a, c in zip(negated, negated[1:]))
        assert all(n <= v for n, v in zip(negated, values))


def test_single_bucket_saturation():
    bucket = make_bucket(
        "b", [f"p{i}" for i in range(6)], ["x", "x", "y", "y", "z", "z"]
    )
    b = Bucketization((bucket,), ("x", "y", "z"))
    assert max_disclosure(b, 1).disclosure < 1
    assert max_disclosure(b, 2).disclosure == 1
    assert max_disclosure_negated_atoms(b, 2) == 1


def test_k_past_a_byte():
    # back-pointer codes reach 2k+1, past a byte from k = 128
    values = [f"v{i:03d}" for i in range(300)]
    bucket = make_bucket("b", [f"p{i}" for i in range(300)], values)
    b = Bucketization((bucket,), tuple(values))
    assert max_disclosure(b, 128).disclosure == Fraction(1, 300 - 128)


def test_negated_closed_form_matches_oracle():
    rng = random.Random(23)
    for _ in range(10):
        b = random_bucketization(rng, max_tuples=6, max_values=3, min_values=2)
        for k in (0, 1, 2):
            closed = max_disclosure_negated_atoms(b, k)
            value, _, _ = brute_force_max_disclosure(b, k, NEGATED_ATOMS)
            assert closed == value


def test_cache_reuse_across_renamed_buckets(demo_bucketization):
    session = Engine()
    first = max_disclosure(demo_bucketization, 3, engine=session)
    histograms, evaluations = session.histograms, session.within_evaluations
    assert histograms == 2
    renamed = Bucketization(
        tuple(
            make_bucket(
                f"r{i}",
                [f"other{i}_{j}" for j in range(b.size)],
                [v for v, c in b.histogram for _ in range(c)],
            )
            for i, b in enumerate(demo_bucketization.buckets)
        ),
        demo_bucketization.domain,
    )
    second = max_disclosure(renamed, 3, engine=session)
    assert second.disclosure == first.disclosure
    assert session.within_evaluations == evaluations
    assert session.histograms == histograms


def test_memo_bounds():
    rng = random.Random(5)
    for _ in range(6):
        b = random_bucketization(rng)
        for k in (1, 2, 5):
            session = Engine()
            max_disclosure(b, k, engine=session)
            for entries in session.within_entries.values():
                assert entries <= 27 * max(1, k) ** 3
            assert session.across_entries == 2 * len(b.buckets) * (k + 1)


def test_sessions_keep_their_own_counters(demo_bucketization):
    b, m = demo_bucketization, len(demo_bucketization.buckets)
    mine, other = Engine(), Engine()
    max_disclosure(b, 3, engine=mine)
    assert mine.across_entries == 2 * m * 4
    disclosure_by_k(b, 1, engine=other)
    max_disclosure(b, 5)
    disclosure_by_k(b, 2)
    assert mine.across_entries == 2 * m * 4
    assert other.across_entries == 2 * m * 2
    max_disclosure(b, 3, engine=mine)  # summed over the session's sweeps
    assert mine.across_entries == 2 * 2 * m * 4


def test_session_holds_only_its_histograms():
    max_disclosure(bucketization_from_counts([{"a": 5, "b": 1}]), 4)
    b = bucketization_from_counts(
        [{"a": 2, "b": 1}, {"c": 2, "d": 1}, {"a": 1, "b": 1}, {"c": 3}]
    )
    session = Engine()
    max_disclosure(b, 2, engine=session)
    assert set(session.tables) == {(2, 1), (1, 1), (3,)}
    assert session.histograms == 3


def test_engine_module_holds_no_mutable_state():
    mutable = [
        name
        for name, value in vars(engine_module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    ]
    assert mutable == []


def test_installed_session_serves_calls_without_engine(demo_bucketization):
    b, m = demo_bucketization, len(demo_bucketization.buckets)
    outside = engine_module.cache_info()

    def calls():
        max_disclosure(b, 3)
        assert engine_module.cache_info() is None  # a one-shot call keeps nothing
        engine_module.clear_cache()
        installed = engine_module.cache_info()
        max_disclosure(b, 3)
        evaluations = installed.within_evaluations
        assert installed.histograms > 0 and evaluations > 0
        minimize_across_buckets(b, 3)
        assert installed.within_evaluations == evaluations  # its tables are reused
        max_disclosure(b, 3, engine=Engine())
        assert installed.across_entries == 2 * 2 * m * 4
        engine_module.clear_cache()
        assert engine_module.cache_info() is not installed
        assert engine_module.cache_info().histograms == 0

    contextvars.Context().run(calls)
    assert engine_module.cache_info() is outside  # the install stayed in its context


def test_lattice_search_builds_each_histogram_once(monkeypatch, demo_table):
    built = Counter()

    class CountingTable(engine_module._BucketTable):
        def __init__(self, counts):
            built[counts] += 1
            super().__init__(counts)

    monkeypatch.setattr(engine_module, "_BucketTable", CountingTable)
    hierarchy = load_hierarchy(DATA / "clinic-hierarchy.json")
    found = all_minimal_safe(demo_table, hierarchy, SafetyThreshold(Fraction(7, 10), 1))
    assert found == [(1, 1, 0)]
    assert built and max(built.values()) == 1


def _eager_sweep(histograms, k, engine):
    """The across-bucket sweep that fills k + 2 within-bucket minima per
    bucket up front: the reference for the bounded fill of ``_across_sweep``."""
    m = len(histograms)
    wb, shape = [], []
    for counts in histograms:
        table = engine.table(counts)
        wb.append([table.minimize(0, h, h) for h in range(k + 2)])
        shape.append((table.n, counts[0]))
    t_next = [(1, 1)] + [None] * k
    f_next = [None] * (k + 1)
    choice_t, choice_f = [[]] * m, [[]] * m
    for i in range(m - 1, -1, -1):
        wbi = wb[i]
        nb, top = shape[i]
        t_row, f_row = [None] * (k + 1), [None] * (k + 1)
        ct, cf = [0] * (k + 1), [0] * (k + 1)
        for h in range(k + 1):
            bn = bd = None
            bch = 0
            for hp in range(h + 1):
                sub = t_next[h - hp]
                if sub is None:
                    continue
                wn, wd = wbi[hp]
                if wn == 0:
                    cn, cd = 0, 1
                elif hp == 0:
                    cn, cd = sub
                else:
                    cn, cd = wn * sub[0], wd * sub[1]
                if bn is None or cn * bd < bn * cd:
                    bn, bd, bch = cn, cd, hp
                    if cn == 0:
                        break
            if bn is not None:
                t_row[h], ct[h] = (bn, bd), bch
            bn = bd = None
            bcf = 0
            for hp in range(h + 1):
                sub = t_next[h - hp]
                if sub is not None:
                    wn, wd = wbi[hp + 1]
                    cn, cd = wn * nb * sub[0], wd * top * sub[1]
                    if bn is None or cn * bd < bn * cd:
                        bn, bd, bcf = cn, cd, hp * 2 + 1
                sub = f_next[h - hp]
                if sub is not None:
                    wn, wd = wbi[hp]
                    if wn == 0:
                        cn, cd = 0, 1
                    elif hp == 0:
                        cn, cd = sub
                    else:
                        cn, cd = wn * sub[0], wd * sub[1]
                    if bn is None or cn * bd < bn * cd:
                        bn, bd, bcf = cn, cd, hp * 2
            if bn is not None:
                f_row[h], cf[h] = (bn, bd), bcf
        t_next, f_next = t_row, f_row
        choice_t[i], choice_f[i] = ct, cf
    engine.across_entries += 2 * m * (k + 1)
    return f_next, choice_t, choice_f


def _keys_capped_by_rem(session):
    return all(
        cap <= rem
        for table in session.tables.values()
        for keys in (table.memo, table.choice)
        for _, cap, rem in keys
    )


# 1-4 distinct values per bucket, so the row below a bucket reaches 0 at varied h
_counts = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
    lambda counts: tuple(sorted(counts, reverse=True))
)
_histograms = st.lists(_counts, min_size=1, max_size=5)
# up to 24 buckets drawn from a pool of 1-3 histograms, so some repeat > k times
_pooled_histograms = st.lists(_counts, min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=24)
)


def _from_counts(histograms):
    return bucketization_from_counts(
        [{f"v{j}": c for j, c in enumerate(counts)} for counts in histograms]
    )


@given(histograms=_histograms, k=st.integers(0, 15))
@settings(max_examples=150, deadline=None)
def test_bounded_fill_matches_eager_sweep(histograms, k):
    lazy, eager = Engine(), Engine()
    got = engine_module._across_sweep(histograms, k, lazy)
    assert got == _eager_sweep(histograms, k, eager)
    assert lazy.across_entries == eager.across_entries
    assert _keys_capped_by_rem(lazy)

    b = bucketization_from_counts(
        [{f"v{j}": c for j, c in enumerate(counts)} for counts in histograms]
    )
    lazy, eager = Engine(), Engine()
    report, curves = max_disclosure(b, k, engine=lazy), disclosure_by_k(b, k, engine=lazy)
    with mock.patch.object(engine_module, "_across_sweep", _eager_sweep):
        assert report == max_disclosure(b, k, engine=eager)
        assert curves == disclosure_by_k(b, k, engine=eager)
    assert lazy.across_entries == eager.across_entries
    assert _keys_capped_by_rem(lazy)


@given(histograms=_pooled_histograms, k=st.integers(0, 10))
@example(histograms=[(3,), (3,)], k=0)  # two minimal f-row candidates: code 1 wins
@settings(max_examples=200, deadline=None)
def test_repeated_histograms_match_eager_sweep(histograms, k):
    lazy, eager = Engine(), Engine()
    got = engine_module._across_sweep(histograms, k, lazy)
    assert got == _eager_sweep(histograms, k, eager)
    assert lazy.across_entries == eager.across_entries
    assert lazy.within_evaluations <= eager.within_evaluations

    b = _from_counts(histograms)
    lazy, eager = Engine(), Engine()
    report, curves = max_disclosure(b, k, engine=lazy), disclosure_by_k(b, k, engine=lazy)
    with mock.patch.object(engine_module, "_across_sweep", _eager_sweep):
        assert report == max_disclosure(b, k, engine=eager)
        assert curves == disclosure_by_k(b, k, engine=eager)
    assert lazy.across_entries == eager.across_entries
    assert lazy.within_evaluations <= eager.within_evaluations


def test_repeat_rows_counts_buckets_served_without_a_scan():
    # bucket i has 39 - i copies after it; those with more than 5 are served
    session = Engine()
    max_disclosure(_from_counts([(3, 2, 1)] * 40), 5, engine=session)
    assert session.repeat_rows == 34
    # no histogram occurs more than k = 2 times after any bucket
    session = Engine()
    max_disclosure(_from_counts([(2, 1)] * 3 + [(3, 1)] * 3), 2, engine=session)
    assert session.repeat_rows == 0


def test_last_bucket_sweep_at_large_k_matches_eager_sweep(demo_bucketization):
    # the clinic table by Sex: below the last bucket only hp = h is feasible
    histograms = [b.counts for b in demo_bucketization.buckets]
    assert histograms == [(2, 2, 1), (2, 1, 1, 1)]
    got = engine_module._across_sweep(histograms, 300, Engine())
    assert got == _eager_sweep(histograms, 300, Engine())


@given(histograms=_histograms, k=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_count_tuples_and_bucketization_agree(histograms, k):
    b = _from_counts(histograms)
    assert minimize_across_buckets(histograms, k) == minimize_across_buckets(b, k)
    assert max_disclosure_negated_atoms(histograms, k) == max_disclosure_negated_atoms(b, k)


def test_count_tuple_entry_points_keep_their_errors():
    calls = (
        (minimize_across_buckets, "k"),
        (functools.partial(max_disclosure, buckets=list), "k"),
        (max_disclosure_negated_atoms, "k"),
        (disclosure_by_k, "k_max"),
        (disclosure_at, "k"),
    )
    for call, name in calls:
        with pytest.raises(ValidationError, match="^empty bucketization$"):
            call([], 1)
        for histograms in ([(2, 1)], []):  # k is checked before the input
            with pytest.raises(ValidationError, match=f"^{name} must be non-negative$"):
                call(histograms, -1)


def test_saturated_sweep_fills_fewer_minima():
    # the last bucket's 2 values zero the row below the others from h = 2 on
    b = bucketization_from_counts(
        [{"a": 3, "b": 2, "c": 2, "d": 1}, {"a": 2, "b": 2, "c": 1, "d": 1, "e": 1},
         {"x": 2, "y": 1}]
    )
    k = 12
    session, eager = Engine(), Engine()
    report = max_disclosure(b, k, engine=session)
    for bucket in b.buckets:
        table = eager.table(bucket.counts)
        for h in range(k + 2):
            table.minimize(0, h, h)
    assert report.disclosure == 1
    assert 0 < session.within_evaluations < eager.within_evaluations


@given(histograms=_histograms, k=st.integers(0, 15))
@settings(max_examples=150, deadline=None)
def test_disclosure_at_matches_the_other_readers(histograms, k):
    b = bucketization_from_counts(
        [{f"v{j}": c for j, c in enumerate(counts)} for counts in histograms]
    )
    expected = max_disclosure(b, k).disclosure
    for form in (b, histograms):
        assert disclosure_at(form, k) == expected == disclosure_by_k(form, k)[0][k]
        if k >= min(map(len, histograms)) - 1:
            # saturated: the answer is 1 and no sweep runs, where
            # disclosure_by_k still sweeps the columns below d_min - 1
            session = Engine()
            assert disclosure_at(form, k, engine=session) == 1
            assert session.across_entries == 0 and session.histograms == 0


@given(histograms=_histograms, k_max=st.integers(0, 15))
@settings(max_examples=150, deadline=None)
def test_disclosure_by_k_sweeps_no_column_known_to_be_1(histograms, k_max):
    # both series are 1 from k = d_min - 1 on, so the sweep stops at d_min - 2
    cap = min(k_max, min(map(len, histograms)) - 2)
    session = Engine()
    implications, negations = disclosure_by_k(histograms, k_max, engine=session)
    assert session.across_entries == 2 * len(histograms) * (cap + 1)
    assert (session.histograms == 0) == (cap < 0)
    assert implications[cap + 1:] == negations[cap + 1:] == [1] * (k_max - cap)


def test_no_module_but_the_engine_holds_its_private_functions():
    private = {
        id(value)
        for name, value in vars(engine_module).items()
        if name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == engine_module.__name__
    }
    modules = [bucketrisk] + [
        importlib.import_module(f"bucketrisk.{info.name}")
        for info in pkgutil.iter_modules(bucketrisk.__path__)
    ]
    held = [
        f"{module.__name__}.{name}"
        for module in modules
        if module is not engine_module
        for name, value in vars(module).items()
        if id(value) in private
    ]
    assert private and held == []


@given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_witness_from_histograms_builds_partition_buckets(seed, k):
    rng = random.Random(seed)
    table, _ = random_table_and_hierarchy(rng)
    by = rng.sample(table.attributes, rng.randint(0, len(table.attributes)))
    expected = partition(table, by=by)
    built = []

    def build(indices):
        buckets = buckets_at(table, indices, by=by)
        built.extend(zip(indices, buckets))
        return buckets

    report = max_disclosure(histograms(table, by=by), k, build)
    assert report == max_disclosure(expected, k)
    assert 1 <= len(built) <= k + 1
    assert all(bucket == expected.buckets[i] for i, bucket in built)


def test_witness_from_count_tuples_needs_matching_buckets(demo_bucketization):
    counts = [b.counts for b in demo_bucketization.buckets]
    with pytest.raises(ValidationError, match="^count tuples need buckets= to build a witness$"):
        max_disclosure(counts, 1)
    swapped = lambda indices: [demo_bucketization.buckets[1 - i] for i in indices]
    with pytest.raises(ValidationError, match="^bucket 'F' does not match histogram 0$"):
        max_disclosure(counts, 1, swapped)

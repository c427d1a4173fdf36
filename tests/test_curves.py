import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bucketrisk import (
    CurvePoint,
    SkewedSingleBucketFamily,
    ValidationError,
    disclosure_vs_k,
    emit_csv,
    entropy_vs_disclosure,
    max_disclosure,
    max_disclosure_negated_atoms,
)
from helpers import VALUES, bucketization_from_counts, random_bucketization, read_curve_csv


def series(points, name):
    return {p.x: p.value for p in points if p.series == name}


def test_disclosure_vs_k_demo(demo_bucketization):
    points = disclosure_vs_k(demo_bucketization, 3)
    impl = series(points, "implications")
    neg = series(points, "negations")
    assert impl == {0: Fraction(2, 5), 1: Fraction(2, 3), 2: 1, 3: 1}
    assert neg == {0: Fraction(2, 5), 1: Fraction(2, 3), 2: 1, 3: 1}
    with pytest.raises(ValidationError):
        disclosure_vs_k(demo_bucketization, -1)


def test_disclosure_vs_k_properties():
    rng = random.Random(13)
    for _ in range(6):
        b = random_bucketization(rng)
        points = disclosure_vs_k(b, 4)
        impl = series(points, "implications")
        neg = series(points, "negations")
        assert set(impl) == set(neg) == set(range(5))
        for k in range(4):
            assert impl[k] <= impl[k + 1]
            assert neg[k] <= neg[k + 1]
        for k in range(5):
            assert neg[k] <= impl[k]


def per_k_reference(bucketization, k_max):
    """The plain per-k loop: one optimizer call per k, closed-form negations."""
    points = [
        CurvePoint("implications", k, max_disclosure(bucketization, k).disclosure)
        for k in range(k_max + 1)
    ]
    for k in range(k_max + 1):
        negated = max(
            Fraction(b.counts[0], b.size - sum(b.counts[: k + 1]) + b.counts[0])
            for b in bucketization.buckets
        )
        assert max_disclosure_negated_atoms(bucketization, k) == negated
        points.append(CurvePoint("negations", k, negated))
    return points


@st.composite
def shared_histogram_bucketizations(draw):
    # buckets drawn from a small pool of histograms, so several share one;
    # one-value histograms make buckets that are saturated at k = 0
    pool = draw(
        st.lists(
            st.lists(st.integers(1, 3), min_size=1, max_size=len(VALUES)),
            min_size=1,
            max_size=3,
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))
    return bucketization_from_counts(
        [dict(zip(VALUES, pool[i])) for i in picks], domain=VALUES
    )


@given(b13n=shared_histogram_bucketizations(), k_max=st.integers(0, 15))
@settings(max_examples=100, deadline=None)
def test_disclosure_vs_k_equals_per_k_reference(b13n, k_max):
    points = disclosure_vs_k(b13n, k_max)
    reference = per_k_reference(b13n, k_max)
    assert points == reference
    got, expected = io.StringIO(), io.StringIO()
    emit_csv(points, got)
    emit_csv(reference, expected)
    assert got.getvalue() == expected.getvalue()


def test_entropy_vs_disclosure_equals_per_k_reference():
    # unsorted and repeated k keep their order and their repeats
    family = SkewedSingleBucketFamily(domain_size=4, per_value=2)
    k_list = [3, 0, 2, 2]
    expected = []
    for k in k_list:
        best = {}
        for h, counts in family.members():
            b13n = bucketization_from_counts([{f"v{j}": c for j, c in enumerate(counts)}])
            value = max_disclosure(b13n, k).disclosure
            if h not in best or value < best[h]:
                best[h] = value
        expected += [CurvePoint(f"k={k}", h, v) for h, v in best.items()]
    assert entropy_vs_disclosure(family, k_list) == expected


def test_family_members():
    family = SkewedSingleBucketFamily(domain_size=3, per_value=3)
    members = list(family.members())
    assert len(members) == 4
    h0, uniform = members[0]
    assert abs(h0 - math.log2(3)) < 1e-12
    assert uniform == (3, 3, 3)
    h_last, pure = members[-1]
    assert h_last == 0.0
    assert pure == (9,)  # zero counts are dropped
    # entropy falls while the population stays fixed
    assert [h for h, _ in members] == sorted((h for h, _ in members), reverse=True)
    assert {sum(counts) for _, counts in members} == {9}
    with pytest.raises(ValidationError):
        SkewedSingleBucketFamily(domain_size=0, per_value=3)
    with pytest.raises(ValidationError):
        SkewedSingleBucketFamily(domain_size=3, per_value=0)


def test_entropy_vs_disclosure_goldens():
    family = SkewedSingleBucketFamily(domain_size=3, per_value=3)
    points = entropy_vs_disclosure(family, [0, 1])
    k0 = series(points, "k=0")
    assert k0[0.0] == 1  # pure bucket discloses outright
    assert k0[math.log2(3)] == Fraction(1, 3)  # uniform: best is 1/m
    k1 = series(points, "k=1")
    ordered = [k1[h] for h in sorted(k1)]
    assert ordered == [1, Fraction(28, 29), Fraction(10, 13), Fraction(1, 2)]
    with pytest.raises(ValidationError):
        entropy_vs_disclosure(family, [-1])
    # 5 raised TypeError, and an iterator, read three times, gave []
    for k_list in (5, iter([1]), None):
        with pytest.raises(ValidationError, match="^k_list must be a list or a tuple, not "):
            entropy_vs_disclosure(family, k_list)
    assert entropy_vs_disclosure(family, (1,)) == entropy_vs_disclosure(family, [1])
    with pytest.raises(ValidationError, match="^histograms must be a list or a tuple, not int$"):
        disclosure_vs_k(5, 1)


def test_entropy_curve_monotone():
    family = SkewedSingleBucketFamily(domain_size=4, per_value=3)
    points = entropy_vs_disclosure(family, [0, 1, 2])
    for k in (0, 1, 2):
        data = series(points, f"k={k}")
        values = [data[h] for h in sorted(data)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]  # strictly falls over the full sweep


def test_emit_csv_format_and_order(tmp_path):
    points = [
        CurvePoint("b", 1, Fraction(1, 3)),
        CurvePoint("a", 2, Fraction(2, 5)),
        CurvePoint("b", 0, Fraction(1, 1)),
    ]
    out = io.StringIO()
    emit_csv(points, out)
    assert out.getvalue() == (
        "series,x,num,den,decimal\n"
        "a,2,2,5,0.4\n"
        "b,0,1,1,1.0\n"
        "b,1,1,3,0.3333333333333333\n"
    )
    path = tmp_path / "curve.csv"
    emit_csv(points, path)
    assert path.read_text() == out.getvalue()


def test_emit_csv_deterministic(demo_bucketization):
    points = disclosure_vs_k(demo_bucketization, 2)
    a, b = io.StringIO(), io.StringIO()
    emit_csv(points, a)
    emit_csv(list(reversed(points)), b)
    assert a.getvalue() == b.getvalue()


def test_csv_roundtrip():
    family = SkewedSingleBucketFamily(domain_size=3, per_value=2)
    points = entropy_vs_disclosure(family, [0, 1])
    out = io.StringIO()
    emit_csv(points, out)
    back = read_curve_csv(out.getvalue())
    assert sorted(back, key=lambda p: (p.series, p.x)) == sorted(
        points, key=lambda p: (p.series, p.x)
    )
    # float x survives exactly; exact rationals survive exactly
    assert {type(p.x) for p in back} == {float}


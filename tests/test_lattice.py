import io
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import bucketrisk.lattice as lattice_module
from bucketrisk import (
    BudgetExceededError,
    Hierarchy,
    SafetyThreshold,
    ValidationError,
    all_minimal_safe,
    apply,
    binary_search_chain,
    height_utility,
    is_safe,
    leq,
    load_hierarchy,
    load_table,
    max_disclosure,
    partition,
    select_by_utility,
)
from conftest import DATA
from helpers import random_table_and_hierarchy


@pytest.fixture(scope="module")
def demo_hierarchy():
    return load_hierarchy(DATA / "clinic-hierarchy.json")


def as_partition(bucketization):
    return {frozenset(b.members) for b in bucketization.buckets}


def test_load_demo_hierarchy(demo_hierarchy):
    h = demo_hierarchy
    assert h.attributes == ("Zip", "Age", "Sex")
    assert h.top() == (1, 1, 1)
    assert h.bottom() == (0, 0, 0)
    assert h.size() == 8
    assert h.label("Zip", 1, "14850") == "1485*"
    assert h.label("Age", 1, "27") == "2*"
    assert h.label("Sex", 1, "M") == "*"
    assert h.label("Age", 0, "27") == "27"
    with pytest.raises(ValidationError):
        h.label("Zip", 1, "99999")
    with pytest.raises(ValidationError):
        h.check_node((0, 0))
    with pytest.raises(ValidationError):
        h.check_node((2, 0, 0))


def test_hierarchy_must_refine():
    bad = {
        "A": [{"a": "g", "b": "g", "c": "h"}, "identity"],
    }
    with pytest.raises(ValidationError):
        load_hierarchy(io.StringIO(json.dumps(bad)))
    good = {
        "A": [{"a": "g", "b": "g", "c": "h"}, "suppress"],
    }
    assert load_hierarchy(io.StringIO(json.dumps(good))).max_level("A") == 2


def test_hierarchy_must_stay_suppressed():
    # above a suppress level every raw value shares one label
    for split in (
        {"Zip": ["suppress", {"a": "x", "b": "y"}]},
        {"Zip": ["suppress", "identity"]},
        {"Zip": [{"a": "g", "b": "g"}, "suppress", {"a": "x", "b": "y"}]},
    ):
        with pytest.raises(ValidationError, match="labeled '\\*' at level .* split apart"):
            load_hierarchy(io.StringIO(json.dumps(split)))
    for whole in (
        {"Zip": ["suppress", "suppress"]},
        {"Zip": ["suppress", {"a": "x", "b": "x"}]},
    ):
        assert load_hierarchy(io.StringIO(json.dumps(whole))).max_level("Zip") == 2


def test_load_hierarchy_rejects_deep_nesting():
    with pytest.raises(ValidationError, match="hierarchy is not valid JSON"):
        load_hierarchy(io.StringIO("[" * 200_000))


def test_hierarchy_level_key_sets_must_agree():
    bad = {"A": [{"a": "g", "b": "g"}, {"a": "x", "b": "x", "c": "x"}]}
    with pytest.raises(ValidationError):
        load_hierarchy(io.StringIO(json.dumps(bad)))


def test_load_hierarchy_rejects_malformed():
    for text in ["not json", "[]", "{}", '{"A": "suppress"}', '{"A": [3]}',
                 '{"A": [{"x": 5}]}']:
        with pytest.raises(ValidationError):
            load_hierarchy(io.StringIO(text))


def test_apply_nodes(demo_table, demo_hierarchy, demo_bucketization):
    sexes = apply(demo_table, demo_hierarchy, (1, 1, 0))
    assert as_partition(sexes) == as_partition(demo_bucketization)
    by_id = {b.bucket_id: b for b in sexes.buckets}
    assert by_id["1485*|2*|M"].histogram == demo_bucketization.buckets[0].histogram

    raw = apply(demo_table, demo_hierarchy, (0, 0, 0))
    assert len(raw.buckets) == 10

    merged = apply(demo_table, demo_hierarchy, (1, 1, 1))
    assert len(merged.buckets) == 1
    assert merged.buckets[0].size == 10
    assert merged.buckets[0].bucket_id == "1485*|2*|*"


def test_apply_requires_table_attributes(demo_table):
    h = Hierarchy(("Nope",), {"Nope": ("suppress",)})
    with pytest.raises(ValidationError):
        apply(demo_table, h, (1,))


def test_hierarchy_levels_cannot_be_changed_after_its_checks():
    # ("suppress", "identity") fails the refinement check, so it must not
    # get in by assignment either
    h = Hierarchy(("Sex",), {"Sex": ("suppress",)})
    with pytest.raises(TypeError):
        h.levels["Sex"] = ("suppress", "identity")
    assert h.max_level("Sex") == 1
    with pytest.raises(ValidationError, match="split apart at level 2"):
        Hierarchy(("Sex",), {"Sex": ("suppress", "identity")})


def test_hierarchy_keeps_its_own_copy_of_the_callers_maps():
    sex = {"M": "*", "F": "*"}
    levels = {"Sex": (sex,)}
    h = Hierarchy(("Sex",), levels)
    sex["M"] = "M"
    levels["Sex"] = ("identity",)
    assert h.label("Sex", 1, "M") == "*"
    assert h.levels == {"Sex": ({"M": "*", "F": "*"},)}
    with pytest.raises(TypeError):
        h.levels["Sex"][0]["M"] = "M"


def test_leq(demo_table, demo_hierarchy, demo_bucketization):
    singletons = apply(demo_table, demo_hierarchy, (0, 0, 0))
    merged = apply(demo_table, demo_hierarchy, (1, 1, 1))
    assert leq(singletons, demo_bucketization)
    assert leq(demo_bucketization, merged)
    assert leq(singletons, merged)
    assert leq(merged, merged)
    assert not leq(merged, demo_bucketization)
    assert not leq(demo_bucketization, singletons)

    crossing = partition(demo_table, by=("Zip",))
    assert not leq(demo_bucketization, crossing)
    assert not leq(crossing, demo_bucketization)

    other = partition(
        load_table(io.StringIO("S,Name\nx,A\ny,B\n"), "S", id_column="Name"),
        by=(),
    )
    with pytest.raises(ValidationError):
        leq(other, demo_bucketization)


def test_safety_threshold_validation():
    SafetyThreshold(Fraction(1), 0)
    SafetyThreshold(Fraction(0), 3)
    with pytest.raises(ValidationError):
        SafetyThreshold(Fraction(3, 2), 1)
    with pytest.raises(ValidationError):
        SafetyThreshold(Fraction(-1, 2), 1)
    with pytest.raises(ValidationError):
        SafetyThreshold(Fraction(1, 2), -1)


def test_is_safe_is_strict(demo_bucketization):
    # k=1 worst case on the sex split is exactly 2/3
    assert max_disclosure(demo_bucketization, 1).disclosure == Fraction(2, 3)
    assert is_safe(demo_bucketization, SafetyThreshold(Fraction(7, 10), 1))
    assert not is_safe(demo_bucketization, SafetyThreshold(Fraction(2, 3), 1))


def test_binary_search_chain_demo(demo_table, demo_hierarchy):
    chain = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    got = binary_search_chain(
        demo_table, demo_hierarchy, chain, SafetyThreshold(Fraction(7, 10), 1)
    )
    assert got == (1, 1, 0)
    assert (
        binary_search_chain(
            demo_table, demo_hierarchy, chain, SafetyThreshold(Fraction(1, 100), 1)
        )
        is None
    )
    with pytest.raises(ValidationError):
        binary_search_chain(
            demo_table,
            demo_hierarchy,
            [(1, 0, 0), (0, 1, 0)],
            SafetyThreshold(Fraction(1, 2), 1),
        )
    with pytest.raises(ValidationError):
        binary_search_chain(
            demo_table, demo_hierarchy, [], SafetyThreshold(Fraction(1, 2), 1)
        )


def test_binary_search_matches_linear_scan():
    rng = random.Random(31)
    for _ in range(6):
        table, hierarchy = random_table_and_hierarchy(rng)
        node = list(hierarchy.bottom())
        chain = [tuple(node)]
        while tuple(node) != hierarchy.top():
            openings = [
                i
                for i, a in enumerate(hierarchy.attributes)
                if node[i] < hierarchy.max_level(a)
            ]
            node[rng.choice(openings)] += 1
            chain.append(tuple(node))
        for k in (0, 1):
            values = [
                max_disclosure(apply(table, hierarchy, n), k).disclosure
                for n in chain
            ]
            for c in (sorted(values)[len(values) // 2], Fraction(1)):
                threshold = SafetyThreshold(c, k)
                expected = next(
                    (n for n, v in zip(chain, values) if v < c), None
                )
                got = binary_search_chain(table, hierarchy, chain, threshold)
                assert got == expected


def test_all_minimal_safe_demo(demo_table, demo_hierarchy):
    got = all_minimal_safe(
        demo_table, demo_hierarchy, SafetyThreshold(Fraction(7, 10), 1)
    )
    assert got == [(1, 1, 0)]
    assert select_by_utility(got) == (1, 1, 0)


def antichain_fixture():
    table = load_table(
        io.StringIO(
            "id,X,Y,S\np1,a,y0,s\np2,b,y0,t\np3,a,y2,t\np4,b,y2,s\n"
        ),
        "S",
        id_column="id",
    )
    hierarchy = Hierarchy(
        ("X", "Y"),
        {
            "X": ("suppress",),
            "Y": ({"y0": "p", "y2": "q"}, "suppress"),
        },
    )
    return table, hierarchy


def test_all_minimal_safe_antichain_example():
    table, hierarchy = antichain_fixture()
    got = all_minimal_safe(table, hierarchy, SafetyThreshold(Fraction(3, 5), 0))
    assert got == [(1, 0), (0, 2)]
    assert select_by_utility(got) == (1, 0)


def exhaustive_minimal(table, hierarchy, threshold):
    nodes = list(hierarchy.nodes())
    safe = {
        n: is_safe(apply(table, hierarchy, n), threshold) for n in nodes
    }
    strictly_below = lambda a, b: a != b and all(x <= y for x, y in zip(a, b))
    return sorted(
        (
            n
            for n in nodes
            if safe[n] and not any(safe[m] and strictly_below(m, n) for m in nodes)
        ),
        key=lambda n: (sum(n), n),
    )


def test_all_minimal_safe_matches_exhaustive():
    rng = random.Random(47)
    for _ in range(8):
        table, hierarchy = random_table_and_hierarchy(rng)
        samples = [
            max_disclosure(apply(table, hierarchy, n), 1).disclosure
            for n in hierarchy.nodes()
        ]
        for k in (0, 1):
            for c in (sorted(samples)[len(samples) // 2], Fraction(1)):
                threshold = SafetyThreshold(c, k)
                got = all_minimal_safe(table, hierarchy, threshold)
                assert got == exhaustive_minimal(table, hierarchy, threshold)
                # result is an antichain of safe nodes
                for n in got:
                    assert is_safe(apply(table, hierarchy, n), threshold)
                for a in got:
                    for b in got:
                        if a != b:
                            assert any(x > y for x, y in zip(a, b))


def test_apply_preserves_order():
    rng = random.Random(59)
    for _ in range(4):
        table, hierarchy = random_table_and_hierarchy(rng)
        nodes = list(hierarchy.nodes())
        applied = {n: apply(table, hierarchy, n) for n in nodes}
        for a in nodes:
            for b in nodes:
                if all(x <= y for x, y in zip(a, b)):
                    assert leq(applied[a], applied[b])


def test_all_minimal_safe_budget(demo_table, demo_hierarchy):
    with pytest.raises(BudgetExceededError) as e:
        all_minimal_safe(
            demo_table,
            demo_hierarchy,
            SafetyThreshold(Fraction(1, 2), 1),
            budget=4,
        )
    assert e.value.count == 8


def test_select_by_utility():
    assert height_utility((1, 2)) == (3, (1, 2))
    assert select_by_utility([(2, 0), (0, 2), (1, 1)]) == (0, 2)
    assert select_by_utility([(1, 0, 0)]) == (1, 0, 0)
    with pytest.raises(ValidationError):
        select_by_utility([])


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_rollup_equals_apply(seed):
    table, hierarchy = random_table_and_hierarchy(random.Random(seed))
    bottom = lattice_module._bottom_tallies(table, hierarchy)
    for node in hierarchy.nodes():
        applied = apply(table, hierarchy, node)
        histograms = lattice_module._rollup(bottom, hierarchy, node)
        assert histograms == [b.counts for b in applied.buckets]  # same order, too
        for k in range(4):
            disclosure = max_disclosure(applied, k).disclosure
            for c in (disclosure, (disclosure + 1) / 2, Fraction(1)):
                threshold = SafetyThreshold(c, k)
                expected = disclosure < c
                assert is_safe(histograms, threshold) == expected
                assert is_safe(applied, threshold) == expected


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=0, max_value=2),
    c=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1)]),
)
@settings(max_examples=60, deadline=None)
def test_search_rolls_up_from_a_child_like_from_the_bottom(seed, k, c):
    # c = 0 evaluates every node; c = 1 finds safe nodes and skips above them
    table, hierarchy = random_table_and_hierarchy(random.Random(seed))
    threshold = SafetyThreshold(c, k)
    with mock.patch.object(lattice_module, "is_safe", wraps=is_safe) as spy:
        got = all_minimal_safe(table, hierarchy, threshold)
    assert got == exhaustive_minimal(table, hierarchy, threshold)
    # the search evaluates every node but those strictly above a minimal one
    evaluated = [
        node
        for node in sorted(hierarchy.nodes(), key=height_utility)
        if not any(m != node and all(x >= y for x, y in zip(node, m)) for m in got)
    ]
    bottom = lattice_module._bottom_tallies(table, hierarchy)
    expected = [lattice_module._rollup(bottom, hierarchy, node) for node in evaluated]
    assert [call.args[0] for call in spy.call_args_list] == expected  # same order, too
    if c == 0:
        assert len(evaluated) == hierarchy.size()


def missing_value_fixture():
    # record p0 fails on B and record p1 on A, so record order picks B
    table = load_table(
        io.StringIO("id,A,B,S\np0,a1,bX,s\np1,aX,b1,t\np2,a1,b1,t\n"),
        "S",
        id_column="id",
    )
    hierarchy = Hierarchy(
        ("A", "B"),
        {"A": ({"a1": "g", "a2": "g"},), "B": ({"b1": "h", "b2": "h"},)},
    )
    return table, hierarchy


SEARCH_ERRORS = {
    "missing-value": "attribute 'B': value 'bX' missing from level 1",
    "missing-attribute": "hierarchy attribute 'Nope' not in table",
    # a map above a level whose labels no longer name the raw value 'aX'
    "map-above-identity": "attribute 'A': value 'aX' missing from level 2",
    "map-above-suppress": "attribute 'A': value 'aX' missing from level 2",
}

SEARCH_ERROR_HIERARCHIES = {
    "missing-attribute": Hierarchy(
        ("A", "Nope"), {"A": ("suppress",), "Nope": ("suppress",)}
    ),
    "map-above-identity": Hierarchy(
        ("A", "B"), {"A": ("identity", {"a1": "g", "a2": "g"}), "B": ("suppress",)}
    ),
    "map-above-suppress": Hierarchy(
        ("A", "B"), {"A": ("suppress", {"a1": "g", "a2": "g"}), "B": ("suppress",)}
    ),
}


@pytest.mark.parametrize("case", list(SEARCH_ERRORS))
def test_search_errors_match_apply(case):
    table, hierarchy = missing_value_fixture()
    hierarchy = SEARCH_ERROR_HIERARCHIES.get(case, hierarchy)
    never_safe = SafetyThreshold(Fraction(0), 1)  # no pruning: every node is evaluated

    def first_error(nodes):
        for node in nodes:
            try:
                apply(table, hierarchy, node)
            except ValidationError as exc:
                return str(exc)
        raise AssertionError("no node fails")

    order = sorted(hierarchy.nodes(), key=lambda n: (sum(n), n))
    with pytest.raises(ValidationError) as e:
        all_minimal_safe(table, hierarchy, never_safe)
    assert str(e.value) == first_error(order) == SEARCH_ERRORS[case]
    # a chain evaluates its top node first
    chain = [hierarchy.bottom(), hierarchy.top()]
    with pytest.raises(ValidationError) as e:
        binary_search_chain(table, hierarchy, chain, never_safe)
    assert str(e.value) == first_error([hierarchy.top()]) == SEARCH_ERRORS[case]

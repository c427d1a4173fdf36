"""Every public call that takes a count refuses a bad one the same way.

One table names each call, the argument as its message names it, and the
least value it takes. A value of the wrong type, or below that least value,
raises ``ValidationError`` with the exact message and nothing else. A
grouping's ``by`` and ``buckets_at``'s ``indices`` are refused the same way
unless they are a list or a tuple, and a grouping's ``assignment`` unless
it is a mapping. A ``Hierarchy`` checks its levels
whether it was loaded or built in code.
"""

import io
import json
from fractions import Fraction

import pytest

from bucketrisk import (
    Atom,
    Bucket,
    Bucketization,
    Hierarchy,
    Knowledge,
    SafetyThreshold,
    SkewedSingleBucketFamily,
    ValidationError,
    all_minimal_safe,
    apply,
    brute_force_max_disclosure,
    buckets_at,
    disclosure_at,
    disclosure_by_k,
    disclosure_reaches,
    entropy_vs_disclosure,
    exact_posterior,
    histograms,
    knowledge_probability,
    load_hierarchy,
    load_table,
    max_disclosure,
    max_disclosure_negated_atoms,
    minimize_across_buckets,
    minimize_within_bucket,
    partition,
)
from conftest import DATA

TABLE = load_table(DATA / "clinic.csv", "Disease", id_column="Name")
BUCKETS = partition(TABLE, by=("Sex",))
HISTOGRAMS = [b.counts for b in BUCKETS.buckets]  # [(2, 2, 1), (2, 1, 1, 1)]
HIERARCHY = load_hierarchy(DATA / "clinic-hierarchy.json")
FAMILY = SkewedSingleBucketFamily(domain_size=3, per_value=2)
# one person with one value, and a one-node lattice: each budget call below
# fits a budget of 1
ONE = Bucketization((Bucket("b", ("a",), (("x", 1),)),), ("x",))
FLAT = Hierarchy(("Sex",), {"Sex": ()})

# (call id, call with one count, its name in the messages, least value); a
# least value of None means the call states its own range
CALLS = [
    ("max_disclosure", lambda v: max_disclosure(BUCKETS, v), "k", 0),
    ("disclosure_at", lambda v: disclosure_at(HISTOGRAMS, v), "k", 0),
    ("disclosure_by_k", lambda v: disclosure_by_k(HISTOGRAMS, v), "k_max", 0),
    ("disclosure_reaches", lambda v: disclosure_reaches(HISTOGRAMS, v, Fraction(1, 2)), "k", 0),
    ("minimize_across_buckets", lambda v: minimize_across_buckets(HISTOGRAMS, v), "k", 0),
    ("minimize_within_bucket", lambda v: minimize_within_bucket(HISTOGRAMS[0], v), "k", 0),
    ("max_disclosure_negated_atoms", lambda v: max_disclosure_negated_atoms(HISTOGRAMS, v),
     "k", 0),
    ("SafetyThreshold", lambda v: SafetyThreshold(Fraction(1, 2), v), "threshold k", 0),
    ("brute_force_max_disclosure", lambda v: brute_force_max_disclosure(BUCKETS, v), "k", 0),
    ("entropy_vs_disclosure", lambda v: entropy_vs_disclosure(FAMILY, [0, v]), "k", 0),
    ("SkewedSingleBucketFamily.domain_size",
     lambda v: SkewedSingleBucketFamily(domain_size=v, per_value=2), "domain_size", 1),
    ("SkewedSingleBucketFamily.per_value",
     lambda v: SkewedSingleBucketFamily(domain_size=3, per_value=v), "per_value", 1),
    ("Hierarchy.check_node", lambda v: apply(TABLE, HIERARCHY, (v, 0, 0)),
     "level of attribute 'Zip'", None),
    ("buckets_at", lambda v: buckets_at(TABLE, [v], by=("Sex",)), "each bucket index", 0),
    ("exact_posterior.budget",
     lambda v: exact_posterior(ONE, Knowledge(), Atom("a", "x"), budget=v), "budget", 0),
    ("knowledge_probability.budget", lambda v: knowledge_probability(ONE, Knowledge(), budget=v),
     "budget", 0),
    ("brute_force_max_disclosure.budget",
     lambda v: brute_force_max_disclosure(ONE, 0, budget=v), "budget", 0),
    ("all_minimal_safe.budget",
     lambda v: all_minimal_safe(TABLE, FLAT, SafetyThreshold(1, 0), budget=v), "budget", 0),
]


def _bad_values(name, least):
    """(value, message) pairs: three of a wrong type, then the first value
    below the least one, or -1 where the call states its own range."""
    wrong_type = [(v, f"{name} must be an integer") for v in (1.5, "1", None)]
    if least is None:
        return wrong_type + [(-1, "level -1 out of range for attribute 'Zip' (0..1)")]
    below = "non-negative" if least == 0 else f">= {least}"
    return wrong_type + [(v, f"{name} must be {below}") for v in range(-1, least)]


BAD = [
    pytest.param(call, value, message, id=f"{call_id}-{value!r}")
    for call_id, call, name, least in CALLS
    for value, message in _bad_values(name, least)
]


@pytest.mark.parametrize("call, value, message", BAD)
def test_every_count_argument_refuses_a_bad_value(call, value, message):
    with pytest.raises(ValidationError) as error:
        call(value)
    assert str(error.value) == message


@pytest.mark.parametrize("call", [c for _, c, _, _ in CALLS], ids=[i for i, *_ in CALLS])
def test_true_is_accepted_as_1(call):
    assert call(True) == call(1)


def test_buckets_at_refuses_an_index_past_the_last_bucket():
    # an index out of range was a KeyError
    assert buckets_at(TABLE, [1, 0], by=("Sex",)) == [BUCKETS.buckets[1], BUCKETS.buckets[0]]
    for indices in ([2], [0, 9], [10**30]):
        with pytest.raises(ValidationError) as error:
            buckets_at(TABLE, indices, by=("Sex",))
        assert str(error.value) == f"bucket index {max(indices)} out of range for 2 buckets"


# (call id, call, message): a str by= was grouped on by its letters, an
# iterator by= gave no buckets at all, an int indices escaped as "'int'
# object is not iterable", and a list assignment= as "list indices must be
# integers or slices, not str" (an int one as "argument of type 'int' is not
# iterable")
SEQUENCES = [
    ("buckets_at.indices", lambda: buckets_at(TABLE, 0, by=["Sex"]),
     "indices must be a list or a tuple, not int"),
    ("buckets_at.indices-iterator", lambda: buckets_at(TABLE, iter([0]), by=["Sex"]),
     "indices must be a list or a tuple, not list_iterator"),
    ("partition.by", lambda: partition(TABLE, by="Sex"), "by must be a list or a tuple, not str"),
    ("partition.by-iterator", lambda: partition(TABLE, by=iter(["Sex"])),
     "by must be a list or a tuple, not list_iterator"),
    ("histograms.by", lambda: histograms(TABLE, by="Sex"),
     "by must be a list or a tuple, not str"),
    ("buckets_at.by", lambda: buckets_at(TABLE, [0], by="Sex"),
     "by must be a list or a tuple, not str"),
    ("partition.assignment-list", lambda: partition(TABLE, assignment=list(TABLE.person_ids)),
     "assignment must be a mapping, not list"),
    ("partition.assignment-int", lambda: partition(TABLE, assignment=5),
     "assignment must be a mapping, not int"),
    ("histograms.assignment-list", lambda: histograms(TABLE, assignment=list(TABLE.person_ids)),
     "assignment must be a mapping, not list"),
    ("histograms.assignment-int", lambda: histograms(TABLE, assignment=5),
     "assignment must be a mapping, not int"),
    ("buckets_at.assignment-list",
     lambda: buckets_at(TABLE, [0], assignment=list(TABLE.person_ids)),
     "assignment must be a mapping, not list"),
    ("buckets_at.assignment-int", lambda: buckets_at(TABLE, [0], assignment=5),
     "assignment must be a mapping, not int"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in SEQUENCES], ids=[c[0] for c in SEQUENCES])
def test_every_sequence_argument_refuses_a_non_sequence(call, message):
    with pytest.raises(ValidationError) as error:
        call()
    assert str(error.value) == message


def test_entropy_series_are_labelled_by_the_integer_k():
    # True was labelled "k=True", beside "k=1" for the same curve
    assert {p.series for p in entropy_vs_disclosure(FAMILY, [True])} == {"k=1"}
    assert entropy_vs_disclosure(FAMILY, [True]) == entropy_vs_disclosure(FAMILY, [1])


# (the Sex levels, the message, whether a JSON file can state them)
HIERARCHY_TYPE_ERRORS = [
    (("foo",), "attribute 'Sex' level 1: expected a map, 'suppress', or 'identity'", True),
    (["suppress", 3], "attribute 'Sex' level 2: expected a map, 'suppress', or 'identity'",
     True),
    ("suppress", "attribute 'Sex': expected a list of levels", True),
    ({"M": "*"}, "attribute 'Sex': expected a list of levels", True),
    (({"M": 1, "F": "*"},), "attribute 'Sex' level 1: raw values and labels must be strings",
     True),
    (({1: "*"},), "attribute 'Sex' level 1: raw values and labels must be strings", False),
]


@pytest.mark.parametrize("levels, message, in_json", HIERARCHY_TYPE_ERRORS,
                         ids=[repr(levels) for levels, *_ in HIERARCHY_TYPE_ERRORS])
def test_a_hierarchy_built_in_code_checks_its_level_types(levels, message, in_json):
    with pytest.raises(ValidationError) as error:
        Hierarchy(("Sex",), {"Sex": levels})
    assert str(error.value) == message
    if in_json:  # a file reports the same, with the same level index
        with pytest.raises(ValidationError) as error:
            load_hierarchy(io.StringIO(json.dumps({"Sex": levels})))
        assert str(error.value) == message


def test_a_hierarchy_refused_in_code_never_reaches_the_search():
    # accepted before its levels were checked, this failed inside the search
    # with "string indices must be integers"
    with pytest.raises(ValidationError, match="^attribute 'Sex' level 1: expected a map"):
        all_minimal_safe(TABLE, Hierarchy(("Sex",), {"Sex": ("foo",)}),
                         SafetyThreshold(Fraction(1, 2), 1))


def test_a_file_reports_a_level_type_before_any_refinement():
    # the first attribute fails refinement and the second has a bad level:
    # every attribute's level types are checked first
    text = json.dumps({
        "A": [{"a": "g", "b": "g", "c": "h"}, "identity"],
        "B": ["suppress", 3],
    })
    with pytest.raises(ValidationError) as error:
        load_hierarchy(io.StringIO(text))
    assert str(error.value) == "attribute 'B' level 2: expected a map, 'suppress', or 'identity'"
    fixed = text.replace(", 3]", "]")
    with pytest.raises(ValidationError, match="^attribute 'A': values labeled 'g' at level 1"):
        load_hierarchy(io.StringIO(fixed))

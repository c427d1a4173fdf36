"""The package's immutable value types: construction, validation, equality,
hashing, ordering, repr, immutability, pickling and cached properties.

Each type is checked against the behaviour its callers rely on: equality
only within one type, the hash of its field tuple, the dataclass-style
repr, ordering only where declared, and round trips through pickle and copy.
"""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bucketrisk import (
    Atom,
    BasicImplication,
    Bucket,
    Bucketization,
    CurvePoint,
    DisclosureReport,
    Hierarchy,
    Knowledge,
    Placement,
    SafetyThreshold,
    SkewedSingleBucketFamily,
    Table,
    ValidationError,
)

ATOM = Atom("a", "Flu")
IMPL = BasicImplication((Atom("a", "Flu"),), (Atom("b", "Cold"),))
BUCKET = Bucket("b0", ("a", "b"), (("Cold", 1), ("Flu", 1)))

# type -> its fields in order, with one valid value each
SAMPLES = {
    Table: {
        "attributes": ("Sex",),
        "sensitive_attribute": "Disease",
        "person_ids": ("a", "b"),
        "columns": (("M", "F"),),
        "sensitive": ("Flu", "Cold"),
        "domain": ("Cold", "Flu"),
    },
    Bucket: {"bucket_id": "b0", "members": ("a", "b"), "histogram": (("Cold", 1), ("Flu", 1))},
    Bucketization: {"buckets": (BUCKET,), "domain": ("Cold", "Flu")},
    Atom: {"person": "a", "value": "Flu"},
    BasicImplication: {"antecedents": (Atom("a", "Flu"),), "consequents": (Atom("b", "Cold"),)},
    Knowledge: {"implications": (IMPL,)},
    Placement: {"target_bucket": 0, "atom_counts": (1, 0)},
    DisclosureReport: {
        "disclosure": Fraction(1, 2),
        "target": ATOM,
        "bucket_atom_counts": (2,),
        "implications": (IMPL,),
    },
    Hierarchy: {"attributes": ("Sex",), "levels": {"Sex": ("suppress",)}},
    SafetyThreshold: {"c": Fraction(1, 2), "k": 1},
    CurvePoint: {"series": "implications", "x": 0, "value": Fraction(1, 2)},
    SkewedSingleBucketFamily: {"domain_size": 2, "per_value": 3},
}

REPRS = {
    Table: "Table(attributes=('Sex',), sensitive_attribute='Disease', person_ids=('a', 'b'), "
           "columns=(('M', 'F'),), sensitive=('Flu', 'Cold'), domain=('Cold', 'Flu'))",
    Bucket: "Bucket(bucket_id='b0', members=('a', 'b'), histogram=(('Cold', 1), ('Flu', 1)))",
    Bucketization: "Bucketization(buckets=(Bucket(bucket_id='b0', members=('a', 'b'), "
                   "histogram=(('Cold', 1), ('Flu', 1))),), domain=('Cold', 'Flu'))",
    Atom: "Atom(person='a', value='Flu')",
    BasicImplication: "BasicImplication(antecedents=(Atom(person='a', value='Flu'),), "
                      "consequents=(Atom(person='b', value='Cold'),))",
    Knowledge: "Knowledge(implications=(BasicImplication(antecedents=(Atom(person='a', "
               "value='Flu'),), consequents=(Atom(person='b', value='Cold'),)),))",
    Placement: "Placement(target_bucket=0, atom_counts=(1, 0))",
    DisclosureReport: "DisclosureReport(disclosure=Fraction(1, 2), target=Atom(person='a', "
                      "value='Flu'), bucket_atom_counts=(2,), implications=("
                      "BasicImplication(antecedents=(Atom(person='a', value='Flu'),), "
                      "consequents=(Atom(person='b', value='Cold'),)),))",
    Hierarchy: "Hierarchy(attributes=('Sex',), levels={'Sex': ('suppress',)})",
    SafetyThreshold: "SafetyThreshold(c=Fraction(1, 2), k=1)",
    CurvePoint: "CurvePoint(series='implications', x=0, value=Fraction(1, 2))",
    SkewedSingleBucketFamily: "SkewedSingleBucketFamily(domain_size=2, per_value=3)",
}

ORDERED = {Atom, BasicImplication}
CACHED = {Table: ("row_of",), Bucketization: ("bucket_of", "by_id")}
TYPES = sorted(SAMPLES, key=lambda cls: cls.__name__)
ids = [cls.__name__ for cls in TYPES]


def sample(cls):
    return cls(*SAMPLES[cls].values())


def field_tuple(value):
    return tuple(getattr(value, name) for name in SAMPLES[type(value)])


@pytest.mark.parametrize("cls", TYPES, ids=ids)
def test_construction_by_position_and_by_keyword(cls):
    fields = SAMPLES[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert field_tuple(by_position) == field_tuple(by_keyword) == tuple(fields.values())
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    *first, last = fields
    if cls is not Knowledge:  # its one field defaults to ()
        with pytest.raises(TypeError):
            cls(**{name: fields[name] for name in first})
    with pytest.raises(TypeError):
        cls(**fields, not_a_field=None)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{last: fields[last]})


def test_knowledge_defaults_to_no_implications():
    assert Knowledge().implications == ()
    assert Knowledge() == Knowledge(())


@pytest.mark.parametrize("cls", TYPES, ids=ids)
def test_equality_holds_only_within_one_type(cls):
    value = sample(cls)
    assert value == sample(cls)
    assert not value != sample(cls)
    assert value != field_tuple(value)
    assert value.__eq__(field_tuple(value)) is NotImplemented
    assert value != object()


def test_atom_is_not_a_tuple():
    assert Atom("p", "v") != ("p", "v")
    assert Atom("p", "v") != Atom("p", "w")
    assert Atom("p", "v") == Atom(person="p", value="v")


@pytest.mark.parametrize("cls", [cls for cls in TYPES if cls is not Hierarchy],
                         ids=[name for name in ids if name != "Hierarchy"])
def test_hash_is_the_field_tuples_hash(cls):
    value = sample(cls)
    assert hash(value) == hash(field_tuple(value))
    assert hash(value) == hash(sample(cls))
    assert len({value, sample(cls)}) == 1


def test_hierarchy_is_unhashable_for_its_dict_of_levels():
    with pytest.raises(TypeError):
        hash(sample(Hierarchy))


def test_atoms_and_implications_order_by_their_fields():
    assert Atom("a", "b") < Atom("a", "c") < Atom("b", "a")
    assert Atom("a", "b") <= Atom("a", "b") and Atom("a", "b") >= Atom("a", "b")
    assert Atom("b", "a") > Atom("a", "z")
    assert sorted([Atom("b", "a"), Atom("a", "b")]) == [Atom("a", "b"), Atom("b", "a")]
    first = BasicImplication((Atom("a", "x"),), (Atom("b", "y"),))
    second = BasicImplication((Atom("a", "x"),), (Atom("c", "y"),))
    assert first < second and first <= second and second > first and second >= first
    assert not second < first
    for ordered in (Atom("a", "b"), first):
        with pytest.raises(TypeError):
            ordered < (ordered,)  # noqa: B015


# one- or two-letter fields over two letters, so equal fields come up often
_texts = st.text(alphabet="ab", min_size=1, max_size=2)
_atoms = st.builds(Atom, _texts, _texts)
_conjuncts = st.lists(_atoms, min_size=1, max_size=2).map(tuple)
_implications = st.builds(BasicImplication, _conjuncts, _conjuncts)


def _plain(value):
    """The value as nested tuples of strings, which compare as its fields do."""
    if isinstance(value, Atom):
        return value.person, value.value
    return tuple(map(_plain, value.antecedents)), tuple(map(_plain, value.consequents))


@given(values=st.lists(_atoms, min_size=2, max_size=5)
       | st.lists(_implications, min_size=2, max_size=5),
       atom=_atoms, implication=_implications)
@settings(max_examples=60, deadline=None)
def test_ordered_types_compare_and_hash_as_their_field_tuples(values, atom, implication):
    for x in values:
        assert hash(x) == hash(field_tuple(x))
        for y in values:
            for compare in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
                op = getattr(operator, compare)
                assert op(x, y) == op(_plain(x), _plain(y)), (compare, x, y)
    assert list(map(_plain, sorted(values))) == sorted(map(_plain, values))
    for x, y in ((atom, implication), (atom, field_tuple(atom)), (atom, None),
                 (implication, field_tuple(implication)), (implication, None)):
        for left, right in ((x, y), (y, x)):
            assert left != right and not left == right
            for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
                with pytest.raises(TypeError):
                    getattr(operator, compare)(left, right)


@pytest.mark.parametrize("cls", [cls for cls in TYPES if cls not in ORDERED],
                         ids=[cls.__name__ for cls in TYPES if cls not in ORDERED])
def test_other_types_are_unordered(cls):
    for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
        with pytest.raises(TypeError):
            getattr(operator, compare)(sample(cls), sample(cls))


@pytest.mark.parametrize("cls", TYPES, ids=ids)
def test_repr_names_every_field(cls):
    assert repr(sample(cls)) == REPRS[cls]


@pytest.mark.parametrize("cls", TYPES, ids=ids)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = sample(cls)
    name = next(iter(SAMPLES[cls]))
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert field_tuple(value) == tuple(SAMPLES[cls].values())


@pytest.mark.parametrize("cls", TYPES, ids=ids)
@pytest.mark.parametrize(
    "roundtrip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_roundtrip(cls, roundtrip):
    value = sample(cls)
    for name in CACHED.get(cls, ()):
        getattr(value, name)  # a filled cache must not stop a copy
    again = roundtrip(value)
    assert type(again) is cls
    assert again == value
    assert field_tuple(again) == field_tuple(value)
    assert repr(again) == repr(value)
    for name in CACHED.get(cls, ()):
        assert getattr(again, name) == getattr(value, name)


def test_pickle_roundtrip_of_every_protocol():
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for cls in TYPES:
            assert pickle.loads(pickle.dumps(sample(cls), protocol)) == sample(cls)


def test_cached_properties_are_built_once():
    table = sample(Table)
    assert table.row_of == {"a": 0, "b": 1}
    assert table.row_of is table.row_of
    bucketization = sample(Bucketization)
    assert bucketization.bucket_of == {"a": "b0", "b": "b0"}
    assert bucketization.bucket_of is bucketization.bucket_of
    assert bucketization.by_id == {"b0": BUCKET}
    assert bucketization.by_id is bucketization.by_id
    # a cached property does not take part in equality or hashing
    assert table == sample(Table) and hash(table) == hash(sample(Table))
    assert bucketization == sample(Bucketization)


def _with(cls, **changes):
    return lambda: cls(**{**SAMPLES[cls], **changes})


INVALID = [
    (_with(Table, columns=()), "columns are not aligned with the person ids"),
    (_with(Table, sensitive=("Flu",)), "columns are not aligned with the person ids"),
    (_with(Table, person_ids=("a", "")), "empty person id"),
    (_with(Table, person_ids=("a", "a")), "duplicate person id 'a'"),
    (_with(Table, domain=()), "sensitive domain is empty"),
    (_with(Table, domain=("Cold",)), "observed sensitive value(s) outside domain: ['Flu']"),
    (_with(Table, person_ids=(3, "a")), "person id 3 is not a string"),
    (_with(Table, person_ids=("a", b"b")), "person id b'b' is not a string"),
    (_with(Table, person_ids=(["a"], "b")), "person id ['a'] is not a string"),
    (_with(Table, columns=(("M", 1),)), "attribute 'Sex': value 1 is not a string"),
    (_with(Table, columns=((None, "F"),)), "attribute 'Sex': value None is not a string"),
    (_with(Table, sensitive=("Flu", 2)), "sensitive value 2 is not a string"),
    (_with(Table, sensitive=(None, None), domain=(None,)), "sensitive value None is not a string"),
    (_with(Table, domain=("Cold", "Flu", 1.5)), "domain value 1.5 is not a string"),
    (_with(Bucket, members=(), histogram=()), "bucket 'b0' is empty"),
    (_with(Bucket, members=(3, "a")), "bucket 'b0': member 3 is not a string"),
    (_with(Bucket, members=("a", "a")), "bucket 'b0': duplicate member 'a'"),
    (_with(Bucket, histogram=(("Cold", 1),)), "bucket 'b0': histogram does not cover members"),
    (_with(Bucket, histogram=(("Cold", 2), ("Flu", 0))), "bucket 'b0': non-positive count"),
    (_with(Bucket, histogram=(("Cold", 1.5), ("Flu", 0.5))),
     "bucket 'b0': each count must be an integer"),
    (_with(Bucket, histogram=(("Cold",), ("Flu", 1))),
     "bucket 'b0': histogram entry ('Cold',) is not a (value, count) pair"),
    (_with(Bucket, histogram="ab"),
     "bucket 'b0': histogram entry 'a' is not a (value, count) pair"),
    (_with(Bucket, histogram=(("Cold", 1, 2),)),
     "bucket 'b0': histogram entry ('Cold', 1, 2) is not a (value, count) pair"),
    (_with(Bucket, histogram=((3, 1), ("Flu", 1))),
     "bucket 'b0': histogram entry (3, 1) is not a (value, count) pair"),
    (_with(Bucket, members=("a", "b", "c"), histogram=(("Cold", 1), ("Flu", 2))),
     "bucket 'b0': histogram not sorted"),
    (_with(Bucketization, buckets=(BUCKET, BUCKET)), "duplicate bucket id 'b0'"),
    (_with(Bucketization, domain=("Cold",)), "bucket 'b0': value 'Flu' outside the domain"),
    (_with(Bucketization, buckets=(BUCKET, Bucket("b1", ("a",), (("Flu", 1),)))),
     "person 'a' appears in two buckets"),
    (_with(Bucketization, buckets=(BUCKET, ("a",))), "buckets holds ('a',), not a Bucket"),
    (_with(BasicImplication, antecedents=()), "implication needs >= 1 antecedent and consequent"),
    (_with(BasicImplication, consequents=()), "implication needs >= 1 antecedent and consequent"),
    (_with(Hierarchy, levels=[("suppress",)]), "levels must be a mapping, not list"),
    (_with(Hierarchy, attributes=(), levels={}), "hierarchy needs at least one attribute"),
    (_with(Hierarchy, levels={"Age": ()}), "levels and attributes disagree"),
    (_with(Hierarchy, levels={"Sex": ({"M": "*", "F": "*"}, {"M": "*"})}),
     "attribute 'Sex': levels disagree on the raw values"),
    (_with(Hierarchy, levels={"Sex": ("suppress", "identity")}),
     "attribute 'Sex': values labeled '*' at level 1 split apart at level 2"),
    (_with(SafetyThreshold, c=Fraction(3, 2)), "threshold c must be within [0, 1]"),
    (_with(SafetyThreshold, c=Fraction(-1, 2)), "threshold c must be within [0, 1]"),
    (_with(SafetyThreshold, k=-1), "threshold k must be non-negative"),
    (_with(SkewedSingleBucketFamily, domain_size=0), "domain_size must be >= 1"),
    (_with(SkewedSingleBucketFamily, per_value=0), "per_value must be >= 1"),
]


@pytest.mark.parametrize("build, message", INVALID, ids=[m for _, m in INVALID])
def test_every_validation_message(build, message):
    with pytest.raises(ValidationError) as error:
        build()
    assert str(error.value) == message

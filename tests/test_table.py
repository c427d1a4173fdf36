import io
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bucketrisk import (
    Bucket,
    Bucketization,
    Hierarchy,
    Table,
    ValidationError,
    buckets_at,
    histograms,
    load_table,
    apply,
    make_bucket,
    partition,
    read_assignment,
    read_domain,
)
from bucketrisk.table import _CHUNK_ROWS, _tallies, entropy
from conftest import DATA
from helpers import random_table_and_hierarchy, table_csv


def test_demo_table_shape(demo_table):
    assert demo_table.attributes == ("Zip", "Age", "Sex")
    assert demo_table.sensitive_attribute == "Disease"
    assert len(demo_table.records) == 10
    assert demo_table.person_ids[0] == "Bob"
    assert demo_table.domain == (
        "Breast Cancer",
        "Flu",
        "Heart Disease",
        "Lung Cancer",
        "Mumps",
        "Ovarian Cancer",
    )
    ed = demo_table.row_of["Ed"]
    assert demo_table.sensitive[ed] == "Lung Cancer"
    assert demo_table.records[ed] == ("Ed", "14850", "27", "M", "Lung Cancer")


def test_demo_partition_by_sex(demo_bucketization):
    male, female = demo_bucketization.buckets
    assert male.bucket_id == "M"
    assert male.members == ("Bob", "Charlie", "Dave", "Ed", "Frank")
    assert male.histogram == (("Flu", 2), ("Lung Cancer", 2), ("Mumps", 1))
    assert female.histogram == (
        ("Flu", 2),
        ("Breast Cancer", 1),
        ("Heart Disease", 1),
        ("Ovarian Cancer", 1),
    )
    assert demo_bucketization.bucket_of_person("Karen").bucket_id == "F"


def test_demo_min_entropy(demo_bucketization):
    # male bucket with distribution (2/5, 2/5, 1/5) is the minimum
    least = min(entropy(b.counts) for b in demo_bucketization.buckets)
    assert abs(least - (math.log2(5) - 0.8)) < 1e-12


def test_pure_bucket_entropy_is_zero():
    assert entropy((2,)) == 0.0
    assert not str(entropy((2,))).startswith("-")


def test_default_person_id_is_row_index():
    t = load_table(io.StringIO("S,X\nv,1\nw,2\n"), "S")
    assert t.person_ids == ("0", "1")
    assert t.attributes == ("X",)


def test_extra_domain_merges_sorted():
    t = load_table(io.StringIO("S\nb\n"), "S", extra_domain=("c", "a"))
    assert t.domain == ("a", "b", "c")


def test_load_table_errors():
    with pytest.raises(ValidationError):
        load_table(io.StringIO("A,B\nx,y\n"), "S")
    with pytest.raises(ValidationError):
        load_table(io.StringIO("S\nx\n"), "S", id_column="Name")
    with pytest.raises(ValidationError):
        load_table(io.StringIO("S,Name\nx,p\ny,p\n"), "S", id_column="Name")
    with pytest.raises(ValidationError):
        load_table(io.StringIO("S\n"), "S")
    with pytest.raises(ValidationError):
        load_table(io.StringIO(""), "S")
    with pytest.raises(ValidationError):
        load_table(io.StringIO("S,X\nv\n"), "S")  # short row


@pytest.mark.parametrize(
    "ids, message",
    [
        (("a", ""), "empty person id"),
        (("a", "", "b", "b"), "empty person id"),
        (("a", "b", "b", ""), "duplicate person id 'b'"),
        (("a", "b", "c", "b", "a"), "duplicate person id 'b'"),
        (("a", "b", "a", "b"), "duplicate person id 'a'"),
    ],
)
def test_person_id_errors_name_the_first_offender(ids, message):
    column = ("x",) * len(ids)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Table(("A",), "S", ids, (column,), column, ("x",))


def _chunked_csv(rows: int, bad: dict[int, str] = {}) -> io.StringIO:
    """An ``Id,A,S`` table of ``rows`` rows, with some data rows replaced."""
    lines = [bad.get(i, f"p{i},block {i % 7},value {i % 3}") for i in range(rows)]
    return io.StringIO("Id,A,S\n" + "\n".join(lines) + "\n")


def test_load_reports_the_global_row_past_the_first_chunk():
    row = 2 * _CHUNK_ROWS + 5
    with pytest.raises(ValidationError, match=f"^row {row}: expected 3 fields, got 2$"):
        load_table(_chunked_csv(3 * _CHUNK_ROWS, {row: "p,x"}), "S", id_column="Id")


@pytest.mark.parametrize("short", [3, _CHUNK_ROWS + 3])
def test_load_reports_a_short_row_before_a_later_malformed_one(short):
    # the over-long field sits later in the same chunk as the short row
    bad = {short: "p,x", short + 4: f"q,y,{'z' * 200_000}"}
    with pytest.raises(ValidationError, match=f"^row {short}: expected 3 fields, got 2$"):
        load_table(_chunked_csv(3 * _CHUNK_ROWS, bad), "S", id_column="Id")
    del bad[short]
    with pytest.raises(ValidationError, match="^malformed CSV at line"):
        load_table(_chunked_csv(3 * _CHUNK_ROWS, bad), "S", id_column="Id")


def test_load_across_chunks():
    rows = 2 * _CHUNK_ROWS + 7
    t = load_table(_chunked_csv(rows), "S")
    assert t.person_ids == tuple(map(str, range(rows)))
    assert t.attributes == ("Id", "A")
    # equal values of a non-id column are one object, also across chunks
    later = 21 * (_CHUNK_ROWS // 21 + 1)
    assert t.columns[1][later] == "block 0" and t.columns[1][later] is t.columns[1][0]
    assert t.sensitive[later] == "value 0" and t.sensitive[later] is t.sensitive[0]
    keyed = load_table(_chunked_csv(rows), "S", id_column="Id")
    assert keyed.person_ids == tuple(f"p{i}" for i in range(rows))
    assert load_table(io.StringIO(table_csv(keyed)), "S", id_column="id") == keyed


def test_repeated_header_name_reads_its_last_column():
    text = "A,S,A\n" + "".join(f"a{i},s,b{i % 5}\n" for i in range(_CHUNK_ROWS + 2))
    t = load_table(io.StringIO(text), "S")
    assert t.attributes == ("A", "A")
    expected = tuple(f"b{i % 5}" for i in range(_CHUNK_ROWS + 2))
    assert t.columns == (expected, expected)


def test_partition_modes(demo_table):
    with pytest.raises(ValidationError):
        partition(demo_table)
    with pytest.raises(ValidationError):
        partition(demo_table, assignment={"Bob": "x"}, by=("Sex",))
    with pytest.raises(ValidationError):
        partition(demo_table, by=("NoSuch",))
    single = partition(demo_table, by=())
    assert len(single.buckets) == 1
    assert single.buckets[0].size == 10


def test_partition_keys_are_tuples():
    # joined with "|", both rows would read "a|b|c" and share one bucket
    t = load_table(io.StringIO('A,B,S\n"a|b",c,x\na,"b|c",y\n'), "S")
    b = partition(t, by=("A", "B"))
    assert [bucket.members for bucket in b.buckets] == [("0",), ("1",)]
    assert [bucket.bucket_id for bucket in b.buckets] == ["a|b|c", "a|b|c+"]


def test_partition_assignment_matches_group_by(demo_table, demo_bucketization):
    assignment = read_assignment(DATA / "clinic-partition.tsv")
    explicit = partition(demo_table, assignment=assignment)
    by_attr = {b.bucket_id: frozenset(b.members) for b in explicit.buckets}
    expected = {b.bucket_id: frozenset(b.members) for b in demo_bucketization.buckets}
    assert by_attr == expected


def test_partition_assignment_errors(demo_table):
    complete = {p: "x" for p in demo_table.person_ids}
    with pytest.raises(ValidationError):
        partition(demo_table, assignment={"Bob": "x"})  # others missing
    with pytest.raises(ValidationError):
        partition(demo_table, assignment={**complete, "Nobody": "x"})


def test_read_assignment_rejects_duplicates():
    with pytest.raises(ValidationError):
        read_assignment(io.StringIO("p\tb1\np\tb2\n"))


def test_read_assignment_mixed_line_endings(demo_table, tmp_path):
    lf = DATA / "clinic-partition.tsv"
    lines = lf.read_text(encoding="utf-8").splitlines(keepends=True)
    mixed = tmp_path / "mixed.tsv"
    crlf = [line.replace("\n", "\r\n") if i % 2 else line for i, line in enumerate(lines)]
    mixed.write_bytes("".join(crlf).encode())
    assert partition(demo_table, assignment=read_assignment(mixed)) == partition(
        demo_table, assignment=read_assignment(lf)
    )


def test_read_domain():
    stream = io.StringIO("x\n\ny\n")
    assert read_domain(stream) == ("x", "y")
    assert not stream.closed  # a caller's stream stays open


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_partition_follows_row_order(seed):
    rng = random.Random(seed)
    table, _ = random_table_and_hierarchy(rng)
    by = rng.sample(table.attributes, rng.randint(0, len(table.attributes)))
    groups: dict[tuple[str, ...], list[tuple[str, str]]] = {}
    for person, *values, sensitive in table.records:
        key = tuple(values[table.attributes.index(a)] for a in by) or ("all",)
        groups.setdefault(key, []).append((person, sensitive))
    expected = []
    for key, rows in groups.items():
        tally = Counter(value for _, value in rows).items()
        histogram = tuple(sorted(tally, key=lambda vc: (-vc[1], vc[0])))
        expected.append(("|".join(key), tuple(person for person, _ in rows), histogram))
    labels = {person: "|".join(key) for key, rows in groups.items() for person, _ in rows}
    for bucketization in (partition(table, by=by), partition(table, assignment=labels)):
        got = [(b.bucket_id, b.members, b.histogram) for b in bucketization.buckets]
        assert got == expected


def test_bucket_validation():
    with pytest.raises(ValidationError):
        make_bucket("b", [], [])
    with pytest.raises(ValidationError):
        make_bucket("b", ["p0"], ["a", "b"])
    b = make_bucket("b", ["p0", "p1", "p2"], ["b", "a", "b"])
    assert b.histogram == (("b", 2), ("a", 1))


def test_bucketization_validation():
    b0 = make_bucket("b", ["p0"], ["a"])
    with pytest.raises(ValidationError):
        Bucketization((b0, make_bucket("b", ["p1"], ["a"])), ("a",))  # dup id
    with pytest.raises(ValidationError):
        Bucketization((b0, make_bucket("c", ["p0"], ["a"])), ("a",))  # dup person
    one = Bucketization((b0,), ("a",))
    with pytest.raises(ValidationError):
        one.bucket_of_person("ghost")


def test_bucketization_rejects_values_outside_its_domain():
    bucket = make_bucket("b", ["p", "q"], ["x", "y"])
    with pytest.raises(ValidationError, match="^bucket 'b': value 'x' outside the domain$"):
        Bucketization((bucket,), ("a",))
    with pytest.raises(ValidationError, match="value 'y' outside"):
        Bucketization((make_bucket("c", ["r"], ["x"]), bucket), ("x",))
    assert Bucketization((bucket,), ("x", "y", "z")).domain == ("x", "y", "z")


@given(
    st.lists(
        st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=12
    )
)
def test_histogram_sorted_and_covering(values):
    b = make_bucket("b", [f"p{i}" for i in range(len(values))], values)
    counts = [c for _, c in b.histogram]
    assert sum(counts) == len(values)
    assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))
    for (v1, c1), (v2, c2) in zip(b.histogram, b.histogram[1:]):
        if c1 == c2:
            assert v1 < v2
    assert {v for v, _ in b.histogram} == set(values)


def _groupings(rng, table):
    """Both grouping modes of a table: a random ``by``, ``by=()`` and labels.

    The labels are the random ``by``'s bucket ids, read by
    ``read_assignment`` from lines that end in a random mix of LF and CRLF.
    """
    by = rng.sample(table.attributes, rng.randint(0, len(table.attributes)))
    labels = partition(table, by=by).bucket_of
    ends = [rng.choice(["\n", "\r\n"]) for _ in table.person_ids]
    lines = [f"{p}\t{labels[p]}{end}" for p, end in zip(table.person_ids, ends)]
    rng.shuffle(lines)
    assignment = read_assignment(io.StringIO("".join(lines), newline=""))
    return [{"by": by}, {"by": ()}, {"assignment": assignment}]


# "a|b","c" and "a","b|c" join to the same text; the second bucket is "a|b|c+"
COLLISION = load_table(io.StringIO('A,B,S\n"a|b",c,x\na,"b|c",y\na,"b|c",x\n'), "S")


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_histograms_are_partition_counts(seed):
    rng = random.Random(seed)
    random_table, _ = random_table_and_hierarchy(rng)
    for table in (random_table, COLLISION):
        for grouping in _groupings(rng, table) + [{"by": table.attributes}]:
            expected = partition(table, **grouping).buckets
            assert histograms(table, **grouping) == [b.counts for b in expected]
            indices = rng.sample(range(len(expected)), rng.randint(0, len(expected)))
            assert buckets_at(table, indices, **grouping) == [expected[i] for i in indices]


def test_tallies_hold_only_the_values_their_rows_hold():
    # a declared domain far larger than the rows must not size the tallies
    table = load_table(
        io.StringIO("G,S\ng,a\nh,a\ng,b\ng,a\n"),
        "S",
        extra_domain=[f"x{i}" for i in range(10_000)],
    )
    tallies = _tallies(table, zip(table.columns[0]))
    assert tallies == {("g",): {"a": 2, "b": 1}, ("h",): {"a": 1}}
    assert list(tallies) == [("g",), ("h",)]  # first-row order
    assert histograms(table, by=("G",)) == [(2, 1), (1,)]


@pytest.mark.parametrize(
    "grouping",
    [
        {},
        {"assignment": {"Bob": "x"}, "by": ("Sex",)},
        {"assignment": {"Bob": "x"}},
        {"assignment": {**{p: "x" for p in "Bob Charlie Dave".split()}, "Nobody": "x"}},
        {"assignment": {"Nobody": "x", "Ghost": "y"}},
        {"by": ("Sex", "NoSuch", "Other")},
    ],
)
def test_histograms_raise_partition_errors(demo_table, grouping):
    with pytest.raises(ValidationError) as expected:
        partition(demo_table, **grouping)
    for call in (histograms, lambda t, **g: buckets_at(t, [0], **g)):
        with pytest.raises(ValidationError, match=f"^{re.escape(str(expected.value))}$"):
            call(demo_table, **grouping)


def test_assignment_labels_must_be_strings(demo_table):
    # partition and buckets_at raised TypeError in the bucket naming, and
    # histograms answered [(4, 2, 1, 1, 1, 1)]
    labels = {p: "x" for p in demo_table.person_ids}
    labels[demo_table.person_ids[2]] = 3
    for call in (partition, histograms, lambda t, **g: buckets_at(t, [0], **g)):
        with pytest.raises(ValidationError, match="^bucket label 3 is not a string$"):
            call(demo_table, assignment=labels)
        with pytest.raises(ValidationError, match="^bucket label 3 is not a string$"):
            call(demo_table, assignment=dict.fromkeys(demo_table.person_ids, 3))


# labels that join with "|" to the same text as other keys, so the "+" rule
# renames buckets; "" joins to a bare separator
LABELS = ("a", "b", "a|b", "b|a", "|", "a|", "|a", "", "a+", "a|b+")
ATTRIBUTES = ("A0", "A1", "A2")
# level 1 coarsens every label to one of two that contain "|"; level 2 suppresses
COARSE = Hierarchy(ATTRIBUTES, {
    a: ({label: "|" if i % 2 else "a|" for i, label in enumerate(LABELS)}, "suppress")
    for a in ATTRIBUTES
})


@st.composite
def grouped_tables(draw):
    """A small table over ``LABELS``, a grouping of it and its keys per row."""
    n = draw(st.integers(1, 10))
    columns = tuple(tuple(draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)))
                    for _ in ATTRIBUTES)
    sensitive = tuple(draw(st.lists(st.sampled_from("xyz"), min_size=n, max_size=n)))
    extra = draw(st.sets(st.sampled_from("wxyz")))
    person_ids = tuple(f"p{i}" for i in range(n))
    table = Table(ATTRIBUTES, "S", person_ids, columns, sensitive,
                  tuple(sorted(set(sensitive) | extra)))
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
        return table, {"assignment": dict(zip(person_ids, labels))}, [(v,) for v in labels]
    by = tuple(draw(st.permutations(ATTRIBUTES))[: draw(st.integers(0, 3))])
    columns = [table.columns[ATTRIBUTES.index(a)] for a in by]
    return table, {"by": by}, list(zip(*columns)) if by else [("all",)] * n


def checked_bucketization(table, keys):
    """Group rows by key naively, and build every bucket through the checked
    constructors: ``make_bucket`` and ``Bucketization``."""
    groups = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    buckets, ids = [], set()
    for key, rows in groups.items():
        bucket_id = "|".join(key)
        while bucket_id in ids:
            bucket_id += "+"
        ids.add(bucket_id)
        buckets.append(make_bucket(bucket_id, [table.person_ids[i] for i in rows],
                                   [table.sensitive[i] for i in rows]))
    return Bucketization(tuple(buckets), table.domain)


def assert_builds_as_checked(built, expected):
    """``built`` equals ``expected`` and passes every check of the public
    constructors."""
    assert built == expected
    assert [b.counts for b in built.buckets] == [b.counts for b in expected.buckets]
    rebuilt = tuple(Bucket(b.bucket_id, b.members, b.histogram) for b in built.buckets)
    assert Bucketization(rebuilt, built.domain) == built


@given(data=grouped_tables(), picks=st.lists(st.integers(0, 10**6), max_size=4),
       node=st.tuples(*[st.integers(0, 2)] * len(ATTRIBUTES)))
@settings(max_examples=200, deadline=None)
def test_unchecked_build_equals_the_checked_one(data, picks, node):
    table, grouping, keys = data
    built = partition(table, **grouping)
    assert_builds_as_checked(built, checked_bucketization(table, keys))
    indices = [i % len(built.buckets) for i in picks]
    assert buckets_at(table, indices, **grouping) == [built.buckets[i] for i in indices]
    generalized = [tuple(map(COARSE._label, ATTRIBUTES, node, row)) for row in zip(*table.columns)]
    assert_builds_as_checked(apply(table, COARSE, node), checked_bucketization(table, generalized))

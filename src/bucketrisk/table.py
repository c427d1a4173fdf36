"""Tables, bucketizations, and per-bucket statistics.

A table is stored by column: a tuple of person ids, one row-aligned tuple
per opaque categorical non-sensitive attribute, and a tuple of sensitive
values from a finite domain. There is no per-person record type: rows are
grouped by zipping columns, and ``Table.records`` derives row tuples for
callers that want rows. A bucketization partitions the persons into
buckets; publishing one is modeled as revealing, per bucket, the member
list and the multiset of sensitive values (the assignment within the bucket
stays hidden). Everything downstream (the exact oracle, the polynomial
engine, the generalization search) consumes the types defined here.

The polynomial engine reads only each bucket's histogram, so
``histograms`` tallies a grouping's count tuples without building buckets,
and ``buckets_at`` builds members only for the few buckets a witness names.
``_tallies`` is the one loop that counts rows into sensitive-value tallies,
for ``histograms`` and the generalization search's bottom node. It,
``_regroup`` and ``_count_tuples`` alone know a tally's shape: the values
its rows hold, so its cost follows the rows, not a declared domain.
``load_table`` reads the CSV in chunks and keeps one string object per
distinct value of every non-id column.

All types are immutable after construction and safe to share across threads.
They, and the value types of the other modules, are plain classes on
``_Frozen``, defined here because every module with a value type imports
this one. Their methods are written out, so defining them at import
compiles nothing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import ContextManager, Iterable, Iterator, Mapping, Sequence, TextIO, Union

from .errors import ValidationError

Source = Union[str, Path, TextIO]


def _open_text(source: Source) -> ContextManager[TextIO]:
    """Open a path for reading; a caller's stream passes through, left open."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    return contextlib.nullcontext(source)


@contextlib.contextmanager
def _csv_reader(source: Source) -> Iterator[Iterator[list[str]]]:
    """A ``csv.reader`` over the source whose ``csv.Error`` (a malformed row,
    such as a field over the csv module's size limit) is a ValidationError."""
    with _open_text(source) as stream:
        reader = csv.reader(stream)
        try:
            yield reader
        except csv.Error as exc:
            raise ValidationError(f"malformed CSV at line {reader.line_num}: {exc}") from None


class _Frozen:
    """An immutable value with named fields.

    A subclass names its fields in ``_fields`` and sets each one in its
    ``__init__`` with ``object.__setattr__``; after that, assigning or
    deleting an attribute raises AttributeError. Two values are equal when
    they are of one class and have equal fields, a value hashes as its field
    tuple, its repr names every field, and it pickles and copies by calling
    its class on its fields. A subclass declares ``__slots__ = _fields``
    unless it keeps an instance dict for a ``cached_property``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Table(_Frozen):
    """A validated table with one designated sensitive attribute, by column.

    Row i is person ``person_ids[i]``, with value ``columns[j][i]`` of
    ``attributes[j]`` and sensitive value ``sensitive[i]``; ``records`` gives
    the rows as tuples in that order, person id first. ``domain`` is the
    sensitive domain: every observed value plus any declared extras, sorted
    lexicographically. The sort order is the package's canonical value order
    (used for negation encoding and witness tie-breaking).
    """

    # no __slots__: the instance dict holds the cached row_of
    _fields = ("attributes", "sensitive_attribute", "person_ids", "columns", "sensitive",
               "domain")

    def __init__(
        self,
        attributes: tuple[str, ...],
        sensitive_attribute: str,
        person_ids: tuple[str, ...],
        columns: tuple[tuple[str, ...], ...],
        sensitive: tuple[str, ...],
        domain: tuple[str, ...],
    ) -> None:
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "sensitive_attribute", sensitive_attribute)
        object.__setattr__(self, "person_ids", person_ids)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "sensitive", sensitive)
        object.__setattr__(self, "domain", domain)
        n = len(self.person_ids)
        if len(self.columns) != len(self.attributes) or any(
            len(column) != n for column in (*self.columns, self.sensitive)
        ):
            raise ValidationError("columns are not aligned with the person ids")
        unique = set(self.person_ids)
        if len(unique) != n or "" in unique:
            # walk the rows only on failure, to name the first offender
            seen: set[str] = set()
            for person_id in self.person_ids:
                if not person_id:
                    raise ValidationError("empty person id")
                if person_id in seen:
                    raise ValidationError(f"duplicate person id {person_id!r}")
                seen.add(person_id)
        if not self.domain:
            raise ValidationError("sensitive domain is empty")
        observed = set(self.sensitive)
        if not observed <= set(self.domain):
            raise ValidationError(
                f"observed sensitive value(s) outside domain: "
                f"{sorted(observed - set(self.domain))}"
            )

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Each person's row index."""
        return {p: i for i, p in enumerate(self.person_ids)}

    @property
    def records(self) -> tuple[tuple[str, ...], ...]:
        """The rows as ``(person_id, *attribute values, sensitive)`` tuples."""
        return tuple(zip(self.person_ids, *self.columns, self.sensitive))


class Bucket(_Frozen):
    """One bucket: members plus the histogram of their sensitive values.

    The histogram is sorted by count descending, ties broken by value
    ascending, so index j gives the j-th most frequent value deterministically.
    Indices past the number of distinct values have an implicit count of 0.
    ``counts`` (not a field) holds the histogram's counts.
    """

    _fields = ("bucket_id", "members", "histogram")
    __slots__ = (*_fields, "counts")

    def __init__(
        self, bucket_id: str, members: tuple[str, ...], histogram: tuple[tuple[str, int], ...]
    ) -> None:
        object.__setattr__(self, "bucket_id", bucket_id)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "histogram", histogram)
        if not self.members:
            raise ValidationError(f"bucket {self.bucket_id!r} is empty")
        counts = tuple(c for _, c in self.histogram)
        object.__setattr__(self, "counts", counts)
        if sum(counts) != len(self.members):
            raise ValidationError(
                f"bucket {self.bucket_id!r}: histogram does not cover members"
            )
        if any(c <= 0 for c in counts):
            raise ValidationError(f"bucket {self.bucket_id!r}: non-positive count")
        if any(counts[j] < counts[j + 1] for j in range(len(counts) - 1)):
            raise ValidationError(f"bucket {self.bucket_id!r}: histogram not sorted")

    @property
    def size(self) -> int:
        return len(self.members)

    def count(self, value: str) -> int:
        for v, c in self.histogram:
            if v == value:
                return c
        return 0

    def value_at(self, j: int) -> str | None:
        """The j-th most frequent value, or None past the distinct values."""
        return self.histogram[j][0] if j < len(self.histogram) else None


def make_bucket(bucket_id: str, members: Sequence[str], values: Sequence[str]) -> Bucket:
    """Build a bucket from parallel member/value sequences, sorting the histogram."""
    if len(members) != len(values):
        raise ValidationError("members and values differ in length")
    tally: dict[str, int] = {}
    for v in values:
        tally[v] = tally.get(v, 0) + 1
    # count descending, then value ascending: sorted() is stable
    order = sorted(sorted(tally), key=tally.__getitem__, reverse=True)
    histogram = tuple(zip(order, map(tally.__getitem__, order)))
    return Bucket(bucket_id=bucket_id, members=tuple(members), histogram=histogram)


class Bucketization(_Frozen):
    """An ordered list of buckets partitioning a person set.

    ``domain`` carries the sensitive domain so downstream consumers can form
    atoms about values that happen to be absent from every bucket.
    """

    # no __slots__: the instance dict holds the cached bucket_of and by_id
    _fields = ("buckets", "domain")

    def __init__(self, buckets: tuple[Bucket, ...], domain: tuple[str, ...]) -> None:
        object.__setattr__(self, "buckets", buckets)
        object.__setattr__(self, "domain", domain)
        seen: set[str] = set()
        ids: set[str] = set()
        domain = set(self.domain)
        for b in self.buckets:
            if b.bucket_id in ids:
                raise ValidationError(f"duplicate bucket id {b.bucket_id!r}")
            ids.add(b.bucket_id)
            for value, _ in b.histogram:
                if value not in domain:
                    raise ValidationError(
                        f"bucket {b.bucket_id!r}: value {value!r} outside the domain"
                    )
            for p in b.members:
                if p in seen:
                    raise ValidationError(f"person {p!r} appears in two buckets")
                seen.add(p)

    @cached_property
    def bucket_of(self) -> dict[str, str]:
        """Each person's bucket id, built on first use."""
        return {p: b.bucket_id for b in self.buckets for p in b.members}

    @property
    def person_ids(self) -> frozenset[str]:
        return frozenset(self.bucket_of)

    @cached_property
    def by_id(self) -> dict[str, Bucket]:
        return {b.bucket_id: b for b in self.buckets}

    def bucket(self, bucket_id: str) -> Bucket:
        return self.by_id[bucket_id]

    def bucket_of_person(self, person_id: str) -> Bucket:
        try:
            return self.bucket(self.bucket_of[person_id])
        except KeyError:
            raise ValidationError(f"unknown person {person_id!r}") from None


# ============================================================================
# Loading and partitioning
# ============================================================================

# rows held at once by load_table: larger chunks raise the load's peak
# memory (2.3 MB at 1024 rows, 3.9 MB at 4096 on a 16.5k-row table) and
# save no time
_CHUNK_ROWS = 1024


def _check_widths(rows: Sequence[list[str]], width: int, start: int) -> None:
    """Raise for the first row without ``width`` fields; rows[0] is data row ``start``."""
    for i, row in enumerate(rows, start):
        if len(row) != width:
            raise ValidationError(f"row {i}: expected {width} fields, got {len(row)}")


def load_table(
    source: Source,
    sensitive: str,
    id_column: str | None = None,
    extra_domain: Iterable[str] = (),
) -> Table:
    """Load a CSV table.

    The first row is the header. ``sensitive`` names the sensitive column;
    ``id_column`` names the person-id column (default: the 0-based row index,
    as a string). Every remaining column is an opaque categorical attribute.
    ``extra_domain`` declares sensitive values beyond the observed ones, so a
    sample can carry the full domain.
    """
    with _csv_reader(source) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("empty input: no header row") from None
        if sensitive not in header:
            raise ValidationError(f"missing sensitive column {sensitive!r}")
        if id_column is not None and id_column not in header:
            raise ValidationError(f"missing id column {id_column!r}")
        # a repeated header name reads its last column
        position = {name: j for j, name in enumerate(header)}
        columns: dict[str, list[str]] = {name: [] for name in position}
        # equal values of a non-id column become one string object
        memos = {name: {} for name in position if name != id_column}
        count = 0
        rows: list[list[str]] = []
        while True:
            try:
                rows.extend(islice(reader, _CHUNK_ROWS))
            finally:
                # also on csv.Error: a wrong-width row before a malformed line
                # is reported first
                _check_widths(rows, len(header), count)
            if not rows:
                break
            count += len(rows)
            fields = list(zip(*rows))
            for name, j in position.items():
                memo = memos.get(name)
                values = fields[j] if memo is None else map(memo.setdefault, fields[j], fields[j])
                columns[name].extend(values)
            rows.clear()
        if not count:
            raise ValidationError("empty input: no data rows")
    by_name = {name: tuple(columns.pop(name)) for name in position}
    attributes = tuple(h for h in header if h != sensitive and h != id_column)
    values = by_name[sensitive]
    if id_column is None:
        person_ids = tuple(map(str, range(count)))
    else:
        person_ids = by_name[id_column]
    return Table(
        attributes=attributes,
        sensitive_attribute=sensitive,
        person_ids=person_ids,
        columns=tuple(by_name[a] for a in attributes),
        sensitive=values,
        domain=tuple(sorted(set(values) | set(extra_domain))),
    )


def read_assignment(source: Source) -> dict[str, str]:
    """Read an explicit person-to-bucket assignment file (person<TAB>bucket)."""
    with _open_text(source) as stream:
        assignment: dict[str, str] = {}
        for i, line in enumerate(stream):
            line = line.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValidationError(f"assignment line {i + 1}: expected 2 fields")
            person, bucket = parts
            if person in assignment:
                raise ValidationError(f"assignment repeats person {person!r}")
            assignment[person] = bucket
        return assignment


def read_domain(source: Source) -> tuple[str, ...]:
    """Read a domain file: one sensitive value per line, blanks ignored."""
    with _open_text(source) as stream:
        return tuple(v.strip() for v in stream if v.strip())


def _keys(
    table: Table, assignment: Mapping[str, str] | None, by: Sequence[str] | None
) -> Iterable[tuple[str, ...]]:
    """One grouping key per row, in row order, once ``partition``'s checks pass."""
    if (assignment is None) == (by is None):
        raise ValidationError("specify exactly one of assignment= or by=")
    if assignment is not None:
        missing = [p for p in table.person_ids if p not in assignment]
        if missing:
            raise ValidationError(f"assignment missing person(s) {missing}")
        extra = set(assignment) - set(table.person_ids)
        if extra:
            raise ValidationError(f"assignment names unknown person(s) {sorted(extra)}")
        return [(assignment[p],) for p in table.person_ids]
    unknown = [a for a in by if a not in table.attributes]
    if unknown:
        raise ValidationError(f"cannot group by unknown attribute(s) {unknown}")
    columns = [table.columns[table.attributes.index(a)] for a in by]
    return zip(*columns) if by else [("all",)] * len(table.person_ids)


def partition(
    table: Table,
    assignment: Mapping[str, str] | None = None,
    by: Sequence[str] | None = None,
) -> Bucketization:
    """Partition a table into buckets.

    Exactly one grouping mode applies: an explicit person-to-bucket
    ``assignment``, or ``by``, a list of non-sensitive attributes to group on
    (an empty list groups everything into a single bucket, named "all").
    Bucket order and member order follow row order; with ``assignment``,
    buckets appear in order of first member and keep their labels as ids.
    Group-by ids join the attribute values with "|"; when two distinct value
    tuples join to the same text, the later bucket's id gets "+" appended.
    """
    return _bucketize(table, _keys(table, assignment, by))


def histograms(
    table: Table,
    assignment: Mapping[str, str] | None = None,
    by: Sequence[str] | None = None,
) -> list[tuple[int, ...]]:
    """The count tuples of ``partition(table, assignment, by)``'s buckets, in order.

    Each tuple is descending. ``partition``'s checks run, in its order, but
    no bucket is built: one pass tallies the sensitive values of each key.
    """
    return _count_tuples(_tallies(table, _keys(table, assignment, by)))


def buckets_at(
    table: Table,
    indices: Iterable[int],
    assignment: Mapping[str, str] | None = None,
    by: Sequence[str] | None = None,
) -> list[Bucket]:
    """The buckets of ``partition(table, assignment, by)`` at these indices.

    Buckets come in the order of ``indices``, equal to partition's, and no
    other bucket is built. This is how a witness names persons when the
    engine ran on ``histograms``.
    """
    indices = list(indices)
    built = _buckets(table, _keys(table, assignment, by), set(indices))
    return [built[i] for i in indices]


Tallies = dict[tuple[str, ...], dict[str, int]]


def _tallies(table: Table, keys: Iterable[tuple[str, ...]]) -> Tallies:
    """Each distinct key's sensitive-value tally, given one key per row.

    Keys appear in order of their first row; a tally maps each value its
    key's rows hold to how many hold it.
    """
    tallies: Tallies = {}
    for key, value in zip(keys, table.sensitive):
        tally = tallies.get(key)
        if tally is None:
            tally = tallies[key] = {}
        tally[value] = tally.get(value, 0) + 1
    return tallies


def _count_tuples(tallies: Tallies) -> list[tuple[int, ...]]:
    """Each tally's counts, in descending order."""
    return [tuple(sorted(tally.values(), reverse=True)) for tally in tallies.values()]


def _regroup(tallies: Tallies, keys: Iterable[tuple[str, ...]]) -> Tallies:
    """Give each tally a new key, one per old key, and sum those that meet.

    New keys come in the order of their first old key, so tallies grouped in
    first-row order stay in first-row order.
    """
    regrouped: Tallies = {}
    for key, tally in zip(keys, tallies.values()):
        total = regrouped.get(key)
        if total is None:
            regrouped[key] = dict(tally)
        else:
            for value, count in tally.items():
                total[value] = total.get(value, 0) + count
    return regrouped


def _buckets(
    table: Table, keys: Iterable[tuple[str, ...]], wanted: set[int] | None = None
) -> dict[int, Bucket]:
    """Bucket the table's rows by a tuple key per row, one bucket per key.

    Returns each bucket by its index, or only the ``wanted`` ones. Buckets
    and their members follow row order. A bucket is named by joining its key
    with "|", and a name already taken by another key gets "+" appended
    until it is unique, so distinct keys never share a bucket.
    """
    groups: dict[tuple[str, ...], list[int]] = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    person_ids, values = table.person_ids, table.sensitive
    used: set[str] = set()
    buckets = {}
    for index, (key, rows) in enumerate(groups.items()):
        bucket_id = "|".join(key)
        while bucket_id in used:
            bucket_id += "+"
        used.add(bucket_id)
        if wanted is None or index in wanted:
            members = [person_ids[i] for i in rows]
            buckets[index] = make_bucket(bucket_id, members, [values[i] for i in rows])
    return buckets


def _bucketize(table: Table, keys: Iterable[tuple[str, ...]]) -> Bucketization:
    """Every bucket of ``_buckets``, as a bucketization."""
    return Bucketization(buckets=tuple(_buckets(table, keys).values()), domain=table.domain)


def entropy(counts: Sequence[int]) -> float:
    """Shannon entropy (bits) of a histogram given by its positive counts."""
    n = sum(counts)
    return -sum((c / n) * math.log2(c / n) for c in counts) + 0.0


def min_bucket_entropy(bucketization: Bucketization) -> float:
    """Minimum over buckets of the Shannon entropy (bits) of the value histogram."""
    return min((entropy(b.counts) for b in bucketization.buckets), default=math.inf)


def dump_table(table: Table) -> str:
    """Render a table back to CSV (id column first); round-trips bit-exactly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", *table.attributes, table.sensitive_attribute])
    writer.writerows(table.records)
    return out.getvalue()

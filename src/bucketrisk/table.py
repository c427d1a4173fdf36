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
``_tallies`` counts rows into sensitive-value tallies, for ``histograms``
and the generalization search's bottom node; ``_bucketize`` does the same
while it gathers members, for ``partition`` and ``lattice.apply``. A tally
holds only the values its rows hold, so its cost follows the rows, not a
declared domain. Buckets of a checked table are built without repeating its
checks (``Bucket._grouped``, ``Bucketization._grouped``); the public
constructors check everything a caller passes.
``load_table`` reads the CSV in chunks and keeps one string object per
distinct value of every non-id column.

All types are immutable after construction and safe to share across threads.
They, and the value types of the other modules, are plain classes on
``_Frozen``, defined here because every module with a value type imports
this one. ``_Frozen.__init__`` binds the fields each names in ``_fields``,
by position or by keyword, and refuses a missing, unknown or repeated one
with TypeError. Their methods are written out, so defining them at import
compiles nothing.
"""

from __future__ import annotations

import contextlib
import csv
import math
from collections import Counter, abc
from functools import cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import ContextManager, Iterable, Iterator, Mapping, Sequence, TextIO, Union

from .errors import ValidationError, _check_count, _check_sequence

Source = Union[str, Path, TextIO]

# every character at which str.splitlines, and so the knowledge parser, ends a
# line: a label rendered on one line of output must hold none of them
_LINE_BREAKS = set("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


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

    A subclass names its fields once, in ``_fields``. ``__init__`` binds
    them in that order, by position or by keyword, and raises TypeError for
    a missing field, an unknown keyword or a field given twice; a subclass
    that checks its fields calls it once and keeps only its checks. After
    that, assigning or deleting an attribute raises AttributeError. Two
    values are equal when they are of one class and have equal fields, a
    value hashes as its field tuple, its repr names every field, and it
    pickles and copies by calling its class on its fields. Values are
    unordered; ``knowledge._Ordered`` adds ordering by the field tuple. A
    subclass declares ``__slots__ = _fields`` unless it keeps an instance
    dict for a ``cached_property``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        bound = dict(zip(fields, values))
        if len(values) > len(fields) or bound.keys() & named or bound.keys() | named != {*fields}:
            raise TypeError(f"{self.__class__.__name__}() takes {', '.join(fields)}, each once")
        bound.update(named)
        for field in fields:
            object.__setattr__(self, field, bound[field])

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
    (used for negation encoding and witness tie-breaking). Person ids,
    attribute values, sensitive values and domain values are strings.
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
        super().__init__(attributes, sensitive_attribute, person_ids, columns, sensitive,
                         domain)
        n = len(self.person_ids)
        if len(self.columns) != len(self.attributes) or any(
            len(column) != n for column in (*self.columns, self.sensitive)
        ):
            raise ValidationError("columns are not aligned with the person ids")
        _check_strings(self.person_ids, self.person_ids, "person id")  # before hashing them
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
        for attribute, column in zip(self.attributes, self.columns):
            _check_strings(column, column, f"attribute {attribute!r}: value")
        if not self.domain:
            raise ValidationError("sensitive domain is empty")
        observed = set(self.sensitive)
        _check_strings(observed, self.sensitive, "sensitive value")
        domain = set(self.domain)
        _check_strings(domain, self.domain, "domain value")
        if not observed <= domain:
            raise ValidationError(
                f"observed sensitive value(s) outside domain: {sorted(observed - domain)}"
            )

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Each person's row index."""
        return {p: i for i, p in enumerate(self.person_ids)}

    @property
    def records(self) -> tuple[tuple[str, ...], ...]:
        """The rows as ``(person_id, *attribute values, sensitive)`` tuples."""
        return tuple(zip(self.person_ids, *self.columns, self.sensitive))


def _check_strings(values: Iterable[object], ordered: Iterable[object], what: str) -> None:
    """Refuse ``values`` unless each is a string, naming the first
    non-string of ``ordered``, the same values in the order to report them.

    Only the set of the values' types is built, so a column costs one pass
    at C speed, and a set of its distinct values less.
    """
    if not all(issubclass(t, str) for t in set(map(type, values))):
        bad = next(v for v in ordered if not isinstance(v, str))
        raise ValidationError(f"{what} {bad!r} is not a string")


# a histogram pair's count
_count_of = itemgetter(1)


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
        super().__init__(bucket_id, members, histogram)
        if not self.members:
            raise ValidationError(f"bucket {self.bucket_id!r} is empty")
        seen: set[str] = set()
        for p in self.members:
            if not isinstance(p, str):
                raise ValidationError(f"bucket {self.bucket_id!r}: member {p!r} is not a string")
            if p in seen:
                raise ValidationError(f"bucket {self.bucket_id!r}: duplicate member {p!r}")
            seen.add(p)
        name = f"bucket {self.bucket_id!r}: each count"
        for entry in self.histogram:
            if not (isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str)):
                raise ValidationError(
                    f"bucket {self.bucket_id!r}: histogram entry {entry!r} is not a "
                    "(value, count) pair"
                )
            _check_count(entry[1], name, least=None)
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

    @classmethod
    def _grouped(
        cls, bucket_id: str, members: tuple[str, ...], histogram: tuple[tuple[str, int], ...]
    ) -> Bucket:
        """A bucket of rows grouped by ``_bucketize`` or ``_buckets``.

        It skips ``__init__``'s checks: that the bucket is not empty, that its
        members are distinct strings, and that its counts are integers,
        positive, sorted and cover the members. Grouping guarantees them all:
        a group holds at least one row, its members are distinct strings
        because ``Table.__init__`` checks that person ids are unique strings,
        its histogram is ``_histogram`` of the tally of its rows' values, so
        its counts are positive integers in descending order, and they sum to
        its rows, one member each.
        """
        bucket = object.__new__(cls)
        object.__setattr__(bucket, "bucket_id", bucket_id)
        object.__setattr__(bucket, "members", members)
        object.__setattr__(bucket, "histogram", histogram)
        object.__setattr__(bucket, "counts", tuple(map(_count_of, histogram)))
        return bucket

    @property
    def size(self) -> int:
        return len(self.members)


def _histogram(tally: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    """A tally's (value, count) pairs, count descending, then value ascending."""
    pairs = sorted(tally.items())
    pairs.sort(key=_count_of, reverse=True)  # stable: equal counts keep value order
    return tuple(pairs)


def make_bucket(bucket_id: str, members: Sequence[str], values: Sequence[str]) -> Bucket:
    """Build a bucket from parallel member/value sequences, sorting the histogram."""
    if len(members) != len(values):
        raise ValidationError("members and values differ in length")
    histogram = _histogram(Counter(values))
    return Bucket(bucket_id=bucket_id, members=tuple(members), histogram=histogram)


class Bucketization(_Frozen):
    """An ordered list of buckets partitioning a person set.

    ``domain`` carries the sensitive domain so downstream consumers can form
    atoms about values that happen to be absent from every bucket.
    """

    # no __slots__: the instance dict holds the cached bucket_of and by_id
    _fields = ("buckets", "domain")

    def __init__(self, buckets: tuple[Bucket, ...], domain: tuple[str, ...]) -> None:
        super().__init__(buckets, domain)
        seen: set[str] = set()
        ids: set[str] = set()
        domain = set(self.domain)
        for b in self.buckets:
            if not isinstance(b, Bucket):
                raise ValidationError(f"buckets holds {b!r}, not a Bucket")
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

    @classmethod
    def _grouped(cls, buckets: tuple[Bucket, ...], table: Table) -> Bucketization:
        """The bucketization of a table's rows grouped by ``_bucketize``.

        It skips ``__init__``'s checks, none of which can fail here: bucket
        ids are unique by the "+" rule of ``_bucket_ids``; no person is in two
        buckets, because each row lands in one group and ``Table.__init__``
        checks that person ids are unique; and every value lies in the
        domain, because ``Table.__init__`` checks that every observed value
        lies in ``table.domain``, the domain given here.
        """
        bucketization = object.__new__(cls)
        object.__setattr__(bucketization, "buckets", buckets)
        object.__setattr__(bucketization, "domain", table.domain)
        return bucketization

    @cached_property
    def bucket_of(self) -> dict[str, str]:
        """Each person's bucket id, built on first use."""
        return {p: b.bucket_id for b in self.buckets for p in b.members}

    @cached_property
    def by_id(self) -> dict[str, Bucket]:
        return {b.bucket_id: b for b in self.buckets}

    def bucket_of_person(self, person_id: str) -> Bucket:
        try:
            return self.by_id[self.bucket_of[person_id]]
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
    if by is not None:
        _check_sequence(by, "by")  # a str would group by its letters
    if assignment is not None:
        if not isinstance(assignment, abc.Mapping):
            raise ValidationError(f"assignment must be a mapping, not {type(assignment).__name__}")
        missing = [p for p in table.person_ids if p not in assignment]
        if missing:
            raise ValidationError(f"assignment missing person(s) {missing}")
        extra = set(assignment) - set(table.person_ids)
        if extra:
            raise ValidationError(f"assignment names unknown person(s) {sorted(extra)}")
        labels = [assignment[p] for p in table.person_ids]
        _check_strings(labels, labels, "bucket label")
        return [(label,) for label in labels]
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
    indices: Sequence[int],
    assignment: Mapping[str, str] | None = None,
    by: Sequence[str] | None = None,
) -> list[Bucket]:
    """The buckets of ``partition(table, assignment, by)`` at these indices.

    Buckets come in the order of ``indices``, equal to partition's, and no
    other bucket is built. This is how a witness names persons when the
    engine ran on ``histograms``. ``indices`` is a list or a tuple, and each
    index an integer from 0 to the number of buckets less one.
    """
    _check_sequence(indices, "indices")
    for i in indices:
        _check_count(i, "each bucket index")
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


def _bucket_ids(keys: Iterable[tuple[str, ...]]) -> list[str]:
    """Each of these distinct keys' bucket id, in order.

    A bucket is named by joining its key with "|", and a name already taken
    by an earlier key gets "+" appended until it is unique, so distinct keys
    never share a bucket.
    """
    ids: dict[str, None] = {}  # insertion-ordered, and a set of the names taken
    for key in keys:
        bucket_id = "|".join(key)
        while bucket_id in ids:
            bucket_id += "+"
        ids[bucket_id] = None
    return list(ids)


def _buckets(
    table: Table, keys: Iterable[tuple[str, ...]], wanted: set[int]
) -> dict[int, Bucket]:
    """The ``wanted`` buckets of the table's rows grouped by a tuple key per
    row, by their indices among all buckets.

    Buckets and their members follow row order. Rows are grouped by index,
    and only the wanted buckets' values are tallied.
    """
    groups: dict[tuple[str, ...], list[int]] = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    if wanted and max(wanted) >= len(groups):
        raise ValidationError(f"bucket index {max(wanted)} out of range for {len(groups)} buckets")
    person_ids, values = table.person_ids, table.sensitive
    buckets = {}
    for index, (bucket_id, rows) in enumerate(zip(_bucket_ids(groups), groups.values())):
        if index in wanted:
            histogram = _histogram(Counter([values[i] for i in rows]))
            buckets[index] = Bucket._grouped(bucket_id, tuple([person_ids[i] for i in rows]),
                                             histogram)
    return buckets


def _bucketize(table: Table, keys: Iterable[tuple[str, ...]]) -> Bucketization:
    """The table's rows grouped by a tuple key per row, one bucket per key.

    Buckets and their members follow row order, and buckets are named by
    ``_bucket_ids``. One pass gathers each key's members and tallies its
    values.
    """
    groups: dict[tuple[str, ...], tuple[list[str], dict[str, int]]] = {}
    for key, person, value in zip(keys, table.person_ids, table.sensitive):
        group = groups.get(key)
        if group is None:
            groups[key] = ([person], {value: 1})
        else:
            group[0].append(person)
            tally = group[1]
            tally[value] = tally.get(value, 0) + 1
    bucket = Bucket._grouped
    buckets = tuple(
        bucket(bucket_id, tuple(members), _histogram(tally))
        for bucket_id, (members, tally) in zip(_bucket_ids(groups), groups.values())
    )
    return Bucketization._grouped(buckets, table)


def entropy(counts: Sequence[int]) -> float:
    """Shannon entropy (bits) of a histogram given by its positive counts."""
    n = sum(counts)
    return -sum((c / n) * math.log2(c / n) for c in counts) + 0.0


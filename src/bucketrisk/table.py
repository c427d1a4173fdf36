"""Tables, bucketizations, and per-bucket statistics.

A table holds person-indexed records with opaque categorical non-sensitive
attributes and one sensitive value from a finite domain. A bucketization
partitions the persons into buckets; publishing one is modeled as revealing,
per bucket, the member list and the multiset of sensitive values (the
assignment within the bucket stays hidden). Everything downstream (the exact
oracle, the polynomial engine, the generalization search) consumes the types
defined here.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TextIO, Union

from .errors import ValidationError

Source = Union[str, Path, TextIO]


def _open_text(source: Source) -> TextIO:
    """Return a readable text stream for a path or pass a stream through."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    return source


@dataclass(frozen=True)
class Record:
    """One person: an id, the non-sensitive attribute values, the sensitive value."""

    person_id: str
    values: Mapping[str, str]
    sensitive: str


@dataclass(frozen=True)
class Table:
    """A validated table with one designated sensitive attribute.

    ``domain`` is the sensitive domain: every observed value plus any declared
    extras, sorted lexicographically. The sort order is the package's canonical
    value order (used for negation encoding and witness tie-breaking).
    """

    attributes: tuple[str, ...]
    sensitive_attribute: str
    records: tuple[Record, ...]
    domain: tuple[str, ...]

    @cached_property
    def by_id(self) -> dict[str, Record]:
        return {r.person_id: r for r in self.records}

    @property
    def person_ids(self) -> tuple[str, ...]:
        return tuple(r.person_id for r in self.records)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for r in self.records:
            if not r.person_id:
                raise ValidationError("empty person id")
            if r.person_id in seen:
                raise ValidationError(f"duplicate person id {r.person_id!r}")
            seen.add(r.person_id)
            missing = [a for a in self.attributes if a not in r.values]
            if missing:
                raise ValidationError(
                    f"record {r.person_id!r} missing attribute(s) {missing}"
                )
        if not self.domain:
            raise ValidationError("sensitive domain is empty")
        observed = {r.sensitive for r in self.records}
        if not observed <= set(self.domain):
            raise ValidationError(
                f"observed sensitive value(s) outside domain: "
                f"{sorted(observed - set(self.domain))}"
            )


@dataclass(frozen=True)
class Bucket:
    """One bucket: members plus the histogram of their sensitive values.

    The histogram is sorted by count descending, ties broken by value
    ascending, so index j gives the j-th most frequent value deterministically.
    Indices past the number of distinct values have an implicit count of 0.
    """

    bucket_id: str
    members: tuple[str, ...]
    histogram: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValidationError(f"bucket {self.bucket_id!r} is empty")
        counts = [c for _, c in self.histogram]
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

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(c for _, c in self.histogram)

    def count(self, value: str) -> int:
        for v, c in self.histogram:
            if v == value:
                return c
        return 0

    def value_at(self, j: int) -> str | None:
        """The j-th most frequent value, or None past the distinct values."""
        return self.histogram[j][0] if j < len(self.histogram) else None

    def multiset(self) -> dict[str, int]:
        return dict(self.histogram)


def make_bucket(bucket_id: str, members: Sequence[str], values: Sequence[str]) -> Bucket:
    """Build a bucket from parallel member/value sequences, sorting the histogram."""
    if len(members) != len(values):
        raise ValidationError("members and values differ in length")
    tally: dict[str, int] = {}
    for v in values:
        tally[v] = tally.get(v, 0) + 1
    histogram = tuple(sorted(tally.items(), key=lambda kv: (-kv[1], kv[0])))
    return Bucket(bucket_id=bucket_id, members=tuple(members), histogram=histogram)


@dataclass(frozen=True)
class Bucketization:
    """An ordered list of buckets partitioning a person set.

    ``domain`` carries the sensitive domain so downstream consumers can form
    atoms about values that happen to be absent from every bucket.
    """

    buckets: tuple[Bucket, ...]
    domain: tuple[str, ...]
    bucket_of: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        ids: set[str] = set()
        for b in self.buckets:
            if b.bucket_id in ids:
                raise ValidationError(f"duplicate bucket id {b.bucket_id!r}")
            ids.add(b.bucket_id)
            for p in b.members:
                if p in seen:
                    raise ValidationError(f"person {p!r} appears in two buckets")
                seen.add(p)
        if not self.bucket_of:
            mapping = {p: b.bucket_id for b in self.buckets for p in b.members}
            object.__setattr__(self, "bucket_of", mapping)

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
    stream = _open_text(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("empty input: no header row") from None
        if sensitive not in header:
            raise ValidationError(f"missing sensitive column {sensitive!r}")
        if id_column is not None and id_column not in header:
            raise ValidationError(f"missing id column {id_column!r}")
        attributes = tuple(
            h for h in header if h != sensitive and h != id_column
        )
        records = []
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise ValidationError(
                    f"row {i}: expected {len(header)} fields, got {len(row)}"
                )
            cells = dict(zip(header, row))
            pid = cells[id_column] if id_column is not None else str(i)
            records.append(
                Record(
                    person_id=pid,
                    values={a: cells[a] for a in attributes},
                    sensitive=cells[sensitive],
                )
            )
        if not records:
            raise ValidationError("empty input: no data rows")
    finally:
        if isinstance(source, (str, Path)):
            stream.close()
    domain = sorted({r.sensitive for r in records} | set(extra_domain))
    return Table(
        attributes=attributes,
        sensitive_attribute=sensitive,
        records=tuple(records),
        domain=tuple(domain),
    )


def read_assignment(source: Source) -> dict[str, str]:
    """Read an explicit person-to-bucket assignment file (person<TAB>bucket)."""
    stream = _open_text(source)
    try:
        assignment: dict[str, str] = {}
        for i, line in enumerate(stream):
            line = line.rstrip("\n")
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
    finally:
        if isinstance(source, (str, Path)):
            stream.close()


def read_domain(source: Source) -> tuple[str, ...]:
    """Read a domain file: one sensitive value per line, blanks ignored."""
    stream = _open_text(source)
    try:
        return tuple(v.strip() for v in stream if v.strip())
    finally:
        if isinstance(source, (str, Path)):
            stream.close()


def partition(
    table: Table,
    assignment: Mapping[str, str] | None = None,
    by: Sequence[str] | None = None,
) -> Bucketization:
    """Partition a table into buckets.

    Exactly one grouping mode applies: an explicit person-to-bucket
    ``assignment``, or ``by``, a list of non-sensitive attributes to group on
    (an empty list groups everything into a single bucket, named "all").
    Bucket order and member order follow record order; with ``assignment``,
    buckets appear in order of first member and keep their labels as ids.
    Group-by ids join the attribute values with "|"; when two distinct value
    tuples join to the same text, the later bucket's id gets "+" appended.
    """
    if (assignment is None) == (by is None):
        raise ValidationError("specify exactly one of assignment= or by=")
    if assignment is not None:
        missing = [r.person_id for r in table.records if r.person_id not in assignment]
        if missing:
            raise ValidationError(f"assignment missing person(s) {missing}")
        extra = set(assignment) - set(table.person_ids)
        if extra:
            raise ValidationError(f"assignment names unknown person(s) {sorted(extra)}")
        return _bucketize(table, lambda r: (assignment[r.person_id],))
    unknown = [a for a in by if a not in table.attributes]
    if unknown:
        raise ValidationError(f"cannot group by unknown attribute(s) {unknown}")
    return _bucketize(table, lambda r: tuple([r.values[a] for a in by]) or ("all",))


def _bucketize(
    table: Table, key: Callable[[Record], tuple[str, ...]]
) -> Bucketization:
    """Group the table's records by a tuple key, one bucket per distinct key.

    Buckets and their members follow record order. A bucket is named by
    joining its key with "|", and a name already taken by another key gets
    "+" appended until it is unique, so distinct keys never share a bucket.
    """
    groups: dict[tuple[str, ...], list[Record]] = {}
    for r in table.records:
        groups.setdefault(key(r), []).append(r)
    used: set[str] = set()
    buckets = []
    for values, rs in groups.items():
        bucket_id = "|".join(values)
        while bucket_id in used:
            bucket_id += "+"
        used.add(bucket_id)
        buckets.append(
            make_bucket(bucket_id, [r.person_id for r in rs], [r.sensitive for r in rs])
        )
    return Bucketization(buckets=tuple(buckets), domain=table.domain)


def min_bucket_entropy(bucketization: Bucketization) -> float:
    """Minimum over buckets of the Shannon entropy (bits) of the value histogram."""
    best = math.inf
    for b in bucketization.buckets:
        n = b.size
        h = -sum((c / n) * math.log2(c / n) for c in b.counts) + 0.0
        best = min(best, h)
    return best


def dump_table(table: Table) -> str:
    """Render a table back to CSV (id column first); round-trips bit-exactly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", *table.attributes, table.sensitive_attribute])
    for r in table.records:
        writer.writerow(
            [r.person_id, *(r.values[a] for a in table.attributes), r.sensitive]
        )
    return out.getvalue()

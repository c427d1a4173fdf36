"""Shared builders for synthetic tables, bucketizations, and small lattices."""

from __future__ import annotations

import random

from bucketrisk import Bucketization, Hierarchy, Table, make_bucket

VALUES = ("a", "b", "c", "d")


def bucketization_from_counts(count_maps, domain=None) -> Bucketization:
    """Build a bucketization from per-bucket {value: count} maps."""
    buckets = []
    pid = 0
    seen = set()
    for i, counts in enumerate(count_maps):
        members, values = [], []
        for value in sorted(counts):
            for _ in range(counts[value]):
                members.append(f"p{pid:03d}")
                values.append(value)
                pid += 1
        buckets.append(make_bucket(f"b{i}", members, values))
        seen.update(counts)
    if domain is None:
        domain = sorted(seen)
    return Bucketization(tuple(buckets), tuple(domain))


def random_bucketization(
    rng: random.Random,
    max_tuples: int = 8,
    max_buckets: int = 3,
    max_values: int = 4,
    min_values: int = 1,
) -> Bucketization:
    """A random small bucketization; every bucket non-empty."""
    n = rng.randint(2, max_tuples)
    num_buckets = rng.randint(1, min(max_buckets, n))
    domain = VALUES[: rng.randint(min_values, max_values)]
    home = [i if i < num_buckets else rng.randrange(num_buckets) for i in range(n)]
    buckets = []
    for b in range(num_buckets):
        members = [f"p{i:03d}" for i in range(n) if home[i] == b]
        values = [rng.choice(domain) for _ in members]
        buckets.append(make_bucket(f"b{b}", members, values))
    return Bucketization(tuple(buckets), domain)


def random_table_and_hierarchy(
    rng: random.Random,
    max_attributes: int = 3,
    max_tuples: int = 12,
) -> tuple[Table, Hierarchy]:
    """A random small table with a random generalization hierarchy.

    Each attribute gets at most two declared levels (a random two-group merge,
    then full suppression), so lattices stay at most 3 levels per attribute.
    """
    num_attributes = rng.randint(1, max_attributes)
    attributes = tuple(f"A{i}" for i in range(num_attributes))
    raw_sizes = [rng.randint(2, 3) for _ in attributes]
    domain = VALUES[: rng.randint(2, 3)]
    rows = []
    for _ in range(rng.randint(3, max_tuples)):
        raw = [f"r{rng.randrange(size)}" for size in raw_sizes]
        rows.append((*raw, rng.choice(domain)))
    *columns, sensitive = zip(*rows)
    person_ids = tuple(f"p{i:03d}" for i in range(len(rows)))
    table = Table(attributes, "S", person_ids, tuple(columns), sensitive, domain)

    levels = {}
    for j, attribute in enumerate(attributes):
        raws = [f"r{x}" for x in range(raw_sizes[j])]
        declared = []
        if rng.random() < 0.7:
            groups = [rng.randrange(2) for _ in raws]
            if len(set(groups)) == 1:
                groups[-1] = 1 - groups[-1]
            declared.append({r: f"g{g}" for r, g in zip(raws, groups)})
        declared.append("suppress")
        levels[attribute] = tuple(declared)
    return table, Hierarchy(attributes, levels)

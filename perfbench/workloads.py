"""Seeded inputs, operations and output checks for the benchmark workloads.

Every workload draws its bucket structure (attribute values, histograms,
hierarchy, oracle tables) from a fixed structure seed, so the work and the
answers are the same for every run seed. The run seed picks the person ids:
each seed yields different input files whose outputs match the pinned
outputs once ids are mapped back to row numbers (``canonical``).
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

STRUCTURE_SEED = 2007
DISEASES = tuple(f"D{j:02d}" for j in range(14))
DISEASE_WEIGHTS = tuple(1 / (j + 1) for j in range(14))
ID_PATTERN = re.compile(r"P\d{7}")

CLI = ("-m", "bucketrisk.cli")
CHILD = "child.py"  # run from this directory, see Op.argv

# Generator parameters per workload and size. "full" is what the benchmark
# times; "smoke" is a small variant that the benchmark's own tests run.
PARAMS = {
    "census-disclose": {
        "full": {"rows": 16_500, "zips": 25, "ages": 20},
        "smoke": {"rows": 3_000, "zips": 10, "ages": 6},
    },
    "wide-buckets": {
        "full": {"buckets": 1_000, "pool": 16},
        "smoke": {"buckets": 200, "pool": 16},
    },
    "census-anonymize": {
        "full": {"rows": 7_500, "zips": 25, "ages": 60},
        "smoke": {"rows": 3_000, "zips": 10, "ages": 6},
    },
    "oracle-verify": {
        "full": {"oracle_buckets": [[2, 2, 2, 1], [2, 2, 1, 1]],
                 "refuse_counts": [2, 2, 2, 2, 2, 2], "refuse_named": 8,
                 "instances": 20},
        "smoke": {"oracle_buckets": [[2, 2, 1], [2, 1]],
                  "refuse_counts": [2, 2, 2, 2, 2, 2], "refuse_named": 6,
                  "instances": 4},
    },
}

# What each workload must look like; a generator that drifts fails here
# instead of silently changing the load. nodes_evaluated is the number of
# nodes the seed commit's bottom-up search evaluates for the pinned answer.
SHAPES = {
    "census-disclose": {
        "full": {"rows": 16_500, "buckets": 500, "distinct_histograms": 496},
        "smoke": {"rows": 3_000, "buckets": 60, "distinct_histograms": 60},
    },
    "wide-buckets": {
        "full": {"rows": 17_786, "buckets": 1000, "distinct_histograms": 16},
        "smoke": {"rows": 3_593, "buckets": 200, "distinct_histograms": 16},
    },
    "census-anonymize": {
        "full": {"rows": 7_500, "buckets": 2759, "lattice_nodes": 32,
                 "nodes_evaluated": 18},
        "smoke": {"rows": 3_000, "buckets": 120, "lattice_nodes": 32},
    },
    "oracle-verify": {
        "full": {"rows": 13, "buckets": 2, "world_count": 113_400},
        "smoke": {"rows": 8, "buckets": 2, "world_count": 90},
    },
}


class ShapeError(Exception):
    """The generator produced a different structure than the benchmark expects."""


@dataclass(frozen=True)
class Op:
    """One timed operation: a child process and the exit code it must end with.

    ``argv`` follows the Python interpreter; "child.py" stands for the
    benchmark's own child program in this directory.
    """

    metric: str
    label: str
    argv: tuple[str, ...]
    exit_code: int


@dataclass
class Inputs:
    """Generated files of one workload plus what the checks need to know."""

    workload: str
    size: str
    directory: Path
    ids: list[str]     # row number -> person id for this seed
    ops: tuple[Op, ...]
    probe_k: int       # k of the traced run's engine probe
    main: dict         # main table: file, sensitive and id column, group-by, hierarchy

    @functools.cached_property
    def row_of(self) -> dict[str, int]:
        return {pid: i for i, pid in enumerate(self.ids)}

    def canonical(self, text: str) -> str:
        """Replace this seed's person ids by their row numbers (#n)."""
        return ID_PATTERN.sub(lambda m: f"#{self.row_of.get(m.group(), '?')}", text)

    def expected(self, metric: str) -> str:
        """Canonical stdout of an op, pinned from the seed commit."""
        return _pinned()[self.workload][self.size][metric]


@functools.cache
def _pinned() -> dict:
    return json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))


def person_ids(seed: int, count: int) -> list[str]:
    """Distinct person ids for one run seed, in row order."""
    return [f"P{n:07d}" for n in random.Random(seed).sample(range(10**7), count)]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _census_rows(p: dict) -> list[tuple[str, str, str, str]]:
    rng = random.Random(STRUCTURE_SEED)
    zips = [str(14850 + i) for i in range(p["zips"])]
    ages = [str(20 + a) for a in range(p["ages"])]
    diseases = rng.choices(DISEASES, DISEASE_WEIGHTS, k=p["rows"])
    return [
        (rng.choice(zips), rng.choice(ages), rng.choice("FM"), d) for d in diseases
    ]


LATTICE_TOP = (3, 3, 1)  # Zip, Age, Sex levels of the census hierarchy


def _census_hierarchy(p: dict) -> dict:
    """Zip: 4-digit prefix, 3-digit prefix, suppressed; Age: 5-year band,
    20-year band, suppressed; Sex: suppressed. 4 x 4 x 2 = 32 nodes."""
    zips = [str(14850 + i) for i in range(p["zips"])]
    ages = [20 + a for a in range(p["ages"])]
    return {
        "Zip": [{z: z[:4] + "*" for z in zips}, {z: z[:3] + "**" for z in zips}, "suppress"],
        "Age": [
            {str(a): f"{a - a % 5}-{a - a % 5 + 4}" for a in ages},
            {str(a): f"{a - a % 20}-{a - a % 20 + 19}" for a in ages},
            "suppress",
        ],
        "Sex": ["suppress"],
    }


def _wide_rows(p: dict) -> list[tuple[str, str]]:
    """Buckets keyed by Block, histograms drawn from a small pool.

    Every pool histogram holds all 14 values at least once plus 0..6 extra
    draws, so no bucket saturates at k = 12.
    """
    rng = random.Random(STRUCTURE_SEED)
    pool: list[tuple[int, ...]] = []
    shapes: set[tuple[int, ...]] = set()  # the engine sees only sorted counts
    while len(pool) < p["pool"]:
        counts = [1] * len(DISEASES)
        for _ in range(rng.randint(0, 6)):
            counts[rng.randrange(len(counts))] += 1
        shape = tuple(sorted(counts, reverse=True))
        if shape not in shapes:
            shapes.add(shape)
            pool.append(tuple(counts))
    rows = []
    for b in range(p["buckets"]):
        counts = pool[b % len(pool)] if b < len(pool) else rng.choice(pool)
        values = [d for d, c in zip(DISEASES, counts) for _ in range(c)]
        rows.extend((f"B{b:05d}", v) for v in values)
    rng.shuffle(rows)
    return rows


def _oracle_rows(buckets: list[list[int]]) -> list[tuple[str, str]]:
    rows = []
    for w, counts in enumerate(buckets):
        for j, c in enumerate(counts):
            rows.extend((f"W{w}", DISEASES[j]) for _ in range(c))
    return rows


def _verify_instances(count: int) -> list[list[list[str]]]:
    """Small bucketizations (sensitive values per bucket) the brute force reaches."""
    rng = random.Random(STRUCTURE_SEED)
    instances = []
    for _ in range(count):
        n = rng.randint(3, 6)
        domain = DISEASES[: rng.randint(2, 3)]
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(2, n - 1))))
        values = [rng.choice(domain) for _ in range(n)]
        bounds = [0, *cuts, n]
        instances.append([values[a:b] for a, b in zip(bounds, bounds[1:])])
    return instances


def generate(workload: str, seed: int, directory: Path, size: str = "full") -> Inputs:
    """Write the workload's input files for this seed and describe its ops.

    Raises ShapeError when the generated structure differs from SHAPES.
    """
    p = PARAMS[workload][size]
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.iterdir():
        if old.is_file():
            old.unlink()
    make = {
        "census-disclose": _gen_census_disclose,
        "wide-buckets": _gen_wide,
        "census-anonymize": _gen_anonymize,
        "oracle-verify": _gen_oracle,
    }[workload]
    ids, ops, probe_k, main, shape = make(p, seed, directory)
    inputs = Inputs(workload, size, directory, ids, ops, probe_k, main)
    if "nodes_evaluated" in SHAPES[workload][size]:
        minimal = [
            tuple(int(part.split("=")[1]) for part in line[len("minimal: "):].split(","))
            for line in inputs.expected("op1_s").splitlines()
            if line.startswith("minimal: ")
        ]
        shape["nodes_evaluated"] = search_evaluations(minimal, LATTICE_TOP)
    wrong = {
        key: (shape.get(key), want)
        for key, want in SHAPES[workload][size].items()
        if shape.get(key) != want
    }
    if wrong:
        raise ShapeError(f"{workload} ({size}): generated shape differs: {wrong}")
    return inputs


def search_evaluations(minimal, top) -> int:
    """Nodes a bottom-up search evaluates when it skips every node lying
    strictly above a minimal safe node: all the others."""
    nodes = itertools.product(*(range(t + 1) for t in top))
    return sum(
        1 for node in nodes
        if not any(node != m and all(a >= b for a, b in zip(node, m)) for m in minimal)
    )


def _group_shape(rows, key) -> dict:
    """Rows, buckets and distinct histograms (sorted value counts) of a grouping."""
    groups: dict = {}
    for row in rows:
        tally = groups.setdefault(key(row), {})
        tally[row[-1]] = tally.get(row[-1], 0) + 1
    histograms = {tuple(sorted(t.values(), reverse=True)) for t in groups.values()}
    return {"rows": len(rows), "buckets": len(groups),
            "distinct_histograms": len(histograms)}


def _table_args(main: dict) -> tuple[str, ...]:
    return ("--table", main["table"], "--sensitive", main["sensitive"], "--id", main["id"])


def _setup_op(main: dict) -> Op:
    argv = [CHILD, "setup", *_table_args(main), "--group-by", main["group_by"]]
    if main.get("hierarchy"):
        argv += ["--hierarchy", main["hierarchy"]]
    return Op("setup_s", "import, load and bucketize", tuple(argv), 0)


def _disclose_ops(main: dict) -> tuple[Op, ...]:
    table = _table_args(main)
    group = ("--group-by", main["group_by"])
    return (
        _setup_op(main),
        Op("op1_s", "disclose --k 12 --witness",
           (*CLI, *table, "disclose", "--k", "12", "--witness", *group), 0),
        Op("op2_s", "curve-k --k-max 12",
           (*CLI, *table, "curve-k", "--k-max", "12", *group), 0),
        Op("op3_s", "disclose --k 3 --witness",
           (*CLI, *table, "disclose", "--k", "3", "--witness", *group), 0),
    )


def _gen_census_disclose(p, seed, directory):
    rows = _census_rows(p)
    ids = person_ids(seed, len(rows))
    _write_csv(directory / "census.csv", ("Id", "Zip", "Age", "Sex", "Disease"),
               ((pid, *row) for pid, row in zip(ids, rows)))
    main = {"table": "census.csv", "sensitive": "Disease", "id": "Id",
            "group_by": "Zip,Age"}
    return ids, _disclose_ops(main), 12, main, _group_shape(rows, lambda r: r[:2])


def _gen_wide(p, seed, directory):
    rows = _wide_rows(p)
    ids = person_ids(seed, len(rows))
    _write_csv(directory / "wide.csv", ("Id", "Block", "Disease"),
               ((pid, *row) for pid, row in zip(ids, rows)))
    main = {"table": "wide.csv", "sensitive": "Disease", "id": "Id",
            "group_by": "Block"}
    return ids, _disclose_ops(main), 12, main, _group_shape(rows, lambda r: r[0])


def _gen_anonymize(p, seed, directory):
    rows = _census_rows(p)
    ids = person_ids(seed, len(rows))
    _write_csv(directory / "census.csv", ("Id", "Zip", "Age", "Sex", "Disease"),
               ((pid, *row) for pid, row in zip(ids, rows)))
    (directory / "hierarchy.json").write_text(
        json.dumps(_census_hierarchy(p), indent=1), encoding="utf-8"
    )
    main = {"table": "census.csv", "sensitive": "Disease", "id": "Id",
            "group_by": "Zip,Age,Sex", "hierarchy": "hierarchy.json"}
    table = _table_args(main)
    lattice = ("anonymize", "--hierarchy", "hierarchy.json", "--c", "3/5", "--k", "2")
    ops = (
        _setup_op(main),
        Op("op1_s", "anonymize --all-minimal --k 2 --c 3/5",
           (*CLI, *table, *lattice, "--all-minimal"), 0),
        Op("op2_s", "anonymize --chain Zip=0..3,Age=0..3,Sex=0..1",
           (*CLI, *table, *lattice, "--chain", "Zip=0..3,Age=0..3,Sex=0..1"), 0),
        Op("op3_s", "disclose --k 2 --witness on the bottom node",
           (*CLI, *table, "disclose", "--k", "2", "--witness",
            "--group-by", main["group_by"]), 0),
    )
    shape = _group_shape(rows, lambda r: r[:3])
    shape["lattice_nodes"] = math.prod(t + 1 for t in LATTICE_TOP)
    return ids, ops, 2, main, shape


def _gen_oracle(p, seed, directory):
    oracle_rows = _oracle_rows(p["oracle_buckets"])
    refuse_rows = _oracle_rows([p["refuse_counts"]])
    instances = _verify_instances(p["instances"])
    ids = person_ids(seed, len(oracle_rows) + len(refuse_rows)
                     + sum(len(b) for inst in instances for b in inst))
    oracle_ids = ids[: len(oracle_rows)]
    refuse_ids = ids[len(oracle_rows): len(oracle_rows) + len(refuse_rows)]
    _write_csv(directory / "oracle.csv", ("Id", "Ward", "Disease"),
               ((pid, *row) for pid, row in zip(oracle_ids, oracle_rows)))
    _write_csv(directory / "refuse.csv", ("Id", "Ward", "Disease"),
               ((pid, *row) for pid, row in zip(refuse_ids, refuse_rows)))
    # oracle.bk: the first person of ward 1 implies facts about ward 0
    first_w1 = len([r for r in oracle_rows if r[0] == "W0"])
    (directory / "oracle.bk").write_text(
        f"({oracle_ids[first_w1]}={DISEASES[0]}) -> ({oracle_ids[0]}={DISEASES[0]})\n"
        f"({oracle_ids[1]}={DISEASES[1]} & {oracle_ids[first_w1 + 1]}={DISEASES[1]}) -> "
        f"({oracle_ids[0]}={DISEASES[0]} | {oracle_ids[2]}={DISEASES[2]})\n",
        encoding="utf-8",
    )
    # refuse.bk: a chain of implications naming refuse_named persons of the
    # one ward, so the projected count alone exceeds --budget 1000
    named = refuse_ids[: p["refuse_named"]]
    (directory / "refuse.bk").write_text(
        "".join(f"({a}={DISEASES[0]}) -> ({b}={DISEASES[1]})\n"
                for a, b in zip(named, named[1:])),
        encoding="utf-8",
    )
    rename = iter(ids[len(oracle_rows) + len(refuse_rows):])
    (directory / "instances.json").write_text(json.dumps(
        [[[[next(rename), v] for v in bucket] for bucket in inst] for inst in instances]
    ), encoding="utf-8")
    main = {"table": "oracle.csv", "sensitive": "Disease", "id": "Id", "group_by": "Ward"}
    ops = (
        _setup_op(main),
        Op("op1_s", "oracle, full enumeration",
           (*CLI, *_table_args(main), "oracle", "--knowledge", "oracle.bk",
            "--target", f"{oracle_ids[0]}={DISEASES[0]}", "--group-by", "Ward"), 0),
        Op("op2_s", "--budget 1000 oracle, refused",
           (*CLI, "--table", "refuse.csv", "--sensitive", "Disease", "--id", "Id",
            "--budget", "1000", "oracle", "--knowledge", "refuse.bk",
            "--target", f"{refuse_ids[0]}={DISEASES[0]}", "--group-by", "Ward"), 3),
        Op("op3_s", "brute force against the optimizer, k = 0..2",
           (CHILD, "verify", "instances.json"), 0),
    )
    shape = _group_shape(oracle_rows, lambda r: r[0])
    shape["world_count"] = world_count(p["oracle_buckets"])
    return ids, ops, 2, main, shape


def world_count(buckets: list[list[int]]) -> int:
    """Distinct worlds of buckets given by value counts: n! / prod c! each."""
    total = 1
    for counts in buckets:
        ways = math.factorial(sum(counts))
        for c in counts:
            ways //= math.factorial(c)
        total *= ways
    return total

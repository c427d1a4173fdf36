"""Library operations the benchmark times as child processes.

    python3 child.py setup --table T --sensitive S --id I --group-by A,B [--hierarchy H]
    python3 child.py verify instances.json

``setup`` imports bucketrisk, loads the table and bucketizes it (and loads
the hierarchy), then prints the shape it saw. ``verify`` runs the
brute-force oracle against the optimizer on small instances for
k = 0, 1, 2 and replays every optimizer witness through exact_posterior.
Functions are looked up on their modules at call time, so the traced run's
wrappers see these calls.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction


def setup(table_path, sensitive, id_column, group_by, hierarchy_path=None) -> str:
    from bucketrisk import lattice, table

    loaded = table.load_table(table_path, sensitive, id_column=id_column)
    buckets = table.partition(loaded, by=tuple(group_by.split(","))).buckets
    line = (
        f"rows {len(loaded.records)} buckets {len(buckets)} "
        f"histograms {len({b.counts for b in buckets})}"
    )
    if hierarchy_path:
        line += f" lattice {lattice.load_hierarchy(hierarchy_path).size()}"
    return line


def verify(instances_path) -> str:
    from bucketrisk import engine, knowledge, oracle, table

    with open(instances_path, encoding="utf-8") as stream:
        instances = json.load(stream)
    checks = mismatches = replays = 0
    total = Fraction(0)
    for instance in instances:
        buckets = tuple(
            table.make_bucket(f"b{i}", [p for p, _ in rows], [v for _, v in rows])
            for i, rows in enumerate(instance)
        )
        domain = tuple(sorted({v for rows in instance for _, v in rows}))
        b13n = table.Bucketization(buckets, domain)
        for k in (0, 1, 2):
            report = engine.max_disclosure(b13n, k)
            brute, _, _ = oracle.brute_force_max_disclosure(b13n, k)
            replayed = oracle.exact_posterior(
                b13n, knowledge.Knowledge(report.implications), report.target
            )
            checks += 1
            replays += 1
            mismatches += (brute != report.disclosure) + (replayed != report.disclosure)
            total += report.disclosure
    return (
        f"instances {len(instances)} checks {checks} replays {replays} "
        f"mismatches {mismatches} sum {total.numerator}/{total.denominator}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--table", required=True)
    s.add_argument("--sensitive", required=True)
    s.add_argument("--id", required=True)
    s.add_argument("--group-by", required=True)
    s.add_argument("--hierarchy")
    v = sub.add_parser("verify")
    v.add_argument("instances")
    args = parser.parse_args(argv)
    if args.command == "setup":
        print(setup(args.table, args.sensitive, args.id, args.group_by, args.hierarchy))
    else:
        print(verify(args.instances))
    return 0


if __name__ == "__main__":
    sys.exit(main())

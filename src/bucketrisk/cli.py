"""Command-line interface.

Subcommands: disclose (worst-case disclosure of a bucketized table), oracle
(exact posterior for explicit knowledge), anonymize (minimal safe
generalizations), curve-k and curve-entropy (plot-ready CSV series).

Exit codes: 0 success, 2 validation or parse error or an unreadable or
unwritable file, 3 enumeration or work budget exceeded, 4 no safe
generalization found.
"""

from __future__ import annotations

import functools
import gc
import sys
from fractions import Fraction
from pathlib import Path

# Each command imports the layers it runs when it runs, so that it compiles
# only those: disclose, curve-k and curve-entropy load engine, anonymize
# loads lattice (and engine with it), and oracle loads knowledge and oracle
# but no engine. Only a witness loads knowledge into disclose, through
# engine.max_disclosure. A layer compiled after click raises a command's
# peak RSS by a few tenths of a MB more than one compiled before it (glibc
# keeps the memory the compiler frees); BENCH_28.json weighs the two.
from .errors import DEFAULT_BUDGET, BucketRiskError, BudgetExceededError, ValidationError
from .table import (
    _LINE_BREAKS,
    Table,
    buckets_at,
    histograms,
    load_table,
    partition,
    read_assignment,
    read_domain,
)

import click


_NODE_DELIMITERS = _LINE_BREAKS | {",", "="}


def _fmt(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator} ({float(value)!r})"


class _Commands(click.Group):
    """The command group; it maps every command's errors to exit codes 2 and 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BudgetExceededError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (BucketRiskError, OSError, UnicodeDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Commands)
@click.option("--table", "table_path", type=click.Path(), help="input CSV table")
@click.option("--sensitive", help="name of the sensitive column")
@click.option("--id", "id_column", help="identifier column (default: row index)")
@click.option(
    "--partition",
    "partition_path",
    type=click.Path(),
    help="person-to-bucket assignment file (tab separated)",
)
@click.option(
    "--domain",
    "domain_path",
    type=click.Path(),
    help="extra sensitive values, one per line, beyond those in the table",
)
@click.option(
    "--budget",
    type=click.IntRange(min=0),
    default=DEFAULT_BUDGET,
    show_default=True,
    help="largest enumeration or amount of work a command may attempt",
)
@click.option("--out", "out_path", type=click.Path(), help="write output here instead of stdout")
@click.pass_context
def main(ctx, **options):
    """Worst-case disclosure of sensitive values in bucketized tables."""
    ctx.obj = options


def _load_table(obj) -> Table:
    if not obj["table_path"]:
        raise ValidationError("--table is required for this command")
    if not obj["sensitive"]:
        raise ValidationError("--sensitive is required for this command")
    extra = read_domain(obj["domain_path"]) if obj["domain_path"] else ()
    return load_table(
        obj["table_path"], obj["sensitive"], id_column=obj["id_column"], extra_domain=extra
    )


def _grouping(obj, group_by: str | None) -> dict:
    """The ``assignment=`` or ``by=`` argument that --partition or --group-by selects."""
    if obj["partition_path"] and group_by:
        raise ValidationError("use either --partition or --group-by, not both")
    if obj["partition_path"]:
        return {"assignment": read_assignment(obj["partition_path"])}
    columns = tuple(c.strip() for c in group_by.split(",") if c.strip()) if group_by else ()
    return {"by": columns}


def _check_work(obj, work: int, what: str) -> None:
    """Refuse, before allocating, a command whose ``what`` exceeds --budget."""
    if work > obj["budget"]:
        raise BudgetExceededError(work, obj["budget"], what)


def _emit_text(obj, lines) -> None:
    text = "\n".join(lines) + "\n"
    if obj["out_path"]:
        Path(obj["out_path"]).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _emit_points(obj, points) -> None:
    from .curves import emit_csv

    emit_csv(points, obj["out_path"] or sys.stdout)


@main.command()
@click.option("--k", type=int, required=True, help="number of knowledge units")
@click.option(
    "--class",
    "knowledge_class",
    type=click.Choice(["implications", "negations"]),
    default="implications",
    show_default=True,
)
@click.option("--witness", is_flag=True, help="also print a worst-case knowledge formula")
@click.option("--group-by", help="bucket by these comma-separated columns")
@click.pass_obj
def disclose(obj, k, knowledge_class, witness, group_by):
    """Worst-case posterior any attacker with k knowledge units can reach."""
    from .engine import disclosure_at, max_disclosure, max_disclosure_negated_atoms

    table = _load_table(obj)
    grouping = _grouping(obj, group_by)
    counts = histograms(table, **grouping)
    lines = []
    if knowledge_class == "negations":
        if witness:
            raise ValidationError("--witness requires --class implications")
        value = max_disclosure_negated_atoms(counts, k)
        lines.append(f"disclosure: {_fmt(value)}")
    else:
        # from k = d_min - 1 on, disclosure_at answers 1 without a sweep
        if witness or k < min(map(len, counts)) - 1:
            # across-bucket cells, plus within-bucket states per distinct histogram
            side = max(k, 0) + 1
            states = sum(min(sum(c), side) for c in set(counts))
            _check_work(obj, (len(counts) + states) * side * side, "DP cell count")
        if not witness:
            lines.append(f"disclosure: {_fmt(disclosure_at(counts, k))}")
        else:
            # members only for the buckets the witness names
            build = functools.partial(buckets_at, table, **grouping)
            report = max_disclosure(counts, k, build)
            lines.append(f"disclosure: {_fmt(report.disclosure)}")
            lines.append(f"target: {report.target}")
            if report.implications:
                lines.append("knowledge:")
                lines.extend(str(i) for i in report.implications)
    _emit_text(obj, lines)


@main.command()
@click.option(
    "--knowledge",
    "knowledge_path",
    type=click.Path(),
    help="knowledge file, one implication per line (default: none)",
)
@click.option("--target", required=True, help="atom to evaluate, e.g. 'Ed=Flu'")
@click.option("--group-by", help="bucket by these comma-separated columns")
@click.pass_obj
def oracle(obj, knowledge_path, target, group_by):
    """Exact posterior of one atom given explicit knowledge, by enumeration."""
    from .knowledge import Knowledge, parse_atom, parse_knowledge
    from .oracle import exact_posterior

    table = _load_table(obj)
    bucketization = partition(table, **_grouping(obj, group_by))
    knowledge = Knowledge()
    if knowledge_path:
        knowledge = parse_knowledge(Path(knowledge_path).read_text(encoding="utf-8"), table)
    atom = parse_atom(target)
    value = exact_posterior(bucketization, knowledge, atom, budget=obj["budget"])
    _emit_text(obj, [f"posterior: {_fmt(value)}"])


def _parse_threshold(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse threshold {text!r}") from None


def _parse_chain(spec: str, hierarchy) -> list[tuple[int, ...]]:
    """Build a chain from 'Age=0..5,Sex=0..1': raise attributes left to right."""
    ranges = []
    for part in spec.split(","):
        part = part.strip()
        if "=" not in part or ".." not in part.split("=", 1)[1]:
            raise ValidationError(
                f"chain component {part!r} is not of the form attr=lo..hi"
            )
        attribute, bounds = part.split("=", 1)
        attribute = attribute.strip()
        if attribute not in hierarchy.attributes:
            raise ValidationError(f"unknown chain attribute {attribute!r}")
        low_text, high_text = bounds.split("..", 1)
        try:
            low, high = int(low_text), int(high_text)
        except ValueError:
            raise ValidationError(f"bad level range in {part!r}") from None
        if low > high:
            raise ValidationError(f"empty level range in {part!r}")
        ranges.append((attribute, low, high))
    index = {a: i for i, a in enumerate(hierarchy.attributes)}
    current = [0] * len(hierarchy.attributes)
    for attribute, low, _ in ranges:
        current[index[attribute]] = low
    chain = [tuple(current)]
    for attribute, low, high in ranges:
        # the first level past the top already fails check_node: stop there
        for level in range(low + 1, min(high, hierarchy.max_level(attribute) + 1) + 1):
            current[index[attribute]] = level
            chain.append(tuple(current))
    return chain


@main.command()
@click.option(
    "--hierarchy",
    "hierarchy_path",
    type=click.Path(),
    required=True,
    help="generalization hierarchy JSON",
)
@click.option("--c", "c_text", required=True, help="safety threshold, e.g. 7/10")
@click.option("--k", type=int, required=True, help="attacker knowledge units")
@click.option("--all-minimal", is_flag=True, help="search the whole lattice")
@click.option("--chain", "chain_spec", help="binary-search this chain, e.g. Age=0..5,Sex=0..1")
@click.pass_obj
def anonymize(obj, hierarchy_path, c_text, k, all_minimal, chain_spec):
    """Find generalizations keeping worst-case disclosure below c."""
    from .lattice import SafetyThreshold, all_minimal_safe, binary_search_chain, load_hierarchy

    if all_minimal == bool(chain_spec):
        raise ValidationError("use exactly one of --all-minimal and --chain")
    table = _load_table(obj)
    hierarchy = load_hierarchy(hierarchy_path)
    for attribute in hierarchy.attributes:
        # a node prints as attribute=level pairs joined by ",", one per line
        if set(attribute) & _NODE_DELIMITERS:
            raise ValidationError(
                f"cannot render attribute {attribute!r}: line break, ',' or '='"
            )
    threshold = SafetyThreshold(_parse_threshold(c_text), k)

    def describe(node) -> str:
        return ",".join(
            f"{a}={level}" for a, level in zip(hierarchy.attributes, node)
        )

    if all_minimal:
        minimal = all_minimal_safe(table, hierarchy, threshold, budget=obj["budget"])
        if not minimal:
            click.echo("no safe generalization in the lattice", err=True)
            sys.exit(4)
        # sorted by (total height, level vector): the first has least height
        lines = [f"minimal: {describe(node)}" for node in minimal]
        lines.append(f"selected: {describe(minimal[0])}")
    else:
        chain = _parse_chain(chain_spec, hierarchy)
        found = binary_search_chain(table, hierarchy, chain, threshold)
        if found is None:
            click.echo("no safe generalization on the chain", err=True)
            sys.exit(4)
        lines = [f"selected: {describe(found)}"]
    _emit_text(obj, lines)


@main.command("curve-k")
@click.option("--k-max", type=int, required=True)
@click.option("--group-by", help="bucket by these comma-separated columns")
@click.option("--sample", type=float, help="keep only this fraction of rows")
@click.option("--seed", type=int, default=0, show_default=True, help="sampling seed")
@click.pass_obj
def curve_k(obj, k_max, group_by, sample, seed):
    """Emit disclosure-vs-k series for implications and negations."""
    from .curves import disclosure_vs_k

    table = _load_table(obj)
    _check_work(obj, 2 * (k_max + 1), "output row count")
    dropped: set[str] = set()
    if sample is not None:
        if not 0 < sample <= 1:
            raise ValidationError("--sample must be in (0, 1]")
        import random

        n = len(table.person_ids)
        rows = random.Random(seed).sample(range(n), max(1, round(sample * n)))
        pick = lambda column: tuple(column[i] for i in rows)
        columns, person_ids = tuple(map(pick, table.columns)), pick(table.person_ids)
        dropped = set(table.person_ids).difference(person_ids)
        table = Table(table.attributes, table.sensitive_attribute, person_ids,
                      columns, pick(table.sensitive), table.domain)
    grouping = _grouping(obj, group_by)
    if dropped and "assignment" in grouping:
        # --partition names the whole table's persons: forget those not sampled
        assignment = grouping["assignment"]
        grouping["assignment"] = {p: b for p, b in assignment.items() if p not in dropped}
    _emit_points(obj, disclosure_vs_k(histograms(table, **grouping), k_max))


@main.command("curve-entropy")
@click.option("--domain-size", type=int, required=True, help="distinct sensitive values")
@click.option("--per-value", type=int, required=True, help="count of each value when uniform")
@click.option("--k", "k_text", required=True, help="comma-separated k values, e.g. 1,3,5")
@click.pass_obj
def curve_entropy(obj, domain_size, per_value, k_text):
    """Emit least-disclosure-vs-entropy series over a synthetic bucket family."""
    from .curves import SkewedSingleBucketFamily, entropy_vs_disclosure

    try:
        k_list = [int(part) for part in k_text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse k list {k_text!r}") from None
    if not k_list:
        raise ValidationError("empty k list")
    family = SkewedSingleBucketFamily(domain_size, per_value)
    # each member's persons and values, and its curve up to the largest k
    work = (per_value + 1) * (domain_size * per_value + max(k_list) + 1)
    _check_work(obj, work, "person and curve entry count")
    _emit_points(obj, entropy_vs_disclosure(family, k_list))


def run() -> None:
    """Process entry of the ``bucketrisk`` script and ``python -m bucketrisk.cli``.

    Runs ``main`` with the cycle collector off and the imported heap frozen.
    A command is one process that frees its data by reference counting and
    leaves no reference cycle (tests/test_imports.py checks each command), so
    collections would only walk the import-time heap and the table again.
    In-process callers of ``main`` keep their collector settings.
    """
    gc.disable()
    gc.freeze()
    main()


if __name__ == "__main__":
    run()

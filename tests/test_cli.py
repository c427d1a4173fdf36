import io
import json
import random
from fractions import Fraction

import pytest

pytest.importorskip("click")

from click.testing import CliRunner

from bucketrisk import (
    Engine,
    Table,
    ValidationError,
    disclosure_by_k,
    disclosure_vs_k,
    emit_csv,
    load_table,
    max_disclosure,
    max_disclosure_negated_atoms,
    partition,
    read_assignment,
)
from bucketrisk.cli import main
from conftest import DATA
from helpers import random_table_and_hierarchy, read_curve_csv, table_csv

TABLE_ARGS = ["--table", str(DATA / "clinic.csv"), "--sensitive", "Disease", "--id", "Name"]


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, pre=()):
    return runner.invoke(main, [*TABLE_ARGS, *pre, *args])


def test_disclose_with_witness(runner):
    r = invoke(runner, "disclose", "--k", "1", "--group-by", "Sex", "--witness")
    assert r.exit_code == 0
    assert r.stdout.splitlines() == [
        "disclosure: 2/3 (0.6666666666666666)",
        "target: Bob=Flu",
        "knowledge:",
        '(Bob="Lung Cancer") -> (Bob=Flu)',
    ]


def test_disclose_negations(runner):
    r = invoke(runner, "disclose", "--k", "1", "--group-by", "Sex", "--class", "negations")
    assert r.exit_code == 0
    assert r.stdout == "disclosure: 2/3 (0.6666666666666666)\n"

    r = invoke(
        runner,
        "disclose", "--k", "1", "--group-by", "Sex", "--class", "negations", "--witness",
    )
    assert r.exit_code == 2
    assert "error:" in r.stderr


def test_disclose_large_k(runner):
    r = invoke(runner, "disclose", "--k", "200", "--group-by", "Sex")
    assert r.exit_code == 0
    assert r.stdout.startswith("disclosure: 1/1 ")
    assert r.exception is None
    assert "Traceback" not in r.output


def test_disclose_whole_table_is_one_bucket(runner):
    r = invoke(runner, "disclose", "--k", "1")
    assert r.stdout.startswith("disclosure: 6/11 ")


def test_disclose_partition_file(runner, tmp_path):
    r = invoke(
        runner,
        "disclose", "--k", "1",
        pre=["--partition", str(DATA / "clinic-partition.tsv")],
    )
    assert r.exit_code == 0
    assert r.stdout.startswith("disclosure: 2/3 ")

    # Bob's and Dave's lines end in CRLF; "\r" must not split their bucket
    crlf = tmp_path / "crlf.tsv"
    text = (DATA / "clinic-partition.tsv").read_text(encoding="utf-8")
    for person in ("Bob", "Dave"):
        text = text.replace(f"{person}\tM\n", f"{person}\tM\r\n")
    crlf.write_bytes(text.encode())
    r = invoke(runner, "disclose", "--k", "1", pre=["--partition", str(crlf)])
    assert r.exit_code == 0
    assert r.stdout.startswith("disclosure: 2/3 ")

    r = invoke(
        runner,
        "disclose", "--k", "1", "--group-by", "Sex",
        pre=["--partition", str(DATA / "clinic-partition.tsv")],
    )
    assert r.exit_code == 2


def test_disclose_requires_table(runner):
    r = runner.invoke(main, ["disclose", "--k", "1"])
    assert r.exit_code == 2
    assert "--table is required" in r.stderr


def _not_utf8_table(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"Name,Sex,Disease\nAl,M,Gr\xfcn\n")
    return ["--table", str(path), "--sensitive", "Disease", "disclose", "--k", "1"]


def _overlong_field_table(tmp_path):
    # one field past the csv module's default limit of 131072 characters
    path = tmp_path / "long.csv"
    path.write_text(f"Name,Sex,Disease\nAl,M,{'x' * 200_000}\n", encoding="utf-8")
    return ["--table", str(path), "--sensitive", "Disease", "disclose", "--k", "1"]


def _bad_hierarchy(text):
    def args(d):
        (d / "h.json").write_text(text)
        return [*TABLE_ARGS, "anonymize", "--hierarchy", str(d / "h.json"),
                "--c", "1/2", "--k", "1", "--all-minimal"]

    return args


UNREADABLE = {
    "table": lambda d: ["--table", str(d / "nope.csv"), "--sensitive", "Disease",
                        "disclose", "--k", "1"],
    "hierarchy": lambda d: [*TABLE_ARGS, "anonymize", "--hierarchy", str(d / "nope.json"),
                            "--c", "1/2", "--k", "1", "--all-minimal"],
    "knowledge": lambda d: [*TABLE_ARGS, "oracle", "--knowledge", str(d / "nope.bk"),
                            "--target", "Bob=Flu"],
    "domain-is-directory": lambda d: [*TABLE_ARGS, "--domain", str(d), "disclose", "--k", "1"],
    "out-in-missing-directory": lambda d: [*TABLE_ARGS, "--out", str(d / "missing" / "x"),
                                           "disclose", "--k", "1"],
    "table-not-utf8": _not_utf8_table,
    "table-field-over-csv-limit": _overlong_field_table,
    "hierarchy-deeply-nested": _bad_hierarchy("[" * 200_000),
    "hierarchy-splits-above-suppress": _bad_hierarchy(
        '{"Zip": ["suppress", {"14850": "x", "14853": "y"}]}'
    ),
}


@pytest.mark.parametrize("case", list(UNREADABLE))
def test_unreadable_file_exits_2(runner, tmp_path, case):
    r = runner.invoke(main, UNREADABLE[case](tmp_path))
    assert r.exit_code == 2
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_witness_with_a_line_break_in_an_id_exits_2(runner, tmp_path):
    # the id is quoted in the CSV; rendered, it would split the witness
    path = tmp_path / "newline.csv"
    path.write_text('Name,Sex,Disease\n"Al\nBo",M,Flu\nCy,M,Mumps\n', encoding="utf-8")
    r = runner.invoke(main, ["--table", str(path), "--sensitive", "Disease", "--id", "Name",
                             "disclose", "--k", "0", "--group-by", "Sex", "--witness"])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr == "error: cannot render 'Al\\nBo': line break\n"


# every character at which str.splitlines ends a line, then the node
# vector's own delimiters
NODE_BREAKERS = {
    "LF": "\n", "VT": "\v", "FF": "\f", "CR": "\r", "FS": "\x1c", "GS": "\x1d", "RS": "\x1e",
    "NEL": "\x85", "LS": "\u2028", "PS": "\u2029", "comma": ",", "equals": "=",
}


@pytest.mark.parametrize("char", NODE_BREAKERS.values(), ids=NODE_BREAKERS)
def test_anonymize_attribute_name_that_would_split_a_node_exits_2(runner, tmp_path, char):
    # printed, the node vector would split across lines or read ambiguously;
    # the node Z?ip=0 is safe, so the search alone would print it
    name = f"Z{char}ip"
    (tmp_path / "t.csv").write_text(f'id,"{name}",S\np0,a,s\np1,a,t\n', encoding="utf-8")
    (tmp_path / "h.json").write_text(json.dumps({name: ["suppress"]}), encoding="utf-8")
    r = runner.invoke(main, [
        "--table", str(tmp_path / "t.csv"), "--sensitive", "S", "--id", "id",
        "anonymize", "--hierarchy", str(tmp_path / "h.json"), "--c", "1", "--k", "0",
        "--all-minimal",
    ])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr == f"error: cannot render attribute {name!r}: line break, ',' or '='\n"


SEARCH_FAILURES = {
    "missing-value": ('{"A": [{"a1": "g", "a2": "g"}], "B": [{"b1": "h", "b2": "h"}]}',
                      "A=0..1,B=0..1",
                      "error: attribute 'B': value 'bX' missing from level 1\n"),
    "missing-attribute": ('{"A": ["suppress"], "Nope": ["suppress"]}',
                          "A=0..1,Nope=0..1",
                          "error: hierarchy attribute 'Nope' not in table\n"),
}


@pytest.mark.parametrize("case", list(SEARCH_FAILURES))
@pytest.mark.parametrize("mode", ["--all-minimal", "--chain"])
def test_anonymize_search_failure_exits_2(runner, tmp_path, case, mode):
    text, chain, stderr = SEARCH_FAILURES[case]
    (tmp_path / "t.csv").write_text("id,A,B,S\np0,a1,bX,s\np1,aX,b1,t\np2,a1,b1,t\n")
    (tmp_path / "h.json").write_text(text)
    search = [mode] if mode == "--all-minimal" else [mode, chain]
    r = runner.invoke(main, [
        "--table", str(tmp_path / "t.csv"), "--sensitive", "S", "--id", "id",
        "anonymize", "--hierarchy", str(tmp_path / "h.json"), "--c", "0", "--k", "1", *search,
    ])
    assert r.exit_code == 2
    assert r.stderr == stderr
    assert r.stdout == ""


def test_oracle_golden(runner):
    r = invoke(
        runner,
        "oracle",
        "--knowledge", str(DATA / "flu.bk"),
        "--target", "Charlie=Flu",
        "--group-by", "Sex",
    )
    assert r.exit_code == 0
    assert r.stdout == "posterior: 10/19 (0.5263157894736842)\n"


def test_oracle_without_knowledge(runner):
    r = invoke(runner, "oracle", "--target", "Ed=Mumps", "--group-by", "Sex")
    assert r.stdout == "posterior: 1/5 (0.2)\n"


def test_oracle_inconsistent_knowledge(runner, tmp_path):
    bad = tmp_path / "forced.bk"
    bad.write_text("(Frank=Mumps) -> (Frank=Flu)\n")
    r = invoke(
        runner,
        "oracle",
        "--knowledge", str(bad),
        "--target", "Frank=Mumps",
        "--group-by", "Zip,Age,Sex",  # singleton buckets force the antecedent
    )
    assert r.exit_code == 2
    assert "no world" in r.stderr


def test_oracle_budget_exit_code(runner):
    r = invoke(
        runner,
        "oracle",
        "--knowledge", str(DATA / "flu.bk"),
        "--target", "Charlie=Flu",
        "--group-by", "Sex",
        pre=["--budget", "10"],
    )
    assert r.exit_code == 3
    assert "exceeds budget" in r.stderr
    assert r.stderr == "error: enumeration size 12 exceeds budget 10\n"  # the oracle's wording


NEGATIVE_BUDGET = {
    "disclose": ["disclose", "--k", "0"],
    "oracle": ["oracle", "--target", "Ed=Flu"],
}


@pytest.mark.parametrize("case", list(NEGATIVE_BUDGET))
def test_negative_budget_is_a_usage_error(runner, case):
    r = invoke(runner, *NEGATIVE_BUDGET[case], pre=["--budget", "-5"])
    assert r.exit_code == 2
    assert "Invalid value for '--budget'" in r.stderr
    assert "exceeds budget" not in r.stderr
    assert "Traceback" not in r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    r = invoke(runner, *NEGATIVE_BUDGET[case], pre=["--budget", "0"])
    assert r.exit_code == 3  # zero stays a budget, one that refuses any work
    assert "exceeds budget 0" in r.stderr


def test_oracle_with_extra_domain(runner, tmp_path):
    extra = tmp_path / "domain.txt"
    extra.write_text("Plague\n")
    r = invoke(
        runner,
        "oracle", "--target", "Bob=Plague", "--group-by", "Sex",
        pre=["--domain", str(extra)],
    )
    assert r.exit_code == 0
    assert r.stdout == "posterior: 0/1 (0.0)\n"


ANON_ARGS = ["--hierarchy", str(DATA / "clinic-hierarchy.json"), "--k", "1"]


def test_anonymize_all_minimal(runner):
    r = invoke(runner, "anonymize", *ANON_ARGS, "--c", "7/10", "--all-minimal")
    assert r.exit_code == 0
    assert r.stdout.splitlines() == [
        "minimal: Zip=1,Age=1,Sex=0",
        "selected: Zip=1,Age=1,Sex=0",
    ]


def test_anonymize_chain(runner):
    r = invoke(
        runner,
        "anonymize", *ANON_ARGS, "--c", "7/10",
        "--chain", "Zip=0..1,Age=0..1,Sex=0..1",
    )
    assert r.exit_code == 0
    assert r.stdout == "selected: Zip=1,Age=1,Sex=0\n"


def test_anonymize_nothing_safe(runner):
    r = invoke(runner, "anonymize", *ANON_ARGS, "--c", "1/100", "--all-minimal")
    assert r.exit_code == 4
    assert "no safe generalization" in r.stderr

    r = invoke(
        runner,
        "anonymize", *ANON_ARGS, "--c", "1/100", "--chain", "Zip=0..1",
    )
    assert r.exit_code == 4


def test_anonymize_mode_validation(runner):
    r = invoke(runner, "anonymize", *ANON_ARGS, "--c", "7/10")
    assert r.exit_code == 2
    r = invoke(
        runner,
        "anonymize", *ANON_ARGS, "--c", "7/10", "--all-minimal", "--chain", "Zip=0..1",
    )
    assert r.exit_code == 2
    r = invoke(runner, "anonymize", *ANON_ARGS, "--c", "nonsense", "--all-minimal")
    assert r.exit_code == 2
    r = invoke(runner, "anonymize", *ANON_ARGS, "--c", "7/10", "--chain", "Zip=5..6")
    assert r.exit_code == 2
    r = invoke(runner, "anonymize", *ANON_ARGS, "--c", "7/10", "--chain", "Zip=1..0")
    assert r.exit_code == 2
    # a range far past the hierarchy's top is rejected without building it
    r = invoke(
        runner, "anonymize", *ANON_ARGS, "--c", "7/10", "--chain", "Age=0..1000000000000"
    )
    assert r.exit_code == 2
    assert r.stderr == "error: level 2 out of range for attribute 'Age' (0..1)\n"
    assert "Traceback" not in r.output


def _three_field_partition(d):
    (d / "p.tsv").write_text("Bob\tM\tx\n")
    return [*TABLE_ARGS, "--partition", str(d / "p.tsv"), "disclose", "--k", "1"]


CHAIN = [*TABLE_ARGS, "anonymize", *ANON_ARGS, "--c", "7/10", "--chain"]
REFUSED_ARGUMENTS = {
    "no-sensitive": (lambda d: ["--table", str(DATA / "clinic.csv"), "disclose", "--k", "1"],
                     "--sensitive is required for this command"),
    "chain-not-a-range": (lambda d: [*CHAIN, "Age"],
                          "chain component 'Age' is not of the form attr=lo..hi"),
    "chain-unknown-attribute": (lambda d: [*CHAIN, "Foo=0..1"],
                                "unknown chain attribute 'Foo'"),
    "chain-bad-level": (lambda d: [*CHAIN, "Age=a..1"], "bad level range in 'Age=a..1'"),
    "empty-k-list": (lambda d: ["curve-entropy", "--domain-size", "2", "--per-value", "2",
                                "--k", ","], "empty k list"),
    "partition-three-fields": (_three_field_partition, "assignment line 1: expected 2 fields"),
}


@pytest.mark.parametrize("case", list(REFUSED_ARGUMENTS))
def test_refused_argument_exits_2_with_its_message(runner, tmp_path, case):
    args, message = REFUSED_ARGUMENTS[case]
    r = runner.invoke(main, args(tmp_path))
    assert (r.exit_code, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


def test_curve_k_to_file(runner, tmp_path):
    out = tmp_path / "curve.csv"
    r = invoke(
        runner,
        "curve-k", "--k-max", "2", "--group-by", "Sex",
        pre=["--out", str(out)],
    )
    assert r.exit_code == 0
    assert r.stdout == ""
    text = out.read_text()
    assert text.splitlines()[0] == "series,x,num,den,decimal"
    points = {(p.series, p.x): p.value for p in read_curve_csv(text)}
    assert points[("implications", 0)] == Fraction(2, 5)
    assert points[("implications", 1)] == Fraction(2, 3)
    assert points[("implications", 2)] == 1
    assert points[("negations", 2)] == 1
    assert len(points) == 6


def test_curve_k_sampled(runner):
    r = invoke(
        runner,
        "curve-k", "--k-max", "1", "--group-by", "Sex", "--sample", "0.5", "--seed", "3",
    )
    assert r.exit_code == 0
    assert len(r.stdout.splitlines()) == 1 + 4  # header + 2 series x 2 points
    r = invoke(runner, "curve-k", "--k-max", "1", "--sample", "1.5")
    assert r.exit_code == 2

    # seed 7 keeps Gloria, Dave, Hannah, Karen and Bob, in that order
    r = invoke(
        runner,
        "curve-k", "--k-max", "2", "--group-by", "Sex", "--sample", "0.5", "--seed", "7",
    )
    assert r.exit_code == 0
    assert r.stdout == (
        "series,x,num,den,decimal\n"
        "implications,0,2,3,0.6666666666666666\n"
        "implications,1,1,1,1.0\n"
        "implications,2,1,1,1.0\n"
        "negations,0,2,3,0.6666666666666666\n"
        "negations,1,1,1,1.0\n"
        "negations,2,1,1,1.0\n"
    )


def test_curve_k_sampled_with_partition_drops_the_persons_not_sampled(runner, tmp_path):
    pre = ("--partition", str(DATA / "clinic-partition.tsv"))
    args = ("curve-k", "--k-max", "2", "--sample", "0.5", "--seed", "7")
    # the file splits the clinic by Sex, so the sample that seed 7 keeps
    # (Gloria, Dave, Hannah, Karen and Bob) gives the --group-by Sex curve
    r = invoke(runner, *args, pre=pre)
    assert (r.exit_code, r.stderr) == (0, "")
    assert r.stdout == invoke(runner, *args, "--group-by", "Sex").stdout
    assert r.stdout.splitlines()[1:3] == [
        "implications,0,2,3,0.6666666666666666",
        "implications,1,1,1,1.0",
    ]
    # a sampled person the file leaves out, or a person the table lacks,
    # is still an error
    lines = (DATA / "clinic-partition.tsv").read_text().splitlines()
    for edit, message in (
        ([line for line in lines if not line.startswith("Bob\t")], "missing person(s) ['Bob']"),
        ([*lines, "Zed\tM"], "names unknown person(s) ['Zed']"),
    ):
        (tmp_path / "p.tsv").write_text("\n".join(edit) + "\n")
        r = invoke(runner, *args, pre=("--partition", str(tmp_path / "p.tsv")))
        assert (r.exit_code, r.stdout) == (2, "")
        assert r.stderr == f"error: assignment {message}\n"


def test_curve_k_large_k_max_stops_at_saturation(runner, demo_bucketization):
    # the Sex buckets have 3 and 4 distinct values, so both series are 1 from
    # k = 2 on and the across sweep needs only columns 0..1
    r = invoke(runner, "curve-k", "--k-max", "6000", "--group-by", "Sex")
    assert r.exit_code == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 1 + 2 * 6001
    for line in lines[1:]:
        series, k, value = line.split(",", 2)
        if int(k) >= 2:
            assert value == "1,1,1.0", line
    buckets = demo_bucketization.buckets
    cap = min(len(b.histogram) for b in buckets) - 2
    assert cap == 1
    session = Engine()
    disclosure_by_k(demo_bucketization, 6000, engine=session)
    assert session.across_entries == 2 * len(buckets) * (cap + 1)


def test_curve_entropy(runner):
    r = runner.invoke(
        main,
        ["curve-entropy", "--domain-size", "3", "--per-value", "3", "--k", "0,1"],
    )
    assert r.exit_code == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "series,x,num,den,decimal"
    assert len(lines) == 1 + 8  # 2 series x 4 entropy values
    assert "k=1,0.0,1,1,1.0" in lines

    r = runner.invoke(
        main, ["curve-entropy", "--domain-size", "3", "--per-value", "3", "--k", "x"]
    )
    assert r.exit_code == 2


HUGE = {
    "disclose": [*TABLE_ARGS, "disclose", "--k", "100000000", "--group-by", "Sex", "--witness"],
    "curve-k": [*TABLE_ARGS, "curve-k", "--k-max", "100000000", "--group-by", "Sex"],
    "curve-entropy": ["curve-entropy", "--domain-size", "100000", "--per-value", "100000",
                      "--k", "5"],
}


@pytest.mark.parametrize("case", list(HUGE))
def test_huge_work_exceeds_budget(runner, case):
    # refused before allocating: each of these runs out of memory otherwise
    r = runner.invoke(main, HUGE[case])
    assert r.exit_code == 3
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)


REFUSALS = {
    "disclose": "DP cell count 120000002400000012",
    "curve-k": "output row count 200000002",
    "curve-entropy": "person and curve entry count 1000010000600006",
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_work_refusal_names_what_it_counted(runner, case):
    r = runner.invoke(main, HUGE[case])
    assert r.exit_code == 3
    assert r.stderr == f"error: {REFUSALS[case]} exceeds budget 10000000\n"


def test_saturated_disclose_is_answered_under_any_budget(runner):
    # the Sex buckets have 3 and 4 distinct values: from k = 2 on disclosure_at
    # answers 1 without a sweep, so only --witness counts (and refuses) the fill
    r = invoke(runner, "disclose", "--k", "100000000", "--group-by", "Sex")
    assert (r.exit_code, r.stdout, r.stderr) == (0, "disclosure: 1/1 (1.0)\n", "")
    r = invoke(runner, "disclose", "--k", "1", "--group-by", "Sex", pre=["--budget", "0"])
    assert (r.exit_code, r.stderr) == (3, "error: DP cell count 24 exceeds budget 0\n")


def _fmt(value):
    return f"{value.numerator}/{value.denominator} ({float(value)!r})"


def _reference(table, grouping, argv):
    """Exit code, stdout and stderr of a disclose or curve-k command, rendered
    from ``max_disclosure``, ``max_disclosure_negated_atoms`` or
    ``disclosure_vs_k`` on ``partition``'s bucketization. A sampled curve-k
    partitions by the assignment without the persons the sample dropped."""
    try:
        if argv[0] == "curve-k":
            opts = dict(zip(argv[1::2], argv[2::2]))
            dropped = set()
            if "--sample" in opts:
                n = len(table.person_ids)
                rows = random.Random(int(opts["--seed"])).sample(
                    range(n), max(1, round(float(opts["--sample"]) * n))
                )
                pick = lambda column: tuple(column[i] for i in rows)
                dropped = set(table.person_ids) - set(pick(table.person_ids))
                table = Table(table.attributes, table.sensitive_attribute,
                              pick(table.person_ids), tuple(map(pick, table.columns)),
                              pick(table.sensitive), table.domain)
            chosen = grouping()
            if "assignment" in chosen:
                chosen["assignment"] = {
                    p: b for p, b in chosen["assignment"].items() if p not in dropped
                }
            out = io.StringIO()
            emit_csv(disclosure_vs_k(partition(table, **chosen), int(opts["--k-max"])), out)
            return 0, out.getvalue(), ""
        b13n = partition(table, **grouping())
        k = int(argv[2])
        if "negations" in argv:
            if "--witness" in argv:
                raise ValidationError("--witness requires --class implications")
            return 0, f"disclosure: {_fmt(max_disclosure_negated_atoms(b13n, k))}\n", ""
        report = max_disclosure(b13n, k)
        lines = [f"disclosure: {_fmt(report.disclosure)}"]
        if "--witness" in argv:
            lines.append(f"target: {report.target}")
            if report.implications:
                lines += ["knowledge:", *map(str, report.implications)]
        return 0, "".join(line + "\n" for line in lines), ""
    except ValidationError as exc:
        return 2, "", f"error: {exc}\n"


def _equivalence_cases(rng, partition_path, attributes):
    """Random disclose and curve-k commands over every grouping option."""
    groupings = {
        "partition": (["--partition", str(partition_path)], [],
                      lambda: {"assignment": read_assignment(partition_path)}),
        "neither": ([], [], lambda: {"by": ()}),
        "both": (["--partition", str(partition_path)], ["--group-by", attributes[0]], None),
    }
    by = rng.sample(attributes, rng.randint(1, len(attributes)))
    by_names = [*by, "NoSuch"] if rng.random() < 0.1 else by
    groupings["group-by"] = ([], ["--group-by", ",".join(by_names)], lambda: {"by": by_names})
    for pre, group, grouping in groupings.values():
        if grouping is None:
            def grouping():
                raise ValidationError("use either --partition or --group-by, not both")
        k = str(rng.randint(0, 4))
        for extra in ([], ["--witness"], ["--class", "negations"],
                      ["--class", "negations", "--witness"]):
            yield pre, ["disclose", "--k", k, *extra, *group], grouping
        yield pre, ["curve-k", "--k-max", k, *group], grouping
        seed = str(rng.randint(0, 99))
        yield pre, ["curve-k", "--k-max", k, "--sample", "0.6", "--seed", seed, *group], grouping


def _check_equivalence(runner, rng, table_args, table, partition_path):
    for pre, argv, grouping in _equivalence_cases(rng, partition_path, list(table.attributes)):
        r = runner.invoke(main, [*table_args, *pre, *argv])
        assert (r.exit_code, r.stdout, r.stderr) == _reference(table, grouping, argv), argv


def test_histogram_commands_match_partition_rendering_on_the_clinic(runner, demo_table):
    rng = random.Random(12)
    for _ in range(8):
        _check_equivalence(runner, rng, TABLE_ARGS, demo_table,
                           DATA / "clinic-partition.tsv")


def test_histogram_commands_match_partition_rendering_on_random_tables(runner, tmp_path):
    rng = random.Random(7)
    for _ in range(25):
        table, _ = random_table_and_hierarchy(rng, max_tuples=15)
        (tmp_path / "t.csv").write_text(table_csv(table), encoding="utf-8")
        # labels with "|", on lines that end in LF or CRLF
        lines = [f"{p}\t{rng.choice(['x', 'y|z', 'x|y'])}" for p in table.person_ids]
        ends = [rng.choice(["\n", "\r\n"]) for _ in lines]
        (tmp_path / "p.tsv").write_bytes("".join(map(str.__add__, lines, ends)).encode())
        args = ["--table", str(tmp_path / "t.csv"), "--sensitive", "S", "--id", "id"]
        loaded = load_table(tmp_path / "t.csv", "S", id_column="id")
        _check_equivalence(runner, rng, args, loaded, tmp_path / "p.tsv")

"""Which layers each entry point loads, what a command leaves for the cycle
collector, and the package namespace that hides the deferred layers.

``import bucketrisk`` loads errors and table, the layers that load and
bucketize a table; every other layer loads the first time one of its names is
read. The engine answers from count tuples, so only a witness loads
knowledge. ``import bucketrisk.cli`` loads errors and table too, and each
command imports the layers it runs when it runs: oracle loads knowledge and
oracle but no engine, and only disclose --witness loads knowledge with the
engine. Every check on what a process loaded or left behind runs in a fresh
interpreter. The command-line tests need click and skip without it; the
library's tests run without it.
"""

import gc
import importlib.util
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bucketrisk
from conftest import DATA
from helpers import child_env

PACKAGE = {"bucketrisk.errors", "bucketrisk.table"}
CLI = PACKAGE | {"bucketrisk.cli"}
DEFERRED = {"bucketrisk.lattice", "bucketrisk.oracle", "bucketrisk.curves"}
TABLE_ARGS = ["--table", str(DATA / "clinic.csv"), "--sensitive", "Disease", "--id", "Name"]
HIERARCHY = str(DATA / "clinic-hierarchy.json")
# modules the library does not use: click, which only the command line
# needs, and stdlib modules that cost start-up time
UNUSED = {"click", "dataclasses", "inspect"}
needs_click = pytest.mark.skipif(importlib.util.find_spec("click") is None,
                                 reason="the command line needs click")

# Runs the command line as the installed `bucketrisk` script does, through
# `run`, then appends to stderr, whatever the exit code, the number of
# unreachable objects a collection finds and the bucketrisk submodules loaded.
CLI_CHILD = """
import gc
import sys
from bucketrisk.cli import run
sys.argv[0] = "bucketrisk"
try:
    run()
finally:
    loaded = sorted(m for m in sys.modules if m.startswith("bucketrisk."))
    sys.stderr.write(f"\\nunreachable: {gc.collect()}\\nloaded: {' '.join(loaded)}\\n")
"""


def loaded_after(code: str) -> set[str]:
    """The bucketrisk submodules and ``UNUSED`` modules that a fresh
    interpreter holds after running ``code``."""
    report = (f'print(*sorted(m for m in sys.modules if m.startswith("bucketrisk.")'
              f' or m in {sorted(UNUSED)!r}))')
    result = subprocess.run([sys.executable, "-c", f"import sys\n{code}\n{report}"],
                            capture_output=True, text=True, env=child_env(), check=True)
    return set(result.stdout.split())


def run_cli(*args: str):
    """(exit code, stdout, stderr, loaded submodules, unreachable objects) of
    one fresh CLI process."""
    # a fixed width, so click wraps help text the same way on every terminal
    result = subprocess.run([sys.executable, "-c", CLI_CHILD, *args], capture_output=True,
                            text=True, env=child_env(COLUMNS="80"))
    stderr, _, report = result.stderr.rpartition("\nunreachable: ")
    unreachable, _, loaded = report.partition("\nloaded: ")
    return result.returncode, result.stdout, stderr, set(loaded.split()), int(unreachable)


@pytest.mark.parametrize(
    "code, layers",
    [pytest.param("import bucketrisk", PACKAGE, id="import bucketrisk"),
     pytest.param("import bucketrisk.cli", CLI, id="import bucketrisk.cli", marks=needs_click)],
)
def test_import_loads_only_the_core_layers(code, layers):
    loaded = loaded_after(code)
    assert loaded - UNUSED == layers
    # click imports inspect itself
    assert not loaded & (UNUSED - {"click", "inspect"} if code.endswith(".cli") else UNUSED)


# load a table, bucketize it, load a hierarchy and apply a node: what a
# publisher runs to release buckets
SETUP = f"""
from fractions import Fraction
from bucketrisk import lattice, table
t = table.load_table({str(DATA / "clinic.csv")!r}, "Disease", id_column="Name")
table.partition(t, by=["Sex"])
h = lattice.load_hierarchy({HIERARCHY!r})
lattice.apply(t, h, (1, 1, 0))
"""


def test_bucketizing_loads_no_engine_until_a_search_runs():
    assert loaded_after(SETUP) == {*PACKAGE, "bucketrisk.lattice"}
    search = (
        "minimal = lattice.all_minimal_safe(t, h, lattice.SafetyThreshold(Fraction(7, 10), 1))\n"
        "assert minimal == [(1, 1, 0)], minimal\n"
        # only the command line's process entry turns the collector off
        "import gc\n"
        "assert gc.isenabled() and gc.get_freeze_count() == 0"
    )
    # the engine answers from count tuples: a search never needs an atom
    assert loaded_after(SETUP + search) == {*PACKAGE, "bucketrisk.engine", "bucketrisk.lattice"}


COUNTS = f"""
from bucketrisk import table
t = table.load_table({str(DATA / "clinic.csv")!r}, "Disease", id_column="Name")
counts = table.histograms(t, by=["Sex"])
"""


@pytest.mark.parametrize(
    "call, layers",
    [
        ("from bucketrisk.curves import disclosure_vs_k\ndisclosure_vs_k(counts, 2)",
         {"bucketrisk.engine", "bucketrisk.curves"}),
        ("from bucketrisk.engine import disclosure_at\n"
         "assert str(disclosure_at(counts, 1)) == '2/3'", {"bucketrisk.engine"}),
        ("from functools import partial\n"
         "from bucketrisk.engine import max_disclosure\n"
         "max_disclosure(counts, 1, partial(table.buckets_at, t, by=['Sex']))",
         {"bucketrisk.engine", "bucketrisk.knowledge"}),
    ],
    ids=["disclosure_vs_k", "disclosure_at", "max_disclosure"],
)
def test_only_a_witness_loads_the_knowledge_layer(call, layers):
    assert loaded_after(COUNTS + call) == {*PACKAGE, *layers}


@pytest.mark.parametrize(
    "code",
    [
        "import bucketrisk\nbucketrisk.lattice",
        "import bucketrisk\nbucketrisk.oracle",
        "import bucketrisk\nbucketrisk.curves",
        "from bucketrisk import lattice, table",
        "from bucketrisk import engine, knowledge, oracle, table",
        "from bucketrisk import *",
    ],
    ids=["lattice", "oracle", "curves", "lattice-table", "engine-knowledge-oracle-table",
         "star"],
)
def test_library_layers_load_no_unused_module(code):
    loaded = loaded_after(code)
    assert DEFERRED & loaded
    assert not loaded & UNUSED


ENGINE = {"bucketrisk.engine"}
KNOWLEDGE = {"bucketrisk.knowledge"}


@pytest.mark.parametrize(
    "args, code, layers",
    [
        ([*TABLE_ARGS, "disclose", "--k", "2", "--group-by", "Sex"], 0, ENGINE),
        ([*TABLE_ARGS, "disclose", "--k", "2", "--group-by", "Sex", "--witness"], 0,
         ENGINE | KNOWLEDGE),
        ([*TABLE_ARGS, "disclose", "--k", "2", "--group-by", "Sex", "--class", "negations"],
         0, ENGINE),
        ([*TABLE_ARGS, "disclose", "--k", "2", "--group-by", "Sex", "--class", "negations",
          "--witness"], 2, ENGINE),
        ([*TABLE_ARGS, "oracle", "--target", "Charlie=Flu", "--group-by", "Sex",
          "--knowledge", str(DATA / "flu.bk")], 0, KNOWLEDGE | {"bucketrisk.oracle"}),
        ([*TABLE_ARGS, "anonymize", "--hierarchy", HIERARCHY, "--c", "7/10", "--k", "1",
          "--all-minimal"], 0, ENGINE | {"bucketrisk.lattice"}),
        ([*TABLE_ARGS, "curve-k", "--k-max", "2", "--group-by", "Sex"], 0,
         ENGINE | {"bucketrisk.curves"}),
        (["curve-entropy", "--domain-size", "2", "--per-value", "2", "--k", "1"], 0,
         ENGINE | {"bucketrisk.curves"}),
    ],
    ids=["disclose", "disclose-witness", "disclose-negations", "disclose-negations-witness",
         "oracle", "anonymize", "curve-k", "curve-entropy"],
)
@needs_click
def test_each_command_loads_only_the_layers_it_runs(args, code, layers):
    exit_code, stdout, stderr, loaded, _ = run_cli(*args)
    assert exit_code == code, stderr
    assert "Traceback" not in stderr
    assert loaded == CLI | layers


HELP = json.loads((DATA / "cli-help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(HELP))
@needs_click
def test_help_text_is_unchanged(command):
    """Help output pinned from the release that imported every layer up front."""
    exit_code, stdout, stderr, _, _ = run_cli(*command.split()[1:])
    assert (exit_code, stdout, stderr) == (0, HELP[command], "")


@pytest.mark.parametrize(
    "args",
    [
        [*TABLE_ARGS, "disclose", "--k", "2", "--group-by", "Sex"],
        [*TABLE_ARGS, "disclose", "--k", "2", "--group-by", "Sex", "--witness"],
        [*TABLE_ARGS, "disclose", "--k", "2", "--group-by", "Sex", "--class", "negations"],
        [*TABLE_ARGS, "curve-k", "--k-max", "2", "--group-by", "Sex"],
        [*TABLE_ARGS, "curve-k", "--k-max", "2", "--group-by", "Sex", "--sample", "0.5",
         "--seed", "7"],
        [*TABLE_ARGS, "--partition", str(DATA / "clinic-partition.tsv"), "curve-k", "--k-max",
         "2"],
        ["curve-entropy", "--domain-size", "2", "--per-value", "2", "--k", "1"],
        [*TABLE_ARGS, "oracle", "--target", "Charlie=Flu", "--group-by", "Sex",
         "--knowledge", str(DATA / "flu.bk")],
        [*TABLE_ARGS, "anonymize", "--hierarchy", HIERARCHY, "--c", "7/10", "--k", "1",
         "--all-minimal"],
        [*TABLE_ARGS, "anonymize", "--hierarchy", HIERARCHY, "--c", "7/10", "--k", "1",
         "--chain", "Zip=0..1,Age=0..1,Sex=0..1"],
    ],
    ids=["disclose", "disclose-witness", "disclose-negations", "curve-k", "curve-k-sample",
         "curve-k-partition", "curve-entropy", "oracle", "anonymize-all-minimal",
         "anonymize-chain"],
)
@needs_click
def test_no_command_leaves_a_reference_cycle(args):
    """``run`` turns the cycle collector off, so a cycle a command makes is
    never freed: every successful command must free all it made by
    reference counting. (A failing command exits right after, and its
    caught exception's traceback is a cycle.)"""
    exit_code, _, stderr, _, unreachable = run_cli(*args)
    assert exit_code == 0, stderr
    assert unreachable == 0


@needs_click
def test_run_turns_the_collector_off_and_freezes_the_imported_heap():
    code = (
        "import gc, sys\n"
        "from bucketrisk.cli import main, run\n"
        "@main.command()\n"
        "def probe():\n"
        "    print(gc.isenabled(), gc.get_freeze_count() > 0)\n"
        "sys.argv[1:] = ['probe']\n"
        "run()\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env())
    assert (result.returncode, result.stdout, result.stderr) == (0, "False True\n", "")


@needs_click
def test_main_in_process_leaves_the_collector_as_it_was():
    from click.testing import CliRunner

    from bucketrisk.cli import main

    before = gc.isenabled(), gc.get_freeze_count()
    result = CliRunner().invoke(main, [*TABLE_ARGS, "disclose", "--k", "2", "--group-by", "Sex"])
    assert result.exit_code == 0, result.output
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_installed_script_goes_through_run():
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"bucketrisk": "bucketrisk.cli:run"}


def test_every_public_name_is_its_defining_modules_object():
    for name in bucketrisk.__all__:
        value = getattr(bucketrisk, name)
        home = "bucketrisk.errors" if name == "DEFAULT_BUDGET" else value.__module__
        assert getattr(sys.modules[home], name) is value, name
    from bucketrisk import errors, oracle

    assert oracle.DEFAULT_BUDGET is errors.DEFAULT_BUDGET is bucketrisk.DEFAULT_BUDGET


# Adding or removing a public name is a change to this list. A name is
# public if the command line or another layer calls it, or if it answers one
# of the paper's questions (see the README's Library section).
PUBLIC = [
    "Atom", "BasicImplication", "Bucket", "BucketRiskError", "Bucketization",
    "BudgetExceededError", "CurvePoint", "DEFAULT_BUDGET", "DisclosureReport", "Engine",
    "Hierarchy", "InconsistentKnowledgeError", "Knowledge", "ParseError", "Placement",
    "SafetyThreshold", "SkewedSingleBucketFamily", "Table", "ValidationError",
    "all_minimal_safe", "apply", "avoidance_probability", "binary_search_chain",
    "brute_force_max_disclosure", "buckets_at", "disclosure_at", "disclosure_by_k",
    "disclosure_reaches", "disclosure_vs_k", "emit_csv", "entropy_vs_disclosure",
    "exact_posterior", "histograms", "is_safe", "knowledge_holds", "knowledge_probability",
    "load_hierarchy", "load_table", "make_bucket", "max_disclosure",
    "max_disclosure_negated_atoms", "minimize_across_buckets", "minimize_within_bucket",
    "negation_as_implication", "parse_atom", "parse_knowledge", "partition",
    "read_assignment", "read_domain", "simple_implication", "world_count",
]


def test_public_names_are_pinned():
    assert sorted(bucketrisk.__all__) == PUBLIC


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from bucketrisk import *", namespace)
    assert set(bucketrisk.__all__) <= set(namespace)
    assert set(bucketrisk.__all__) <= set(dir(bucketrisk))
    assert {"engine", "knowledge", "lattice", "oracle", "curves"} <= set(dir(bucketrisk))


def test_deferred_layers_resolve_after_a_bare_import():
    code = (
        "import bucketrisk\n"
        "assert bucketrisk.lattice.__name__ == 'bucketrisk.lattice'\n"
        "assert bucketrisk.oracle.__name__ == 'bucketrisk.oracle'\n"
        "assert bucketrisk.curves.__name__ == 'bucketrisk.curves'"
    )
    assert DEFERRED <= loaded_after(code)
    loaded = loaded_after("import bucketrisk\nbucketrisk.exact_posterior")
    assert loaded & DEFERRED == {"bucketrisk.oracle"}


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError) as plain:
        types.ModuleType("bucketrisk").no_such_name
    with pytest.raises(AttributeError) as lazy:
        bucketrisk.no_such_name
    assert str(lazy.value) == str(plain.value)
    assert str(lazy.value) == "module 'bucketrisk' has no attribute 'no_such_name'"
    with pytest.raises(ImportError):
        exec("from bucketrisk import no_such_name", {})

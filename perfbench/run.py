"""Benchmark of the bucketrisk command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
./src and nothing else. It writes the seeded inputs under ./.perfbench_work.

--trace 0 runs the workload's operations as sequential ``bucketrisk`` child
processes (a closed loop with one client) for S seconds, in rounds that each
run every operation once between two runs of a fixed reference child
(reference.py). It checks every output against the output pinned from the
seed commit and reports, per operation, the median of its wall times
corrected for the host's speed by the reference runs around them (see
``timed_run``), plus the largest child max-RSS.

--trace 1 runs the same operations in this process, alternating untraced
passes with passes that record spans around the public functions of each
layer module, and reports the per-layer metrics listed in BENCHMARK.json.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 when every output was correct, 1 when one was
not, 2 when the benchmark could not run at all (no ./src/bucketrisk, a
generator whose output drifted, or a reference child that failed).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 165.0     # whole run, generation included; a run must end within 180 s
REPLAY_LIMIT = 100_000   # witnesses whose projected enumeration may exceed this are skipped
# Timed op samples are scaled to a host on which the reference child takes this long.
REFERENCE_S = 0.1

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WORKLOADS = tuple(workloads.PARAMS)
REFERENCE_ARGV = [sys.executable, "-I", str(HERE / "reference.py")]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def check(inputs: workloads.Inputs, op: workloads.Op, code: int, stdout: str, stderr: str):
    """None when the op did what the seed commit did, else what went wrong."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code != op.exit_code:
        return f"exit code {code}, expected {op.exit_code}"
    if inputs.canonical(stdout) != inputs.expected(op.metric):
        return "stdout differs from the pinned output"
    return None


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def run_child(argv, cwd: Path, env: dict, timeout: float):
    """Run one child to completion; (wall s, max RSS KiB, exit code, stdout, stderr).

    The exit code is None when the child was killed at ``timeout``.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        code = None
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except _Timeout:
            proc.kill()
            try:
                _, _, usage = os.wait4(proc.pid, 0)
            except ChildProcessError:  # reaped just before the alarm
                usage = None
        except BaseException:  # SIGTERM or Ctrl-C: take the child down too
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = -9 if code is None else code
    rss = usage.ru_maxrss if usage is not None else 0
    return (wall, rss, code, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


def child_argv(op: workloads.Op) -> list[str]:
    return [sys.executable, *(str(HERE / a) if a == workloads.CHILD else a for a in op.argv)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ============================================================================
# End-to-end run
# ============================================================================

class BadReference(Exception):
    """The reference child failed or printed something other than reference.EXPECTED."""


def run_reference(directory: Path, timeout: float) -> float:
    """Wall time of one reference child; raises BadReference on a wrong output."""
    wall, _, code, stdout, stderr = run_child(
        REFERENCE_ARGV, directory, dict(os.environ), timeout
    )
    if code != 0 or stdout.strip() != reference.EXPECTED:
        raise BadReference(f"reference child: exit {code}, stdout {stdout.strip()!r}, "
                           f"stderr {stderr.strip()[-500:]!r}")
    return wall


def timed_run(inputs: workloads.Inputs, seconds: float, started: float) -> dict:
    """Closed loop of rounds until ``seconds`` are used: reference, then every
    op once, then the reference that opens the next round.

    Each op's wall time is corrected for the host's speed at that moment:
    multiplied by REFERENCE_S over the mean of the two reference runs around
    its round. The metric is the median of the corrected samples.
    """
    env = child_env()
    ops = inputs.ops
    walls: dict[str, list[float]] = {op.metric: [] for op in ops}
    refs_around: dict[str, list[tuple[int, int]]] = {op.metric: [] for op in ops}
    refs: list[float] = []
    peak_kib = 0
    attempted = failed = 0

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - started)

    # untimed warm-up: compiles bytecode on a fresh checkout, warms the file cache
    run_child(child_argv(ops[0]), inputs.directory, env, remaining())
    run_reference(inputs.directory, remaining())
    window_end = min(time.perf_counter() + seconds, started + HARD_LIMIT_S - 15)
    refs.append(run_reference(inputs.directory, remaining()))
    stopped = timed_out = False
    while not stopped:
        before = len(refs) - 1
        this_round = []
        for op in ops:
            taken = walls[op.metric]
            if taken and (time.perf_counter() + statistics.median(taken)
                          + statistics.median(refs) > window_end):
                stopped = True
                break
            wall, rss, code, stdout, stderr = run_child(
                child_argv(op), inputs.directory, env, remaining()
            )
            attempted += 1
            this_round.append((op.metric, wall))
            peak_kib = max(peak_kib, rss)
            problem = "timed out" if code is None else check(inputs, op, code, stdout, stderr)
            if problem:
                failed += 1
                print(f"FAIL {op.metric} ({op.label}): {problem}", file=sys.stderr)
                if stderr.strip():
                    print(stderr.strip()[-2000:], file=sys.stderr)
            if code is None:
                stopped = timed_out = True
                break
        if this_round and not timed_out:
            refs.append(run_reference(inputs.directory, remaining()))
        for metric, wall in this_round:
            walls[metric].append(wall)
            refs_around[metric].append((before, len(refs) - 1))

    metrics = {}
    for op in ops:
        raw = walls[op.metric]
        if not raw:  # the loop stopped on a timeout before this op ran
            continue
        corrected = [
            wall * REFERENCE_S / ((refs[before] + refs[after]) / 2)
            for wall, (before, after) in zip(raw, refs_around[op.metric])
        ]
        median = statistics.median(corrected)
        q1, q3 = quartiles(corrected)
        print(f"{inputs.workload:17} {op.metric:8} {op.label:46} n={len(raw):<3} "
              f"median={median:.4f}s q1={q1:.4f}s q3={q3:.4f}s "
              f"(wall median={statistics.median(raw):.4f}s)")
        metrics[op.metric] = {"value": median, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB"}
    print(f"{inputs.workload:17} reference n={len(refs)} "
          f"wall median={statistics.median(refs):.4f}s (REFERENCE_S={REFERENCE_S}s)")
    print(f"{inputs.workload:17} peak_rss_mb {peak_kib / 1024:.1f} MB; "
          f"{failed} of {attempted} ops failed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ============================================================================
# Traced run
# ============================================================================

def import_program():
    """Import bucketrisk from ./src, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import bucketrisk
    import bucketrisk.cli  # noqa: F401  (loads every layer module)

    if not Path(bucketrisk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"bucketrisk imported from {bucketrisk.__file__}, not {SRC}")
    return bucketrisk


def invoke_in_process(br, op: workloads.Op):
    """Run an op in this process; (exit code, stdout, stderr)."""
    if op.argv[0] == workloads.CHILD:
        import child

        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = child.main(list(op.argv[1:]))
            return code, out.getvalue(), ""
        except Exception:  # reported as a failed op, like a child's traceback
            return 1, out.getvalue(), traceback.format_exc()
    from click.testing import CliRunner

    result = CliRunner().invoke(br.cli.main, list(op.argv[2:]), catch_exceptions=True)
    stderr = result.stderr
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        stderr += "".join(traceback.format_exception(result.exception))
    return result.exit_code, result.stdout, stderr


def run_pass(br, inputs, tracer: Tracer | None):
    """Every op of the workload once, each starting from a cold engine cache.

    Returns the pass time, each op's stdout, and what went wrong per op.
    """
    outputs, problems = {}, {}
    started = time.perf_counter()
    for op in inputs.ops:
        clear = getattr(br.engine, "clear_cache", None)
        if clear is not None:
            clear()
        kind = "bench" if op.argv[0] == workloads.CHILD else "cli"
        span = tracer.span(f"{kind}.{op.metric}") if tracer else contextlib.nullcontext()
        with span:
            code, stdout, stderr = invoke_in_process(br, op)
        outputs[op.metric] = stdout
        problem = check(inputs, op, code, stdout, stderr)
        if problem:
            problems[op.metric] = f"{op.metric} ({op.label}): {problem}"
    return time.perf_counter() - started, outputs, problems


def span_metrics(t: Tracer, inputs) -> dict:
    """Per-layer metrics of one traced pass; a metric whose function is gone is absent."""
    m: dict = {}
    ok_ops = {f"cli.{op.metric}" for op in inputs.ops if op.exit_code == 0}
    refused_ops = {f"cli.{op.metric}" for op in inputs.ops if op.exit_code != 0}

    def put(metric, function, value):
        if function in t.traced:
            m[metric] = value

    def count(name, under=None):
        return len(t.select(name, under))

    put("table.load_s", "table.load_table", t.total("table.load_table"))
    put("table.partition_s", "table.partition", t.total("table.partition"))
    put("engine.calls", "engine.max_disclosure", count("engine.max_disclosure"))
    put("curves.disclosure_vs_k_s", "curves.disclosure_vs_k", t.total("curves.disclosure_vs_k"))
    put("curves.engine_calls", "curves.disclosure_vs_k",
        count("engine.max_disclosure", lambda a: a == "curves.disclosure_vs_k"))
    put("curves.emit_csv_s", "curves.emit_csv", t.total("curves.emit_csv"))
    put("lattice.search_s", "lattice.all_minimal_safe", t.total("lattice.all_minimal_safe"))
    put("lattice.chain_s", "lattice.binary_search_chain", t.total("lattice.binary_search_chain"))
    put("lattice.apply_s", "lattice.apply", t.total("lattice.apply"))
    put("lattice.apply_calls", "lattice.apply", count("lattice.apply"))
    put("lattice.is_safe_calls", "lattice.is_safe", count("lattice.is_safe"))
    put("oracle.posterior_s", "oracle.exact_posterior",
        t.total("oracle.exact_posterior", lambda a: a in ok_ops))
    put("oracle.refuse_s", "oracle.exact_posterior",
        t.total("oracle.exact_posterior", lambda a: a in refused_ops))
    put("oracle.brute_force_s", "oracle.brute_force_max_disclosure",
        t.total("oracle.brute_force_max_disclosure"))
    put("oracle.brute_force_instances", "oracle.brute_force_max_disclosure",
        count("oracle.brute_force_max_disclosure"))
    put("knowledge.parse_s", "knowledge.parse_knowledge", t.total("knowledge.parse_knowledge"))
    def in_verify(ancestor):
        return ancestor.startswith("bench.")

    put("oracle.replay_s", "oracle.exact_posterior", t.total("oracle.exact_posterior", in_verify))
    put("oracle.replays", "oracle.exact_posterior", count("oracle.exact_posterior", in_verify))
    if "lattice.all_minimal_safe" in t.traced and "lattice.is_safe" in t.traced:
        m["lattice.search_evaluations"] = count(
            "lattice.is_safe", lambda a: a == "lattice.all_minimal_safe"
        )
    own = t.self_by_prefix()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    m["cli.other_s"] = own.get("cli", 0.0)
    return m


def engine_probe(br, b13n, k: int) -> dict:
    """Cold and warm engine calls on the workload's main bucketization."""
    engine = br.engine
    across = getattr(engine, "minimize_across_buckets", None)
    if across is None:
        return {}
    clear = getattr(engine, "clear_cache", None)
    info = getattr(engine, "cache_info", None)
    cold, warm, out = [], [], {}
    for _ in range(3):
        if clear is not None:
            clear()
        start = time.perf_counter()
        across(b13n, k)
        cold.append(time.perf_counter() - start)
        if info is not None and not out:
            snapshot = info()
            for field in ("histograms", "within_evaluations", "across_entries"):
                if hasattr(snapshot, field):
                    out[f"engine.{field}"] = getattr(snapshot, field)
        start = time.perf_counter()
        across(b13n, k)
        warm.append(time.perf_counter() - start)
    out["engine.across_s"] = statistics.median(warm)
    if clear is not None:
        out["engine.within_s"] = max(statistics.median(cold) - statistics.median(warm), 0.0)
    report = getattr(engine, "max_disclosure", None)
    if report is not None:
        start = time.perf_counter()
        report(b13n, k)
        out["engine.witness_s"] = max(time.perf_counter() - start - out["engine.across_s"], 0.0)
    negations = getattr(engine, "max_disclosure_negated_atoms", None)
    if negations is not None:
        start = time.perf_counter()
        negations(b13n, k)
        out["engine.negations_s"] = time.perf_counter() - start
    return out


def replay_witness(br, b13n, stdout: str):
    """Replay a ``disclose --witness`` output through exact_posterior.

    True or False for a match, None when the projected enumeration could
    exceed REPLAY_LIMIT (atoms spread over many buckets).
    """
    lines = stdout.splitlines()
    disclosure = Fraction(lines[0].split()[1])
    target = br.knowledge.parse_atom(lines[1][len("target: "):])
    knowledge = br.knowledge.parse_knowledge("\n".join(lines[3:]))
    bound = 1
    for person in {a.person for a in knowledge.atoms()} | {target.person}:
        bound *= len(b13n.bucket_of_person(person).histogram)
    if bound > REPLAY_LIMIT:
        return None
    return br.oracle.exact_posterior(b13n, knowledge, target, budget=REPLAY_LIMIT) == disclosure


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import bucketrisk.cli; "
            "print(time.perf_counter() - t)")
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(3)
    ]
    return statistics.median(times)


def program_metrics(br, inputs):
    """Shape of the main table and the engine probe, measured untraced.

    Returns the metrics and the main bucketization.
    """
    main = inputs.main
    table = br.table.load_table(main["table"], main["sensitive"], id_column=main["id"])
    b13n = br.table.partition(table, by=tuple(main["group_by"].split(",")))
    static = {
        "table.rows": len(table.records),
        "table.buckets": len(b13n.buckets),
        "table.distinct_histograms": len({b.counts for b in b13n.buckets}),
        "lattice.nodes": 0,
        "oracle.world_count": 0,
        "cli.import_s": import_seconds(),
    }
    static.update(engine_probe(br, b13n, inputs.probe_k))
    if main.get("hierarchy"):
        static["lattice.nodes"] = br.lattice.load_hierarchy(main["hierarchy"]).size()
    if any("oracle" in op.argv for op in inputs.ops):
        static["oracle.world_count"] = br.oracle.world_count(b13n)
    return static, b13n


def replay_witnesses(br, inputs, b13n, outputs, problems):
    """Replay every correct ``--witness`` output; (replays, mismatches, seconds)."""
    replays = mismatches = 0
    seconds = 0.0
    for op in inputs.ops:
        if "--witness" not in op.argv or op.metric in problems:
            continue
        start = time.perf_counter()
        verdict = replay_witness(br, b13n, outputs[op.metric])
        if verdict is None:
            continue
        seconds += time.perf_counter() - start
        replays += 1
        if not verdict:
            mismatches += 1
            print(f"FAIL {op.metric} ({op.label}): witness does not replay", file=sys.stderr)
    return replays, mismatches, seconds


def traced_run(inputs: workloads.Inputs, seconds: float, started: float) -> dict:
    br = import_program()
    attempted = failed = 0
    plain_walls, traced_walls, traced_metrics = [], [], []
    outputs = {}
    previous_cwd = os.getcwd()
    os.chdir(inputs.directory)
    try:
        window_end = min(time.perf_counter() + seconds, started + HARD_LIMIT_S / 2)
        while not traced_walls or time.perf_counter() + 2 * traced_walls[-1] < window_end:
            wall, _, plain_problems = run_pass(br, inputs, None)
            plain_walls.append(wall)
            tracer = Tracer()
            tracer.install()
            try:
                wall, outputs, problems = run_pass(br, inputs, tracer)
            finally:
                tracer.restore()
            traced_walls.append(wall)
            traced_metrics.append(span_metrics(tracer, inputs))
            attempted += 2 * len(inputs.ops)
            for problem in [*plain_problems.values(), *problems.values()]:
                failed += 1
                print(f"FAIL {problem}", file=sys.stderr)

        static, b13n = program_metrics(br, inputs)
        replays, mismatches, replay_s = replay_witnesses(br, inputs, b13n, outputs, problems)
        attempted += replays
        failed += mismatches
        for op in inputs.ops:
            if op.argv[:2] == (workloads.CHILD, "verify"):
                counted = re.search(r"\bmismatches (\d+)", outputs[op.metric])
                mismatches += int(counted.group(1)) if counted else 1
    finally:
        os.chdir(previous_cwd)

    metrics = {}
    for key in traced_metrics[0]:
        values = [m[key] for m in traced_metrics if key in m]
        timed = key.endswith("_s")
        metrics[key] = statistics.median(values) if timed else values[0]
    metrics.update(static)
    metrics["oracle.replay_s"] = metrics.get("oracle.replay_s", 0.0) + replay_s
    metrics["oracle.replays"] = metrics.get("oracle.replays", 0) + replays
    metrics["oracle.mismatches"] = mismatches
    if "lattice.search_evaluations" in metrics:
        evaluated = metrics.pop("lattice.search_evaluations")
        metrics["lattice.nodes_skipped"] = (
            metrics["lattice.nodes"] - evaluated if evaluated else 0
        )
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1
    )
    units = {key: unit_of(key) for key in metrics}
    for key in sorted(metrics):
        print(f"{inputs.workload:17} {key:30} {metrics[key]} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


# ============================================================================

def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the small inputs the benchmark's own tests use")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "bucketrisk" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'bucketrisk'}", file=sys.stderr)
        return 2
    try:
        inputs = workloads.generate(
            args.workload, args.seed, WORK / f"{args.workload}-{args.size}", args.size
        )
    except workloads.ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = traced_run if args.trace else timed_run
    try:
        result = run(inputs, args.seconds, started)
    except BadReference as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

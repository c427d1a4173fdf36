"""The benchmark's own tests, on the smoke-size inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, *args) -> tuple[int, dict]:
    code = run.main([*args, "--size", "smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def test_spec_names_every_workload():
    assert WORKLOADS == list(workloads.PARAMS)
    assert "setup_s" in END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_same_seed_same_inputs_and_ids_map_back(tmp_path):
    first = workloads.generate("oracle-verify", 5, tmp_path / "a", "smoke")
    again = workloads.generate("oracle-verify", 5, tmp_path / "b", "smoke")
    other = workloads.generate("oracle-verify", 6, tmp_path / "c", "smoke")
    text = lambda inputs: (inputs.directory / "oracle.bk").read_text()  # noqa: E731
    assert text(first) == text(again)
    assert text(first) != text(other)
    assert first.canonical(text(first)) == other.canonical(text(other))


def test_generator_drift_fails_loudly(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PARAMS["census-disclose"], "smoke",
                        {"rows": 2_000, "zips": 10, "ages": 6})
    with pytest.raises(workloads.ShapeError, match="rows"):
        workloads.generate("census-disclose", 1, tmp_path, "smoke")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(capsys, workload):
    code, result = bench(capsys, "--workload", workload, "--seed", "3",
                         "--seconds", "0.1", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_output_counts_as_failure(capsys, monkeypatch):
    pinned = workloads.Inputs.expected
    monkeypatch.setattr(
        workloads.Inputs, "expected",
        lambda self, metric: pinned(self, metric).replace("disclosure: ", "disclosure: 1+"),
    )
    code, result = bench(capsys, "--workload", "census-disclose", "--seed", "3",
                         "--seconds", "0.1", "--trace", "0")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == 2  # the two disclose ops; curve-k and set-up still match


def test_reference_prints_its_pinned_checksum():
    import reference

    assert reference.work() == reference.EXPECTED


def test_wrong_reference_output_stops_the_run(capsys, monkeypatch):
    monkeypatch.setattr(run.reference, "EXPECTED", "not the checksum")
    code = run.main(["--workload", "oracle-verify", "--seed", "3", "--seconds", "0.1",
                     "--trace", "0", "--size", "smoke"])
    assert code == 2
    assert '"correct"' not in capsys.readouterr().out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(capsys, workload):
    code, result = bench(capsys, "--workload", workload, "--seed", "4",
                         "--seconds", "0.1", "--trace", "1")
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == PER_LAYER


def test_traced_counts_repeat_exactly(capsys):
    counts = []
    for seed in (7, 8):
        _, result = bench(capsys, "--workload", "census-anonymize", "--seed", str(seed),
                          "--seconds", "0.1", "--trace", "1")
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["lattice.nodes"] == 32
    assert counts[0]["lattice.apply_calls"] > 0


def test_missing_hook_leaves_metric_absent(capsys, monkeypatch):
    run.import_program()
    import bucketrisk.engine

    monkeypatch.delattr(bucketrisk.engine, "cache_info")
    code, result = bench(capsys, "--workload", "census-disclose", "--seed", "4",
                         "--seconds", "0.1", "--trace", "1")
    assert code == 0 and result["correct"]
    assert "engine.within_evaluations" not in result["metrics"]
    assert "engine.across_s" in result["metrics"]
    assert not hasattr(bucketrisk.engine.max_disclosure, "__wrapped__")  # restored


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

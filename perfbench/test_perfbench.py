"""Tests of the benchmark itself, at smoke size.

Run with ``python3 -m pytest perfbench``.  Each test starts the driver
as a user would and reads the JSON result on its last line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "0.1",
                           "--seed", "3", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_are_the_declared_ones(workload):
    res = result(bench("--workload", workload, "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(workload):
    res = result(bench("--workload", workload, "--smoke", "--trace", "1"))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    if workload == "scan":
        # corollary1_scan calls pi through recognize's own binding
        assert res["metrics"]["homotopy.pi.calls"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_corrupted_expectation_is_reported_in_fail_ratio(workload):
    proc = bench("--workload", workload, "--smoke", "--corrupt")
    res = result(proc)
    assert not res["correct"] and res["failed"] == res["attempted"] > 0
    assert "# fail_ratio" in proc.stdout and "# FAILED" in proc.stdout
    ratio = next(line for line in proc.stdout.splitlines() if line.startswith("# fail_ratio"))
    assert float(ratio.split()[2]) == 1.0


def test_op_over_its_time_bound_fails_and_the_run_continues(monkeypatch, capsys):
    monkeypatch.setitem(run.BOUNDS_S, "scan_op", 0.01)
    # --seconds 0 ends the run after its one smoke round of one op
    assert run.main(["--workload", "scan", "--seed", "3", "--seconds", "0",
                     "--smoke"]) == 0
    out = capsys.readouterr().out
    res = json.loads(out.strip().splitlines()[-1])
    assert res["failed"] == res["attempted"] == 1
    assert "exceeded time bound scan_op" in out


def test_round_time_counts_the_ops_of_a_round_cut_short():
    # op 0 ran in both rounds, op 1 only in the first: the second round
    # was stopped by the end of the run
    rounds = [{"op_s": [1.0, 2.0]}, {"op_s": [3.0]}]
    assert run._round_s(rounds) == 2.0 + 2.0


def test_without_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "session", cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout.strip()


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.make_round(name, 7, False) == workloads.make_round(name, 7, False)
        assert workloads.make_round(name, 7, False) != workloads.make_round(name, 8, False)

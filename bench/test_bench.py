"""Tests of the benchmark itself, on the tiny inputs of ``--smoke``.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )
    return proc


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == workloads.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layers == {k: v[:2] for k, v in workloads.PER_LAYER.items()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_end_to_end(workload):
    res = _result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                  "--smoke")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(workloads.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload, moved, bypassed", [
    ("count-parallel",
     ["torsor.count_torsor.child_cpu_s", "arith.sqrts_minus_one.calls",
      "surface.count_degenerate.s", "cli.parse_args.s"],
     ["arith.warm_dint_cache.values", "constants.constant_bundle.self_s"]),
    ("constants",
     ["arith.dint.us_per_value", "arith.linear_term_constant.self_s",
      "constants.constant_bundle.self_s", "arith.primes_up_to.s"],
     ["torsor.count_torsor.s", "arith.sqrts_minus_one.calls"]),
])
def test_smoke_traced(workload, moved, bypassed):
    res = _result("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                  "--smoke")
    assert res["correct"] and res["failed"] == 0
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == set(workloads.PER_LAYER)
    assert all(metrics[k] > 0 for k in moved)
    assert all(metrics[k] == 0 for k in bypassed)
    if workload == "count-parallel":
        assert metrics["torsor.count_torsor.n_pos"] == 33754
        assert metrics["torsor.count_torsor.workers"] == 2


def test_without_sources_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "count-parallel", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_wrong_outputs_are_failures(tmp_path):
    runner = bench_run.Runner("count-parallel", True, tmp_path, 0.0)
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"rows": [{"N_pos": 33755, "n_uh": 147317}]}))
    assert "N_pos" in runner._check(report)
    report.write_text(json.dumps({"rows": [{"N_pos": 33754, "n_uh": 147317}]}))
    assert runner._check(report) is None

    runner = bench_run.Runner("constants", True, tmp_path, 0.0)
    row = dict(workloads.WORKLOADS["constants"]["smoke_expect"])
    report.write_text(json.dumps({"rows": [dict(row, beta=row["beta"] * (1 + 1e-6))]}))
    assert "beta" in runner._check(report)

"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench

Runs every workload for one image of one line, traced and untraced, and
checks that each metric BENCHMARK.json names is emitted with its unit (the
CLI subcommands' layers by the traced lowrate-L5 run); that a corrupted
branch-sample vector trips the correctness gate; and that the benchmark
refuses to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


def test_metric_tables_match_benchmark_json():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    for key, table in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"])
                for m in SPEC[key]} == table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc, result = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    if workload == "lowrate-L5" and trace:
        for sub in ("import", "simulate", "beamform", "xample", "cost",
                    "compare"):
            assert result["metrics"][f"cli.{sub}_s"]["value"] > 0, sub


@pytest.mark.parametrize("workload", ["lowrate-L5", "recover-L30"])
def test_corrupted_branch_samples_trip_the_gate(workload):
    proc, result = run(workload, 0, "--corrupt")
    assert proc.returncode == 1
    assert result["correct"] is False


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

"""Smoke test of the benchmark, gated on its output checks and metric names only.

    python3 -m pytest perfbench

Each workload runs at its smoke size: once untraced on the pinned seed, and
once traced on a held-out seed that has no pinned values, where only the
invariant checks and the equality of traced and untraced outputs apply.
Timings are never asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 7


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("seed,trace", [(42, 0), (HELD_OUT_SEED, 1)])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, seed, trace):
    proc = bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    assert "check failed" not in proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }


def test_fails_without_the_program():
    bare = ROOT / ".bench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench(bare, SPEC["workloads"][0]["name"], 42, 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""

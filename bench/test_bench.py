"""Checks on the benchmark itself. From the repository root:

    python3 -m pytest bench/test_bench.py

The traced runs take about four minutes on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Counts that later changes may cite; each must repeat exactly for one seed.
NAMED_COUNTS = (
    "seesaw.sweeps",
    "tightness.lbfgs.runs",
    "tightness.lbfgs.nfev",
    "scan.nelder_mead.nfev",
    "scan.grid_svds",
    "scan.predicate_evals",
)


def _run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["thresholds", "fig2-scan", "random-states"])
def test_counts_repeat_for_a_seed(workload):
    first, second = (_result(_run(ROOT, workload, 7, trace=1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    counts = {
        name for name, metric in first["metrics"].items() if metric["unit"] in ("count", "B")
    }
    assert set(NAMED_COUNTS) <= counts
    for name in sorted(counts):
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "random-states", 1, trace=0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

"""svetbound benchmark: one workload per run, end-to-end or per-layer metrics.

From the repository root:

    python3 bench/run.py --workload fig2-scan --seed 1 --seconds 50 --trace 0

Workloads: fig2-scan, random-states and, run by hand only, thresholds (see
workloads.py); each is a fixed set of tasks made from ``--seed``. With
``--trace 0`` the run makes passes over that set for ``--seconds`` seconds
and reports, for each task, the median of its times over the run, so the
figures follow the run as a whole rather than its single fastest or slowest
moment; it starts a task only while the task is expected to finish inside
the window, and always completes the first pass. With ``--trace 1`` it
makes one pass, each task traced and then untraced, and reports per-layer
spans and counts plus the tracing overhead; one pass keeps the counts
exactly repeatable.

The package is imported from ``src/`` next to this directory and nowhere
else. Human-readable lines go first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Pin BLAS to one thread before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import spans  # noqa: E402
import warmup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402  (imports numpy)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _import_package():
    """Import svetbound from this checkout's src/, or exit with an error."""
    if not (SRC / "svetbound" / "__init__.py").is_file():
        sys.exit(f"error: no svetbound package under {SRC}")
    sys.path.insert(0, str(SRC))
    import svetbound

    if Path(svetbound.__file__).resolve().parent != SRC / "svetbound":
        sys.exit(f"error: svetbound was imported from {svetbound.__file__}, not {SRC}")


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _setup_seconds() -> float:
    """Median wall time of fresh processes that import and warm up the package."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "warmup.py"), str(SRC)],
            check=True,
            timeout=PROBE_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Wall time of every task run, grouped per task, and failures."""

    def __init__(self, tasks: int):
        self.times: list[float] = []
        self.per_task: list[list[float]] = [[] for _ in range(tasks)]
        self.failed = 0

    def run_task(self, workload, index: int) -> None:
        start = time.perf_counter()
        try:
            output = workload.run(index)
            elapsed = time.perf_counter() - start
            ok = workload.check(index, output)
        except Exception:  # any exception is a failed operation, not a crash
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            ok = False
        self.times.append(elapsed)
        self.per_task[index].append(elapsed)
        if not ok:
            self.failed += 1
            print(f"task {index} failed its check", file=sys.stderr)

    def task_medians(self) -> list[float]:
        # Every task ran at least once: the window always completes the first pass.
        return [statistics.median(times) for times in self.per_task]


def _measure_window(workload, seconds: float) -> Tally:
    tally = Tally(workload.tasks)
    start = time.perf_counter()
    done = 0
    while True:
        tally.run_task(workload, done % workload.tasks)
        done += 1
        expected_end = time.perf_counter() - start + statistics.median(tally.times)
        if done >= workload.tasks and expected_end > seconds:
            return tally


def _peak_rss_mb() -> float:
    # Linux reports kilobytes; the children term is the largest child, set-up probes included.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _end_to_end(args, workdir):
    setup_s = _setup_seconds()
    warmup.warm_up()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tally = _measure_window(workload, args.seconds)
    attempted = len(tally.times)
    typical = tally.task_medians()
    task_s_p50 = statistics.median(typical)
    items_per_s = workload.items * workload.tasks / sum(typical)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ok_ratio": ((attempted - tally.failed) / attempted, "ratio"),
        "task_s_p50": (task_s_p50, "s"),
        "items_per_s": (items_per_s, "1/s"),
    }
    named = {"fail_ratio": (tally.failed / attempted, "ratio")}
    named.update(workload.named(typical))
    print(f"{args.workload} tasks run: {attempted}, passes: {attempted / workload.tasks:.1f}")
    for name, (value, unit) in named.items():
        print(f"{args.workload} {name}: {value!r} {unit}")
    return attempted, tally.failed, metrics


def _per_layer(args, workdir):
    warmup.warm_up()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    tasks = workload.tasks

    # Each task runs traced, then again untraced, so drift in machine load
    # falls on both sides of the overhead alike.
    traced, untraced, tracer = Tally(tasks), Tally(tasks), spans.Tracer()
    for index in range(tasks):
        with spans.installed(tracer):
            traced.run_task(workload, index)
        untraced.run_task(workload, index)

    metrics = spans.layer_metrics(tracer)
    traced_s, untraced_s = sum(traced.times), sum(untraced.times)
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return 2 * tasks, traced.failed + untraced.failed, metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    env = _environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))

    workdir = tempfile.mkdtemp(prefix=".bench_run-", dir=ROOT)
    try:
        measure = _per_layer if args.trace else _end_to_end
        attempted, failed, metrics = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name}: {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

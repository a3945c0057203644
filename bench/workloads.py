"""The three benchmark workloads.

Each workload is a fixed set of ``tasks`` derived from the run seed, driven
closed-loop by one caller: ``run(i)`` performs task i and returns its output,
``check(i, output)`` verifies it at the acceptance suite's own tolerances, and
``items`` is the work one task completes. ``named(typical)`` turns each
task's median time over the run into the workload's own figures. Inputs that need files are
written during construction, outside any timed region. Package functions are
looked up on their module at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics

import numpy as np

SQ2 = math.sqrt(2.0)

# Criterion 6: the 0.05 p-grid and each threshold's accepted window.
THRESHOLD_GRID = np.round(np.arange(0.0, 1.0001, 0.05), 10)
EXPECTED_THRESHOLDS = ((0.7071, 1e-3), (0.3334, 2e-3), (0.3697, 2e-3))

# The CLI's default fig2 grid (step 0.01) takes about 28 s per scan on a
# 2-core machine, longer than one run; the criterion 6 grid keeps several
# passes of the scan inside a run.
FIG2_GRID = "0:1:0.05"
FIG2_POINTS = 21

# Criteria 3 and 4.
TRANSPORT_TOL = 1e-9
SEESAW_EXCESS_TOL = 1e-8

# A few states need ten times the median see-saw work, so the throughput
# over the set depends on which states a seed draws. With 200 states the
# throughput of five seeds spread 15%, with 500 states 5%; the p90 of 500
# has fifty states beyond it.
RANDOM_STATES = 500


class Thresholds:
    """The three criterion-6 thresholds by threshold_bisect, one task each.

    The three tasks together are the time to solution. BENCHMARK.json does
    not list this workload: one pass takes 9-12 s on a 2-core machine, so a
    run holds two or three passes and five 30 s runs spread 27%. Run it by
    hand with a longer ``--seconds``; fig2-scan covers the same layers.
    """

    name = "thresholds"
    items = 1
    cases = (("ghz-noise", "unfiltered"), ("ghz-noise", "filtered"), ("chi", "filtered"))
    tasks = len(cases)

    def __init__(self, seed: int, workdir: str):
        import svetbound

        self.sv = svetbound
        self.seed = seed

    def run(self, index: int):
        family, mode = self.cases[index]
        spec = self.sv.ScanSpec(family=family, p_grid=THRESHOLD_GRID, seed=self.seed)
        return self.sv.threshold_bisect(spec, mode)

    def check(self, index: int, found) -> bool:
        want, tol = EXPECTED_THRESHOLDS[index]
        return found is not None and abs(found - want) <= tol

    def named(self, typical):
        return {"thresholds_s": (sum(typical), "s")}


class Fig2Scan:
    """`svetbound scan --figure fig2` in-process, with CSV and JSON output."""

    name = "fig2-scan"
    tasks = 1
    items = FIG2_POINTS

    def __init__(self, seed: int, workdir: str):
        import svetbound.cli

        self.cli = svetbound.cli
        self.seed = seed
        self.csv = os.path.join(workdir, "fig2.csv")
        self.json = os.path.join(workdir, "fig2.json")

    def run(self, index: int) -> int:
        argv = [
            "scan", "--figure", "fig2", "--seed", str(self.seed),
            "--p-grid", FIG2_GRID, "--csv", self.csv, "--json", self.json,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def check(self, index: int, code: int) -> bool:
        if code != 0:
            return False
        with open(self.csv) as fh:
            rows = fh.read().splitlines()
        with open(self.json) as fh:
            records = json.load(fh)["records"]
        by_p = {round(r["p"], 2): r for r in records}
        pure, half = by_p[1.0], by_p[0.5]
        # Criterion 7 endpoints.
        return (
            len(rows) == FIG2_POINTS + 1
            and abs(pure["unfiltered_attained"] - 4 * SQ2) <= 1e-6
            and abs(pure["filtered_attained"] - 4 * SQ2) <= 1e-6
            and abs(half["unfiltered_attained"] - 2 * SQ2) <= 1e-6
            and half["filtered_attained"] > 4.0
        )

    def named(self, typical):
        return {"points_per_s": (self.items / typical[0], "1/s")}


class RandomStates:
    """Ginibre states with general PSD filters: load_state then certify_filtered."""

    name = "random-states"
    tasks = RANDOM_STATES
    items = 1

    def __init__(self, seed: int, workdir: str):
        import svetbound

        self.sv = svetbound
        rng = np.random.default_rng(seed)
        self.paths, self.filters = [], []
        for k in range(self.tasks):
            g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = g @ g.conj().T
            path = os.path.join(workdir, f"state-{k:04d}.json")
            svetbound.save_state(rho / rho.trace(), path)
            ops = []
            for _ in range(3):
                h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                f = h @ h.conj().T
                ops.append(f / np.abs(f).max())
            self.paths.append(path)
            self.filters.append(svetbound.FilterTriple.from_operators(*ops))

    def run(self, index: int):
        rho = self.sv.load_state(self.paths[index])
        return self.sv.certify_filtered(rho, self.filters[index])

    def check(self, index: int, result) -> bool:
        fa, report = result
        sx = np.linalg.svd(fa.x_matrix / fa.n_factor, compute_uv=False)
        return (
            report.achieved <= report.bound + SEESAW_EXCESS_TOL
            and np.abs(sx - fa.m_prime.svd.singular_values).max() <= TRANSPORT_TOL
        )

    def named(self, typical):
        ordered = sorted(typical)
        return {
            "states_per_s": (len(typical) / sum(typical), "1/s"),
            "state_ms_p50": (1e3 * statistics.median(typical), "ms"),
            # Nearest rank: the p90 of 500 states has 50 beyond it.
            "state_ms_p90": (1e3 * ordered[math.ceil(0.9 * len(typical)) - 1], "ms"),
        }


WORKLOADS = {cls.name: cls for cls in (Thresholds, Fig2Scan, RandomStates)}

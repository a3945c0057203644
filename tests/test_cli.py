import itertools
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svetbound.cli as cli_module
import svetbound.scan as scan_module
from conftest import openblas_threads, openblas_threads_set, random_density
from svetbound.cli import main
from svetbound.errors import (
    ConsistencyError,
    FilterAnnihilationError,
    PhysicalityError,
    StateFormatError,
)
from svetbound.fileio import format_value
from svetbound.states import build_ghz_noise_state, load_state, save_state

SQ2 = math.sqrt(2.0)
SETTING_KEYS = ["a", "a_prime", "b", "b_prime", "c", "c_prime"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_keys(text):
    return [line.partition(": ")[0] for line in text.splitlines()]


def out_map(text):
    pairs = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(": ")
        pairs[key] = value
    return pairs


class TestOutputLayout:
    """Stdout keys come in a fixed order; a --json file holds the same keys, settings nested."""

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (
                ["bound", "--family", "chi", "--p", "0.5"],
                ["state", "lambda1", "degeneracy", "bound", "tight", "achieved", "violates",
                 *SETTING_KEYS],
            ),
            (
                ["filter", "--family", "ghz-noise", "--p", "0.5", "-x", "2", "-y", "1", "-z", "1"],
                ["state", "filter", "n", "lambda1_prime", "bound", "tight", "achieved",
                 "violates", *SETTING_KEYS],
            ),
            (
                ["oracle", "--family", "ghz-noise", "--p", "0.8", "--restarts", "3"],
                ["state", "value", "converged", "sweeps", *SETTING_KEYS],
            ),
            (
                ["scan", "--family", "ghz-noise", "--mode", "unfiltered", "--p-grid", "0.1:0.3:0.1"],
                ["family", "mode", "threshold"],
            ),
        ],
    )
    def test_text_keys_match_json_keys(self, capsys, tmp_path, argv, keys):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, [*argv, "--json", str(path)])
        assert code == 0
        assert out_keys(out) == [*keys, "wrote json"]
        payload = json.loads(path.read_text())
        top = [k for k in keys if k not in SETTING_KEYS]
        if "a" in keys:
            top.append("settings")
            assert sorted(payload["settings"]) == sorted(SETTING_KEYS)
        assert sorted(payload) == sorted(top)

    def test_filter_value_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["filter", "--family", "ghz-noise", "--p", "0.5", "-x", "2", "-y", "1", "-z", "0.5"],
        )
        assert code == 0
        assert out_map(out)["filter"] == (
            "x=2.000000000000000e+00 y=1.000000000000000e+00 z=5.000000000000000e-01"
        )


class TestBoundCommand:
    def test_pure_ghz(self, capsys):
        code, out, _ = run(capsys, ["bound", "--family", "ghz-noise", "--p", "1.0"])
        assert code == 0
        fields = out_map(out)
        assert float(fields["lambda1"]) == pytest.approx(SQ2, abs=1e-12)
        assert float(fields["bound"]) == pytest.approx(4 * SQ2, abs=1e-12)
        assert fields["tight"] == "true"
        assert fields["violates"] == "true"
        assert float(fields["achieved"]) == pytest.approx(4 * SQ2, abs=1e-9)

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            ["bound", "--family", "chi", "--p", "0.5", "--json", str(path)],
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["bound"] == pytest.approx(2.0, abs=1e-12)
        assert len(payload["settings"]["a"]) == 3

    def test_state_file_source(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        save_state(build_ghz_noise_state(0.9), str(path))
        code, out, _ = run(capsys, ["bound", "--state", str(path)])
        assert code == 0
        assert float(out_map(out)["lambda1"]) == pytest.approx(0.9 * SQ2, abs=1e-10)


    def test_runs_single_threaded_blas(self, capsys):
        """cli.main pins every loaded OpenBLAS to one thread before it runs a command."""
        with openblas_threads_set(2):
            assert set(openblas_threads()) == {2}
            code, _, _ = run(capsys, ["bound", "--family", "ghz-noise", "--p", "0.8"])
            assert code == 0
            assert set(openblas_threads()) == {1}

    def test_blas_discovered_once(self, capsys, monkeypatch):
        """A second in-process cli.main reuses the OpenBLAS list instead of rereading /proc/self/maps."""
        opened = []

        def spy(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli_module, "open", spy, raising=False)
        cli_module._blas_pins.cache_clear()
        for _ in range(2):
            assert run(capsys, ["bound", "--family", "ghz-noise", "--p", "0.8"])[0] == 0
        assert opened == ["/proc/self/maps"]

    @pytest.mark.parametrize("existing", [None, 0o640])
    def test_json_file_mode(self, capsys, tmp_path, existing):
        """A new file gets the mode open() would give; an overwritten one keeps its own."""
        path = tmp_path / "report.json"
        if existing is not None:
            path.write_text("{}")
            path.chmod(existing)
        umask = os.umask(0o022)
        try:
            code, _, _ = run(capsys, ["bound", "--family", "ghz-noise", "--p", "0.8", "--json", str(path)])
        finally:
            os.umask(umask)
        assert code == 0
        assert stat.S_IMODE(path.stat().st_mode) == (0o644 if existing is None else existing)
        assert json.loads(path.read_text())["tight"] is True


class TestFilterCommand:
    def test_explicit_strengths(self, capsys):
        code, out, _ = run(
            capsys,
            ["filter", "--family", "ghz-noise", "--p", "0.5",
             "-x", "2.0", "-y", "1.0", "-z", "1.0"],
        )
        assert code == 0
        fields = out_map(out)
        # p/2 + (1-p)x^2(1 + y^2 + z^2)/4 + (1+p)x^2 y^2 z^2/4 at these strengths
        assert float(fields["n"]) == pytest.approx(3.25, rel=1e-12)

    def test_optimize(self, capsys, monkeypatch):
        """The exact supremum 2 / sqrt(3); behind the same command, the box search keeps its frozen value."""
        code, out, _ = run(
            capsys, ["filter", "--family", "ghz-noise", "--p", "0.5", "--optimize"]
        )
        assert code == 0
        fields = out_map(out)
        assert float(fields["lambda1_prime"]) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
        assert fields["violates"] == "true"

        monkeypatch.setattr(cli_module, "optimize_filter", scan_module._box_search)
        code, out, _ = run(
            capsys, ["filter", "--family", "ghz-noise", "--p", "0.5", "--optimize"]
        )
        assert code == 0
        fields = out_map(out)
        assert float(fields["lambda1_prime"]) == pytest.approx(1.1542290377905464, abs=1e-9)
        assert fields["violates"] == "true"

    def test_optimize_plateau_point_is_tight(self, capsys):
        """On the plateau the filtered leading vector is rank one, and its settings attain the bound exactly."""
        code, out, _ = run(capsys, ["filter", "--family", "ghz-noise", "--p", "0.2", "--optimize"])
        assert code == 0
        fields = out_map(out)
        assert fields["tight"] == "true"
        assert fields["achieved"] == fields["bound"] == "3.999999999999865e+00"

    def test_optimize_state_file_takes_the_box_search(self, capsys, monkeypatch, tmp_path):
        """A seeded Ginibre state is no X-state: the command prints the filter and value of the box search."""
        path = tmp_path / "ginibre.json"
        save_state(random_density(np.random.default_rng(1)), str(path))
        params, fa = scan_module.optimize_filter(load_state(str(path)))
        runs = []
        inner = scan_module.minimize
        monkeypatch.setattr(scan_module, "minimize", lambda *args, **kwargs: runs.append(1) or inner(*args, **kwargs))
        code, out, err = run(capsys, ["filter", "--state", str(path), "--optimize"])
        assert code == 0, err
        assert runs
        fields = out_map(out)
        assert fields["filter"] == format_value({"x": params.x, "y": params.y, "z": params.z})
        assert fields["lambda1_prime"] == format_value(fa.lambda1_prime)

    @pytest.mark.parametrize(
        "source",
        [
            *(["--family", family, "--p", p] for family in ("ghz-noise", "chi") for p in ("0.3", "0.5", "0.9")),
            "ginibre",
        ],
        ids=lambda source: source if isinstance(source, str) else f"{source[1]}-{source[3]}",
    )
    def test_optimize_reports_as_explicit_strengths(self, capsys, tmp_path, source):
        """--optimize reports what the explicit command reports at the strengths it prints."""
        if source == "ginibre":
            path = tmp_path / "ginibre.json"
            save_state(random_density(np.random.default_rng(1)), str(path))
            source = ["--state", str(path)]
        optimized, explicit = tmp_path / "optimized.json", tmp_path / "explicit.json"
        code, _, err = run(capsys, ["filter", *source, "--optimize", "--json", str(optimized)])
        assert code == 0, err
        strengths = json.loads(optimized.read_text())["filter"]
        flags = [item for axis in "xyz" for item in (f"-{axis}", repr(strengths[axis]))]
        code, _, err = run(capsys, ["filter", *source, *flags, "--json", str(explicit)])
        assert code == 0, err
        assert json.loads(explicit.read_text()) == json.loads(optimized.read_text())

    @pytest.mark.parametrize("occupied", [(1, 2, 4), (1, 4)], ids=["W", "psi-plus-AC-0-B"])
    def test_optimize_reaches_sqrt3(self, capsys, tmp_path, occupied):
        """W and |Psi+>_AC |0>_B reach lambda1 = sqrt(3), the physical maximum, and pass the kernel check."""
        psi = np.zeros(8)
        psi[list(occupied)] = 1.0 / math.sqrt(len(occupied))
        path = tmp_path / "state.json"
        save_state(np.outer(psi, psi), str(path))
        code, out, err = run(capsys, ["filter", "--state", str(path), "--optimize"])
        assert code == 0, err
        assert float(out_map(out)["lambda1_prime"]) <= math.sqrt(3.0) + 1e-9

    def test_extreme_strengths_keep_nonnegative_normalization(self, capsys):
        """A filter near a projector: the canonical N is a sum of populations, not a cancellation."""
        code, out, err = run(
            capsys,
            ["filter", "--family", "ghz-noise", "--p", "0.34", "-x", "1e-12", "-y", "1e6", "-z", "1e6"],
        )
        assert code == 0, err
        # p/2 + (1-p)x^2(1 + y^2 + z^2)/4 + (1+p)x^2 y^2 z^2/4
        n = 0.17 + 0.165e-24 * (1.0 + 2e12) + 0.335
        assert float(out_map(out)["n"]) == pytest.approx(n, rel=1e-9)

    def test_filter_is_applied_once(self, capsys, monkeypatch):
        """The printed n comes from certify_filtered's own filtering, not from a second call."""
        import svetbound.filtering as filtering_module

        inner, calls = filtering_module.apply_filter, []

        def spy(rho, filters):
            calls.append(filters)
            return inner(rho, filters)

        monkeypatch.setattr(filtering_module, "apply_filter", spy)
        monkeypatch.setattr(cli_module, "apply_filter", spy, raising=False)
        code, out, _ = run(
            capsys, ["filter", "--family", "ghz-noise", "--p", "0.5", "-x", "2", "-y", "1", "-z", "1"]
        )
        assert code == 0
        assert len(calls) == 1
        assert float(out_map(out)["n"]) == pytest.approx(3.25, rel=1e-12)

    def test_kernel_cross_check_exit_6(self, capsys, monkeypatch):
        """The optimized filter's kernel value must match the filtered state's lambda1'."""
        import svetbound.scan as scan_module

        inner = scan_module.filtered_bound

        def shifted(rho, filters):
            fa = inner(rho, filters)
            fa.lambda1_prime += 1e-6
            return fa

        monkeypatch.setattr(scan_module, "filtered_bound", shifted)
        code, out, err = run(capsys, ["filter", "--family", "ghz-noise", "--p", "0.5", "--optimize"])
        assert code == 6
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: filter kernel check failed")

    def test_kernel_cross_check_in_scan_exit_6(self, capsys, monkeypatch):
        """Raised inside a scan, the failed cross-check is still one error line and exit 6."""
        import svetbound.scan as scan_module

        inner = scan_module.filtered_bound

        def shifted(rho, filters):
            fa = inner(rho, filters)
            fa.lambda1_prime += 1e-6
            return fa

        monkeypatch.setattr(scan_module, "filtered_bound", shifted)
        code, out, err = run(capsys, ["scan", "--figure", "fig2", "--p-grid", "0.9:1:0.1"])
        assert code == 6
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: filter kernel check failed")

    def test_requires_all_strengths(self, capsys):
        code, _, err = run(
            capsys, ["filter", "--family", "chi", "--p", "0.5", "-x", "1.0"]
        )
        assert code == 2
        assert "-x, -y, -z" in err

    @pytest.mark.parametrize(
        "strengths",
        [
            ("inf", "1", "1"),
            ("nan", "1", "1"),
            ("1e200", "1", "1"),
            ("1e-200", "1", "1"),
            ("1e60", "1e60", "1e60"),
            ("1e-100", "1e-100", "1e-100"),
            ("1e300", "1e300", "1e300"),
        ],
    )
    def test_unusable_strengths_exit_2(self, capsys, strengths):
        x, y, z = strengths
        code, out, err = run(
            capsys, ["filter", "--family", "ghz-noise", "--p", "0.5", "-x", x, "-y", y, "-z", z]
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_optimize_excludes_explicit(self, capsys):
        code, _, _ = run(
            capsys,
            ["filter", "--family", "chi", "--p", "0.5", "--optimize", "-x", "1.0"],
        )
        assert code == 2


class TestOracleCommand:
    def test_value_within_bound(self, capsys):
        code, out, _ = run(
            capsys,
            ["oracle", "--family", "ghz-noise", "--p", "0.8", "--restarts", "10"],
        )
        assert code == 0
        fields = out_map(out)
        assert float(fields["value"]) == pytest.approx(4 * SQ2 * 0.8, abs=1e-8)
        assert fields["converged"] == "true"

    @pytest.mark.parametrize(
        "flags", [("--restarts", "0"), ("--restarts", "-3"), ("--sweeps", "0")]
    )
    def test_empty_run_exit_2(self, capsys, flags):
        code, out, err = run(capsys, ["oracle", "--family", "ghz-noise", "--p", "0.8", *flags])
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_restarts_above_cap_exit_2(self, capsys):
        """Rejected before the starts are allocated, not after a 144 GB request."""
        code, out, err = run(
            capsys, ["oracle", "--family", "ghz-noise", "--p", "0.8", "--restarts", "1000000000"]
        )
        assert code == 2
        assert out == ""
        assert err == "error: see-saw restarts must be between 1 and 100000, got 1000000000\n"

    def test_unconverged_best_start_warns(self, capsys):
        argv = ["oracle", "--family", "ghz-noise", "--p", "0.8", "--restarts", "3", "--sweeps", "1"]
        code, out, err = run(capsys, argv)
        assert code == 0
        assert out_map(out)["converged"] == "false"
        assert "warning" not in out
        assert err == "warning: best see-saw start did not converge within 1 sweeps\n"


class TestScanCommand:
    def test_threshold_mode(self, capsys):
        code, out, _ = run(
            capsys,
            ["scan", "--family", "ghz-noise", "--mode", "unfiltered",
             "--p-grid", "0.6:0.8:0.1"],
        )
        assert code == 0
        fields = out_map(out)
        assert float(fields["threshold"]) == pytest.approx(1.0 / SQ2, abs=1e-3)

    def test_threshold_none(self, capsys):
        code, out, _ = run(
            capsys,
            ["scan", "--family", "ghz-noise", "--mode", "unfiltered",
             "--p-grid", "0.1:0.3:0.1"],
        )
        assert code == 0
        assert out_map(out)["threshold"] == "none"

    def test_figure_writes_outputs(self, capsys, tmp_path):
        csv_path, json_path = tmp_path / "f.csv", tmp_path / "f.json"
        code, out, _ = run(
            capsys,
            ["scan", "--figure", "fig2", "--p-grid", "0.6:0.8:0.1",
             "--csv", str(csv_path), "--json", str(json_path)],
        )
        assert code == 0
        assert out_keys(out) == [
            "family", "p_violation_unfiltered", "p_violation_filtered", "activation_window",
            "wrote csv", "wrote json",
        ]
        assert csv_path.exists() and json_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["family"] == "ghz-noise"

    @pytest.mark.parametrize(
        "grid",
        [
            "0.5:0.4:0.1", "0:2:0.5", "a:b:c", "0.1:0.9", "-0.1:0.5:0.1",
            # Each would ask for a huge or undefined grid unless rejected before allocation.
            "0:1:1e-9", "0:1:nan", "0:1:inf", "nan:1:0.1",
        ],
    )
    def test_bad_grid(self, capsys, grid):
        code, _, _ = run(
            capsys,
            ["scan", "--family", "chi", "--mode", "filtered", "--p-grid", grid],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "grid, expected",
        [
            ("0:0.5:0.3", [0.0, 0.3]),
            ("0.5:1:0.3", [0.5, 0.8]),
            ("0.1:0.7:0.3", [0.1, 0.4, 0.7]),
        ],
    )
    def test_grid_stops_at_end(self, grid, expected):
        np.testing.assert_array_equal(cli_module._parse_p_grid(grid), expected)

    @pytest.mark.parametrize(
        "grid, points, last",
        [("0:0.96:0.1", 10, 0.9), ("0:1:0.05", 21, 1.0), ("0:1:0.01", 101, 1.0)],
    )
    def test_grid_length_and_last_point(self, grid, points, last):
        parsed = cli_module._parse_p_grid(grid)
        assert len(parsed) == points
        assert parsed[-1] == last

    def test_grid_past_one_is_not_scanned(self, capsys, monkeypatch):
        """0.5:1:0.3 once produced p = 1.1 and failed in ScanSpec; now it scans 0.5 and 0.8."""
        seen = []

        def no_threshold(spec, mode):
            seen.append(spec.p_grid)
            return None

        monkeypatch.setattr(cli_module, "threshold_bisect", no_threshold)
        code, out, _ = run(
            capsys, ["scan", "--family", "chi", "--mode", "unfiltered", "--p-grid", "0.5:1:0.3"]
        )
        assert code == 0
        assert "threshold: none" in out
        np.testing.assert_array_equal(seen[0], [0.5, 0.8])

    def test_figure_excludes_family(self, capsys):
        code, _, _ = run(capsys, ["scan", "--figure", "fig1", "--family", "chi"])
        assert code == 2


class TestErrorPaths:
    def test_unphysical_state_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        payload = {
            "dim": 8,
            "re": (np.eye(8) * 0.9 / 8).tolist(),
            "im": np.zeros((8, 8)).tolist(),
        }
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, ["bound", "--state", str(path)])
        assert code == 3
        assert "trace deviates" in err

    def test_malformed_state_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{broken")
        code, _, _ = run(capsys, ["bound", "--state", str(path)])
        assert code == 2

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_non_finite_state_exit_2(self, capsys, tmp_path, token):
        """One error line naming the field, and no RuntimeWarning from the eigensolver."""
        re = (np.eye(8) / 8).tolist()
        re[0][0] = "TOKEN"
        path = tmp_path / "nonfinite.json"
        payload = {"dim": 8, "re": re, "im": np.zeros((8, 8)).tolist()}
        path.write_text(json.dumps(payload).replace('"TOKEN"', token))
        code, out, err = run(capsys, ["bound", "--state", str(path)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: field 're' has non-finite entries"]

    def test_missing_state_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, ["bound", "--state", str(tmp_path / "gone.json")])
        assert code == 2
        assert "cannot read" in err

    def test_annihilation_exit_4(self, capsys, tmp_path):
        pure = np.zeros((8, 8), dtype=complex)
        pure[0, 0] = 1.0
        path = tmp_path / "pure.json"
        save_state(pure, str(path))
        code, _, err = run(
            capsys,
            ["filter", "--state", str(path), "-x", "0.0", "-y", "1.0", "-z", "1.0"],
        )
        assert code == 4
        assert "annihilat" in err or "normalization" in err

    def test_non_monotone_exit_5(self, capsys, monkeypatch):
        import svetbound.cli as cli_module
        from svetbound.errors import NonMonotonePredicateError

        def fake_bisect(spec, mode):
            raise NonMonotonePredicateError("two crossings", [(0.1, 0.2), (0.3, 0.4)])

        monkeypatch.setattr(cli_module, "threshold_bisect", fake_bisect)
        code, _, err = run(
            capsys, ["scan", "--family", "chi", "--mode", "filtered"]
        )
        assert code == 5
        assert "bracket" in err

    def test_consistency_error_exit_6(self, capsys, monkeypatch):
        """A failed trace-versus-bilinear cross-check is one error line, not a traceback."""
        import svetbound.analysis as analysis

        monkeypatch.setattr(analysis, "svetlichny_value", lambda rho, settings: 0.0)
        code, out, err = run(capsys, ["bound", "--family", "ghz-noise", "--p", "1.0"])
        assert code == 6
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: trace and bilinear routes disagree")

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--family", "ghz-noise", "--p", "0.5", "--json", "OUT"],
            ["scan", "--figure", "fig2", "--p-grid", "0.9:1:0.1", "--csv", "OUT"],
        ],
        ids=["bound-json", "scan-csv"],
    )
    @pytest.mark.parametrize("target", ["missing/x.out", "is-a-dir"])
    def test_unwritable_output_exit_2(self, capsys, tmp_path, argv, target):
        """A missing directory or a directory in the way is one error line naming the given path, and no temp file stays."""
        (tmp_path / "is-a-dir").mkdir()
        out_path = str(tmp_path / target)
        code, _, err = run(capsys, [out_path if arg == "OUT" else arg for arg in argv])
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert out_path in err and ".tmp-" not in err
        assert list(tmp_path.rglob(".tmp-*")) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--family", "ghz-noise", "--p", "0.5"],
            ["filter", "--family", "ghz-noise", "--p", "0.5", "--optimize"],
            ["oracle", "--family", "ghz-noise", "--p", "0.5"],
            ["scan", "--figure", "fig2"],
        ],
        ids=["bound", "filter", "oracle", "scan"],
    )
    def test_negative_seed_exit_2(self, capsys, monkeypatch, argv):
        """Refused by the parser, naming --seed, before any state is built."""
        monkeypatch.setattr(cli_module, "build_family_state", lambda *a: pytest.fail("state built"))
        monkeypatch.setattr(cli_module, "ScanSpec", lambda **k: pytest.fail("scan started"))
        code, out, err = run(capsys, [*argv, "--seed", "-3"])
        assert code == 2
        assert out == ""
        assert "argument --seed: must be a non-negative integer, got -3" in err

    @pytest.mark.parametrize(
        "exc, expected",
        [
            (StateFormatError("bad layout"), 2),
            (PhysicalityError("not positive"), 3),
            (FilterAnnihilationError("annihilated"), 4),
            (ConsistencyError("routes disagree"), 6),
            (ValueError("bad value"), 2),
            (OSError("disk full"), 2),
        ],
    )
    def test_exit_code_table(self, capsys, monkeypatch, exc, expected):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_module, "certify_unfiltered", fail)
        code, out, err = run(capsys, ["bound", "--family", "chi", "--p", "0.5"])
        assert code == expected
        assert out == ""
        assert err == f"error: {exc}\n"

    def test_other_errors_propagate(self, monkeypatch):
        """Only the tabled exceptions become exit codes; a bug still raises."""

        def fail(*args, **kwargs):
            raise RuntimeError("a bug")

        monkeypatch.setattr(cli_module, "certify_unfiltered", fail)
        with pytest.raises(RuntimeError, match="a bug"):
            main(["bound", "--family", "chi", "--p", "0.5"])

    def test_missing_p_exit_2(self, capsys):
        code, _, _ = run(capsys, ["bound", "--family", "chi"])
        assert code == 2

    def test_state_excludes_family(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        save_state(build_ghz_noise_state(0.5), str(path))
        code, _, _ = run(
            capsys, ["bound", "--state", str(path), "--family", "chi", "--p", "0.5"]
        )
        assert code == 2

    def test_theta_only_for_chi(self, capsys):
        code, _, _ = run(
            capsys, ["bound", "--family", "ghz-noise", "--p", "0.5", "--theta", "0.1"]
        )
        assert code == 2

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = run(capsys, ["bound", "--frobnicate"])
        assert code == 2


def run_fresh(script: str, *args: str, env: dict | None = None) -> str:
    """Stdout of ``script`` run in a new interpreter that imports this checkout's svetbound."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestFreshProcess:
    """What a new process pays for and pins; this test process has scipy loaded already."""

    def test_scipy_optimize_not_imported(self):
        """Neither the import nor a family command loads scipy.optimize."""
        script = """
import sys
import svetbound, svetbound.cli
assert "scipy.optimize" not in sys.modules, "import"
for argv in (["bound", "--family", "ghz-noise", "--p", "0.8"], ["scan", "--figure", "fig2", "--p-grid", "0:1:0.1"]):
    assert svetbound.cli.main(argv) == 0, argv
    assert "scipy.optimize" not in sys.modules, argv
"""
        run_fresh(script)

    @staticmethod
    def threefold_state(rows: np.ndarray) -> np.ndarray:
        """(I + 0.3 sum M[j, 3i + k] sigma_i (x) sigma_j (x) sigma_k) / 8 for M = rows, whose rows are orthonormal.

        Its correlation matrix is 0.3 M, so its leading value 0.3 is threefold.
        """
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
        rho = np.eye(8, dtype=complex)
        for i, j, k in itertools.product(range(3), repeat=3):
            rho += 0.3 * rows[j, 3 * i + k] * np.kron(np.kron(paulis[i], paulis[j]), paulis[k])
        return rho / 8.0

    def bound_report(self, tmp_path, rows: np.ndarray) -> dict:
        """``bound --state`` on the threefold state of ``rows``, run where scipy.optimize must stay unloaded."""
        path = tmp_path / "threefold.json"
        save_state(self.threefold_state(rows), str(path))
        script = """
import sys
import svetbound.cli as cli
assert cli.main(["bound", "--state", sys.argv[1]]) == 0
assert "scipy.optimize" not in sys.modules
"""
        report = out_map(run_fresh(script, str(path)))
        assert report["degeneracy"] == "3"
        return report

    def test_threefold_unattainable_state(self, tmp_path):
        """The leading rows I/sqrt(3), (E01 - E10)/sqrt(2) and (E02 - E20)/sqrt(2) hold no complex rank-one member."""
        rows = np.zeros((3, 3, 3))
        rows[0] = np.eye(3) / np.sqrt(3.0)
        for row, col in ((1, 1), (2, 2)):
            rows[row, 0, col], rows[row, col, 0] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
        report = self.bound_report(tmp_path, rows.reshape(3, 9))
        assert report["tight"] == "false"

    def test_threefold_planted_state(self, tmp_path):
        """A span holding the t1 and t2 of random settings and a real rank-one x z^T is attained exactly."""
        rng = np.random.default_rng(0)
        units = rng.normal(size=(6, 3))
        a, ap, c, cp, x, z = units / np.linalg.norm(units, axis=1, keepdims=True)
        spanning = [np.kron(a, c) - np.kron(ap, cp), np.kron(a, cp) + np.kron(ap, c), np.kron(x, z)]
        report = self.bound_report(tmp_path, np.linalg.qr(np.transpose(spanning))[0].T)
        assert report["tight"] == "true"
        assert abs(float(report["achieved"]) - float(report["bound"])) <= 1e-9

    def test_blas_loaded_by_the_box_search_runs_single_threaded(self, tmp_path):
        """scipy's OpenBLAS, loaded after cli.main pinned the others, runs on one thread too.

        The environment asks for 2 threads, which OpenBLAS reads as it loads.
        """
        path = tmp_path / "ginibre.json"
        save_state(random_density(np.random.default_rng(1)), str(path))
        script = """
import json, sys
import svetbound.cli as cli
from svetbound.blas import loaded_openblas, thread_counts
assert "scipy.optimize" not in sys.modules
assert cli.main(["filter", "--state", sys.argv[1], "--optimize"]) == 0
assert "scipy.optimize" in sys.modules
print(json.dumps(thread_counts(loaded_openblas())))
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
        env.pop("OMP_NUM_THREADS", None)
        counts = json.loads(run_fresh(script, str(path), env=env).splitlines()[-1])
        assert counts and set(counts) == {1}

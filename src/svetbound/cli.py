"""Command-line interface.

Exit codes: 0 success, 2 invalid input or an unwritable output path, 3
unphysical state, 4 filter annihilation, 5 threshold search refused on a
non-monotone grid, 6 an internal cross-check failed (ConsistencyError).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .analysis import certify_filtered, certify_unfiltered
from .blas import MAPS_PATH, Pins, openblas_pins, set_threads
from .errors import (
    ConsistencyError,
    FilterAnnihilationError,
    NonMonotonePredicateError,
    PhysicalityError,
    StateFormatError,
)
from .fileio import atomic_write_text, format_value
from .filtering import FilterTriple
from .scan import (
    FAMILIES,
    FIGURE_FAMILY,
    ScanSpec,
    build_family_state,
    figure_data,
    optimize_filter,
    threshold_bisect,
    write_csv,
    write_json,
)
from .seesaw import OracleConfig, seesaw_max
from .states import CHI_THETA, load_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNPHYSICAL = 3
EXIT_ANNIHILATED = 4
EXIT_NON_MONOTONE = 5
EXIT_INCONSISTENT = 6

# First match wins, so each ValueError subclass precedes ValueError itself.
_EXIT_CODES = (
    (StateFormatError, EXIT_USAGE),
    (FilterAnnihilationError, EXIT_ANNIHILATED),
    (PhysicalityError, EXIT_UNPHYSICAL),
    (NonMonotonePredicateError, EXIT_NON_MONOTONE),
    (ConsistencyError, EXIT_INCONSISTENT),
    (ValueError, EXIT_USAGE),
    (OSError, EXIT_USAGE),
)

# A resource cap: a scan certifies each grid point once per mode before it writes anything.
MAX_P_GRID_POINTS = 10_001


@functools.cache
def _blas_pins() -> Pins | None:
    """(library path, thread-count setter) of every OpenBLAS loaded at the first cli.main, found once per process.

    None when the loaded libraries cannot be listed, or when a loaded BLAS
    (OpenBLAS, MKL or BLIS) has no OpenBLAS setter to pin it with. scipy's
    OpenBLAS loads only when a search first needs it, and then takes the
    thread count of numpy's, which cli.main has pinned (see svetbound.optimizer).
    """
    try:
        with open(MAPS_PATH) as fh:
            return openblas_pins(fh)
    except OSError:
        return None


def _emit(report: dict, json_path: str | None) -> None:
    """Print ``key: value`` lines, one per vector under ``settings``; write the same dict as JSON."""
    for key, value in report.items():
        rows = value.items() if key == "settings" else [(key, value)]
        for name, item in rows:
            print(f"{name}: {format_value(item)}")
    if json_path:
        atomic_write_text(json_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote json: {json_path}")


def _settings_dict(settings) -> dict:
    return {f.name: getattr(settings, f.name).tolist() for f in dataclasses.fields(settings)}


def _certified(report) -> dict:
    """The bound-report fields shared by ``bound`` and ``filter``."""
    return {
        "bound": report.bound,
        "tight": report.tight,
        "achieved": report.achieved,
        "violates": report.violates,
        "settings": _settings_dict(report.settings),
    }


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=FAMILIES, help="built-in state family")
    parser.add_argument("--p", type=float, help="mixing weight of the family state")
    parser.add_argument("--theta", type=float, default=None, help="chi family angle, default pi/8")
    parser.add_argument("--state", metavar="PATH", help="JSON state file instead of a family")


def _resolve_state(args) -> tuple[np.ndarray, str]:
    if args.state is not None:
        if args.family is not None or args.p is not None or args.theta is not None:
            raise ValueError("--state excludes --family, --p and --theta")
        return load_state(args.state), args.state
    if args.family is None:
        raise ValueError("provide either --family with --p, or --state")
    if args.p is None:
        raise ValueError("--family requires --p")
    if args.theta is not None and args.family != "chi":
        raise ValueError("--theta applies to the chi family only")
    theta = args.theta if args.theta is not None else CHI_THETA
    rho = build_family_state(args.family, args.p, theta)
    label = f"{args.family} p={args.p:g}"
    if args.family == "chi":
        label += f" theta={theta:g}"
    return rho, label


def _cmd_bound(args) -> int:
    rho, label = _resolve_state(args)
    report = certify_unfiltered(rho, oracle_config=OracleConfig(seed=args.seed))
    _emit(
        {
            "state": label,
            "lambda1": report.lambda1,
            "degeneracy": report.degeneracy,
            **_certified(report),
        },
        args.json,
    )
    return EXIT_OK


def _cmd_filter(args) -> int:
    rho, label = _resolve_state(args)
    explicit = [v is not None for v in (args.x, args.y, args.z)]
    config = OracleConfig(seed=args.seed)
    if args.optimize:
        if any(explicit):
            raise ValueError("--optimize excludes -x, -y and -z")
        params, fa = optimize_filter(rho)
        x, y, z = params.x, params.y, params.z
        # The analysis holds the filtered state; certifying it equals certify_filtered bit for bit.
        report = certify_unfiltered(fa.rho_prime, oracle_config=config)
    else:
        if not all(explicit):
            raise ValueError("give all of -x, -y, -z, or --optimize")
        x, y, z = args.x, args.y, args.z
        fa, report = certify_filtered(rho, FilterTriple.diagonal(x, y, z), oracle_config=config)
    _emit(
        {
            "state": label,
            "filter": {"x": x, "y": y, "z": z},
            "n": fa.n,
            "lambda1_prime": fa.lambda1_prime,
            **_certified(report),
        },
        args.json,
    )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    rho, label = _resolve_state(args)
    config = OracleConfig(restarts=args.restarts, max_sweeps=args.sweeps, seed=args.seed)
    result = seesaw_max(rho, config)
    _emit(
        {
            "state": label,
            "value": result.value,
            "converged": result.converged,
            "sweeps": result.sweeps_used,
            "settings": _settings_dict(result.settings),
        },
        args.json,
    )
    if not result.converged:
        print(
            f"warning: best see-saw start did not converge within {result.sweeps_used} sweeps",
            file=sys.stderr,
        )
    return EXIT_OK


def _seed(text: str) -> int:
    """argparse type of ``--seed``: a non-negative integer, as numpy's generators take."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _parse_p_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--p-grid must look like start:end:step")
    try:
        start, end, step = (float(s) for s in parts)
    except ValueError as exc:
        raise ValueError(f"--p-grid has a non-numeric part: {text!r}") from exc
    if not (0.0 <= start < end <= 1.0) or not 0.0 < step < math.inf:
        raise ValueError("--p-grid needs 0 <= start < end <= 1 and a finite step > 0")
    if math.ceil((end + step / 2.0 - start) / step) > MAX_P_GRID_POINTS:
        raise ValueError(f"--p-grid has more than {MAX_P_GRID_POINTS} points")
    # Points past END by more than the grid's 1e-12 rounding are dropped.
    grid = np.round(np.arange(start, end + step / 2.0, step), 12)
    return grid[grid <= end + 1e-12]


def _cmd_scan(args) -> int:
    if args.figure is not None:
        if args.family is not None or args.mode is not None:
            raise ValueError("--figure excludes --family and --mode")
        family = FIGURE_FAMILY[args.figure]
    else:
        if args.family is None or args.mode is None:
            raise ValueError("scan needs --figure, or --family with --mode")
        if args.csv:
            raise ValueError("--csv applies to --figure scans only")
        family = args.family
    spec_kwargs = {"family": family, "seed": args.seed}
    if args.p_grid is not None:
        spec_kwargs["p_grid"] = _parse_p_grid(args.p_grid)
    spec = ScanSpec(**spec_kwargs)

    if args.figure is None:
        threshold = threshold_bisect(spec, args.mode)
        _emit({"family": spec.family, "mode": args.mode, "threshold": threshold}, args.json)
        return EXIT_OK

    # A figure's JSON is the whole scan with its records, not the summary printed here.
    report = figure_data(args.figure, spec)
    _emit(
        {
            "family": report.family,
            "p_violation_unfiltered": report.p_violation_unfiltered,
            "p_violation_filtered": report.p_violation_filtered,
            "activation_window": report.activation_window,
        },
        None,
    )
    for kind, path, write in (("csv", args.csv, write_csv), ("json", args.json, write_json)):
        if path:
            write(report, path)
            print(f"wrote {kind}: {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svetbound",
        description="Singular-value bounds on the Svetlichny expectation, with local filtering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="certified unfiltered bound of a state")
    _add_state_source(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_filter = sub.add_parser("filter", help="filtered bound under diagonal filters")
    _add_state_source(p_filter)
    p_filter.add_argument("-x", type=float, default=None, help="filter strength for party A")
    p_filter.add_argument("-y", type=float, default=None, help="filter strength for party B")
    p_filter.add_argument("-z", type=float, default=None, help="filter strength for party C")
    p_filter.add_argument(
        "--optimize",
        action="store_true",
        help="best strengths: within 1e-12 of the exact supremum for X-states, else searched in the 10^-3..10^3 box",
    )
    p_filter.set_defaults(func=_cmd_filter)

    p_oracle = sub.add_parser("oracle", help="see-saw lower bound on the maximal expectation")
    _add_state_source(p_oracle)
    p_oracle.add_argument("--restarts", type=int, default=OracleConfig.restarts)
    p_oracle.add_argument("--sweeps", type=int, default=OracleConfig.max_sweeps)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_scan = sub.add_parser("scan", help="activation scan or violation threshold over p")
    p_scan.add_argument("--figure", choices=tuple(FIGURE_FAMILY), help="built-in activation scan")
    p_scan.add_argument("--family", choices=FAMILIES)
    p_scan.add_argument("--mode", choices=("unfiltered", "filtered"))
    p_scan.add_argument("--p-grid", metavar="START:END:STEP", help="grid over p, end inclusive")
    p_scan.add_argument("--csv", metavar="PATH", help="write per-p records as CSV")
    p_scan.set_defaults(func=_cmd_scan)

    for sp in (p_bound, p_filter, p_oracle, p_scan):
        sp.add_argument("--json", metavar="PATH", help="also write the report as JSON")
        sp.add_argument("--seed", type=_seed, default=42, help="seed for every stochastic search")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    # The package's matrices are at most 8x8, so a BLAS thread pool gains
    # nothing; its idle threads would only spin on the other cores.
    set_threads(_blas_pins() or (), 1)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonMonotonePredicateError):
            for lo, hi in exc.brackets:
                print(f"bracket: {format_value(lo)} {format_value(hi)}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

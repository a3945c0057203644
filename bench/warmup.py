"""Import svetbound and make one first call into each layer the workloads use.

Run as a script it is the set-up probe whose wall time is ``setup_s``:

    python3 bench/warmup.py src

The benchmark also calls ``warm_up`` in its own process before it measures,
so lazy imports and first-call costs stay out of the timed window.
"""

import sys


def warm_up() -> None:
    import svetbound
    import svetbound.cli  # noqa: F401  (the fig2-scan workload enters here)

    rho = svetbound.build_ghz_noise_state(0.9)
    svetbound.certify_unfiltered(rho)
    params, _ = svetbound.optimize_filter(rho)
    svetbound.certify_filtered(rho, params.triple())


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    warm_up()

"""Certified bound reports combining the SVD bound, tightness and the see-saw."""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError
from .filtering import FilteredAnalysis, FilterTriple, filtered_bound
from .seesaw import OracleConfig, seesaw_from_matrix
from .svetlichny import BoundReport, CorrelationMatrix, correlation_matrix, svetlichny_value
from .tightness import assemble_settings, check_tightness


def _certify(
    rho: np.ndarray,
    corr: CorrelationMatrix,
    oracle_config: OracleConfig | None,
) -> BoundReport:
    config = oracle_config or OracleConfig()
    s1 = float(corr.svd.singular_values[0])
    decomposition = check_tightness(corr.svd, seed=config.seed)

    if decomposition.found:
        settings, bilinear = assemble_settings(decomposition, corr)
        achieved = svetlichny_value(rho, settings)
        if abs(achieved - bilinear) > 1e-9:
            raise ConsistencyError(
                f"trace and bilinear routes disagree: {achieved!r} vs {bilinear!r}"
            )
    else:
        oracle = seesaw_from_matrix(corr.matrix, config)
        achieved, settings = oracle.value, oracle.settings

    return BoundReport(
        bound=4.0 * s1,
        lambda1=s1,
        degeneracy=corr.svd.degeneracy(),
        tight=decomposition.found,
        achieved=achieved,
        settings=settings,
    )


def certify_unfiltered(
    rho: np.ndarray,
    *,
    oracle_config: OracleConfig | None = None,
) -> BoundReport:
    """Certify the singular-value bound of a state as given.

    The report carries the bound, whether settings attaining it exist, and the
    expectation of settings built by one route: the tight decomposition when
    it is found, else the see-saw from seeded random starts. The seed of
    ``oracle_config`` seeds whichever searches run.
    """
    corr = correlation_matrix(rho)
    return _certify(rho, corr, oracle_config)


def certify_filtered(
    rho: np.ndarray,
    filters: FilterTriple,
    *,
    oracle_config: OracleConfig | None = None,
) -> tuple[FilteredAnalysis, BoundReport]:
    """Filtered bound plus certification of the normalized filtered state."""
    fa = filtered_bound(rho, filters)
    report = _certify(fa.rho_prime, fa.m_prime, oracle_config)
    return fa, report

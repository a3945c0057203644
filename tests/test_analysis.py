import numpy as np
import pytest

import svetbound.analysis as analysis
from conftest import random_density
from svetbound.analysis import certify_filtered, certify_unfiltered
from svetbound.filtering import FilterTriple, filtered_bound
from svetbound.seesaw import OracleConfig
from svetbound.states import build_ghz_noise_state
from svetbound.svetlichny import correlation_matrix, svetlichny_value
from svetbound.tightness import assemble_settings, check_tightness

FILTERS = FilterTriple.diagonal(2.0, 1.0, 1.0)
CERTIFIERS = pytest.mark.parametrize(
    "certify",
    [
        lambda rho, config: certify_unfiltered(rho, oracle_config=config),
        lambda rho, config: certify_filtered(rho, FILTERS, oracle_config=config)[1],
    ],
    ids=["unfiltered", "filtered"],
)


@pytest.fixture
def seesaw_seeds(monkeypatch):
    """The seed of every see-saw call that certification makes."""
    seeds = []
    inner = analysis.seesaw_from_matrix

    def spy(matrix, config):
        seeds.append(config.seed)
        return inner(matrix, config)

    monkeypatch.setattr(analysis, "seesaw_from_matrix", spy)
    return seeds


@CERTIFIERS
@pytest.mark.parametrize("config, seed", [(OracleConfig(restarts=4, seed=7), 7), (None, 42)])
def test_oracle_seed_seeds_both_searches(seesaw_seeds, certify, config, seed):
    """A nondegenerate state has no decomposition, so the see-saw, the one seeded search, runs once on the config's seed."""
    report = certify(random_density(np.random.default_rng(5)), config)
    assert report.degeneracy == 1 and not report.tight
    assert seesaw_seeds == [seed]


@pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "filtered"])
def test_tight_state_is_certified_by_its_decomposition(seesaw_seeds, filtered):
    """A found decomposition gives the settings and value; the see-saw never runs."""
    rho = build_ghz_noise_state(0.8)
    if filtered:
        _, report = certify_filtered(rho, FILTERS)
        fa = filtered_bound(rho, FILTERS)
        rho, corr = fa.rho_prime, fa.m_prime
    else:
        report = certify_unfiltered(rho)
        corr = correlation_matrix(rho)
    settings, _ = assemble_settings(check_tightness(corr.svd), corr)
    assert report.tight
    assert seesaw_seeds == []
    assert report.achieved == svetlichny_value(rho, settings)
    for name in ("a", "a_prime", "b", "b_prime", "c", "c_prime"):
        np.testing.assert_array_equal(getattr(report.settings, name), getattr(settings, name))

import pytest

import svetbound.analysis as analysis
from svetbound.analysis import certify_filtered, certify_unfiltered
from svetbound.filtering import FilterTriple
from svetbound.seesaw import OracleConfig
from svetbound.states import build_ghz_noise_state


@pytest.mark.parametrize(
    "certify",
    [
        lambda rho, config: certify_unfiltered(rho, oracle_config=config),
        lambda rho, config: certify_filtered(
            rho, FilterTriple.diagonal(2.0, 1.0, 1.0), oracle_config=config
        ),
    ],
    ids=["unfiltered", "filtered"],
)
@pytest.mark.parametrize("config, seed", [(OracleConfig(restarts=4, seed=7), 7), (None, 42)])
def test_oracle_seed_seeds_both_searches(monkeypatch, certify, config, seed):
    tightness_seeds, seesaw_seeds = [], []
    check_tightness, seesaw_from_matrix = analysis.check_tightness, analysis.seesaw_from_matrix

    def spy_tightness(svd, **kwargs):
        tightness_seeds.append(kwargs["seed"])
        return check_tightness(svd, **kwargs)

    def spy_seesaw(matrix, config, **kwargs):
        seesaw_seeds.append(config.seed)
        return seesaw_from_matrix(matrix, config, **kwargs)

    monkeypatch.setattr(analysis, "check_tightness", spy_tightness)
    monkeypatch.setattr(analysis, "seesaw_from_matrix", spy_seesaw)
    certify(build_ghz_noise_state(0.8), config)
    assert tightness_seeds == [seed]
    assert seesaw_seeds == [seed]

"""The end-to-end oracle of test_world_oracle.py on the world the `world` benchmark
workload runs: seed 1 and every country in continents.csv, about 130 predictions.

The checks and their fixtures are imported, so pytest collects them here again; this
module's `seed` and `n_countries` fixtures then take the place of that module's, and
every check runs under both LOOCV scopes. The seed was fixed before the first run.
"""

from __future__ import annotations

import pytest

from test_world_oracle import (  # noqa: F401
    continent_scope_out,
    oracle,
    test_calibration_line_matches_linregress,
    test_every_eligible_mac_matches_the_raw_cells,
    test_every_prediction_matches_the_leverage_formula,
    test_fitted_line_lies_within_three_standard_errors_of_the_truth_model,
    test_map_is_the_male_predictions_and_the_male_truth_rows,
    test_metrics_match_spearmanr_and_numpy_loocv,
    test_model_inference_matches_linregress_and_the_t_and_f_tails,
    test_out_of_sample_replays_the_seeded_splits,
    test_predicted_set_is_the_eligible_countries_without_truth,
    world,
)


@pytest.fixture(scope="module")
def seed():
    return 1


@pytest.fixture(scope="module")
def n_countries():
    return None  # every country, as `bench/run.py --workload world` generates it

"""Online predictions read only the past.

A trajectory is changed from step S on (inputs and outputs tripled); every
prediction of an earlier step must stay where it was, up to FFT rounding
spread over the series. ``run_online`` is left out: its default step size
``eta = 2 R_M / (G sqrt(T))`` takes G from the norms of all T feature rows
and targets, so OGD reads the whole trajectory before its first step. Making
that step size causal moves every OGD output, so it waits for a release that
re-pins the benchmark references.
"""

import numpy as np
import pytest

from wavefilter.baselines import baseline_ar, baseline_last_value
from wavefilter.experiments import AR_WINDOW, RIDGE, simulate_scenario
from wavefilter.filters import build_filter_bank
from wavefilter.lds import Trajectory, derivative_predictions, synthetic_system
from wavefilter.online import OnlineConfig, run_ftl

T, S, K = 1000, 600, 25  # horizon, first changed step (1-based), filters
BANK = build_filter_bank(T, K)


def _predictors(name):
    params, _ = synthetic_system(name, seed=0)
    config = OnlineConfig(bank=BANK, r_m=float(params.r_theta**2 * np.sqrt(K)))
    return {
        "run_ftl": lambda traj: run_ftl(traj, config, ridge=RIDGE).predictions,
        "baseline_ar": lambda traj: baseline_ar(traj, tau=AR_WINDOW, ridge=RIDGE),
        "baseline_last_value": baseline_last_value,
        "derivative_predictions": lambda traj: derivative_predictions(params, traj),
    }


@pytest.mark.parametrize("name", ["siso_hard", "mimo_10"])
def test_a_change_from_step_s_on_leaves_every_earlier_prediction(name):
    traj = simulate_scenario(name, T, 0, 0.1, 0.1)
    scale = np.ones((T, 1))
    scale[S - 1:] = 3.0  # row S - 1 is step S
    changed = Trajectory(inputs=traj.inputs * scale, outputs=traj.outputs * scale)
    for predictor, predict in _predictors(name).items():
        before, after = predict(traj), predict(changed)
        moved = np.abs(after - before)
        assert moved[: S - 1].max() <= 1e-12, (predictor, moved[: S - 1].max())
        assert moved[S - 1:].max() > 1e-3, predictor  # the change itself is seen

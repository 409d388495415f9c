"""Online predictions read only the past.

A trajectory is changed from step S on (inputs and outputs tripled); every
prediction of an earlier step must stay where it was, up to FFT rounding
spread over the series. ``run_online`` runs at a fixed step size: its
default ``eta = 2 R_M / (G sqrt(T))`` takes G from the norms of all T
feature rows and targets, so OGD reads the whole trajectory before its
first step. Making that step size causal moves every OGD output, so it
waits for a release that re-pins the benchmark references. At a fixed step
the blocked OGD solve must still read no later row of its own block.
"""

import numpy as np
import pytest

from wavefilter.baselines import baseline_ar, baseline_last_value
from wavefilter.experiments import AR_WINDOW, RIDGE, simulate_scenario
from wavefilter.filters import build_filter_bank
from wavefilter.lds import Trajectory, derivative_predictions, synthetic_system
from wavefilter.online import OnlineConfig, run_ftl, run_online

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


def _changed(traj, s):
    """``traj`` with its inputs and outputs tripled from step ``s`` (1-based) on."""
    scale = np.ones((T, 1))
    scale[s - 1:] = 3.0  # row s - 1 is step s
    return Trajectory(inputs=traj.inputs * scale, outputs=traj.outputs * scale)


def _assert_causal(predictor, before, after, s):
    moved = np.abs(after - before)
    assert moved[: s - 1].max() <= 1e-12, (predictor, moved[: s - 1].max())
    assert moved[s - 1:].max() > 1e-3, predictor  # the change itself is seen


@pytest.mark.parametrize("name", ["siso_hard", "mimo_10"])
def test_a_change_from_step_s_on_leaves_every_earlier_prediction(name):
    traj = simulate_scenario(name, T, 0, 0.1, 0.1)
    changed = _changed(traj, S)
    for predictor, predict in _predictors(name).items():
        _assert_causal(predictor, predict(traj), predict(changed), S)


@pytest.mark.parametrize("s", [5, S])  # inside the first block; 600 is no block boundary
@pytest.mark.parametrize("name", ["siso_hard", "mimo_10"])
def test_ogd_at_a_fixed_step_leaves_every_earlier_prediction(name, s):
    traj = simulate_scenario(name, T, 0, 0.1, 0.1)
    params, _ = synthetic_system(name, seed=0)
    r_m = float(params.r_theta**2 * np.sqrt(K))
    eta = run_online(traj, OnlineConfig(bank=BANK, r_m=r_m)).state.eta  # of the unchanged run
    config = OnlineConfig(bank=BANK, eta=eta, r_m=r_m)
    before = run_online(traj, config).predictions
    _assert_causal("run_online", before, run_online(_changed(traj, s), config).predictions, s)

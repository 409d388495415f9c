"""Reference predictors the benchmark harness compares against."""

from __future__ import annotations

import numpy as np

from .lds import Trajectory
from .online import _rolling_ridge

__all__ = ["baseline_last_value", "baseline_ar"]


def baseline_last_value(trajectory: Trajectory) -> np.ndarray:
    """Predict each output by the previous one (zero at the first step)."""
    m = trajectory.output_dim
    return np.vstack([np.zeros((1, m)), trajectory.outputs[:-1]])


def baseline_ar(trajectory: Trajectory, tau: int, ridge: float = 1e-8) -> np.ndarray:
    """Rolling least squares on the last tau+1 inputs.

    At each step the model is refit on all previous (window, output)
    pairs, then predicts from the current window; windows reaching before
    time 1 are zero-padded. A singular fit with ridge 0 raises.
    """
    if tau < 0:
        raise ValueError("window length must be nonnegative")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    xs = trajectory.inputs
    T, n = xs.shape
    padded = np.vstack([np.zeros((tau, n)), xs])
    # window at step t: [x_t, x_{t-1}, ..., x_{t-tau}]
    windows = np.hstack([padded[tau - d : tau - d + T] for d in range(tau + 1)])
    preds, _, _ = _rolling_ridge(windows, trajectory.outputs, ridge)
    return preds

"""Reference predictors the benchmark harness compares against."""

from __future__ import annotations

import numpy as np

from .lds import Trajectory
from .online import _solve_gram

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
    xs, ys = trajectory.inputs, trajectory.outputs
    T, n = xs.shape
    m = ys.shape[1]
    width = (tau + 1) * n
    padded = np.vstack([np.zeros((tau, n)), xs])
    # window at step t: [x_t, x_{t-1}, ..., x_{t-tau}]
    windows = np.hstack([padded[tau - d : tau - d + T] for d in range(tau + 1)])
    gram = ridge * np.eye(width)
    rhs = np.zeros((width, m))
    matrix = np.zeros((m, width))
    preds = np.zeros((T, m))
    for t in range(T):
        w = windows[t]
        preds[t] = matrix @ w
        gram += np.outer(w, w)
        rhs += np.outer(w, ys[t])
        matrix = _solve_gram(gram, rhs)
    return preds

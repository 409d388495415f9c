"""Reference predictors the benchmark harness compares against."""

from __future__ import annotations

import numpy as np

from ._blas import serial_blas
from .lds import Trajectory, _count, _previous
from .online import _rolling_ridge

__all__ = ["baseline_last_value", "baseline_ar"]


def baseline_last_value(trajectory: Trajectory) -> np.ndarray:
    """Predict each output by the previous one (zero at the first step)."""
    return _previous(trajectory.outputs)


@serial_blas
def baseline_ar(trajectory: Trajectory, tau: int, ridge: float = 1e-8) -> np.ndarray:
    """Rolling least squares on the last tau+1 inputs.

    At each step the model is refit on all previous (window, output)
    pairs, then predicts from the current window; windows reaching before
    time 1 are zero-padded. The fit starts from an empty history, so a
    ridge of 0 or less, or a non-finite one, raises ``LinAlgError`` before
    the first step.
    """
    tau = _count("tau", tau)
    xs = trajectory.inputs
    T, n = xs.shape
    padded = np.vstack([np.zeros((tau, n)), xs])
    # window at step t: [x_t, x_{t-1}, ..., x_{t-tau}]
    windows = np.hstack([padded[tau - d : tau - d + T] for d in range(tau + 1)])
    preds, _, _ = _rolling_ridge(windows, trajectory.outputs, ridge)
    return preds

"""Batch least-squares learning of output differences.

Stacks featurized inputs across sample episodes and solves the ridge
normal equations for the matrix mapping features to the differences
``y_t - y_{t-1}``. A pure-batch predictor for the outputs themselves is
the running sum of predicted differences (errors accumulate linearly in
the horizon, so this is only useful in low-noise regimes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .filters import FilterBank, featurize_batch
from .lds import Trajectory, _check_finite
from .online import _ridge_least_squares

__all__ = [
    "BatchSample",
    "BatchModel",
    "fit_batch",
    "predict_derivative",
    "predict_pure_batch",
]


@dataclass(frozen=True)
class BatchSample:
    """One training episode: inputs and output differences (y_0 = 0), finite only."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs and difference targets must have equal length")
        _check_finite(inputs, "inputs")
        _check_finite(targets, "targets")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @classmethod
    def from_trajectory(cls, trajectory: Trajectory) -> "BatchSample":
        return cls(inputs=trajectory.inputs, targets=trajectory.output_differences())


@dataclass(frozen=True)
class BatchModel:
    """Learned difference predictor over batch features."""

    matrix: np.ndarray  # (m, n*k + 2n)
    bank: FilterBank
    ridge: float
    training_mse: float  # mean squared residual over every target entry


def fit_batch(
    samples: Sequence[BatchSample], bank: FilterBank, ridge: float = 1e-8
) -> BatchModel:
    """Least-squares fit of the difference map over all episodes.

    Solves ``M = Y F^T (F F^T + ridge I)^{-1}`` where F stacks the batch
    features of every sample column-wise and Y the difference targets.
    With ridge 0 the minimum-norm least-squares solution is used instead.
    """
    if len(samples) < 1:
        raise ValueError("need at least one training sample")
    feats = []
    targets = []
    m = samples[0].targets.shape[1]
    for s in samples:
        if s.targets.shape[1] != m:
            raise ValueError("inconsistent target widths across samples")
        feats.append(featurize_batch(s.inputs, bank))
        targets.append(s.targets)
    F = np.vstack(feats)
    Y = np.vstack(targets)
    matrix = _ridge_least_squares(F, Y, ridge)
    if not np.all(np.isfinite(matrix)):
        raise FloatingPointError("least-squares solution has non-finite entries")
    # per sample: one product with the stacked F made BLAS take ~18 MB more
    # peak memory (cli batch at 12 x T=1000, width 420)
    sse = sum(float(((t - f @ matrix.T) ** 2).sum()) for f, t in zip(feats, targets))
    return BatchModel(matrix=matrix, bank=bank, ridge=ridge, training_mse=sse / Y.size)


def predict_derivative(model: BatchModel, features: np.ndarray) -> np.ndarray:
    """Predicted output difference(s) for one feature vector or a stack."""
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != model.matrix.shape[1]:
        raise ValueError(
            f"feature width {features.shape[-1]} does not match model "
            f"({model.matrix.shape[1]})"
        )
    return features @ model.matrix.T


def predict_pure_batch(model: BatchModel, features: np.ndarray) -> np.ndarray:
    """Outputs as running sums of predicted differences over a full episode."""
    return np.cumsum(predict_derivative(model, np.atleast_2d(features)), axis=0)


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

from .filters import FeatureLayout, FilterBank, _batch_inputs, _streamed_rows
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
    F is one design matrix, allocated once: each episode's convolutions
    stream into its row block one filter at a time, so the transient
    beyond F is a few length-2T rows per input coordinate. Episodes whose
    input or target widths differ raise ``ValueError`` before any is
    featurized.
    """
    if len(samples) < 1:
        raise ValueError("need at least one training sample")
    n, m = samples[0].inputs.shape[1], samples[0].targets.shape[1]
    for i, s in enumerate(samples):
        if s.inputs.shape[1] != n:
            raise ValueError(
                f"episode {i} has input width {s.inputs.shape[1]}, episode 0 has {n}"
            )
        if s.targets.shape[1] != m:
            raise ValueError(
                f"episode {i} has target width {s.targets.shape[1]}, episode 0 has {m}"
            )
    layout = FeatureLayout(n=n, k=bank.k, m=0)
    stops = np.cumsum([len(s.inputs) for s in samples])
    F = np.empty((int(stops[-1]), layout.width))
    blocks = [F[stop - len(s.inputs) : stop] for s, stop in zip(samples, stops)]
    for s, block in zip(samples, blocks):
        _streamed_rows(layout, _batch_inputs(s.inputs, bank), bank, block)
    Y = np.vstack([s.targets for s in samples])
    matrix = _ridge_least_squares(F, Y, ridge)
    if not np.all(np.isfinite(matrix)):
        raise FloatingPointError("least-squares solution has non-finite entries")
    # per sample: one product with the stacked F made BLAS take ~18 MB more
    # peak memory (cli batch at 12 x T=1000, width 420)
    sse = sum(float(((s.targets - f @ matrix.T) ** 2).sum()) for s, f in zip(samples, blocks))
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


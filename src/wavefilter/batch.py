"""Batch least-squares learning of output differences.

Stacks featurized inputs across sample episodes and solves the ridge
normal equations for the matrix mapping features to the differences
``y_t - y_{t-1}``. A pure-batch predictor for the outputs themselves is
the running sum of predicted differences (errors accumulate linearly in
the horizon, so this is only useful in low-noise regimes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _lapack
from ._blas import serial_blas
from .filters import FeatureLayout, FilterBank, _apply, featurize_batch
from .lds import Trajectory, _rows

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
        inputs, targets = _rows(self.inputs, "inputs"), _rows(self.targets, "targets")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs and difference targets must have equal length")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @classmethod
    def from_trajectory(cls, trajectory: Trajectory) -> "BatchSample":
        return cls(inputs=trajectory.inputs, targets=trajectory.output_differences())


@dataclass(frozen=True)
class BatchModel:
    """Learned difference predictor over batch features."""

    matrix: np.ndarray  # (m, n*k + 2n), laid out by ``layout``
    bank: FilterBank
    ridge: float
    training_mse: float  # mean squared residual over every target entry

    @property
    def layout(self) -> FeatureLayout:
        return FeatureLayout(n=self.matrix.shape[1] // (self.bank.k + 2), k=self.bank.k, m=0)


@serial_blas
def fit_batch(
    samples: Iterable[BatchSample], bank: FilterBank, ridge: float = 1e-8
) -> BatchModel:
    """Least-squares fit of the difference map over all episodes.

    Solves ``M = Y F^T (F F^T + ridge I)^{-1}`` where F stacks the batch
    features of every sample column-wise and Y the difference targets.
    ``samples`` may be any iterable, a generator included. A positive ridge
    makes one pass: it takes one episode at a time, streams its features
    through a (T, width) block, sums ``G = F_e^T F_e``, ``B = F_e^T Y_e``,
    ``||Y||^2`` and the target count, releases the block and solves
    ``(G + ridge I) M^T = B``: O(T width + width^2) memory whatever the
    episode count. Its SSE is
    ``||Y||^2 - <M, B^T> - ridge ||M||^2`` (clamped at 0), exact to about
    ``eps || |F| |M|^T ||^2``: ``eps ||Y||^2`` unless the fitted terms cancel.
    Ridge 0 first makes a list of the episodes and stacks them for the
    minimum-norm ``lstsq``, as the Gram would square cond(F) (about 1e14 on
    ode banks); all-zero features then raise ``LinAlgError``. A negative
    or non-finite ridge raises ``ValueError`` before any episode is taken,
    and an episode whose widths differ from episode 0's, or whose length
    from the bank horizon, raises it before that episode is featurized.
    """
    if not 0 <= ridge < math.inf:
        raise ValueError(f"ridge must be nonnegative and finite, got {ridge!r}")
    if ridge == 0.0:  # the stacked lstsq takes every episode at once
        samples = list(samples)
    blocks = None
    gram = cross = y_squares = 0.0
    size = 0
    for i, s in enumerate(samples):
        if blocks is None:
            n, m = s.inputs.shape[1], s.targets.shape[1]
            layout = FeatureLayout(n=n, k=bank.k, m=0)
            blocks = np.empty((len(samples) if ridge == 0.0 else 1, bank.horizon, layout.width))
        widths = (("input", s.inputs.shape[1], n), ("target", s.targets.shape[1], m))
        for name, width, first in widths:
            if width != first:
                raise ValueError(f"episode {i} has {name} width {width}, episode 0 has {first}")
        if len(s.inputs) != bank.horizon:
            raise ValueError(
                f"episode {i} has {len(s.inputs)} steps, the bank horizon is {bank.horizon}"
            )
        block = featurize_batch(s.inputs, bank, out=blocks[i % len(blocks)])
        if ridge != 0.0:
            gram += block.T @ block
            cross += block.T @ s.targets
            y_squares += float((s.targets**2).sum())
        size += s.targets.size
    if blocks is None:
        raise ValueError("need at least one training sample")
    if ridge == 0.0:  # residuals per sample: one product over the stacked F took ~18 MB more
        if not np.any(blocks):
            raise np.linalg.LinAlgError("all-zero feature matrix is singular without a ridge")
        Y = np.vstack([s.targets for s in samples])
        matrix = np.linalg.lstsq(blocks.reshape(-1, layout.width), Y, rcond=None)[0].T
        sse = sum(float(((s.targets - f @ matrix.T) ** 2).sum()) for s, f in zip(samples, blocks))
    else:  # rounding can take the identity below zero on a near-perfect fit
        del blocks, block
        gram.flat[:: len(gram) + 1] += ridge  # LAPACK factors gram.T, its Fortran-order view
        matrix = _lapack.posv(gram.T, cross).T
        sse = max(y_squares - float((matrix * (cross.T + ridge * matrix)).sum()), 0.0)
    if not np.all(np.isfinite(matrix)):
        raise FloatingPointError("least-squares solution has non-finite entries")
    return BatchModel(matrix=matrix, bank=bank, ridge=ridge, training_mse=sse / size)


def predict_derivative(model: BatchModel, features: np.ndarray) -> np.ndarray:
    """Predicted output difference(s) for one feature row or a (T, width) stack."""
    return _apply(model.matrix, features)


def predict_pure_batch(model: BatchModel, features: np.ndarray) -> np.ndarray:
    """Outputs as running sums of predicted differences over a full episode."""
    return np.cumsum(predict_derivative(model, _rows(features, "features")), axis=0)


"""Exact construction of the relaxed predictor for a known system.

Maps system parameters (A stored as its diagonal) to the prediction matrix

    M = [M^(1) ... M^(k) | M^(x') | M^(x) | M^(y)]

over the columns of ``FeatureLayout``, with
``M^(j) = sum_l sigma_j^(-1/4) <phi_j, mu(alpha_l)> (c_l b_l^T)``,
``M^(x') = -D``, ``M^(x) = CB + D``, ``M^(y) = I``. Applied to the online
features, M reproduces the derivative-comparator predictions up to a
residual that shrinks geometrically with the number of filters. Serves as
the constructive test oracle for the learners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import serial_blas
from .filters import FeatureLayout, FilterBank, _apply
from .hankel import NOISE_FLOOR, mu_curve
from .lds import LdsParams, Trajectory, derivative_predictions
from .online import online_features

__all__ = ["RelaxedPredictor", "build_M_theta", "relaxation_residual"]


@dataclass(frozen=True)
class RelaxedPredictor:
    """Prediction matrix over online features, plus its provenance.

    ``usable_k`` counts the leading filters whose eigenvalues sit above
    the noise floor passed to the builder; the filter blocks beyond it are zero.
    """

    matrix: np.ndarray  # (m, n*k + 2n + m), laid out by ``layout``
    bank: FilterBank
    usable_k: int

    @property
    def layout(self) -> FeatureLayout:
        m, width = self.matrix.shape
        return FeatureLayout(n=(width - m) // (self.bank.k + 2), k=self.bank.k, m=m)

    def frobenius_norm_active(self) -> float:
        """Frobenius norm over every column before the identity output block."""
        return float(np.linalg.norm(self.matrix[:, : self.layout.y_block.start]))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Apply the matrix to one feature row or a (T, width) stack of them."""
        return _apply(self.matrix, features)


@serial_blas
def build_M_theta(
    params: LdsParams, bank: FilterBank, noise_floor: float = NOISE_FLOOR
) -> RelaxedPredictor:
    """Construct the relaxed predictor for a system (the α_l are the entries of ``a``).

    Filters whose bank eigenvalue is at or below ``noise_floor`` are
    dropped (their inverse quarter-power scaling amplifies eigenvector
    noise); the count of retained filters is reported as ``usable_k``.
    Pass ``noise_floor=0.0`` to keep the full bank, e.g. for the exact full-basis
    reconstruction check at small sizes; a negative or NaN floor raises ``ValueError``.
    """
    if not noise_floor >= 0:
        raise ValueError(f"noise_floor must be nonnegative, got {noise_floor!r}")
    if bank.method != "eigen":
        raise ValueError(
            "the exact construction needs an eigen-method bank; "
            f"got method '{bank.method}'"
        )
    m = params.output_dim
    layout = FeatureLayout(n=params.input_dim, k=bank.k, m=m)
    matrix = np.zeros((m, layout.width))
    mu_mat = np.stack([mu_curve(a, bank.horizon) for a in params.a])  # (d, T)
    outer = np.einsum("ml,ln->lmn", params.c, params.b)  # (d, m, n): c_l b_l^T
    usable = 0
    for j in range(bank.k):
        sigma = bank.sigmas[j]
        if sigma <= noise_floor:
            continue
        coeffs = sigma**-0.25 * (mu_mat @ bank.phis[j])  # (d,)
        matrix[:, layout.conv_block(j)] = np.tensordot(coeffs, outer, axes=1)
        usable = j + 1
    matrix[:, layout.x_prev_block] = -params.d
    matrix[:, layout.x_block] = params.c @ params.b + params.d
    matrix[:, layout.y_block] = np.eye(m)
    return RelaxedPredictor(matrix=matrix, bank=bank, usable_k=usable)


@serial_blas
def relaxation_residual(
    params: LdsParams, predictor: RelaxedPredictor, trajectory: Trajectory
) -> tuple[np.ndarray, float]:
    """Per-step gap to the derivative comparator, and the total loss gap.

    Returns ``(zeta_norms, gap)`` where ``zeta_norms[t-1]`` is the norm of
    the difference between the relaxed prediction and the comparator
    prediction at step t, and ``gap`` is the relaxed predictor's total
    squared prediction error minus the comparator's.
    """
    if trajectory.input_dim != params.input_dim or trajectory.output_dim != params.output_dim:
        raise ValueError("trajectory dimensions do not match system")
    relaxed = predictor.predict(online_features(trajectory, predictor.bank))

    comparator = derivative_predictions(params, trajectory)
    zeta = np.linalg.norm(relaxed - comparator, axis=1)
    gap = float(
        ((relaxed - trajectory.outputs) ** 2).sum()
        - ((comparator - trajectory.outputs) ** 2).sum()
    )
    return zeta, gap

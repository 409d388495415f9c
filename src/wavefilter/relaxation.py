"""Exact construction of the relaxed predictor for a known system.

Maps system parameters (A stored as its diagonal) to the block matrix

    M = [M^(1) ... M^(k) | M^(x') | M^(x) | M^(y)]

with ``M^(j) = sum_l sigma_j^(-1/4) <phi_j, mu(alpha_l)> (c_l b_l^T)``,
``M^(x') = -D``, ``M^(x) = CB + D``, ``M^(y) = I``. Applied to the online
features, M reproduces the derivative-comparator predictions up to a
residual that shrinks geometrically with the number of filters. Serves as
the constructive test oracle for the learners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import serial_blas
from .filters import FeatureLayout, FilterBank
from .hankel import NOISE_FLOOR, mu_curve
from .lds import LdsParams, Trajectory, derivative_predictions
from .online import online_features

__all__ = ["RelaxedPredictor", "build_M_theta", "relaxation_residual"]


@dataclass(frozen=True)
class RelaxedPredictor:
    """Block predictor over online features, plus its provenance.

    ``usable_k`` counts the leading filters whose eigenvalues sit above
    the noise floor passed to the builder; blocks beyond it are zero.
    """

    conv_blocks: np.ndarray  # (k, m, n)
    m_x_prev: np.ndarray
    m_x: np.ndarray
    m_y: np.ndarray
    bank: FilterBank
    usable_k: int

    @property
    def layout(self) -> FeatureLayout:
        m, n = self.m_x.shape
        return FeatureLayout(n=n, k=self.bank.k, m=m)

    def as_matrix(self) -> np.ndarray:
        """Flatten the blocks into the m-by-k' prediction matrix."""
        return np.hstack([*self.conv_blocks, self.m_x_prev, self.m_x, self.m_y])

    def frobenius_norm_active(self) -> float:
        """Frobenius norm over every block except the identity output block."""
        total = float((self.conv_blocks**2).sum())
        total += float((self.m_x_prev**2).sum() + (self.m_x**2).sum())
        return np.sqrt(total)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Apply the block matrix to one feature vector or a stack of them."""
        return np.asarray(features) @ self.as_matrix().T


@serial_blas
def build_M_theta(
    params: LdsParams, bank: FilterBank, noise_floor: float = NOISE_FLOOR
) -> RelaxedPredictor:
    """Construct the relaxed predictor for a system (the α_l are the entries of ``a``).

    Filters whose bank eigenvalue is at or below ``noise_floor`` are
    dropped (their inverse quarter-power scaling amplifies eigenvector
    noise); the count of retained filters is reported as ``usable_k``.
    Pass ``noise_floor=0.0`` to keep the full bank, e.g. for the exact
    full-basis reconstruction check at small sizes.
    """
    if bank.method != "eigen":
        raise ValueError(
            "the exact construction needs an eigen-method bank; "
            f"got method '{bank.method}'"
        )
    T = bank.horizon
    d = params.state_dim
    m, n = params.output_dim, params.input_dim
    alphas = params.a

    mu_mat = np.stack([mu_curve(a, T) for a in alphas])  # (d, T)
    outer = np.einsum("ml,ln->lmn", params.c, params.b)  # (d, m, n): c_l b_l^T
    conv_blocks = np.zeros((bank.k, m, n))
    usable = 0
    for j in range(bank.k):
        sigma = bank.sigmas[j]
        if sigma <= noise_floor:
            continue
        coeffs = sigma**-0.25 * (mu_mat @ bank.phis[j])  # (d,)
        conv_blocks[j] = np.tensordot(coeffs, outer, axes=1)
        usable = j + 1
    return RelaxedPredictor(
        conv_blocks=conv_blocks,
        m_x_prev=-params.d.copy(),
        m_x=params.c @ params.b + params.d,
        m_y=np.eye(m),
        bank=bank,
        usable_k=usable,
    )


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

"""Stable filter generation from a discrete Sturm-Liouville operator.

Deep eigenvectors of the moment Hankel matrix are unrecoverable in double
precision (eigenvalues decay below machine noise), but the filters are
well approximated by eigenfunctions of the second-order operator

    D = d/dx ((1 - x^2) x^2 d/dx) - 2 x^2

on (0, 1]. A plain finite-difference discretization reproduces the bulk
of each filter but not the first few coordinates, where low-order filters
concentrate their mass and oscillate on a logarithmic scale; its
eigenvectors only reach cosine similarity ~0.5 against the reliable
Hankel eigenvectors. The operator used here keeps the same symmetric
tridiagonal (self-adjoint finite-difference) form and Dirichlet ends, but
its coefficients are corrected by an inverse-eigenvalue fit: the reliable
Hankel eigenvectors are required to be near-eigenvectors, with a ridge
pull toward the plain discretization wherever they carry no information.
Its deeper eigenvectors then extend the filter family smoothly past the
noise floor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solveh_banded

from .hankel import NOISE_FLOOR, Spectrum, _sign_normalize, build_hankel, top_eigenpairs
from .filters import EIGEN_K_CAP, FilterBank

__all__ = [
    "OdeFilterSpec",
    "fd_wave_operator",
    "fitted_wave_operator",
    "solve_ode_filter",
    "ode_filter_bank",
]

_FIT_MODES = 12
_FIT_ITERS = 30
_FIT_RIDGE = 1e-7


@dataclass(frozen=True)
class OdeFilterSpec:
    """One filter request: operator eigenvalue, grid size, boundary rule."""

    lam: float
    size: int
    boundary: str = "dirichlet"

    def __post_init__(self) -> None:
        if not np.isfinite(self.lam):
            raise ValueError("eigenvalue parameter must be finite")
        if self.size < 2:
            raise ValueError("grid size must be at least 2")
        if self.boundary != "dirichlet":
            raise ValueError(f"unsupported boundary rule '{self.boundary}'")


def fd_wave_operator(T: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain self-adjoint finite differences for D on the grid x_i = i/T.

    Returns (diagonal, off-diagonal) of the symmetric tridiagonal matrix,
    with homogeneous Dirichlet conditions at both grid ends. The flux
    coefficient is clamped at zero beyond x = 1 where it changes sign.
    """
    h = 1.0 / T
    x = np.arange(1, T + 1) * h

    def p(z: np.ndarray) -> np.ndarray:
        return np.maximum(1.0 - z**2, 0.0) * z**2

    ph = p(x + h / 2)
    pl = p(x - h / 2)
    diag = -(ph + pl) / h**2 - 2.0 * x**2
    off = ph[:-1] / h**2
    return diag, off


def _apply_tridiagonal(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = diag * v
    out[1:] += off * v[:-1]
    out[:-1] += off * v[1:]
    return out


def _rayleigh(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> float:
    return float(v @ (diag * v) + 2.0 * (v[:-1] * v[1:]) @ off)


def _fit_banded(
    T: int, phis: np.ndarray, theta: np.ndarray, weights: np.ndarray,
    anchor_diag: np.ndarray, anchor_off: np.ndarray, ridge: float,
) -> tuple[np.ndarray, np.ndarray]:
    # unknowns interleaved as (a_1, b_1, a_2, b_2, ..., a_T); the normal
    # matrix of the per-row residuals then has bandwidth 2
    n_u = 2 * T - 1
    ab = np.zeros((3, n_u))
    rhs = np.zeros(n_u)
    ia = 2 * np.arange(T)
    for j in range(phis.shape[1]):
        phi = phis[:, j]
        wt = weights[j]
        pm = np.r_[0.0, phi[:-1]]
        pp = np.r_[phi[1:], 0.0]
        y = theta[j] * phi
        np.add.at(rhs, ia, wt * phi * y)
        np.add.at(rhs, ia[1:] - 1, wt * pm[1:] * y[1:])
        np.add.at(rhs, ia[:-1] + 1, wt * pp[:-1] * y[:-1])
        np.add.at(ab[0], ia, wt * phi * phi)
        np.add.at(ab[0], ia[1:] - 1, wt * pm[1:] * pm[1:])
        np.add.at(ab[0], ia[:-1] + 1, wt * pp[:-1] * pp[:-1])
        np.add.at(ab[1], ia[1:] - 1, wt * pm[1:] * phi[1:])
        np.add.at(ab[1], ia[:-1], wt * phi[:-1] * pp[:-1])
        np.add.at(ab[2], ia[1:-1] - 1, wt * pm[1:-1] * pp[1:-1])
    ab[0] += ridge
    rhs[0::2] += ridge * anchor_diag
    rhs[1::2] += ridge * anchor_off
    u = solveh_banded(ab, rhs, lower=True)
    return u[0::2], u[1::2]


@functools.lru_cache(maxsize=8)
def _moment_spectrum(T: int) -> Spectrum:
    """Top min(T, 40) Hankel eigenpairs, shared by the operator fit and the bank."""
    return top_eigenpairs(build_hankel(T), min(T, EIGEN_K_CAP))


@functools.lru_cache(maxsize=8)
def fitted_wave_operator(T: int) -> tuple[np.ndarray, np.ndarray]:
    """Corrected tridiagonal wave operator for grid size T (cached).

    Alternates between solving for tridiagonal coefficients (banded
    least squares) and updating Rayleigh-quotient eigenvalue targets,
    reweighting each fitted mode by its residual-to-gap ratio so
    eigenvector rotations are equalized. Deterministic.
    """
    if T < 2:
        raise ValueError("grid size must be at least 2")
    spec = _moment_spectrum(T)
    n_rel = int(np.sum(spec.sigmas > NOISE_FLOOR))
    J = max(min(n_rel, _FIT_MODES), 1)
    phis = spec.phis[:, :J]

    a0, b0 = fd_wave_operator(T)
    scale = np.abs(a0).max()
    a0s, b0s = a0 / scale, b0 / scale
    theta = np.array([_rayleigh(a0s, b0s, phis[:, j]) for j in range(J)])
    weights = np.ones(J)
    a, b = a0s, b0s
    for _ in range(_FIT_ITERS):
        a, b = _fit_banded(T, phis, theta, weights, a0s, b0s, _FIT_RIDGE)
        theta = np.array([_rayleigh(a, b, phis[:, j]) for j in range(J)])
        if J > 1:
            res = np.array(
                [
                    np.linalg.norm(
                        _apply_tridiagonal(a, b, phis[:, j]) - theta[j] * phis[:, j]
                    )
                    for j in range(J)
                ]
            )
            gaps = np.array(
                [
                    min(abs(theta[j] - theta[i]) for i in range(J) if i != j)
                    for j in range(J)
                ]
            )
            mix = res / np.maximum(gaps, 1e-12)
            weights = weights * np.clip(mix / mix.mean(), 0.1, None) ** 1.5
            weights /= weights.mean()
    return a * scale, b * scale


def _operator_eigs(T: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    diag, off = fitted_wave_operator(T)
    count = min(count, T)
    lam, vecs = eigh_tridiagonal(
        diag, off, select="i", select_range=(T - count, T - 1)
    )
    order = np.argsort(lam)[::-1]  # algebraically largest first
    return lam[order], vecs[:, order]


def solve_ode_filter(spec: OdeFilterSpec) -> np.ndarray:
    """Unit-norm operator eigenvector with eigenvalue nearest spec.lam."""
    diag, off = fitted_wave_operator(spec.size)
    lam_all = eigh_tridiagonal(diag, off, eigvals_only=True)
    idx = int(np.argmin(np.abs(lam_all - spec.lam)))
    _, vec = eigh_tridiagonal(diag, off, select="i", select_range=(idx, idx))
    v = vec / np.linalg.norm(vec[:, 0])
    return _sign_normalize(v)[:, 0]


def ode_filter_bank(T: int, k: int) -> FilterBank:
    """Filter bank from the corrected wave operator.

    Filters matched to reliable Hankel eigenvectors (by maximal overlap,
    greedily in Hankel order) come first and carry the true eigenvalues;
    remaining slots take unmatched operator eigenvectors by decreasing
    operator eigenvalue, with eigenvalues extrapolated geometrically from
    the reliable range and flagged as such.
    """
    if not 1 <= k <= T:
        raise ValueError(f"need 1 <= k <= {T}, got k={k}")
    spec = _moment_spectrum(T)
    n_rel = int(np.sum(spec.sigmas > NOISE_FLOOR))
    lam, vecs = _operator_eigs(T, min(T, max(k + 10, 2 * k, 40)))

    overlaps = np.abs(vecs.T @ spec.phis[:, :n_rel])  # (cand, n_rel)
    available = list(range(vecs.shape[1]))
    chosen: list[int] = []
    matched_sigmas: list[float] = []
    for j in range(min(n_rel, k)):
        pick = max(available, key=lambda c: overlaps[c, j])
        available.remove(pick)
        chosen.append(pick)
        matched_sigmas.append(float(spec.sigmas[j]))
    for c in sorted(available, key=lambda c: -lam[c]):
        if len(chosen) == k:
            break
        chosen.append(c)

    phis = _sign_normalize(vecs[:, chosen]).T.copy()

    sigmas = np.empty(k)
    n_matched = len(matched_sigmas)
    sigmas[:n_matched] = matched_sigmas
    extrapolated = np.zeros(k, dtype=bool)
    if n_matched < k:
        # straight-line fit of log sigma over the reliable range
        jj = np.arange(1, n_rel + 1)
        slope, intercept = np.polyfit(jj, np.log(spec.sigmas[:n_rel]), 1)
        deep = np.arange(n_matched + 1, k + 1)
        sigmas[n_matched:] = np.exp(intercept + slope * deep)
        extrapolated[n_matched:] = True
    sigmas = np.minimum.accumulate(np.clip(sigmas, np.finfo(float).tiny, None))

    return FilterBank(
        horizon=T,
        k=k,
        phis=phis,
        sigmas=sigmas,
        scaled_filters=sigmas[:, None] ** 0.25 * phis,
        method="ode",
        lambdas=lam[chosen].copy(),
        sigma_extrapolated=extrapolated,
    )

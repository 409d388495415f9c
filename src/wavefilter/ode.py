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

import numpy as np

from . import _lapack
from .hankel import NOISE_FLOOR, Spectrum, _sign_normalize, build_hankel, top_eigenpairs
from .filters import EIGEN_K_CAP, FilterBank
from .lds import _count

__all__ = ["fd_wave_operator", "fitted_wave_operator", "ode_filter_bank"]

_FIT_MODES = 12
_FIT_ITERS = 30
_FIT_RIDGE = 1e-7


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


def _interleaved_sum(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Rows first[0], second[0], first[1], ... added in that order."""
    return np.stack((first, second), axis=1).reshape(-1, first.shape[1]).sum(axis=0)


def _fit_banded(
    T: int, phis: np.ndarray, theta: np.ndarray, weights: np.ndarray,
    anchor_diag: np.ndarray, anchor_off: np.ndarray, ridge: float,
) -> tuple[np.ndarray, np.ndarray]:
    # unknowns interleaved as (a_1, b_1, a_2, b_2, ..., a_T); the normal
    # matrix of the per-row residuals then has bandwidth 2. One row per
    # mode, C-contiguous, so each sum over modes adds whole rows in mode
    # order: the same additions as accumulating one mode at a time.
    p = np.ascontiguousarray(phis.T)
    wp = weights[:, None] * p
    y = theta[:, None] * p
    n_u = 2 * T - 1
    ab = np.zeros((3, n_u))
    rhs = np.zeros(n_u)
    rhs[0::2] = (wp * y).sum(axis=0)
    rhs[1::2] = _interleaved_sum(wp[:, :-1] * y[:, 1:], wp[:, 1:] * y[:, :-1])
    ab[0, 0::2] = (wp * p).sum(axis=0)
    ab[0, 1::2] = _interleaved_sum(wp[:, :-1] * p[:, :-1], wp[:, 1:] * p[:, 1:])
    ab[1, 1::2] = ab[1, 0:-1:2] = (wp[:, :-1] * p[:, 1:]).sum(axis=0)
    ab[2, 1:-2:2] = (wp[:, :-2] * p[:, 2:]).sum(axis=0)
    ab[0] += ridge
    rhs[0::2] += ridge * anchor_diag
    rhs[1::2] += ridge * anchor_off
    u = _lapack.solveh_banded(ab, rhs)
    return u[0::2], u[1::2]


@functools.lru_cache(maxsize=8)
def _moment_spectrum(T: int) -> Spectrum:
    """Top min(T, 40) Hankel eigenpairs, shared by the operator fit and the bank."""
    return top_eigenpairs(build_hankel(T), min(T, EIGEN_K_CAP))


@functools.lru_cache(maxsize=8, typed=True)  # typed: 8.0 is no cached 8, it is rejected
def fitted_wave_operator(T: int) -> tuple[np.ndarray, np.ndarray]:
    """Corrected tridiagonal wave operator for grid size T >= 2 (cached).

    Alternates between solving for tridiagonal coefficients (banded
    least squares) and updating Rayleigh-quotient eigenvalue targets,
    reweighting each fitted mode by its residual-to-gap ratio so
    eigenvector rotations are equalized. Deterministic.
    """
    spec = _moment_spectrum(_count("T", T, least=2))
    n_rel = int(np.sum(spec.sigmas > NOISE_FLOOR))
    J = max(min(n_rel, _FIT_MODES), 1)
    phis = spec.phis[:, :J]

    a0, b0 = fd_wave_operator(T)
    scale = np.abs(a0).max()
    a0s, b0s = a0 / scale, b0 / scale
    p = np.ascontiguousarray(phis.T)
    weights = np.ones(J)
    a, b = a0s, b0s
    for step in range(_FIT_ITERS):
        # Rayleigh quotients over the strided columns of phis: BLAS sums a
        # strided vector in another order than a contiguous one
        theta = np.array([v @ (a * v) + 2.0 * (v[:-1] * v[1:]) @ b for v in phis.T])
        if step and J > 1:  # the first fit weighs every mode alike
            res = a * p
            res[:, 1:] += b * p[:, :-1]
            res[:, :-1] += b * p[:, 1:]
            res -= theta[:, None] * p
            gaps = np.abs(theta[:, None] - theta)
            np.fill_diagonal(gaps, np.inf)
            mix = np.array([np.linalg.norm(r) for r in res]) / np.maximum(gaps.min(axis=1), 1e-12)
            weights = weights * np.clip(mix / mix.mean(), 0.1, None) ** 1.5
            weights /= weights.mean()
        a, b = _fit_banded(T, phis, theta, weights, a0s, b0s, _FIT_RIDGE)
    return a * scale, b * scale


def _operator_eigs(T: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    diag, off = fitted_wave_operator(T)
    lam, vecs = _lapack.eigh_tridiagonal(diag, off, T - count, T - 1)
    order = np.argsort(lam)[::-1]  # algebraically largest first
    return lam[order], vecs[:, order]


def ode_filter_bank(T: int, k: int) -> FilterBank:
    """Filter bank from the corrected wave operator.

    Filters matched to reliable Hankel eigenvectors (by maximal overlap,
    greedily in Hankel order) come first and carry the true eigenvalues;
    remaining slots take unmatched operator eigenvectors by decreasing
    operator eigenvalue, with eigenvalues extrapolated geometrically from
    the reliable range and flagged as such.
    """
    if _count("T", T, least=-np.inf) < 2:
        raise ValueError(f"method 'ode' needs a horizon T of at least 2, got T={T}")
    k = _count("k", k, least=1, most=T)
    spec = _moment_spectrum(T)
    n_rel = int(np.sum(spec.sigmas > NOISE_FLOOR))
    lam, vecs = _operator_eigs(T, min(T, max(k + 10, 2 * k, 40)))

    overlaps = np.abs(vecs.T @ spec.phis[:, :n_rel])  # (cand, n_rel)
    available = list(range(vecs.shape[1]))
    chosen: list[int] = []
    n_matched = min(n_rel, k)
    for j in range(n_matched):
        pick = max(available, key=lambda c: overlaps[c, j])
        available.remove(pick)
        chosen.append(pick)
    for c in sorted(available, key=lambda c: -lam[c]):
        if len(chosen) == k:
            break
        chosen.append(c)

    phis = _sign_normalize(vecs[:, chosen]).T.copy()

    sigmas = np.empty(k)
    sigmas[:n_matched] = spec.sigmas[:n_matched]
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
        phis=phis,
        sigmas=sigmas,
        method="ode",
        lambdas=lam[chosen].copy(),
        sigma_extrapolated=extrapolated,
    )

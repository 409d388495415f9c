"""The moment Hankel matrix, its spectrum, and the geometric-decay curve.

The central object is the T-by-T matrix with entries
``Z[i, j] = 2 / ((i+j)^3 - (i+j))`` (1-based indices). It is the second
moment matrix of the curve ``mu(alpha)(i) = (alpha - 1) * alpha^(i-1)``
over ``alpha`` uniform on [0, 1], hence symmetric positive semidefinite
with trace below 3/4 and exponentially decaying eigenvalues. Its top
eigenvectors are the wave filters used throughout the package.

``build_hankel`` and ``hilbert_matrix`` (entries 1/(i+j-1)) both return a
``HankelMatrix``: the 2T-1 values along i+j, checked once when it is built.

Eigenvalues below ``NOISE_FLOOR`` are at double-precision noise level:
the corresponding eigenvectors form an orthonormal basis of the tail
subspace but carry no individually meaningful shape (see the ode module
for a stable way to generate deep filters).
"""

from __future__ import annotations

import ctypes
import functools
import mmap
from dataclasses import dataclass

import numpy as np

from . import _lapack

__all__ = [
    "NOISE_FLOOR",
    "HankelMatrix",
    "Spectrum",
    "build_hankel",
    "hilbert_matrix",
    "mu_curve",
    "top_eigenpairs",
    "full_spectrum",
    "spectral_tail_sum",
    "quarter_power_apply",
]

# eigenvalues at or below this are treated as numerically unresolved
NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class HankelMatrix:
    """Symmetric T-by-T Hankel matrix fixed by its ``symbol``, the 2T-1 values along i+j.

    Entry (i, j), 0-based, is ``symbol[i + j]``. The symbol must be 1-D, of odd length and
    finite, else ``ValueError`` names the first bad index; it is kept as a read-only copy,
    and ``entries`` is a read-only T-by-T view of it.
    """

    symbol: np.ndarray

    def __post_init__(self) -> None:
        symbol = np.array(self.symbol, dtype=float)
        if symbol.ndim != 1 or len(symbol) % 2 == 0:
            raise ValueError(f"symbol must be 1-D of odd length 2T-1, got shape {symbol.shape}")
        bad = np.flatnonzero(~np.isfinite(symbol))
        if bad.size:
            raise ValueError(f"symbol must be finite; index {bad[0]} is {symbol[bad[0]]}")
        symbol.flags.writeable = False
        object.__setattr__(self, "symbol", symbol)

    @property
    def size(self) -> int:
        return (len(self.symbol) + 1) // 2

    @property
    def entries(self) -> np.ndarray:
        return np.lib.stride_tricks.sliding_window_view(self.symbol, self.size)


@dataclass(frozen=True)
class Spectrum:
    """Top eigenpairs of a symmetric matrix, eigenvalues nonincreasing.

    ``phis`` holds eigenvectors as columns, sign-normalized so the first
    coordinate with magnitude above 1e-12 is positive.
    """

    sigmas: np.ndarray
    phis: np.ndarray

    @property
    def source_size(self) -> int:
        return self.phis.shape[0]

    def __len__(self) -> int:
        return len(self.sigmas)

    @property
    def is_full(self) -> bool:
        return len(self.sigmas) == self.source_size


def _check_integer(name: str, value) -> None:
    """Reject a count or horizon that is not a Python or numpy integer, naming it."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def build_hankel(T: int) -> HankelMatrix:
    """The T-by-T matrix with entries 2/((i+j)^3 - (i+j)), 1-based indices.

    Allocates O(T): the symbol holds the 2T-1 values at i+j = 2..2T, each
    computed exactly (s^3 - s stays below 2^53).
    """
    _check_integer("T", T)
    if T < 1:
        raise ValueError(f"matrix size must be positive, got {T}")
    s = np.arange(2, 2 * T + 1)
    return HankelMatrix(2.0 / (s**3 - s))


def hilbert_matrix(T: int) -> HankelMatrix:
    """The T-by-T Hilbert matrix with entries 1/(i+j-1), 1-based indices; allocates O(T)."""
    _check_integer("T", T)
    if T < 1:
        raise ValueError(f"matrix size must be positive, got {T}")
    return HankelMatrix(1.0 / np.arange(1.0, 2 * T))


def mu_curve(alpha: float, T: int) -> np.ndarray:
    """Evaluate the decay curve (alpha - 1) * alpha^(i-1) for i = 1..T.

    Uses the convention 0^0 = 1, so mu(0) = -e_1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if T < 1:
        raise ValueError(f"length must be positive, got {T}")
    powers = np.ones(T)
    if T > 1:
        powers[1:] = np.cumprod(np.full(T - 1, alpha))
    return (alpha - 1.0) * powers


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def _lower_triangle(H: HankelMatrix) -> np.ndarray:
    """A new Fortran-order T-by-T array on its own anonymous mapping, H's lower triangle set."""
    T, symbol = H.size, H.symbol
    buffer = mmap.mmap(-1, 8 * T * T)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)  # one huge page would span dozens of columns
    getattr(ctypes.CDLL(None), "malloc_trim", int)(0)  # glibc keeps freed heap resident
    out = np.ndarray((T, T), order="F", buffer=buffer)
    for j in range(T):
        out[j:, j] = symbol[2 * j : T + j]  # LAPACK with UPLO='L' reads nothing above the diagonal
    return out


def top_eigenpairs(H: HankelMatrix, k: int) -> Spectrum:
    """Top-k eigenpairs of a Hankel matrix, nonincreasing, sign-fixed.

    For every k the solver gets only the lower triangle of a new T-by-T mapping, whose zero
    pages above the diagonal are never written: about half its 8T^2 bytes never become
    resident, and all are unmapped when it is released. Its entries were checked finite when
    ``H`` was built. Raises ``ValueError`` for k outside [1, T]; eigensolver failures
    propagate as ``numpy.linalg.LinAlgError``.
    """
    T = H.size
    if not 1 <= k <= T:
        raise ValueError(f"need 1 <= k <= {T}, got k={k}")
    w, v = _lapack.eigh(_lower_triangle(H), T - k, T - 1)
    order = np.argsort(w)[::-1]
    return Spectrum(sigmas=w[order].copy(), phis=_sign_normalize(v[:, order]))


@functools.lru_cache(maxsize=8)
def full_spectrum(T: int) -> Spectrum:
    """All eigenpairs of the size-T moment Hankel matrix (cached)."""
    return top_eigenpairs(build_hankel(T), T)


def spectral_tail_sum(full: Spectrum, k: int) -> float:
    """Sum of eigenvalues beyond index k, negatives clamped to zero."""
    if not full.is_full:
        raise ValueError("tail sums need the complete spectrum")
    if not 0 <= k <= full.source_size:
        raise ValueError(f"need 0 <= k <= {full.source_size}, got k={k}")
    return float(np.clip(full.sigmas[k:], 0.0, None).sum())


def quarter_power_apply(spec: Spectrum, v: np.ndarray) -> np.ndarray:
    """Apply the matrix quarter power sum_j sigma_j^(1/4) phi_j phi_j^T to v.

    Requires the full spectrum and a unit vector; negative numerical
    eigenvalues are clamped to zero.
    """
    if not spec.is_full:
        raise ValueError("quarter power needs the complete spectrum")
    v = np.asarray(v, dtype=float)
    if v.shape != (spec.source_size,):
        raise ValueError("vector length does not match spectrum size")
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise ValueError("input must be a unit vector")
    roots = np.clip(spec.sigmas, 0.0, None) ** 0.25
    return spec.phis @ (roots * (spec.phis.T @ v))

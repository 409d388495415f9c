"""Filter banks and convolutional featurization of input sequences.

A filter bank packages k length-T filters scaled by the quarter power of
their eigenvalues. Featurization convolves each input coordinate with
each scaled filter over strictly-past inputs (indices before time 1 are
zero), then appends the previous input, the current input, and -- in
online mode -- the previous output:

    features(t) = [conv block (k*n) | x_{t-1} (n) | x_t (n) | y_{t-1} (m)]

so the online feature width is k' = n*k + 2n + m and the batch width is
n*k + 2n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .hankel import NOISE_FLOOR, _check_integer, build_hankel, hilbert_matrix, top_eigenpairs
from .lds import _previous, _rows

__all__ = [
    "EIGEN_K_CAP",
    "FilterBank",
    "FeatureLayout",
    "build_filter_bank",
    "featurize_online",
    "featurize_batch",
    "featurize_batch_naive",
    "augment_alternating",
    "augment_hint",
]

# beyond this many filters, double-precision eigenvectors of the moment
# matrix are noise for every practical horizon; deeper banks must use the
# ode method
EIGEN_K_CAP = 40

_SIGMA_MIN = np.finfo(float).tiny


@dataclass(frozen=True)
class FilterBank:
    """k filters of length `horizon`, the rows of ``phis``, with their eigenvalue scalings.

    ``scaled_filters[j] = sigmas[j]**0.25 * phis[j]`` is derived. Eigenvalues
    are clamped to the smallest positive normal float so quarter powers
    stay finite; values at or below ``NOISE_FLOOR`` mark filters whose
    shapes are numerically unreliable (eigen/hilbert methods).

    ``lambdas`` and ``sigma_extrapolated`` are populated by the ode method
    only: operator eigenvalues per filter, and which sigmas were filled in
    by geometric extrapolation rather than matched to the moment matrix.
    """

    phis: np.ndarray
    sigmas: np.ndarray
    method: str
    lambdas: Optional[np.ndarray] = None
    sigma_extrapolated: Optional[np.ndarray] = None
    scaled_filters: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        phis, sigmas = self.phis, self.sigmas
        if np.ndim(phis) != 2:
            raise ValueError(f"phis must be 2-D (filter, time), got shape {np.shape(phis)}")
        if len(sigmas) != len(phis):
            raise ValueError(f"{len(sigmas)} sigmas for {len(phis)} filters")
        object.__setattr__(self, "scaled_filters", sigmas[:, None] ** 0.25 * phis)

    @property
    def k(self) -> int:
        return self.phis.shape[0]

    @property
    def horizon(self) -> int:
        return self.phis.shape[1]

    @cached_property
    def spectrum(self) -> np.ndarray:
        """rfft of the scaled filters, zero-padded to the least power of two >= 2T-1; read-only."""
        spec = np.fft.rfft(self.scaled_filters, 1 << max(2 * self.horizon - 2, 1).bit_length())
        spec.flags.writeable = False
        return spec


@dataclass(frozen=True)
class FeatureLayout:
    """Block structure of a feature vector; the one place its columns are fixed."""

    n: int
    k: int
    m: int

    @property
    def include_y(self) -> bool:
        return self.m > 0

    @property
    def width(self) -> int:
        return self.n * self.k + 2 * self.n + self.m

    @property
    def conv_blocks(self) -> slice:
        """Columns of all k convolution blocks."""
        return slice(0, self.n * self.k)

    def conv_block(self, j: int) -> slice:
        """Columns of the j-th (0-based) filter's convolution block."""
        return slice(j * self.n, (j + 1) * self.n)

    @property
    def x_prev_block(self) -> slice:
        return slice(self.n * self.k, self.n * self.k + self.n)

    @property
    def x_block(self) -> slice:
        return slice(self.n * self.k + self.n, self.n * self.k + 2 * self.n)

    @property
    def y_block(self) -> slice:
        if not self.include_y:
            raise ValueError("layout has no trailing output block")
        return slice(self.n * self.k + 2 * self.n, self.width)


def _apply(matrix: np.ndarray, features) -> np.ndarray:
    """An (m, width) prediction matrix applied to one feature row or a (T, width) stack.

    The one product of every predictor: a 1-D row gives ``matrix @ row``,
    a stack ``stack @ matrix.T``. A wrong width or dimension count, or a
    non-finite entry, raises ``ValueError`` naming ``features``.
    """
    row = np.ndim(features) == 1
    rows = _rows(np.reshape(features, (1, -1)) if row else features, "features")
    if rows.shape[1] != matrix.shape[1]:
        raise ValueError(f"features have width {rows.shape[1]}, the matrix takes {matrix.shape[1]}")
    return matrix @ rows[0] if row else rows @ matrix.T


def _eigen_bank(T: int, k: int, method: str) -> FilterBank:
    spec = top_eigenpairs((build_hankel if method == "eigen" else hilbert_matrix)(T), k)
    sig = np.clip(spec.sigmas, _SIGMA_MIN, None)
    return FilterBank(phis=spec.phis.T.copy(), sigmas=sig, method=method)


def build_filter_bank(T: int, k: int, method: str = "eigen") -> FilterBank:
    """Build a bank of k prediction filters of length T.

    Methods: ``eigen`` (top eigenvectors of the moment Hankel matrix,
    k capped at min(T, 40)), ``hilbert`` (eigenvectors of the matrix with
    entries 1/(i+j-1), same cap), ``ode`` (stable tridiagonal-operator
    filters, any k up to T).
    """
    _check_integer("T", T)
    _check_integer("k", k)
    if T < 1:
        raise ValueError(f"horizon must be positive, got {T}")
    if k < 1:
        raise ValueError(f"filter count must be positive, got {k}")
    if method in ("eigen", "hilbert"):
        cap = min(T, EIGEN_K_CAP)
        if k > cap:
            raise ValueError(
                f"method '{method}' supports at most {cap} filters at T={T} "
                f"(requested {k}); use method 'ode' for deeper banks"
            )
        return _eigen_bank(T, k, method)
    if method == "ode":
        from . import ode

        return ode.ode_filter_bank(T, k)
    raise ValueError(f"unknown filter method '{method}'")


def _feature_rows(layout: FeatureLayout, conv, x_prev, x, y_prev=None, out=None) -> np.ndarray:
    """Rows ``[conv | x_{t-1} | x_t | y_{t-1}]``, one per row of ``x``; other blocks may be 1-D.

    Written into ``out`` when it is given, else into a new array. With
    ``conv`` None the convolution blocks are left as the caller wrote them.
    """
    if out is None:
        out = np.empty((len(x), layout.width))
    if conv is not None:
        out[:, layout.conv_blocks] = conv
    out[:, layout.x_prev_block] = x_prev
    out[:, layout.x_block] = x
    if layout.include_y:
        out[:, layout.y_block] = y_prev
    return out


def _direct_conv(xs: np.ndarray, bank: FilterBank, t: int) -> np.ndarray:
    """Convolution blocks at step t by direct summation over x_{t-1}, x_{t-2}, ..."""
    depth = min(t - 1, bank.horizon - 1)
    past = xs[t - 2 :: -1][:depth]
    return (bank.scaled_filters[:, :depth] @ past).ravel()


def featurize_online(x_history: np.ndarray, y_prev: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Features at the current step from inputs x_1..x_t and the last output.

    ``x_history`` is (t, n) with the current input last; inputs before
    time 1 are treated as zero. ``y_prev`` is 1-D (a scalar is one
    coordinate). Returns a row laid out by ``FeatureLayout(n, bank.k, len(y_prev))``.
    """
    xs = _rows(x_history, "inputs")
    t, n = xs.shape
    if t < 1:
        raise ValueError("x_history must contain at least the current input")
    if np.ndim(y_prev) > 1:
        raise ValueError(f"y_prev must be 1-D (coordinates), got shape {np.shape(y_prev)}")
    y_prev = _rows(np.reshape(y_prev, (1, -1)), "outputs", first_step=t - 1)
    layout = FeatureLayout(n=n, k=bank.k, m=y_prev.shape[1])
    x_prev = xs[-2] if t >= 2 else 0.0
    return _feature_rows(layout, _direct_conv(xs, bank, t), x_prev, xs[-1:], y_prev)[0]


def _conv_blocks_fft(xs: np.ndarray, spec_f: np.ndarray, out: np.ndarray) -> None:
    """Write every step's convolution blocks into ``out`` (T, k*n), a group of filters at a time.

    The inputs are transformed once at the length of ``spec_f``, the bank's
    ``spectrum``; each group of ``max(1, 8 // n)`` filters takes one
    ``irfft`` of at most ``max(8, n)`` rows of N values, so the transient is a few such blocks.
    """
    T, n = xs.shape
    size = 2 * (spec_f.shape[1] - 1)
    spec_x = np.fft.rfft(xs.T, size)
    out[0] = 0.0
    group = max(1, 8 // n)  # pocketfft transforms rows apart; 64 rows, out of cache, ran slower
    for j in range(0, len(spec_f), group):
        # row g*n + i is sum_u filt[j + g, u] * x[s - u, i]; feature time t picks s = t-2
        c = np.fft.irfft(spec_f[j : j + group, None] * spec_x, size).reshape(-1, size)
        out[1:, j * n : j * n + len(c)] = c[:, : T - 1].T


def _batch_inputs(inputs: np.ndarray, bank: FilterBank) -> np.ndarray:
    xs = _rows(inputs, "inputs")  # an FFT would smear a non-finite one over every step
    if xs.shape[0] != bank.horizon:
        raise ValueError(
            f"input length {xs.shape[0]} does not match bank horizon {bank.horizon}"
        )
    return xs


def featurize_batch(
    inputs: np.ndarray,
    bank: FilterBank,
    y_prev: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Features for all time steps in one pass (FFT convolutions).

    Returns one row per step, laid out by ``FeatureLayout(n, bank.k, m)``,
    in ``out`` when it is given; ``y_prev``, the T previous outputs (row 0
    for step 1), fills the trailing block, else m is 0. The convolutions
    stream in a few filters at a time from ``bank.spectrum``, so the
    transient is a few length-2T rows per input coordinate. A non-finite
    input or ``y_prev`` raises ``ValueError`` naming its step and column; a
    misshapen ``y_prev`` or ``out`` raises it by name.
    """
    xs = _batch_inputs(inputs, bank)
    T, n = xs.shape
    if y_prev is not None:
        y_prev = _rows(y_prev, "y_prev")
        if len(y_prev) != T:
            raise ValueError(f"y_prev has {len(y_prev)} rows, the inputs have {T}")
    layout = FeatureLayout(n=n, k=bank.k, m=0 if y_prev is None else y_prev.shape[1])
    if out is None:
        out = np.empty((T, layout.width))
    elif np.shape(out) != (T, layout.width):
        raise ValueError(f"out has shape {np.shape(out)}, the features need {(T, layout.width)}")
    _conv_blocks_fft(xs, bank.spectrum, out[:, layout.conv_blocks])
    return _feature_rows(layout, None, _previous(xs), xs, y_prev, out)


def featurize_batch_naive(inputs: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Direct-summation reference path for the FFT featurizer."""
    xs = _batch_inputs(inputs, bank)
    conv = np.array([_direct_conv(xs, bank, t) for t in range(1, len(xs) + 1)])
    return _feature_rows(FeatureLayout(n=xs.shape[1], k=bank.k, m=0), conv, _previous(xs), xs)


def augment_alternating(inputs: np.ndarray) -> np.ndarray:
    """Append sign-alternating copies: x'_t = [x_t, (-1)^t x_t], t from 1."""
    xs = _rows(inputs, "inputs")
    signs = np.where(np.arange(1, xs.shape[0] + 1) % 2 == 1, -1.0, 1.0)
    return np.hstack([xs, signs[:, None] * xs])


def augment_hint(inputs: np.ndarray, hint: np.ndarray) -> np.ndarray:
    """Prepend a time-0 impulse carrying a hidden-state hint.

    ``hint`` is 1-D (a scalar is one coordinate). Output has width n + d'
    and length T + 1: the first row is (0_n, hint) and the hint
    coordinates are zero afterwards.
    """
    xs = _rows(inputs, "inputs")
    if np.ndim(hint) > 1:
        raise ValueError(f"hint must be 1-D (coordinates), got shape {np.shape(hint)}")
    hint = _rows(np.reshape(hint, (1, -1)), "hint", first_step=0)[0]
    T, n = xs.shape
    out = np.zeros((T + 1, n + len(hint)))
    out[0, n:] = hint
    out[1:, :n] = xs
    return out

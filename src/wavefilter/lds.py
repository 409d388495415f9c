"""Linear dynamical system simulation and reference predictors.

State-space model with symmetric PSD transition A, stored as its diagonal
``a`` (a symmetric matrix is first rotated to its eigenbasis by
``diagonalize``):

    h_{t+1} = A (h_t + B x_t + eta_t),    y_t = C h_t + D x_t + xi_t,

seeded with h_1 = A h_0 and zero inputs before time 1, which matches the
closed form

    y_t = sum_{i=1}^{T-1} C A^i (B x_{t-i} + eta_{t-i}) + C A^t h_0 + D x_t + xi_t

exactly. The derivative predictor is the comparator map

    yhat_t = y_{t-1} + (CB + D) x_t - D x_{t-1}
             + sum_{i=1}^{T-1} C (A^i - A^{i-1}) B x_{t-i}
             + C (A^t - A^{t-1}) h_0,

which is what the relaxation represents exactly. Note that under the
closed form above its self-prediction gap on noiseless data is
``CB (x_t - x_{t-1})``, not zero; the identity is pinned by tests.

Since ``C (A^i - A^{i-1}) = C (A - I) A^{i-1}``, the comparator at every
step follows from one recursion over a state-like sum:

    yhat_t = y_{t-1} + (CB + D) x_t - D x_{t-1} + C (A - I) s_t,
    s_1 = h_0,    s_{t+1} = A s_t + B x_t,

which ``derivative_predictions`` evaluates for all t in one pass.
The reference ``derivative_predictor`` takes the same map as a difference
of two closed-form outputs r_t (``impulse_response_output``, r_0 = C h_0):

    yhat_t = y_{t-1} + CB (x_t - x_{t-1}) + r_t - r_{t-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._blas import serial_blas

__all__ = [
    "LdsParams",
    "Trajectory",
    "NoiseConfig",
    "InputGenerator",
    "simulate",
    "impulse_response_output",
    "derivative_predictor",
    "derivative_predictions",
    "diagonalize",
    "lipschitz_bound",
    "synthetic_system",
    "block_impulse_inputs",
    "pendulum_simulate",
]

_EIG_TOL = 1e-10
_FIELD_AXES = {"a": ("state",), "b": ("state", "input"), "c": ("output", "state"),
               "d": ("output", "input"), "h0": ("state",)}


@dataclass(frozen=True)
class LdsParams:
    """System matrices (A, B, C, D) and initial hidden state, all finite.

    ``a`` is the diagonal of A, non-empty with entries in [0, 1] (PSD and
    Lyapunov-stable); ``diagonalize`` takes a symmetric matrix instead.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    h0: np.ndarray

    def __post_init__(self) -> None:
        for name, axes in _FIELD_AXES.items():
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(value).all():
                bad = value[~np.isfinite(value)][0]
                raise ValueError(f"{name} holds a non-finite value ({bad})")
            if value.ndim != len(axes):
                if name == "a":
                    raise ValueError(
                        f"a must be the 1-D diagonal of the transition matrix, got shape "
                        f"{value.shape}; rotate a symmetric matrix with diagonalize(a, b, c, d, h0)"
                    )
                raise ValueError(
                    f"{name} must be {len(axes)}-D ({', '.join(axes)}), got shape {value.shape}"
                )
            object.__setattr__(self, name, value)
        a = self.a
        dim = a.shape[0]
        if dim == 0:
            raise ValueError("a must hold at least one state, got length 0")
        if a.min() < -_EIG_TOL or a.max() > 1.0 + _EIG_TOL:
            raise ValueError(
                f"transition eigenvalues must lie in [0, 1], got range "
                f"[{a.min():.3e}, {a.max():.3e}]"
            )
        if self.b.shape[0] != dim or self.c.shape[1] != dim or len(self.h0) != dim:
            raise ValueError("state dimension mismatch among A, B, C, h0")
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise ValueError("D must be (output dim, input dim)")

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]

    @property
    def output_dim(self) -> int:
        return self.c.shape[0]

    @property
    def r_theta(self) -> float:
        """Smallest admissible norm radius for these parameters."""
        return max(
            np.linalg.norm(self.b),
            np.linalg.norm(self.c),
            np.linalg.norm(self.d),
            np.linalg.norm(self.h0),
        )


@dataclass(frozen=True)
class NoiseConfig:
    """Isotropic Gaussian process/observation noise with a fixed seed."""

    process_std: float = 0.0
    observation_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("process_std", "observation_std"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        object.__setattr__(self, "seed", _count("seed", self.seed))


def _previous(rows: np.ndarray) -> np.ndarray:
    """Rows shifted one step later: row t holds row t-1, and row 0 is zero."""
    out = np.zeros_like(rows)
    out[1:] = rows[:-1]
    return out


def _count(name: str, value, least: float = 0, most: Optional[int] = None) -> int:
    """``value`` as an int in ``[least, most]``: the one gate for counts, horizons and steps.

    A ``bool`` or other non-integer (numpy integers pass), or a value out of range, raises
    ``ValueError`` naming ``name``; a caller that words its own bound passes ``least=-inf``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least or most is not None and value > most:
        bound = f"at least {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _rows(values, name: str, first_step: int = 1) -> np.ndarray:
    """``values`` as a finite float (time, coordinates) array, row 0 being step ``first_step``.

    The one gate for time series: any other dimension count, or a
    non-finite entry, raises ``ValueError`` naming ``name`` (and the entry's
    step and column). A 1-D array is rejected, not read as one step.
    """
    rows = np.asarray(values, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"{name} must be 2-D (time, coordinates), got shape {rows.shape}")
    finite = np.isfinite(rows)
    if not finite.all():
        t, i = np.argwhere(~finite)[0]
        raise ValueError(
            f"{name} hold a non-finite value ({rows[t, i]}) at step {t + first_step}, "
            f"column {i + 1} (both 1-based)"
        )
    return rows


def _overflow_safe(norm: Callable[[np.ndarray], float], rows: np.ndarray) -> float:
    """``norm(rows)``, redone on ``rows`` over their largest magnitude if it overflows.

    ``norm`` must scale with its argument: the result is finite whenever the norm is.
    """
    with np.errstate(over="ignore"):
        value = norm(rows)
    if np.isfinite(value):
        return value
    peak = float(np.abs(rows).max())
    return peak * norm(rows / peak)


def _max_row_norm(rows: np.ndarray, steps: bool = False) -> float:
    """Largest Euclidean norm of ``rows`` (with ``steps``, of ``rows - _previous(rows)``)."""

    def largest(r: np.ndarray) -> float:
        r = r - _previous(r) if steps else r
        return float(np.linalg.norm(r, axis=1).max(initial=0.0))

    return _overflow_safe(largest, rows)


@dataclass(frozen=True)
class Trajectory:
    """Aligned input/output sequences, finite only; their scale bounds r_x, l_y are derived."""

    inputs: np.ndarray
    outputs: np.ndarray
    r_x: float = field(init=False)
    l_y: float = field(init=False)

    def __post_init__(self) -> None:
        inputs, outputs = _rows(self.inputs, "inputs"), _rows(self.outputs, "outputs")
        if inputs.shape[0] != outputs.shape[0]:
            raise ValueError("inputs and outputs must have equal length")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "r_x", _max_row_norm(inputs))
        object.__setattr__(self, "l_y", _max_row_norm(outputs, steps=True))

    @property
    def length(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.outputs.shape[1]

    def output_differences(self) -> np.ndarray:
        """y_t - y_{t-1} with y_0 = 0."""
        return self.outputs - _previous(self.outputs)


@serial_blas
def simulate(
    params: LdsParams, inputs: np.ndarray, noise: Optional[NoiseConfig] = None
) -> Trajectory:
    """Run the recurrence over the input sequence; deterministic per seed.

    The noise is one draw of standard normals, T rows of the active blocks:
    the m observation values of step t, then its d process values. These
    are the values that drawing each block at its own step gives, in the
    same order. Only the state recurrence runs step by step. ``B x_t``,
    ``C h_t`` and ``D x_t`` are stacked matrix-vector products
    (``np.matmul`` of a matrix with a (T, w, 1) stack), which run the gemv
    of ``M @ v`` on each row. A 2-D product such as ``states @ C.T`` runs
    gemm instead, which sums in another order and moves the outputs in
    their last bits.
    """
    xs = _rows(inputs, "inputs")
    T, n = xs.shape
    if T < 1:
        raise ValueError("need at least one input step")
    if n != params.input_dim:
        raise ValueError(f"input width {n} does not match system ({params.input_dim})")
    m, d = params.output_dim, params.state_dim
    pstd = noise.process_std if noise else 0.0
    ostd = noise.observation_std if noise else 0.0
    blocks = (m if ostd else 0, d if pstd else 0)
    if any(blocks):
        draws = np.random.default_rng(noise.seed).standard_normal((T, sum(blocks)))
    else:
        draws = np.empty((T, 0))
    observation, process = np.hsplit(draws, [blocks[0]])  # views; an inactive one is empty
    observation *= ostd
    process *= pstd

    def stacked(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.matmul(matrix, rows[:, :, None])[:, :, 0]

    states = stacked(params.b, xs)  # row t holds B x_t until h_t replaces it
    a = params.a
    h = a * params.h0
    for t in range(T):
        drive = h + states[t]
        states[t] = h
        if pstd:
            drive += process[t]
        h = a * drive
    ys = stacked(params.c, states)
    ys += stacked(params.d, xs)
    if ostd:
        ys += observation
    return Trajectory(inputs=xs, outputs=ys)


def impulse_response_output(params: LdsParams, inputs: np.ndarray, t: int) -> np.ndarray:
    """Closed-form noiseless output at step t (1-based); recurrence oracle."""
    xs = _rows(inputs, "inputs")
    t = _count("t", t, least=1, most=xs.shape[0])
    if xs.shape[1] != params.input_dim:
        raise ValueError("input width does not match system")
    acc = params.d @ xs[t - 1]
    apow = params.a  # the diagonal of A^i
    for i in range(1, t):
        acc = acc + params.c @ (apow * (params.b @ xs[t - 1 - i]))
        apow = apow * params.a
    return acc + params.c @ (apow * params.h0)


def derivative_predictor(params: LdsParams, trajectory: Trajectory, t: int) -> np.ndarray:
    """Comparator prediction at t: y_{t-1} + CB (x_t - x_{t-1}) + r_t - r_{t-1}."""
    t = _count("t", t, least=1, most=trajectory.length)
    if trajectory.input_dim != params.input_dim or trajectory.output_dim != params.output_dim:
        raise ValueError("trajectory dimensions do not match system")
    xs, ys = trajectory.inputs, trajectory.outputs
    if t >= 2:
        y_prev, x_prev = ys[t - 2], xs[t - 2]
        r_prev = impulse_response_output(params, xs, t - 1)
    else:
        y_prev, x_prev = np.zeros(params.output_dim), np.zeros(params.input_dim)
        r_prev = params.c @ params.h0
    step = params.c @ (params.b @ (xs[t - 1] - x_prev))
    return y_prev + step + (impulse_response_output(params, xs, t) - r_prev)


@serial_blas
def derivative_predictions(params: LdsParams, trajectory: Trajectory) -> np.ndarray:
    """Comparator predictions at every step, one row per t (shape (T, m)).

    Evaluates the recursion of the module docstring in one pass; agrees
    with ``derivative_predictor`` at each t up to roundoff.
    """
    if trajectory.input_dim != params.input_dim or trajectory.output_dim != params.output_dim:
        raise ValueError("trajectory dimensions do not match system")
    xs = trajectory.inputs
    T = trajectory.length
    bx = xs @ params.b.T
    states = np.empty((T, params.state_dim))
    s = params.h0
    for t in range(T):
        states[t] = s
        s = params.a * s + bx[t]
    c_decay = params.c * (params.a - 1.0)  # C (A - I)
    return (
        _previous(trajectory.outputs)
        + xs @ (params.c @ params.b + params.d).T
        - _previous(xs) @ params.d.T
        + states @ c_decay.T
    )


def diagonalize(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, h0: np.ndarray
) -> LdsParams:
    """The system with symmetric transition matrix ``a``, rotated to A's eigenbasis.

    With A = U diag(eigs) U^T the state becomes U^T h: B, C and h0 turn
    into U^T B, C U and U^T h0, and the outputs stay the same.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.allclose(a, a.T, atol=1e-12):
        raise ValueError(f"a must be a finite, square, symmetric matrix, got shape {a.shape}")
    b, c, h0 = (np.asarray(value, dtype=float) for value in (b, c, h0))
    for name, value, axis in (("b", b, 0), ("c", c, -1), ("h0", h0, 0)):
        if value.ndim == 0 or value.shape[axis] != len(a):
            raise ValueError(f"{name} has shape {value.shape}, but a has {len(a)} states")
    eigs, u = np.linalg.eigh(a)
    return LdsParams(a=eigs, b=u.T @ b, c=c @ u, d=d, h0=u.T @ h0)


def lipschitz_bound(params: LdsParams, r_x: float) -> float:
    """Worst-case one-step output change of the noiseless system."""
    bn = np.linalg.norm(params.b)
    cn = np.linalg.norm(params.c)
    dn = np.linalg.norm(params.d)
    return (2.0 * bn * cn + 2.0 * dn) * r_x + cn * np.linalg.norm(params.h0)


@dataclass(frozen=True)
class InputGenerator:
    """Seeded description of an input process for benchmark systems."""

    kind: str  # 'gaussian' | 'block_impulse'

    def generate(self, T: int, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal((T, n))
        if self.kind == "block_impulse":
            return block_impulse_inputs(T, n, rng)
        raise ValueError(f"unknown input generator '{self.kind}'")


def block_impulse_inputs(
    T: int, n: int, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """Piecewise-constant impulses, uniform in [-scale, scale]: on for 20 steps in every 80."""
    xs = np.zeros((_count("T", T), _count("n", n)))
    for t in range(0, T, 80):
        xs[t : t + 20] = rng.uniform(-scale, scale, n)
    return xs


def synthetic_system(name: str, seed: int = 0) -> tuple[LdsParams, InputGenerator]:
    """Named benchmark systems.

    ``siso_hard``: two-state single-channel system with an almost-unit
    mode (0.999) next to a fast one (0.5), driven by unit Gaussians.
    ``mimo_10``: ten-state system with transitions 0.0 .. 0.9, identity
    input map, Gaussian observation matrix, block-impulse inputs.
    """
    if name == "siso_hard":
        params = LdsParams(
            a=np.array([0.999, 0.5]),
            b=np.ones((2, 1)),
            c=np.ones((1, 2)),
            d=np.zeros((1, 1)),
            h0=np.zeros(2),
        )
        return params, InputGenerator(kind="gaussian")
    if name == "mimo_10":
        rng = np.random.default_rng([seed, 10])
        params = LdsParams(
            a=np.arange(10) / 10.0,
            b=np.eye(10),
            c=rng.standard_normal((10, 10)),
            d=np.zeros((10, 10)),
            h0=np.zeros(10),
        )
        return params, InputGenerator(kind="block_impulse")
    raise ValueError(f"unknown synthetic system '{name}'")


def pendulum_simulate(
    inputs: np.ndarray, accel_noise_std: float, obs_noise_std: float, seed: int = 0
) -> Trajectory:
    """Forced damped pendulum theta'' = -sin(theta) - 0.1 theta' + u, by RK4 at step 0.01.

    Unit mass, length and gravity, starting at rest at theta = 0. The torque
    of each step plus a Gaussian acceleration disturbance (``accel_noise_std``)
    is held constant within the step; outputs are the angle plus observation
    noise (``obs_noise_std``). Raises ``FloatingPointError`` if it diverges, and
    ``ValueError`` for inputs of no step.
    """
    xs = _rows(inputs, "inputs")
    T = xs.shape[0]
    if T < 1:
        raise ValueError("need at least one input step")
    if xs.shape[1] != 1:
        raise ValueError("pendulum takes a single torque input channel")
    rng = np.random.default_rng(seed)
    dt, damping = 0.01, 0.1
    theta, omega = 0.0, 0.0
    ys = np.zeros((T, 1))
    for t in range(T):
        u = xs[t, 0] + accel_noise_std * rng.standard_normal()

        def rhs(state: np.ndarray) -> np.ndarray:
            return np.array([state[1], -np.sin(state[0]) - damping * state[1] + u])

        s = np.array([theta, omega])
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rhs(s)
            k2 = rhs(s + dt / 2 * k1)
            k3 = rhs(s + dt / 2 * k2)
            k4 = rhs(s + dt * k3)
            s = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        theta, omega = float(s[0]), float(s[1])
        if not (np.isfinite(theta) and np.isfinite(omega)):
            raise FloatingPointError(f"pendulum state diverged at step {t + 1}")
        ys[t, 0] = theta + obs_noise_std * rng.standard_normal()
    return Trajectory(inputs=xs, outputs=ys)

"""Online learning of prediction matrices by projected gradient descent.

The learner maintains a matrix M over the online features and suffers
squared loss against the revealed output each round. The gradient of
``f_t(M) = ||y_t - M x_t||^2`` is ``2 (M x_t - y_t) (x_t)^T``; updates
move along the descent direction and are followed by a Frobenius-ball
projection. By default the trailing output block of M is frozen to the
identity, so the learner predicts the previous output plus a learned
correction. A regularized follow-the-leader variant refits the
least-squares minimizer over the history instead of stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from ._blas import serial_blas
from .filters import EIGEN_K_CAP, FeatureLayout, FilterBank, _apply, featurize_batch
from .lds import LdsParams, Trajectory, _overflow_safe, _previous, _rows, derivative_predictions

__all__ = [
    "OnlineConfig",
    "OnlineState",
    "RegretReport",
    "OnlineRunResult",
    "default_hyperparams",
    "online_features",
    "init_state",
    "predict",
    "update",
    "run_online",
    "ftl_refit_every",
    "run_ftl",
    "regret_vs_best_fixed",
]

_BLOCK = 128  # steps per block of the rolling fit (see _rolling_ridge)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_BLOWN_UP = "non-finite gradient; the learning rate has blown up"
_OVERFLOWED = "the step overflowed the matrix; the learning rate has blown up"


def default_hyperparams(
    T: int,
    r_theta: float,
    r_x: float,
    l_y: float,
    n: int,
) -> tuple[int, float, float]:
    """Theory-shaped hyperparameters (k, R_M, eta).

    k = round(ln(T)^2 * ln(r_theta r_x l_y n)) clamped to [1, 40],
    R_M = r_theta^2 * sqrt(k),
    eta = 1 / (r_x^2 l_y ln(r_theta r_x l_y n) n sqrt(T) ln(T)^4).

    Natural logarithms throughout; T must be at least 2 (ln T divides eta)
    and the scale product must exceed 1.
    """
    if T < 2:
        raise ValueError(f"horizon T={T} is too short: eta divides by ln T, so T >= 2 is needed")
    if min(r_theta, r_x, l_y, n) <= 0:
        raise ValueError("all scale arguments must be positive")
    product = r_theta * r_x * l_y * n
    if product <= 1.0:
        raise ValueError("scale product r_theta*r_x*l_y*n must exceed 1")
    log_scale = math.log(product)
    k = min(max(int(round(math.log(T) ** 2 * log_scale)), 1), EIGEN_K_CAP)
    r_m = r_theta**2 * math.sqrt(k)
    eta = 1.0 / (r_x**2 * l_y * log_scale * n * math.sqrt(T) * math.log(T) ** 4)
    return k, r_m, eta


@dataclass(frozen=True)
class OnlineConfig:
    """Learner settings tied to a filter bank."""

    bank: FilterBank
    eta: Union[float, str] = "auto"
    r_m: float = 10.0
    freeze_y_block: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise ValueError("eta must be a positive float or 'auto'")
        elif not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and positive, got {self.eta!r}")
        if not 0 < self.r_m < math.inf:
            raise ValueError(f"r_m must be finite and positive, got {self.r_m!r}")


@dataclass(frozen=True)
class OnlineState:
    """Prediction matrix of one online run, its layout, config and step size."""

    matrix: np.ndarray
    layout: FeatureLayout
    config: OnlineConfig
    eta: float

    def learned_norm(self) -> float:
        """Frobenius norm over the learned (non-frozen) part of the matrix."""
        if self.config.freeze_y_block:
            return float(np.linalg.norm(self.matrix[:, : self.layout.y_block.start]))
        return float(np.linalg.norm(self.matrix))


@dataclass(frozen=True)
class RegretReport:
    learner_loss: float
    comparator_loss: float
    comparator_kind: str
    regret: float = field(init=False)
    normalized_regret: float = field(init=False)
    horizon: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "regret", self.learner_loss - self.comparator_loss)
        object.__setattr__(self, "normalized_regret", self.regret / self.horizon)


@dataclass(frozen=True)
class OnlineRunResult:
    """Per-step record of one run; its ``report`` is derived from the two loss arrays."""

    predictions: np.ndarray
    losses: np.ndarray
    state: OnlineState
    matrix_norms: np.ndarray
    comparator_losses: np.ndarray
    comparator_kind: str
    report: RegretReport = field(init=False)

    def __post_init__(self) -> None:
        learner, comparator = float(self.losses.sum()), float(self.comparator_losses.sum())
        report = RegretReport(learner, comparator, self.comparator_kind, horizon=len(self.losses))
        object.__setattr__(self, "report", report)


def online_features(trajectory: Trajectory, bank: FilterBank) -> np.ndarray:
    """Full online feature matrix: the batch features followed by the previous output."""
    return featurize_batch(trajectory.inputs, bank, _previous(trajectory.outputs))


def init_state(config: OnlineConfig, n: int, m: int, eta: float) -> OnlineState:
    layout = FeatureLayout(n=n, k=config.bank.k, m=m)
    matrix = np.zeros((m, layout.width))
    if config.freeze_y_block:
        matrix[:, layout.y_block] = np.eye(m)
    return OnlineState(matrix=matrix, layout=layout, config=config, eta=eta)


def predict(state: OnlineState, features: np.ndarray) -> np.ndarray:
    """The state's matrix applied to one feature row or a (T, width) stack."""
    return _apply(state.matrix, features)


def update(state: OnlineState, features: np.ndarray, y_true: np.ndarray) -> OnlineState:
    """One descent step with Frobenius projection; returns the new state."""
    features = np.asarray(features, dtype=float)
    y_true = np.atleast_1d(np.asarray(y_true, dtype=float))
    resid = y_true - predict(state, features)
    return replace(
        state,
        matrix=_descend(state.matrix, features, resid, state.eta, state.config, state.layout),
    )


def _descend(
    matrix: np.ndarray,
    features: np.ndarray,
    resid: np.ndarray,
    eta: float,
    config: OnlineConfig,
    layout: FeatureLayout,
) -> np.ndarray:
    """``matrix`` after one gradient step on the loss of residual ``resid``, projected."""
    with np.errstate(over="ignore"):  # an overflow raises FloatingPointError, not a warning
        grad = -2.0 * np.outer(resid, features)
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(_BLOWN_UP)
        matrix = matrix - eta * grad
    if config.freeze_y_block:
        yb = layout.y_block
        matrix[:, yb] = np.eye(len(resid))
        matrix[:, : yb.start] = _project_ball(matrix[:, : yb.start], config.r_m)
        return matrix
    return _project_ball(matrix, config.r_m)


def _effective_parts(
    trajectory: Trajectory, config: OnlineConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Online features, the learned columns and their targets (frozen: differences)."""
    features = online_features(trajectory, config.bank)
    if config.freeze_y_block:
        learned = features.shape[1] - trajectory.output_dim
        return features, features[:, :learned], trajectory.output_differences()
    return features, features, trajectory.outputs


def _auto_eta(eff_features: np.ndarray, eff_targets: np.ndarray, r_m: float, T: int) -> float:
    """Step size eta = D / (G sqrt(T)) from measured feature/target scales.

    D is the decision-set diameter 2 R_M; G estimates the worst gradient
    norm 2 (R_M F + L) F from root-mean-square feature and target norms.
    """
    f_bar, l_bar = _rms_norm(eff_features), _rms_norm(eff_targets)
    g_hat = 2.0 * (r_m * f_bar + l_bar) * max(f_bar, 1e-12)
    return 2.0 * r_m / (g_hat * math.sqrt(T))


def _rms_norm(rows: np.ndarray) -> float:
    """Root-mean-square row norm, finite whenever it is."""
    return _overflow_safe(lambda r: float(np.sqrt((r**2).sum(axis=1).mean())), rows)


@serial_blas
def run_online(
    trajectory: Trajectory,
    config: OnlineConfig,
    comparator_params: Optional[LdsParams] = None,
) -> OnlineRunResult:
    """Sequential predict/observe/update over a whole trajectory.

    Features are precomputed in one batch pass (the update sequence is
    unchanged). The regret comparator is the best fixed matrix over the
    same decision set, or the derivative predictor of
    ``comparator_params`` when given.
    """
    features, eff_features, eff_targets = _effective_parts(trajectory, config)
    T, m = trajectory.length, trajectory.output_dim
    if config.eta == "auto":
        eta = _auto_eta(eff_features, eff_targets, config.r_m, T)
    else:
        eta = float(config.eta)

    state = init_state(config, trajectory.input_dim, m, eta)
    # The arithmetic of predict/update, in the same order, in place on arrays
    # allocated once. The learned block is its own contiguous array (the
    # whole matrix when nothing is frozen), so its norm is sqrt(flat . flat),
    # as in np.linalg.norm; a frozen run copies it into the full matrix for
    # the next gemv. No gradient entry exceeds 2 ||r|| max|f|, so only a step
    # where that bound nears overflow checks the entries. A norm that
    # overflows is projected as _project_ball does it, by _project_huge.
    frozen, r_m = config.freeze_y_block, config.r_m
    matrix = state.matrix
    learned = state.layout.y_block.start if frozen else matrix.shape[1]
    head = matrix[:, :learned]
    block = head.copy() if frozen else matrix
    flat = block.reshape(-1)
    grad, resid = np.empty_like(block), np.empty(m)
    column = resid[:, None]
    peaks = np.maximum(features.max(axis=1), -features.min(axis=1)).tolist()  # max |f|
    outputs = trajectory.outputs
    predictions = np.zeros((T, m))
    matrix_norms = np.zeros(T)
    with np.errstate(over="ignore"):  # such a norm is projected, not a warning
        for t in range(T):
            f, prediction = features[t], predictions[t]
            matrix.dot(f, out=prediction)
            np.subtract(outputs[t], prediction, out=resid)
            if not 2.0 * math.sqrt(resid.dot(resid)) * peaks[t] < 1e300:
                if not np.isfinite(-2.0 * np.outer(resid, f)).all():
                    raise FloatingPointError(f"{_BLOWN_UP} (step {t + 1})")
            np.multiply(column, f[:learned], out=grad)  # np.outer
            np.multiply(-2.0, grad, out=grad)
            np.multiply(eta, grad, out=grad)
            np.subtract(block, grad, out=block)
            norm = math.sqrt(flat.dot(flat))
            if norm > r_m:
                if math.isfinite(norm):
                    np.multiply(block, r_m / norm, out=block)
                elif np.isfinite(block).all():
                    _project_huge(block, r_m, out=block)
                else:
                    raise FloatingPointError(f"{_OVERFLOWED} (step {t + 1})")
                norm = math.sqrt(flat.dot(flat))
            if frozen:
                np.copyto(head, block)
            matrix_norms[t] = norm
    losses = ((trajectory.outputs - predictions) ** 2).sum(axis=1)

    if comparator_params is not None:
        comp = derivative_predictions(comparator_params, trajectory)
        comp_losses = ((comp - trajectory.outputs) ** 2).sum(axis=1)
        kind = "true-derivative"
    else:
        comp_losses = _best_fixed_losses(eff_features, eff_targets, config.r_m)
        kind = "best-fixed-M"
    return OnlineRunResult(predictions, losses, state, matrix_norms, comp_losses, kind)


def _project_ball(matrix: np.ndarray, r_m: float) -> np.ndarray:
    """``matrix`` scaled back onto the Frobenius ball of radius ``r_m``.

    A norm that overflows is taken scaled by the largest magnitude (see
    ``_project_huge``), so a huge finite matrix lands on the ball, not at 0.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(matrix)
    if not math.isfinite(norm):
        return _project_huge(matrix, r_m)
    return matrix * (r_m / norm) if norm > r_m else matrix


def _project_huge(matrix: np.ndarray, r_m: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Projection of a matrix whose Frobenius norm overflows: ``(M / s) * (r_m / ||M / s||)``.

    ``s`` is the largest magnitude, which bounds ``||M / s||`` by the square
    root of the entry count. An infinite or NaN entry raises
    ``FloatingPointError``.
    """
    peak = float(np.abs(matrix).max())
    if not math.isfinite(peak):
        raise FloatingPointError(_OVERFLOWED)
    unit = np.divide(matrix, peak, out=out)
    return np.multiply(unit, r_m / np.linalg.norm(unit), out=out)


def _rolling_ridge(
    features: np.ndarray,
    targets: np.ndarray,
    ridge: float,
    refit_every: int = 1,
    r_m: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Predictions, final matrix and per-step norms of rolling ridge least squares.

    Step t predicts ``targets[t]`` with the current matrix (zero at first),
    then joins the fit. Refits at steps 0, ``refit_every``, ... and the
    last step make the ridge minimizer ``W`` the current matrix; given
    ``r_m`` it is projected onto its Frobenius ball and its norm fills the
    per-step norms. The ridge must be positive, since the fit starts from
    an empty history, and finite, or the fit would stay at zero.

    The fit is block recursive least squares over the inverse regularized
    Gram ``P = (ridge I + sum f f^T)^-1``. Step 0 is one block, and the
    rest are blocks of ``_BLOCK`` steps rounded down to a multiple of the
    cadence, so that each ends on a refit. For block rows ``F``, ``Y``:
    ``U = F P``, ``C = chol(S)`` with ``S = I + U F^T``,
    ``[Z | V] = C^-1 [Y - F W^T | U]``, then ``W += Z^T V`` and
    ``P -= V^T V``. The fit after the block's step r is
    ``W + Z[:r+1]^T V[:r+1]``; since ``F V^T`` equals ``C`` below the
    diagonal, the predictions made with those in-block fits are
    ``F W^T + (C * mask) Z``, and prefix sums of ``(Z Z^T) * (V V^T)`` give
    their norms. Every pivot ``C_ii`` is at least 1 in exact arithmetic,
    and rounding moves it by about ``n eps max(S_ii)``: rows that reach
    where ``P`` is still of order 1/ridge make that large, so a block
    whose factor keeps fewer than half the digits is halved. numpy's BLAS
    runs every product and solve, on one thread inside the entry points
    (``_blas.serial_blas``): scipy ships its own OpenBLAS and thread pool.
    """
    if not 0 < ridge < math.inf:
        reason = "is not positive: step 0 is singular" if ridge <= 0 else "is not finite"
        raise np.linalg.LinAlgError(f"ridge {ridge!r} {reason}")
    (T, width), m = features.shape, targets.shape[1]
    inverse = np.eye(width) / ridge
    fit = np.zeros((m, width))
    matrix, norm = np.zeros((m, width)), 0.0  # the matrix in force and its norm
    predictions = np.zeros((T, m))
    norms = None if r_m is None else np.zeros(T)
    block = max(_BLOCK // refit_every, 1) * refit_every
    starts = list(range(1, T, block))
    pending = list(zip([0, *starts], [*starts, T]))[::-1]  # the next block is last
    while pending:
        start, stop = pending.pop()
        f, y = features[start:stop], targets[start:stop]
        n = stop - start
        gain = f @ inverse
        system = np.eye(n) + gain @ f.T
        try:
            chol = np.linalg.cholesky(system)
            precise = n * _SQRT_EPS * system.diagonal().max() <= chol.diagonal().min() ** 2
        except np.linalg.LinAlgError:
            if n == 1:
                raise np.linalg.LinAlgError(
                    f"step {start}: the inverse Gram is no longer positive definite; "
                    f"ridge {ridge!r} is below the rounding of the features' Gram"
                ) from None
            precise = False
        if n > 1 and not precise:
            middle = (start + stop) // 2
            pending += [(middle, stop), (start, middle)]
            continue
        steps = np.arange(start, stop)
        refit = (steps % refit_every == 0) | (steps == T - 1)
        # the last refit at or before each step, and the one in force at its prediction
        last = np.maximum.accumulate(np.where(refit, np.arange(n), -1))
        in_force = np.append(-1, last)[:n]
        fitted = f @ fit.T
        zv = np.linalg.solve(chol, np.hstack([y - fitted, gain]))
        z, v = zv[:, :m], zv[:, m:]
        mask = np.arange(n) <= in_force[:, None]
        refitted = fitted + (chol * mask) @ z  # by this block's refits, unprojected
        scales = np.ones(n)
        if r_m is not None:
            cross = np.einsum("ij,ij->i", z, v @ fit.T)  # <W, z_i v_i^T>
            gram = (z @ z.T) * (v @ v.T)
            growth = 2.0 * (cross + np.tril(gram, -1).sum(axis=1)) + np.diag(gram)
            fit_norms = np.sqrt(np.maximum(np.vdot(fit, fit) + np.cumsum(growth), 0.0))
            scales = r_m / np.maximum(fit_norms, r_m)
            norms[start:stop] = np.append(np.minimum(fit_norms, r_m), norm)[last]
            norm = norms[stop - 1]
        early = int(np.sum(in_force < 0))  # steps before this block's first refit
        predictions[start : start + early] = f[:early] @ matrix.T
        predictions[start + early : stop] = scales[in_force[early:], None] * refitted[early:]
        adopted = last[-1] + 1  # rows up to this block's last refit
        fit += z[:adopted].T @ v[:adopted]
        if adopted:
            matrix = scales[adopted - 1] * fit
        fit += z[adopted:].T @ v[adopted:]
        inverse -= v.T @ v
    return predictions, matrix, norms


def ftl_refit_every(T: int) -> int:
    """Steps between follow-the-leader refits over a horizon of T steps.

    Every step up to T = 2000 and every 10 steps beyond. The rolling fit
    itself is updated at every step; the cadence only sets how often the
    learner adopts it, and FTL results beyond T = 2000 depend on it.
    """
    return 1 if T <= 2000 else 10


@serial_blas
def run_ftl(
    trajectory: Trajectory, config: OnlineConfig, ridge: float = 1.0
) -> OnlineRunResult:
    """Follow-the-leader run: periodic least-squares refits on the prefix.

    Refits happen every ``ftl_refit_every(T)`` steps and at the last step.
    The output block follows the freeze convention of the config (frozen:
    fit output differences). The comparator is the best fixed matrix. The
    ridge must be positive and finite; any other raises ``LinAlgError`` before step 0.
    """
    features, eff_features, eff_targets = _effective_parts(trajectory, config)
    state = init_state(config, trajectory.input_dim, trajectory.output_dim, eta=0.0)
    predictions, matrix, matrix_norms = _rolling_ridge(
        eff_features, eff_targets, ridge, ftl_refit_every(trajectory.length), config.r_m
    )
    if config.freeze_y_block:
        predictions += features[:, state.layout.y_block]
    losses = ((trajectory.outputs - predictions) ** 2).sum(axis=1)
    state.matrix[:, : eff_features.shape[1]] = matrix
    comp_losses = _best_fixed_losses(eff_features, eff_targets, config.r_m)
    return OnlineRunResult(predictions, losses, state, matrix_norms, comp_losses, "best-fixed-M")


def _constrained_least_squares(
    features: np.ndarray, targets: np.ndarray, r_m: float
) -> np.ndarray:
    """Minimize total squared error subject to a Frobenius-ball constraint.

    One eigendecomposition ``F^T F = V diag(e) V^T`` comes first: with
    ``c = V^T F^T Y`` the ridge solution is ``V (c / (e + lam))``, and its norm
    ``||c / (e + lam)||`` falls as ``lam`` grows. If that norm at the lowest
    multiplier, without the null-space coordinates that hold only rounding,
    exceeds the radius, the minimum-norm solution leaves the ball too;
    otherwise ``lstsq`` decides. A binding ball is met by bisecting the
    multiplier (the trust-region characterization, Moré & Sorensen 1983).
    """
    if r_m == 0.0:
        return np.zeros((targets.shape[1], features.shape[1]))
    evals, evecs = np.linalg.eigh(features.T @ features)
    evals = np.maximum(evals, 0.0)  # the Gram is PSD; clip rounding below zero
    coords = evecs.T @ (features.T @ targets)
    lo, hi = 1e-14, 1e14
    ranged = evals > evals.max(initial=0.0) * len(evals) * np.finfo(float).eps
    if np.linalg.norm(coords[ranged] / (evals[ranged] + lo)[:, None]) <= r_m:
        matrix, *_ = np.linalg.lstsq(features, targets, rcond=None)
        if np.linalg.norm(matrix) <= r_m:
            return matrix.T
    for _ in range(200):
        lam = math.sqrt(lo * hi)
        scaled = coords / (evals + lam)[:, None]
        if np.linalg.norm(scaled) > r_m:
            lo = lam
        else:
            hi = lam
    return (evecs @ scaled).T


def _best_fixed_losses(
    features: np.ndarray, targets: np.ndarray, r_m: float
) -> np.ndarray:
    """Per-step losses of the best fixed matrix in the Frobenius ball."""
    matrix = _constrained_least_squares(features, targets, r_m)
    return ((targets - features @ matrix.T) ** 2).sum(axis=1)


@serial_blas
def regret_vs_best_fixed(
    features: np.ndarray, targets: np.ndarray, r_m: float
) -> float:
    """Loss of the best fixed matrix in the Frobenius ball, in hindsight.

    A non-finite feature or target raises ``ValueError`` naming its step
    and column; a length mismatch raises it naming both lengths.
    """
    features, targets = _rows(features, "features"), _rows(targets, "targets")
    if len(features) != len(targets):
        raise ValueError(f"features have {len(features)} steps, the targets {len(targets)}")
    return float(_best_fixed_losses(features, targets, r_m).sum())

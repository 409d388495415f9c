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
from .filters import FeatureLayout, FilterBank, _apply, featurize_batch
from .lds import (LdsParams, Trajectory, _overflow_safe, _previous, _rows,
                  derivative_predictions)

__all__ = [
    "OnlineConfig",
    "OnlineState",
    "RegretReport",
    "OnlineRunResult",
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
_OGD_BLOCK = 64  # steps per block of run_online (see _unprojected_steps)
_EPS = float(np.finfo(float).eps)
_SQRT_EPS = math.sqrt(_EPS)
_BLOWN_UP = "non-finite gradient; the learning rate has blown up"
_OVERFLOWED = "the step overflowed the matrix; the learning rate has blown up"


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
    """The state after one projected descent step on one feature row and its m-value target."""
    m, width = state.matrix.shape
    if np.ndim(features) != 1 or np.ndim(y_true) > 1 or np.size(y_true) != m:
        raise ValueError(f"features must be a row of width {width} and y_true a target of width "
                         f"{m}, got shapes {np.shape(features)} and {np.shape(y_true)}")
    y_true = _rows(np.reshape(y_true, (1, m)), "y_true")[0]
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

    Features are precomputed in one batch pass, and the steps advance in
    blocks of ``_OGD_BLOCK`` (64). A block is solved at once, by one
    unit lower-triangular solve over its rows (``_unprojected_steps``),
    when three guards hold: the solve needs no pivoting, every residual is
    finite with its gradient entries below overflow, and every step's norm
    stays inside the ball, so no step projects. Any other block runs step
    by step, with the arithmetic of ``predict``/``update`` in the same
    order: the projection, the overflow handling and the
    ``FloatingPointError`` that names its step are theirs, bit for bit.
    After a block that fell back, the next blocks also run step by step
    until the norm is at most half the radius. A solved block's
    predictions, losses, norms and matrix match the step-by-step loop to
    rounding (within 1e-12 of the largest value). The regret comparator is
    the best fixed matrix over the same decision set, or the derivative
    predictor of ``comparator_params`` when given.
    """
    features, eff_features, eff_targets = _effective_parts(trajectory, config)
    T, m = trajectory.length, trajectory.output_dim
    if config.eta == "auto":
        eta = _auto_eta(eff_features, eff_targets, config.r_m, T)
    else:
        eta = float(config.eta)

    state = init_state(config, trajectory.input_dim, m, eta)
    # The step-by-step path does the arithmetic of predict/update, in the
    # same order, in place on arrays allocated once. The learned block is its
    # own contiguous array (the whole matrix when nothing is frozen), so its
    # norm is sqrt(flat . flat), as in np.linalg.norm; a frozen run copies it
    # into the full matrix for the next gemv. No gradient entry exceeds
    # 2 ||r|| max|f|, so only a step where that bound nears overflow checks
    # the entries. A norm that overflows is projected as _project_ball does
    # it, by _project_huge.
    frozen, r_m = config.freeze_y_block, config.r_m
    matrix = state.matrix
    learned = state.layout.y_block.start if frozen else matrix.shape[1]
    head = matrix[:, :learned]
    block = head.copy() if frozen else matrix
    flat = block.reshape(-1)
    grad, resid = np.empty_like(block), np.empty(m)
    column = resid[:, None]
    peaks = np.maximum(features.max(axis=1), -features.min(axis=1))  # max |f|
    peak_list = peaks.tolist()
    outputs = trajectory.outputs
    predictions = np.zeros((T, m))
    matrix_norms = np.zeros(T)
    solved = True  # whether the last block ran as one solve
    for start in range(0, T, _OGD_BLOCK):
        stop = min(start + _OGD_BLOCK, T)
        steps = None
        # after a block that fell back the ball mostly binds: wait for the norm to halve
        if solved or matrix_norms[start - 1] <= 0.5 * r_m:
            steps = _unprojected_steps(block, eff_features[start:stop], eff_targets[start:stop],
                                       peaks[start:stop], eta, r_m)
        solved = steps is not None
        if solved:
            resids, matrix_norms[start:stop], block[...] = steps
            np.subtract(outputs[start:stop], resids, out=predictions[start:stop])
            if frozen:
                np.copyto(head, block)
            continue
        with np.errstate(over="ignore"):  # such a norm is projected, not a warning
            for t in range(start, stop):
                f, prediction = features[t], predictions[t]
                matrix.dot(f, out=prediction)
                np.subtract(outputs[t], prediction, out=resid)
                if not 2.0 * math.sqrt(resid.dot(resid)) * peak_list[t] < 1e300:
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


def _unprojected_steps(
    matrix: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    peaks: np.ndarray,
    eta: float,
    r_m: float,
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Residuals, per-step norms and final matrix of OGD steps that do not project.

    ``matrix`` is the learned block before the first of the ``features``
    rows, whose ``targets`` it predicts (the output differences when the
    output block is frozen). Without projection, step i's matrix is
    ``M_0 + 2 eta sum_{j<i} r_j f_j^T``, so with ``G = F F^T`` the residuals
    solve the unit lower-triangular system
    ``(I + 2 eta tril(G, -1)) R = Y - F M_0^T``, and the final matrix is
    ``M_0 + 2 eta R^T F``. Prefix sums of
    ``||M_{i+1}||^2 = ||M_i||^2 + 4 eta r_i . (M_i f_i) + (2 eta ||r_i|| ||f_i||)^2``,
    with ``M_i f_i = y_i - r_i``, give the norms. None unless three guards hold:

    - no pivoting: ``2 eta max|tril(G, -1)| <= 1``, so the partial pivoting
      of ``np.linalg.solve``'s LU keeps every unit diagonal pivot and the
      solve is the forward substitution, on numpy's BLAS;
    - finite residuals: every ``2 ||r_i|| max|f_i|`` is below 1e300, the
      step-by-step path's bound on a gradient entry (``peaks`` is max|f_i|
      over the full feature row);
    - inside the ball: every norm, raised by the rounding bound of its
      prefix sum (block length times eps times the sum of the expansion's
      absolute terms, which must be finite), stays at most ``r_m``, so no
      step would project, and a norm that overflows is never taken for one
      inside a ball whose squared radius overflows too.
    """
    n = len(features)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = features @ features.T
        system = np.tril(gram, -1)
        system *= 2.0 * eta
        if not np.abs(system).max(initial=0.0) <= 1.0:
            return None
        np.fill_diagonal(system, 1.0)
        resids = np.linalg.solve(system, targets - features @ matrix.T)
        squares = np.einsum("ij,ij->i", resids, resids)
        if not np.all(2.0 * np.sqrt(squares) * peaks < 1e300):
            return None
        cross = 4.0 * eta * np.einsum("ij,ij->i", resids, targets - resids)
        growth = np.square(2.0 * eta * np.sqrt(squares * gram.diagonal()))
        first = np.vdot(matrix, matrix)
        norms = first + np.cumsum(cross + growth)
        spread = first + np.cumsum(np.abs(cross) + growth)
        if not (math.isfinite(spread[-1]) and np.all(norms + n * _EPS * spread <= r_m * r_m)):
            return None
        # every |r_i f_i| is below 5e299 and every step is bounded: neither factor overflows
        final = matrix + 2.0 * eta * (resids.T @ features)
    return resids, np.sqrt(np.maximum(norms, 0.0)), final


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
    per-step norms. The ridge must be above 0, since the fit starts from
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
    ridge must be finite and above 0; any other raises ``LinAlgError`` before step 0.
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

    A non-finite feature or target, a length mismatch or an ``r_m`` below 0 or NaN
    raises ``ValueError`` naming it; ``r_m = inf`` leaves no ball.
    """
    if not r_m >= 0:
        raise ValueError(f"r_m must be nonnegative, got {r_m!r}")
    features, targets = _rows(features, "features"), _rows(targets, "targets")
    if len(features) != len(targets):
        raise ValueError(f"features have {len(features)} steps, the targets {len(targets)}")
    return float(_best_fixed_losses(features, targets, r_m).sum())

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
import scipy.linalg

from .filters import FeatureLayout, FilterBank, featurize_batch
from .lds import LdsParams, Trajectory, derivative_predictions

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
    "ftl_update",
    "ftl_refit_every",
    "run_ftl",
    "regret_vs_best_fixed",
]

K_MIN, K_MAX = 1, 40


def default_hyperparams(
    T: int,
    r_theta: float,
    r_x: float,
    l_y: float,
    n: int,
    c_k: float = 1.0,
    c_r: float = 1.0,
    c_eta: float = 1.0,
) -> tuple[int, float, float]:
    """Theory-shaped hyperparameters (k, R_M, eta) with tunable constants.

    k = round(c_k * ln(T)^2 * ln(r_theta r_x l_y n)) clamped to [1, 40],
    R_M = c_r * r_theta^2 * sqrt(k),
    eta = c_eta / (r_x^2 l_y ln(r_theta r_x l_y n) n sqrt(T) ln(T)^4).

    Natural logarithms throughout; the scale product must exceed 1.
    """
    if min(T, r_theta, r_x, l_y, n) <= 0:
        raise ValueError("all scale arguments must be positive")
    product = r_theta * r_x * l_y * n
    if product <= 1.0:
        raise ValueError("scale product r_theta*r_x*l_y*n must exceed 1")
    log_scale = math.log(product)
    k = int(round(c_k * math.log(T) ** 2 * log_scale))
    k = min(max(k, K_MIN), K_MAX)
    r_m = c_r * r_theta**2 * math.sqrt(k)
    eta = c_eta / (r_x**2 * l_y * log_scale * n * math.sqrt(T) * math.log(T) ** 4)
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
        elif self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.r_m <= 0:
            raise ValueError("r_m must be positive")

    @property
    def k(self) -> int:
        return self.bank.k


@dataclass(frozen=True)
class OnlineState:
    """Prediction matrix and running diagnostics of one online run."""

    matrix: np.ndarray
    layout: FeatureLayout
    config: OnlineConfig
    eta: float
    step: int = 0
    cumulative_loss: float = 0.0

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
    predictions: np.ndarray
    losses: np.ndarray
    report: RegretReport
    state: OnlineState
    matrix_norms: np.ndarray
    comparator_losses: np.ndarray  # per step; sums to report.comparator_loss


def online_features(trajectory: Trajectory, bank: FilterBank) -> np.ndarray:
    """Full online feature matrix: batch features plus the shifted outputs."""
    batch = featurize_batch(trajectory.inputs, bank)
    m = trajectory.output_dim
    y_prev = np.vstack([np.zeros((1, m)), trajectory.outputs[:-1]])
    return np.hstack([batch.entries, y_prev])


def init_state(config: OnlineConfig, n: int, m: int, eta: float) -> OnlineState:
    layout = FeatureLayout(n=n, k=config.bank.k, m=m, include_y=True)
    matrix = np.zeros((m, layout.width))
    if config.freeze_y_block:
        matrix[:, layout.y_block] = np.eye(m)
    return OnlineState(matrix=matrix, layout=layout, config=config, eta=eta)


def predict(state: OnlineState, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.shape[-1] != state.layout.width:
        raise ValueError(
            f"feature width {features.shape[-1]} does not match layout "
            f"{state.layout.width}"
        )
    return state.matrix @ features


def update(state: OnlineState, features: np.ndarray, y_true: np.ndarray) -> OnlineState:
    """One descent step with Frobenius projection; returns the new state."""
    features = np.asarray(features, dtype=float)
    y_true = np.atleast_1d(np.asarray(y_true, dtype=float))
    resid = y_true - predict(state, features)
    loss = float(resid @ resid)
    grad = -2.0 * np.outer(resid, features)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError(
            "non-finite gradient; the learning rate has blown up"
        )
    matrix = state.matrix - state.eta * grad
    cfg = state.config
    if cfg.freeze_y_block:
        yb = state.layout.y_block
        matrix[:, yb] = np.eye(len(y_true))
        matrix[:, : yb.start] = _project_ball(matrix[:, : yb.start], cfg.r_m)
    else:
        matrix = _project_ball(matrix, cfg.r_m)
    return replace(
        state,
        matrix=matrix,
        step=state.step + 1,
        cumulative_loss=state.cumulative_loss + loss,
    )


def _effective_parts(
    trajectory: Trajectory, config: OnlineConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Online features, the learned columns and their targets (frozen: differences)."""
    if trajectory.length != config.bank.horizon:
        raise ValueError("trajectory length does not match the bank horizon")
    features = online_features(trajectory, config.bank)
    if config.freeze_y_block:
        m = trajectory.output_dim
        return features, features[:, :-m], trajectory.output_differences()
    return features, features, trajectory.outputs


def _auto_eta(eff_features: np.ndarray, eff_targets: np.ndarray, r_m: float, T: int) -> float:
    """Step size eta = D / (G sqrt(T)) from measured feature/target scales.

    D is the decision-set diameter 2 R_M; G estimates the worst gradient
    norm 2 (R_M F + L) F from root-mean-square feature and target norms.
    """
    f_bar = float(np.sqrt((eff_features**2).sum(axis=1).mean()))
    l_bar = float(np.sqrt((eff_targets**2).sum(axis=1).mean()))
    g_hat = 2.0 * (r_m * f_bar + l_bar) * max(f_bar, 1e-12)
    return 2.0 * r_m / (g_hat * math.sqrt(T))


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
    predictions = np.zeros((T, m))
    matrix_norms = np.zeros(T)
    for t in range(T):
        predictions[t] = predict(state, features[t])
        state = update(state, features[t], trajectory.outputs[t])
        matrix_norms[t] = state.learned_norm()
    losses = ((trajectory.outputs - predictions) ** 2).sum(axis=1)

    if comparator_params is not None:
        comp = derivative_predictions(comparator_params, trajectory)
        comp_losses = ((comp - trajectory.outputs) ** 2).sum(axis=1)
        kind = "true-derivative"
    else:
        comp_losses = _best_fixed_losses(eff_features, eff_targets, config.r_m)
        kind = "best-fixed-M"
    return _run_result(predictions, losses, state, matrix_norms, comp_losses, kind)


def _run_result(
    predictions: np.ndarray,
    losses: np.ndarray,
    state: OnlineState,
    matrix_norms: np.ndarray,
    comparator_losses: np.ndarray,
    comparator_kind: str,
) -> OnlineRunResult:
    report = RegretReport(
        learner_loss=float(losses.sum()),
        comparator_loss=float(comparator_losses.sum()),
        comparator_kind=comparator_kind,
        horizon=len(losses),
    )
    return OnlineRunResult(
        predictions=predictions,
        losses=losses,
        report=report,
        state=state,
        matrix_norms=matrix_norms,
        comparator_losses=comparator_losses,
    )


def _project_ball(matrix: np.ndarray, r_m: float) -> np.ndarray:
    """``matrix`` scaled back onto the Frobenius ball of radius ``r_m``."""
    norm = np.linalg.norm(matrix)
    return matrix * (r_m / norm) if norm > r_m else matrix


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The matrix M with ``gram @ M.T = rhs``, by a Cholesky solve.

    ``gram`` must be positive definite; a singular one raises ``LinAlgError``.
    """
    return scipy.linalg.solve(gram, rhs, assume_a="pos").T


def _ridge_least_squares(
    features: np.ndarray, targets: np.ndarray, ridge: float
) -> np.ndarray:
    """Minimizer M of ``||targets - features M^T||^2 + ridge ||M||^2``.

    With ridge 0 the minimum-norm least-squares solution is returned; an
    all-zero (information-free) feature matrix then raises ``LinAlgError``.
    """
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    if ridge == 0.0:
        if not np.any(features):
            raise np.linalg.LinAlgError(
                "all-zero feature matrix is singular without a ridge"
            )
        matrix, *_ = np.linalg.lstsq(features, targets, rcond=None)
        return matrix.T
    gram = features.T @ features + ridge * np.eye(features.shape[1])
    return _solve_gram(gram, features.T @ targets)


def ftl_update(
    features: np.ndarray, targets: np.ndarray, ridge: float, r_m: float
) -> np.ndarray:
    """Ridge least-squares minimizer over the history, ball-projected.

    A positive ridge solves the regularized normal equations by Cholesky.
    With ridge 0 the minimum-norm least-squares solution is returned; an
    all-zero (information-free) feature matrix then raises ``LinAlgError``.
    """
    features = np.asarray(features, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if features.shape[0] != targets.shape[0] or features.shape[0] == 0:
        raise ValueError("need equally many (and at least one) features and targets")
    return _project_ball(_ridge_least_squares(features, targets, ridge), r_m)


def _rolling_ridge(
    features: np.ndarray,
    targets: np.ndarray,
    ridge: float,
    refit_every: int = 1,
    r_m: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Predictions, final matrix and per-step norms of rolling ridge least squares.

    Step t predicts ``targets[t]`` with the current matrix (zero at first),
    then joins the Gram sums. Refits at steps 0, ``refit_every``, ... and the
    last step solve the ridge normal equations; given ``r_m`` they are
    projected onto its Frobenius ball and their norms fill the per-step norms.
    """
    (T, width), m = features.shape, targets.shape[1]
    gram = ridge * np.eye(width)
    rhs = np.zeros((width, m))
    matrix = np.zeros((m, width))
    predictions = np.zeros((T, m))
    norms = None if r_m is None else np.zeros(T)
    for t in range(T):
        f = features[t]
        predictions[t] = matrix @ f
        gram += np.outer(f, f)
        rhs += np.outer(f, targets[t])
        if t % refit_every == 0 or t == T - 1:
            matrix = _solve_gram(gram, rhs)
            if r_m is not None:
                matrix = _project_ball(matrix, r_m)
                norms[t:] = np.linalg.norm(matrix)
    return predictions, matrix, norms


def ftl_refit_every(T: int) -> int:
    """Steps between follow-the-leader refits over a horizon of T steps.

    Every step up to T = 2000 and every 10 steps beyond, where one full
    solve per step would dominate the run.
    """
    return 1 if T <= 2000 else 10


def run_ftl(
    trajectory: Trajectory, config: OnlineConfig, ridge: float = 1e-6
) -> OnlineRunResult:
    """Follow-the-leader run: periodic least-squares refits on the prefix.

    Refits happen every ``ftl_refit_every(T)`` steps and at the last step.
    The output block follows the freeze convention of the config (frozen:
    fit output differences). The comparator is the best fixed matrix.
    """
    features, eff_features, eff_targets = _effective_parts(trajectory, config)
    T, m = trajectory.length, trajectory.output_dim
    predictions, matrix, matrix_norms = _rolling_ridge(
        eff_features, eff_targets, ridge, ftl_refit_every(T), config.r_m
    )
    if config.freeze_y_block:
        predictions += features[:, -m:]  # the frozen y_{t-1} block
    losses = ((trajectory.outputs - predictions) ** 2).sum(axis=1)
    state = init_state(config, trajectory.input_dim, m, eta=0.0)
    state.matrix[:, : eff_features.shape[1]] = matrix
    state = replace(state, step=T, cumulative_loss=float(losses.sum()))
    comp_losses = _best_fixed_losses(eff_features, eff_targets, config.r_m)
    return _run_result(
        predictions, losses, state, matrix_norms, comp_losses, "best-fixed-M"
    )


def _constrained_least_squares(
    features: np.ndarray, targets: np.ndarray, r_m: float
) -> np.ndarray:
    """Minimize total squared error subject to a Frobenius-ball constraint.

    Unconstrained least squares first; if the minimizer leaves the ball,
    bisect the ridge multiplier until the norm meets the radius (the
    trust-region characterization of the constrained minimizer, Moré &
    Sorensen 1983). One eigendecomposition ``F^T F = V diag(e) V^T`` turns
    each bisection step into a diagonal scaling: with ``c = V^T F^T Y``
    the ridge solution is ``V (c / (e + lam))`` and its norm is
    ``||c / (e + lam)||``.
    """
    if r_m == 0.0:
        return np.zeros((targets.shape[1], features.shape[1]))
    matrix, *_ = np.linalg.lstsq(features, targets, rcond=None)
    if np.linalg.norm(matrix) <= r_m:
        return matrix.T
    evals, evecs = np.linalg.eigh(features.T @ features)
    evals = np.maximum(evals, 0.0)  # the Gram is PSD; clip rounding below zero
    coords = evecs.T @ (features.T @ targets)
    lo, hi = 1e-14, 1e14
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


def regret_vs_best_fixed(
    features: np.ndarray, targets: np.ndarray, r_m: float
) -> float:
    """Loss of the best fixed matrix in the Frobenius ball, in hindsight."""
    features = np.asarray(features, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    return float(_best_fixed_losses(features, targets, r_m).sum())

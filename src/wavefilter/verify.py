"""Executable invariant suite over the package's numerical guarantees.

Each registered check covers one provable property (spectral decay of the
moment matrix, curve norms, reconstruction bounds, predictor norms,
convolution equivalence, simulator identities). The CLI exposes the suite
as `wavefilter verify`; a machine-readable report row is emitted per
check and any failure flips the exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._blas import serial_blas
from .filters import (
    FilterBank,
    build_filter_bank,
    featurize_batch,
    featurize_batch_naive,
    featurize_online,
)
from .hankel import (
    NOISE_FLOOR,
    build_hankel,
    full_spectrum,
    mu_curve,
    quarter_power_apply,
    spectral_tail_sum,
)
from .lds import (
    LdsParams,
    derivative_predictions,
    derivative_predictor,
    lipschitz_bound,
    simulate,
)
from .relaxation import build_M_theta

__all__ = ["InvariantCheck", "ToleranceProfile", "REGISTRY", "run_verification", "check_filter_bank"]


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ToleranceProfile:
    """Sizes used by the verification suite; its alpha grid step and seed are fixed."""

    sizes: tuple[int, ...] = (64, 256, 1000)
    alpha_step: float = field(default=0.01, init=False)
    seed: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.sizes or any(T < 1 for T in self.sizes):
            raise ValueError(
                f"sizes must be a non-empty tuple of sizes of at least 1, got {self.sizes!r}"
            )


def _no_size_reaches(name: str, least: int, p: ToleranceProfile) -> InvariantCheck:
    return InvariantCheck(name, False, f"no size is at least {least}, got sizes {p.sizes}")


def _alpha_grid(step: float) -> np.ndarray:
    return np.round(np.arange(0.0, 1.0 + step / 2, step), 12)


def _check_hankel_entries(p: ToleranceProfile) -> InvariantCheck:
    worst = 0.0
    for T in (1, 3, 17) + p.sizes:
        Z = build_hankel(T).entries
        idx = np.arange(1, T + 1)
        s = idx[:, None] + idx[None, :]
        worst = max(worst, float(np.abs(Z - 2.0 / (s**3 - s)).max()))
        worst = max(worst, float(np.abs(Z - Z.T).max()))
    return InvariantCheck("hankel-entry-formula", worst == 0.0, f"max deviation {worst:.1e}")


def _check_hankel_psd(p: ToleranceProfile) -> InvariantCheck:
    worst = np.inf
    for T in p.sizes:
        worst = min(worst, float(full_spectrum(T).sigmas.min()))
    return InvariantCheck("hankel-psd", worst >= -1e-10, f"min eigenvalue {worst:.3e}")


def _check_hankel_trace(p: ToleranceProfile) -> InvariantCheck:
    worst = 0.0
    for T in (1, 10) + p.sizes:
        worst = max(worst, float(np.trace(build_hankel(T).entries)))
    return InvariantCheck("hankel-trace", worst < 0.75, f"max trace {worst:.6f}")


def _check_moment_identity(p: ToleranceProfile) -> InvariantCheck:
    T = 50
    nodes, weights = np.polynomial.legendre.leggauss(200)
    alphas = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    acc = np.zeros((T, T))
    for a, wt in zip(alphas, w):
        v = mu_curve(a, T)
        acc += wt * np.outer(v, v)
    err = float(np.abs(acc - build_hankel(T).entries).max())
    return InvariantCheck("moment-identity", err <= 1e-10, f"entrywise error {err:.2e}")


def _check_spectral_decay(p: ToleranceProfile) -> InvariantCheck:
    c = math.exp(math.pi**2 / 4)
    if max(p.sizes) < 10:
        return _no_size_reaches("spectral-decay", 10, p)
    margin = np.inf
    for T in p.sizes:
        if T < 10:
            continue
        sig = full_spectrum(T).sigmas
        for j in range(1, T + 1):
            if sig[j - 1] <= NOISE_FLOOR:
                break
            bound = min(0.75, 1e6 * c ** (-j / math.log(T)))
            margin = min(margin, bound - sig[j - 1])
    return InvariantCheck("spectral-decay", margin >= 0, f"worst margin {margin:.3e}")


def _check_tail_dominance(p: ToleranceProfile) -> InvariantCheck:
    if max(p.sizes) < 60:
        return _no_size_reaches("tail-dominance", 60, p)
    worst_ratio = 0.0
    for T in p.sizes:
        if T < 60:
            continue
        spec = full_spectrum(T)
        for j in range(1, T + 1):
            if spec.sigmas[j - 1] <= NOISE_FLOOR:
                break
            tail = spectral_tail_sum(spec, j)
            worst_ratio = max(worst_ratio, tail / (400 * math.log(T) * spec.sigmas[j - 1]))
    return InvariantCheck(
        "tail-dominance", worst_ratio < 1.0, f"worst tail/bound ratio {worst_ratio:.3e}"
    )


def _check_projection_residual(p: ToleranceProfile) -> InvariantCheck:
    T = 200
    spec = full_spectrum(T)
    worst = -np.inf
    for k in (5, 10, 25):
        basis = spec.phis[:, :k]
        bound = math.sqrt(6.0 * spectral_tail_sum(spec, k))
        for a in _alpha_grid(p.alpha_step):
            v = mu_curve(a, T)
            resid = v - basis @ (basis.T @ v)
            worst = max(worst, float(resid @ resid) - bound)
    return InvariantCheck(
        "projection-residual", worst <= 0, f"worst residual-minus-bound {worst:.3e}"
    )


def _check_reconstruction_coefficients(p: ToleranceProfile) -> InvariantCheck:
    T = 200
    spec = full_spectrum(T)
    reliable = int(np.sum(spec.sigmas > NOISE_FLOOR))
    bound = 6.0**0.25 * spec.sigmas[:reliable] ** 0.25
    worst = -np.inf
    for a in _alpha_grid(p.alpha_step):
        coef = np.abs(spec.phis[:, :reliable].T @ mu_curve(a, T))
        worst = max(worst, float((coef - bound).max()))
    return InvariantCheck(
        "reconstruction-coefficients", worst <= 0, f"worst coeff-minus-bound {worst:.3e}"
    )


def _check_filter_l1(p: ToleranceProfile) -> InvariantCheck:
    worst = -np.inf
    for T in p.sizes:
        spec = full_spectrum(T)
        bound = 2.0 + 2.0 * math.log2(T)
        for j in range(min(20, T)):
            if spec.sigmas[j] <= NOISE_FLOOR:
                break
            l1 = float(np.abs(spec.sigmas[j] ** 0.25 * spec.phis[:, j]).sum())
            worst = max(worst, l1 - bound)
    return InvariantCheck("filter-l1", worst <= 0, f"worst l1-minus-bound {worst:.3e}")


def _check_quarter_power_l1(p: ToleranceProfile) -> InvariantCheck:
    T = 256
    spec = full_spectrum(T)
    bound = 2.0 + 2.0 * math.log2(T)
    rng = np.random.default_rng(p.seed)
    worst = -np.inf
    for _ in range(100):
        v = rng.standard_normal(T)
        v /= np.linalg.norm(v)
        worst = max(worst, float(np.abs(quarter_power_apply(spec, v)).sum()) - bound)
    return InvariantCheck("quarter-power-l1", worst <= 0, f"worst l1-minus-bound {worst:.3e}")


def _check_mu_envelope(p: ToleranceProfile) -> InvariantCheck:
    T = 400
    worst = -np.inf
    envelope = 1.0 / np.arange(1, T + 1)
    for a in _alpha_grid(p.alpha_step):
        worst = max(worst, float((np.abs(mu_curve(a, T)) - envelope).max()))
    return InvariantCheck("mu-envelope", worst <= 0, f"worst excess {worst:.3e}")


def _check_mu_l1(p: ToleranceProfile) -> InvariantCheck:
    T = 400
    worst = max(float(np.abs(mu_curve(a, T)).sum()) for a in _alpha_grid(p.alpha_step))
    return InvariantCheck("mu-l1", worst <= 1.0 + 1e-12, f"max l1 norm {worst:.6f}")


def _check_mu_l2(p: ToleranceProfile) -> InvariantCheck:
    T = 400
    worst = max(float(mu_curve(a, T) @ mu_curve(a, T)) for a in _alpha_grid(p.alpha_step))
    return InvariantCheck("mu-l2", worst <= 1.0 + 1e-12, f"max squared l2 norm {worst:.6f}")


def _check_mu_derivative(p: ToleranceProfile) -> InvariantCheck:
    T, h = 400, 1e-5
    worst = 0.0
    for a in np.arange(0.005, 0.996, 0.005):
        lo = mu_curve(a - h, T)
        hi = mu_curve(a + h, T)
        deriv = (hi @ hi - lo @ lo) / (2 * h)
        worst = max(worst, abs(deriv))
    return InvariantCheck("mu-l2-derivative", worst <= 3.0 + 1e-3, f"max |d/da| {worst:.6f}")


def _random_system(rng: np.random.Generator, d: int, n: int, m: int) -> LdsParams:
    r = rng.uniform(1.0, 2.0)
    b = rng.standard_normal((d, n))
    b *= r / np.linalg.norm(b)
    c = rng.standard_normal((m, d))
    c *= r / np.linalg.norm(c)
    dmat = rng.standard_normal((m, n))
    dmat *= rng.uniform(0.0, r) / np.linalg.norm(dmat)
    return LdsParams(a=rng.uniform(0, 1, d), b=b, c=c, d=dmat, h0=np.zeros(d))


def _check_predictor_frobenius(p: ToleranceProfile) -> InvariantCheck:
    T, k = 128, 12
    bank = build_filter_bank(T, k)
    rng = np.random.default_rng(p.seed)
    worst = -np.inf
    for _ in range(50):
        params = _random_system(rng, d=6, n=3, m=2)
        pred = build_M_theta(params, bank)
        r = params.r_theta
        bound = 6.0**0.25 * r**2 * math.sqrt(k) + 3.0 * r**2
        worst = max(worst, pred.frobenius_norm_active() - bound)
    return InvariantCheck(
        "predictor-frobenius", worst <= 0, f"worst norm-minus-bound {worst:.3e}"
    )


def _check_feature_entry_bound(p: ToleranceProfile) -> InvariantCheck:
    rng = np.random.default_rng(p.seed)
    worst = -np.inf
    for T in p.sizes:
        bank = build_filter_bank(T, min(25, T, 40))
        xs = rng.uniform(-1, 1, (T, 2))
        r_x = float(np.abs(xs).max())
        bound = (2.0 + 2.0 * math.log2(T)) * r_x
        conv = featurize_batch(xs, bank)[:, : bank.k * 2]
        worst = max(worst, float(np.abs(conv).max()) - bound)
    return InvariantCheck(
        "feature-entry-bound", worst <= 0, f"worst entry-minus-bound {worst:.3e}"
    )


def _check_feature_norm_bound(p: ToleranceProfile) -> InvariantCheck:
    rng = np.random.default_rng(p.seed)
    T = 256
    n, m, k = 3, 2, 20
    bank = build_filter_bank(T, k)
    xs = rng.standard_normal((T, n))
    r_x = float(np.linalg.norm(xs, axis=1).max())
    worst = -np.inf
    y_prev = rng.standard_normal(m)
    for t in (1, 2, 5, 64, 256):
        fv = featurize_online(xs[:t], y_prev, bank)
        x_prev = xs[t - 2] if t >= 2 else np.zeros(n)
        bound = (
            (2.0 + 2.0 * math.log2(T)) * r_x * math.sqrt(n * k)
            + np.linalg.norm(x_prev)
            + np.linalg.norm(xs[t - 1])
            + np.linalg.norm(y_prev)
        )
        worst = max(worst, float(np.linalg.norm(fv)) - bound)
    return InvariantCheck(
        "feature-norm-bound", worst <= 0, f"worst norm-minus-bound {worst:.3e}"
    )


def _check_fft_equivalence(p: ToleranceProfile) -> InvariantCheck:
    rng = np.random.default_rng(p.seed)
    worst = 0.0
    for T, n, k in ((64, 1, 5), (200, 3, 10), (256, 2, 25), (1024, 10, 25)):
        bank = build_filter_bank(T, k)
        xs = rng.standard_normal((T, n))
        fast = featurize_batch(xs, bank)
        slow = featurize_batch_naive(xs, bank)
        worst = max(worst, float(np.abs(fast - slow).max()))
    return InvariantCheck("fft-equivalence", worst <= 1e-8, f"max abs diff {worst:.3e}")


def _check_derivative_equivalence(p: ToleranceProfile) -> InvariantCheck:
    rng = np.random.default_rng(p.seed)
    worst = 0.0
    for T, dense in ((1, False), (300, False), (1, True), (300, True)):
        base = _random_system(rng, d=4, n=2, m=3)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = q @ np.diag(base.a) @ q.T if dense else base.a
        params = LdsParams(a=a, b=base.b, c=base.c, d=base.d, h0=rng.standard_normal(4))
        traj = simulate(params, rng.standard_normal((T, 2)))
        slow = np.stack([derivative_predictor(params, traj, t) for t in range(1, T + 1)])
        worst = max(worst, float(np.abs(derivative_predictions(params, traj) - slow).max()))
    return InvariantCheck(
        "derivative-equivalence", worst <= 1e-10, f"max abs diff {worst:.3e}"
    )


def _check_output_lipschitz(p: ToleranceProfile) -> InvariantCheck:
    rng = np.random.default_rng(p.seed)
    worst = -np.inf
    for trial in range(20):
        d = int(rng.integers(2, 6))
        params = _random_system(rng, d=d, n=2, m=2)
        h0 = rng.standard_normal(d)
        params = LdsParams(a=params.a, b=params.b, c=params.c, d=params.d, h0=h0)
        xs = rng.standard_normal((60, 2))
        traj = simulate(params, xs)
        bound = lipschitz_bound(params, traj.r_x)
        diffs = np.linalg.norm(traj.output_differences(), axis=1)
        worst = max(worst, float(diffs.max()) - bound)
    return InvariantCheck(
        "output-lipschitz", worst <= 1e-9, f"worst step-minus-bound {worst:.3e}"
    )


def _check_hidden_state_decay(p: ToleranceProfile) -> InvariantCheck:
    rng = np.random.default_rng(p.seed)
    worst = -np.inf
    worst_exact = 0.0
    for trial in range(10):
        d, n, m = 4, 2, 2
        params = _random_system(rng, d=d, n=n, m=m)
        h0 = rng.standard_normal(d)
        with_h0 = LdsParams(a=params.a, b=params.b, c=params.c, d=params.d, h0=h0)
        xs = rng.standard_normal((50, n))
        traj = simulate(with_h0, xs)
        cn = np.linalg.norm(with_h0.c)
        gaps = np.linalg.norm(
            derivative_predictions(with_h0, traj) - derivative_predictions(params, traj),
            axis=1,
        )
        # the gap is exactly ||C (A - I) A^(t-1) h0|| (diagonal A)
        decayed = params.a ** np.arange(traj.length)[:, None] * ((params.a - 1.0) * h0)
        exact = np.linalg.norm(decayed @ params.c.T, axis=1)
        worst_exact = max(worst_exact, float(np.abs(gaps - exact).max()))
        bounds = cn * np.linalg.norm(h0) * math.sqrt(n) / np.arange(1, traj.length + 1)
        worst = max(worst, float((gaps - bounds).max()))
    return InvariantCheck(
        "hidden-state-decay",
        worst <= 1e-9 and worst_exact <= 1e-10,
        f"worst gap-minus-bound {worst:.3e}, max closed-form diff {worst_exact:.3e}",
    )


_OVERLAP_SIZES = (200, 1000)  # horizons of the ode-bank overlap check


def _check_ode_overlap(p: ToleranceProfile) -> InvariantCheck:
    worst = np.inf
    for T in _OVERLAP_SIZES:
        spec = full_spectrum(T)
        bank = build_filter_bank(T, min(12, T), method="ode")
        for j in range(min(10, bank.k)):
            cos = float(np.abs(bank.phis[j] @ spec.phis[:, j]))
            worst = min(worst, cos)
    return InvariantCheck("ode-filter-overlap", worst >= 0.95, f"min cosine {worst:.4f}")


def _check_bank_orthonormality(p: ToleranceProfile) -> InvariantCheck:
    worst = 0.0
    for method in ("eigen", "hilbert", "ode"):
        bank = build_filter_bank(128, 12, method=method)
        gram = bank.phis @ bank.phis.T
        worst = max(worst, float(np.abs(gram - np.eye(bank.k)).max()))
    return InvariantCheck(
        "bank-orthonormality", worst <= 1e-8, f"max gram deviation {worst:.3e}"
    )


REGISTRY: list[Callable[[ToleranceProfile], InvariantCheck]] = [
    _check_hankel_entries,
    _check_hankel_psd,
    _check_hankel_trace,
    _check_moment_identity,
    _check_spectral_decay,
    _check_tail_dominance,
    _check_projection_residual,
    _check_reconstruction_coefficients,
    _check_filter_l1,
    _check_quarter_power_l1,
    _check_mu_envelope,
    _check_mu_l1,
    _check_mu_l2,
    _check_mu_derivative,
    _check_predictor_frobenius,
    _check_feature_entry_bound,
    _check_feature_norm_bound,
    _check_fft_equivalence,
    _check_derivative_equivalence,
    _check_output_lipschitz,
    _check_hidden_state_decay,
    _check_ode_overlap,
    _check_bank_orthonormality,
]


@serial_blas
def run_verification(profile: Optional[ToleranceProfile] = None) -> list[InvariantCheck]:
    """Run every registered invariant; one result row per registry entry."""
    profile = profile or ToleranceProfile()
    return [fn(profile) for fn in REGISTRY]


def check_filter_bank(bank: FilterBank) -> list[InvariantCheck]:
    """Validate a (possibly externally loaded) filter bank."""
    checks = []
    gram = bank.phis @ bank.phis.T
    dev = float(np.abs(gram - np.eye(bank.k)).max())
    checks.append(
        InvariantCheck("bank-orthonormality", dev <= 1e-6, f"max gram deviation {dev:.3e}")
    )
    scale_dev = float(
        np.abs(bank.scaled_filters - bank.sigmas[:, None] ** 0.25 * bank.phis).max()
    )
    checks.append(
        InvariantCheck("bank-scaling", scale_dev <= 1e-12, f"max deviation {scale_dev:.3e}")
    )
    order_ok = bool(np.all(np.diff(bank.sigmas) <= 1e-12))
    checks.append(InvariantCheck("bank-sigma-order", order_ok, "eigenvalues nonincreasing"))
    if bank.method in ("eigen",):
        bound = 2.0 + 2.0 * math.log2(bank.horizon)
        worst = -np.inf
        for j in range(bank.k):
            if bank.sigmas[j] <= NOISE_FLOOR:
                break
            worst = max(worst, float(np.abs(bank.scaled_filters[j]).sum()) - bound)
        checks.append(
            InvariantCheck(
                "bank-filter-l1", worst <= 0, f"worst l1-minus-bound {worst:.3e}"
            )
        )
    return checks

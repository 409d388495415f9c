"""Acceptance suite: every release criterion at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest -s tests/test_acceptance.py`` to see them) and asserts the
stated runtime budget where one exists. Criteria 1-8 and the overlap part
of 18 run the ``verify`` checks that state their bounds.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from wavefilter import verify
from wavefilter.batch import BatchSample, fit_batch
from wavefilter.baselines import baseline_last_value
from wavefilter.experiments import default_experiment_config, run_experiment
from wavefilter.filters import (
    augment_hint,
    build_filter_bank,
    featurize_batch,
    featurize_batch_naive,
)
from wavefilter.hankel import NOISE_FLOOR, full_spectrum
from wavefilter.lds import LdsParams, NoiseConfig, simulate, synthetic_system
from wavefilter.online import (
    OnlineConfig,
    init_state,
    regret_vs_best_fixed,
    run_online,
    update,
)
from wavefilter.relaxation import build_M_theta, relaxation_residual
from wavefilter.verify import ToleranceProfile


@contextmanager
def criterion(num, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num:2d}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
        )
    print(f"PASS criterion {num:2d} [{elapsed:7.2f}s]: {description}")


def assert_checks_pass(*checks, profile=ToleranceProfile()):
    """Run ``verify`` checks, each the one home of a bound, failing with its detail."""
    for check in checks:
        result = check(profile)
        assert result.passed, f"{result.name}: {result.detail}"


def scaled_diagonal_system(rng, d, n, m, b_norm, c_norm, d_norm=0.0, h0=None):
    b = rng.standard_normal((d, n))
    b *= b_norm / np.linalg.norm(b)
    c = rng.standard_normal((m, d))
    c *= c_norm / np.linalg.norm(c)
    dmat = rng.standard_normal((m, n))
    dmat = dmat * (d_norm / np.linalg.norm(dmat)) if d_norm else np.zeros((m, n))
    return LdsParams(
        a=rng.uniform(0, 1, d), b=b, c=c, d=dmat,
        h0=np.zeros(d) if h0 is None else h0,
    )


def test_criterion_01_hankel_formula_and_trace():
    with criterion(1, "Hankel entries exact; trace(Z_1000) < 3/4", budget=5.0):
        assert_checks_pass(verify._check_hankel_entries, verify._check_hankel_trace)


def test_criterion_02_spectral_decay():
    with criterion(2, "spectral decay envelope at T=1000", budget=30.0):
        assert_checks_pass(verify._check_spectral_decay)
        assert np.sum(full_spectrum(1000).sigmas > NOISE_FLOOR) >= 15


def test_criterion_03_tail_dominance():
    with criterion(3, "tail sums dominated by 400 ln(T) sigma_j", budget=10.0):
        assert_checks_pass(verify._check_tail_dominance, profile=ToleranceProfile(sizes=(100, 256)))


def test_criterion_04_moment_identity():
    with criterion(4, "quadrature of the curve outer product matches Z_50"):
        assert_checks_pass(verify._check_moment_identity)


def test_criterion_05_reconstruction_bound():
    with criterion(5, "projection residual within sqrt(6 tail) at T=200"):
        assert_checks_pass(verify._check_projection_residual)


def test_criterion_06_coefficient_bound():
    with criterion(6, "curve coefficients within 6^(1/4) sigma^(1/4) at T=200"):
        assert_checks_pass(verify._check_reconstruction_coefficients)


def test_criterion_07_filter_l1_bounds():
    with criterion(7, "scaled-filter and quarter-power l1 bounds"):
        assert_checks_pass(verify._check_filter_l1, profile=ToleranceProfile(sizes=(64, 256, 1024)))
        assert_checks_pass(verify._check_quarter_power_l1)


def test_criterion_08_mu_lemmas():
    with criterion(8, "decay-curve envelope, l1, l2, derivative bounds"):
        assert_checks_pass(
            verify._check_mu_envelope,
            verify._check_mu_l1,
            verify._check_mu_l2,
            verify._check_mu_derivative,
        )


def test_criterion_09_relaxation_oracle():
    with criterion(9, "relaxation residual decays in k; exact in the full basis"):
        rng = np.random.default_rng(42)
        T, d, n, m = 500, 10, 3, 2
        params = scaled_diagonal_system(rng, d, n, m, 1.4, 1.4, 0.4)
        assert params.r_theta <= 2.0
        traj = simulate(params, rng.standard_normal((T, n)))
        peaks = []
        for k in (5, 10, 15, 20, 25):
            pred = build_M_theta(params, build_filter_bank(T, k))
            zeta, _ = relaxation_residual(params, pred, traj)
            peaks.append(float(zeta.max()))
        assert all(b <= a * 1.1 for a, b in zip(peaks, peaks[1:]))
        slope = np.polyfit([5, 10, 15, 20, 25], np.log(peaks), 1)[0]
        assert slope < 0.0

        T2 = 30
        bank = build_filter_bank(T2, T2)
        traj2 = simulate(params, rng.standard_normal((T2, n)))
        pred = build_M_theta(params, bank, noise_floor=0.0)
        zeta, _ = relaxation_residual(params, pred, traj2)
        assert zeta.max() <= 1e-6


def test_criterion_10_frobenius_bound():
    with criterion(10, "explicit predictor-norm bound on 50 random systems"):
        rng = np.random.default_rng(10)
        k = 15
        bank = build_filter_bank(256, k)
        for _ in range(50):
            r = rng.uniform(1.0, 2.0)
            params = scaled_diagonal_system(
                rng, d=8, n=3, m=2, b_norm=r, c_norm=r, d_norm=rng.uniform(0, r)
            )
            pred = build_M_theta(params, bank)
            r_theta = params.r_theta
            bound = 6.0**0.25 * r_theta**2 * math.sqrt(k) + 3.0 * r_theta**2
            assert pred.frobenius_norm_active() <= bound


def test_criterion_11_gradient_correctness():
    with criterion(11, "descent gradient matches central finite differences"):
        rng = np.random.default_rng(11)
        bank = build_filter_bank(16, 2)
        config = OnlineConfig(bank=bank, eta=1.0, r_m=1e12, freeze_y_block=False)
        for _ in range(100):
            state = init_state(config, n=1, m=2, eta=1.0)
            width = state.layout.width
            matrix = rng.standard_normal((2, width))
            object.__setattr__(state, "matrix", matrix.copy())
            feats = rng.standard_normal(width)
            y = rng.standard_normal(2)
            new = update(state, feats, y)
            grad = matrix - new.matrix  # eta = 1
            fd = np.zeros_like(grad)
            eps = 1e-6
            for i in range(2):
                for j in range(width):
                    bump = matrix.copy()
                    bump[i, j] += eps
                    hi = ((y - bump @ feats) ** 2).sum()
                    bump[i, j] -= 2 * eps
                    lo = ((y - bump @ feats) ** 2).sum()
                    fd[i, j] = (hi - lo) / (2 * eps)
            assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)


def test_criterion_12_ogd_regret_bound():
    with criterion(12, "projected-descent regret within 2 G D sqrt(T)"):
        rng = np.random.default_rng(12)
        T, r_m = 1000, 2.0
        bank = build_filter_bank(16, 2)
        config = OnlineConfig(bank=bank, eta=1.0, r_m=r_m, freeze_y_block=False)
        for _ in range(20):
            state = init_state(config, n=2, m=2, eta=1.0)
            width = state.layout.width
            feats = rng.standard_normal((T, width))
            targets = rng.standard_normal((T, 2))
            f_norms = np.linalg.norm(feats, axis=1)
            y_norms = np.linalg.norm(targets, axis=1)
            g_hat = float((2 * (r_m * f_norms + y_norms) * f_norms).max())
            d_hat = 2 * r_m
            eta = d_hat / (g_hat * math.sqrt(T))
            state = init_state(config, n=2, m=2, eta=eta)
            total = 0.0
            for t in range(T):
                resid = targets[t] - state.matrix @ feats[t]
                total += float(resid @ resid)
                state = update(state, feats[t], targets[t])
            comparator = regret_vs_best_fixed(feats, targets, r_m)
            assert total - comparator <= 2 * g_hat * d_hat * math.sqrt(T)


def test_criterion_13_online_trend():
    with criterion(
        13,
        "normalized regret falls with the horizon; beats the last-value "
        "baseline at T=4000 on at least 9/10 seeds",
        budget=300.0,
    ):
        params, gen = synthetic_system("siso_hard")
        k = 25
        mean_regret = []
        beats = 0
        for T in (500, 1000, 2000, 4000):
            bank = build_filter_bank(T, k)
            values = []
            for seed in range(10):
                rng = np.random.default_rng([seed, 1])
                inputs = gen.generate(T, 1, rng)
                traj = simulate(params, inputs, NoiseConfig(0.1, 0.1, seed))
                result = run_online(
                    traj, OnlineConfig(bank=bank, eta="auto", r_m=2.0 * math.sqrt(k))
                )
                values.append(result.report.normalized_regret)
                if T == 4000:
                    base = baseline_last_value(traj)
                    base_mse = float(((traj.outputs - base) ** 2).mean())
                    beats += result.losses.mean() < base_mse
            mean_regret.append(float(np.mean(values)))
        assert all(b < a for a, b in zip(mean_regret, mean_regret[1:])), mean_regret
        assert beats >= 9, f"beat the baseline on only {beats}/10 seeds"


def test_criterion_14_batch_realizability():
    with criterion(
        14, "noiseless batch fit reaches 1e-4 train and 1e-3 held-out MSE",
        budget=120.0,
    ):
        rng = np.random.default_rng(14)
        T, N, k = 500, 8, 25
        bank = build_filter_bank(T, k)
        params = scaled_diagonal_system(rng, d=5, n=2, m=2, b_norm=1.0, c_norm=1.0,
                                        d_norm=0.3)
        samples = []
        for _ in range(N):
            xs = rng.standard_normal((T, 2))
            samples.append(BatchSample.from_trajectory(simulate(params, xs)))
        model = fit_batch(samples, bank)

        def mse(sample):
            feats = featurize_batch(sample.inputs, bank)
            return float(((sample.targets - feats @ model.matrix.T) ** 2).mean())

        train = float(np.mean([mse(s) for s in samples]))
        held = mse(BatchSample.from_trajectory(
            simulate(params, rng.standard_normal((T, 2)))
        ))
        assert train <= 1e-4, train
        assert held <= 1e-3, held


def test_criterion_15_fft_equivalence():
    with criterion(15, "FFT featurization matches direct summation to 1e-8"):
        rng = np.random.default_rng(15)
        worst = 0.0
        for T, n, k in ((64, 1, 5), (256, 3, 12), (500, 2, 25), (1024, 10, 25)):
            bank = build_filter_bank(T, k)
            xs = rng.standard_normal((T, n))
            fast = featurize_batch(xs, bank)
            slow = featurize_batch_naive(xs, bank)
            worst = max(worst, float(np.abs(fast - slow).max()))
        assert worst <= 1e-8, worst


def test_criterion_16_hidden_state_hints():
    with criterion(16, "hint-augmented training restores realizability"):
        rng = np.random.default_rng(16)
        T, N, k, d = 200, 6, 20, 4
        base = scaled_diagonal_system(rng, d=d, n=2, m=2, b_norm=1.0, c_norm=1.0)
        bank_plain = build_filter_bank(T, k)
        bank_hint = build_filter_bank(T + 1, k)
        plain, hinted = [], []
        for _ in range(N):
            h0 = rng.standard_normal(d)
            h0 *= 2.0 / np.linalg.norm(h0)
            params = LdsParams(a=base.a, b=base.b, c=base.c, d=base.d, h0=h0)
            xs = rng.standard_normal((T, 2))
            traj = simulate(params, xs)
            plain.append(BatchSample.from_trajectory(traj))
            # hinted targets: zero at the impulse step, then the differences
            targets = np.vstack([np.zeros((1, 2)), traj.outputs[0:1],
                                 np.diff(traj.outputs, axis=0)])
            hinted.append(BatchSample(inputs=augment_hint(xs, h0), targets=targets))

        def fit_mse(samples, bank):
            model = fit_batch(samples, bank)
            total, count = 0.0, 0
            for s in samples:
                feats = featurize_batch(s.inputs, bank)
                resid = s.targets - feats @ model.matrix.T
                total += float((resid**2).sum())
                count += resid.size
            return total / count

        with_hint = fit_mse(hinted, bank_hint)
        without = fit_mse(plain, bank_plain)
        assert with_hint <= 1e-4, with_hint
        assert without > with_hint, (without, with_hint)


def test_criterion_17_pendulum():
    with criterion(17, "pendulum: beats the last-value baseline on 8/10 seeds"):
        config = default_experiment_config(
            "pendulum", horizon=2000, seeds=tuple(range(10)), learner="ftl"
        )
        summary = run_experiment(config)
        wave = summary["per_seed_final_mse"]["wave_filter"]
        last = summary["per_seed_final_mse"]["last_value"]
        wins = sum(w < b for w, b in zip(wave, last))
        assert wins >= 8, f"won on only {wins}/10 seeds"


def test_criterion_18_ode_filters():
    with criterion(18, "operator filters track reliable eigenvectors; deep banks build"):
        assert_checks_pass(verify._check_ode_overlap)
        T = 1000
        deep = build_filter_bank(T, 40, method="ode")
        feats = featurize_batch(np.random.default_rng(18).standard_normal((T, 1)), deep)
        assert feats.shape == (T, 42)


def test_criterion_19_deep_eigenvalue_noise_floor():
    with criterion(19, "27th eigenvalue at T=1000 sits below 1e-12"):
        assert full_spectrum(1000).sigmas[26] < 1e-12

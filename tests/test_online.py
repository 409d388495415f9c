import math

import numpy as np
import pytest
import scipy.linalg

from wavefilter import online
from wavefilter.batch import BatchSample, fit_batch
from wavefilter.filters import FilterBank, build_filter_bank, featurize_batch
from wavefilter.lds import LdsParams, Trajectory, simulate
from wavefilter.online import (
    OnlineConfig,
    _constrained_least_squares,
    _rolling_ridge,
    default_hyperparams,
    ftl_update,
    init_state,
    online_features,
    predict,
    regret_vs_best_fixed,
    run_ftl,
    run_online,
    update,
)
from wavefilter.relaxation import build_M_theta


def _bisection_by_solves(features, targets, r_m):
    """Reference constrained fit: the multiplier bisection, one Gram solve per step."""
    gram = features.T @ features
    rhs = features.T @ targets
    eye = np.eye(gram.shape[0])
    lo, hi = 1e-14, 1e14
    for _ in range(200):
        lam = math.sqrt(lo * hi)
        matrix = scipy.linalg.solve(gram + lam * eye, rhs, assume_a="pos").T
        if np.linalg.norm(matrix) > r_m:
            lo = lam
        else:
            hi = lam
    return matrix


class TestDefaultHyperparams:
    def test_radius_scale_quadruples_with_doubled_system_norm(self):
        k1, rm1, _ = default_hyperparams(1000, 2.0, 1.0, 1.0, 1)
        k2, rm2, _ = default_hyperparams(1000, 4.0, 1.0, 1.0, 1)
        assert rm2 / math.sqrt(k2) == pytest.approx(4 * rm1 / math.sqrt(k1))

    def test_eta_decreases_with_horizon(self):
        etas = [default_hyperparams(T, 2.0, 1.0, 1.0, 1)[2] for T in (100, 400, 1600)]
        assert etas[0] > etas[1] > etas[2]

    def test_documented_evaluation(self):
        k, rm, eta = default_hyperparams(4000, 2.0, 1.0, 1.0, 1)
        raw = round(math.log(4000) ** 2 * math.log(2.0))
        assert raw == 48
        assert k == min(raw, 40)
        assert rm == pytest.approx(4.0 * math.sqrt(k))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            default_hyperparams(0, 2.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            default_hyperparams(100, 0.5, 1.0, 1.0, 1)  # product below 1


class TestPredictUpdate:
    def _state(self, T=32, k=4, n=2, m=2, eta=0.05, r_m=10.0, freeze=True):
        bank = build_filter_bank(T, k)
        config = OnlineConfig(bank=bank, eta=eta, r_m=r_m, freeze_y_block=freeze)
        return init_state(config, n, m, eta)

    def test_zero_matrix_predicts_previous_output(self):
        state = self._state()
        feats = np.zeros(state.layout.width)
        y_prev = np.array([0.7, -0.3])
        feats[state.layout.y_block] = y_prev
        assert predict(state, feats) == pytest.approx(y_prev)

    def test_relaxation_matrix_predicts_near_exactly(self):
        rng = np.random.default_rng(0)
        T = 30
        bank = build_filter_bank(T, T)
        params = LdsParams(
            a=rng.uniform(0, 1, 4),
            b=rng.standard_normal((4, 2)) / 2,
            c=rng.standard_normal((2, 4)) / 2,
            d=np.zeros((2, 2)),
            h0=np.zeros(4),
        )
        traj = simulate(params, rng.standard_normal((T, 2)))
        pred = build_M_theta(params, bank, noise_floor=0.0)
        feats = online_features(traj, bank)
        config = OnlineConfig(bank=bank, eta=0.01, r_m=1e9)
        state = init_state(config, 2, 2, eta=0.01)
        object.__setattr__(state, "matrix", pred.as_matrix())
        from wavefilter.lds import derivative_predictor

        for t in (5, 17, 30):
            want = derivative_predictor(params, traj, t)
            assert predict(state, feats[t - 1]) == pytest.approx(want, abs=1e-6)

    def test_zero_features_zero_prediction_unfrozen(self):
        state = self._state(freeze=False)
        assert predict(state, np.zeros(state.layout.width)) == pytest.approx(
            np.zeros(2)
        )

    def test_no_update_on_exact_prediction(self):
        state = self._state()
        feats = np.zeros(state.layout.width)
        feats[state.layout.y_block] = np.array([1.0, 2.0])
        new = update(state, feats, np.array([1.0, 2.0]))
        assert np.array_equal(new.matrix, state.matrix)

    def test_single_step_decreases_loss(self):
        rng = np.random.default_rng(1)
        state = self._state(eta=1e-3)
        feats = rng.standard_normal(state.layout.width)
        y = rng.standard_normal(2)
        before = float(((y - predict(state, feats)) ** 2).sum())
        new = update(state, feats, y)
        after = float(((y - predict(new, feats)) ** 2).sum())
        assert after < before

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        state = self._state(freeze=False, eta=1.0)
        w = state.layout.width
        matrix = rng.standard_normal((2, w))
        object.__setattr__(state, "matrix", matrix.copy())
        feats = rng.standard_normal(w)
        y = rng.standard_normal(2)
        new = update(state, feats, y)
        grad = (matrix - new.matrix) / state.eta
        eps = 1e-6
        for idx in [(0, 0), (1, 3), (0, w - 1)]:
            bump = matrix.copy()
            bump[idx] += eps
            hi = ((y - bump @ feats) ** 2).sum()
            bump[idx] -= 2 * eps
            lo = ((y - bump @ feats) ** 2).sum()
            fd = (hi - lo) / (2 * eps)
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_projection_keeps_norm_feasible(self):
        rng = np.random.default_rng(3)
        state = self._state(eta=0.5, r_m=0.7)
        for _ in range(50):
            feats = rng.standard_normal(state.layout.width)
            state = update(state, feats, rng.standard_normal(2))
            assert state.learned_norm() <= 0.7 + 1e-9
            assert np.array_equal(state.matrix[:, state.layout.y_block], np.eye(2))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_gradient_detected(self):
        state = self._state(eta=1.0)
        feats = np.full(state.layout.width, 1e200)
        with pytest.raises(FloatingPointError):
            update(state, feats, np.array([1e200, 0.0]))


class TestRunOnline:
    def test_feedthrough_system_is_learned(self):
        rng = np.random.default_rng(4)
        T = 400
        params = LdsParams(
            a=np.zeros(1), b=np.zeros((1, 1)), c=np.zeros((1, 1)),
            d=np.array([[1.3]]), h0=np.zeros(1),
        )
        traj = simulate(params, rng.standard_normal((T, 1)))
        bank = build_filter_bank(T, 4)
        result = run_online(traj, OnlineConfig(bank=bank, eta="auto", r_m=10.0))
        first, last = result.losses[:50].mean(), result.losses[-50:].mean()
        assert last < 0.05 * first

    def test_zero_trajectory_zero_loss(self):
        T = 64
        traj = Trajectory(inputs=np.zeros((T, 1)), outputs=np.zeros((T, 1)))
        bank = build_filter_bank(T, 4)
        result = run_online(traj, OnlineConfig(bank=bank, eta=0.1, r_m=1.0))
        assert result.losses.max() == 0.0

    def test_non_finite_input_named_before_learning(self):
        # the FFT would spread the NaN to earlier steps and the first
        # update would blame the learning rate
        T = 64
        xs = np.zeros((T, 2))
        xs[30, 1] = np.nan
        traj = Trajectory(inputs=xs, outputs=np.zeros((T, 1)))
        bank = build_filter_bank(T, 4)
        with pytest.raises(ValueError, match="step 31, column 2"):
            run_online(traj, OnlineConfig(bank=bank, eta=0.1, r_m=1.0))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        T = 64
        traj = Trajectory(
            inputs=rng.standard_normal((T, 1)), outputs=rng.standard_normal((T, 1))
        )
        bank = build_filter_bank(T, 4)
        config = OnlineConfig(bank=bank, eta=0.02, r_m=5.0)
        a = run_online(traj, config)
        b = run_online(traj, config)
        assert np.array_equal(a.predictions, b.predictions)

    def test_regret_report_identity(self):
        rng = np.random.default_rng(6)
        T = 64
        traj = Trajectory(
            inputs=rng.standard_normal((T, 1)), outputs=rng.standard_normal((T, 1))
        )
        bank = build_filter_bank(T, 4)
        result = run_online(traj, OnlineConfig(bank=bank, eta=0.02, r_m=5.0))
        rep = result.report
        assert rep.comparator_kind == "best-fixed-M"
        assert rep.regret == rep.learner_loss - rep.comparator_loss
        assert rep.normalized_regret == pytest.approx(rep.regret / T)
        assert rep.learner_loss >= rep.comparator_loss  # minimizer optimality
        assert result.comparator_losses.shape == (T,)
        assert result.comparator_losses.sum() == rep.comparator_loss
        ftl = run_ftl(traj, OnlineConfig(bank=bank, r_m=5.0))
        assert ftl.comparator_losses.sum() == ftl.report.comparator_loss
        assert ftl.report.comparator_loss == pytest.approx(rep.comparator_loss)

    def test_true_derivative_comparator(self):
        rng = np.random.default_rng(7)
        T = 64
        params = LdsParams(
            a=rng.uniform(0, 1, 3),
            b=rng.standard_normal((3, 1)),
            c=rng.standard_normal((1, 3)),
            d=np.zeros((1, 1)),
            h0=np.zeros(3),
        )
        traj = simulate(params, rng.standard_normal((T, 1)))
        bank = build_filter_bank(T, 4)
        result = run_online(
            traj, OnlineConfig(bank=bank, eta=0.02, r_m=5.0), comparator_params=params
        )
        assert result.report.comparator_kind == "true-derivative"
        from wavefilter.lds import derivative_predictor

        expected = sum(
            float(
                ((derivative_predictor(params, traj, t) - traj.outputs[t - 1]) ** 2).sum()
            )
            for t in range(1, T + 1)
        )
        assert result.report.comparator_loss == pytest.approx(expected)
        assert result.comparator_losses.sum() == result.report.comparator_loss


class TestFtl:
    def test_single_sample_exact_fit(self):
        feats = np.array([[1.0, 2.0]])
        targets = np.array([[3.0]])
        m = ftl_update(feats, targets, ridge=0.0, r_m=100.0)
        assert feats @ m.T == pytest.approx(targets, abs=1e-10)

    def test_matches_batch_fit(self):
        rng = np.random.default_rng(7)
        T, k, n = 100, 6, 2
        bank = build_filter_bank(T, k)
        params = LdsParams(
            a=rng.uniform(0, 1, 3),
            b=rng.standard_normal((3, n)),
            c=rng.standard_normal((2, 3)),
            d=rng.standard_normal((2, n)),
            h0=np.zeros(3),
        )
        traj = simulate(params, rng.standard_normal((T, n)))
        feats = featurize_batch(traj.inputs, bank).entries
        targets = traj.output_differences()
        ridge = 1e-8
        direct = ftl_update(feats, targets, ridge=ridge, r_m=1e9)
        model = fit_batch([BatchSample.from_trajectory(traj)], bank, ridge=ridge)
        assert np.abs(direct - model.matrix).max() <= 1e-8

    def test_huge_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((50, 4))
        targets = rng.standard_normal((50, 2))
        m = ftl_update(feats, targets, ridge=1e12, r_m=10.0)
        assert np.abs(m).max() <= 1e-9

    def test_information_free_without_ridge_raises(self):
        feats = np.zeros((4, 3))
        targets = np.ones((4, 1))
        with pytest.raises(np.linalg.LinAlgError):
            ftl_update(feats, targets, ridge=0.0, r_m=1.0)

    def test_rank_deficient_but_consistent_fits_exactly(self):
        rng = np.random.default_rng(15)
        base = rng.standard_normal((6, 1))
        feats = np.hstack([base, 2 * base, -base])  # rank one
        targets = 3.0 * base
        m = ftl_update(feats, targets, ridge=0.0, r_m=100.0)
        assert np.abs(feats @ m.T - targets).max() <= 1e-10

    def test_ridge_solve_matches_augmented_lstsq(self):
        # the ridge minimizer is plain least squares on [F; sqrt(ridge) I], [Y; 0]
        rng = np.random.default_rng(9)
        feats = rng.standard_normal((60, 5))
        targets = rng.standard_normal((60, 2))
        ridge = 1e-3
        direct = ftl_update(feats, targets, ridge=ridge, r_m=100.0)
        aug_feats = np.vstack([feats, math.sqrt(ridge) * np.eye(5)])
        aug_targets = np.vstack([targets, np.zeros((5, 2))])
        expected, *_ = np.linalg.lstsq(aug_feats, aug_targets, rcond=None)
        assert np.abs(direct - expected.T).max() <= 1e-8

    def test_run_ftl_learns_feedthrough(self):
        rng = np.random.default_rng(10)
        T = 300
        params = LdsParams(
            a=np.zeros(1), b=np.zeros((1, 1)), c=np.zeros((1, 1)),
            d=np.array([[0.8]]), h0=np.zeros(1),
        )
        traj = simulate(params, rng.standard_normal((T, 1)))
        bank = build_filter_bank(T, 4)
        result = run_ftl(traj, OnlineConfig(bank=bank, r_m=10.0), ridge=1e-8)
        assert result.losses[-50:].mean() <= 1e-10


class TestRollingRidge:
    @staticmethod
    def _fresh_fit(features, targets, ridge, r_m):
        # the ridge minimizer is plain least squares on [F; sqrt(ridge) I], [Y; 0]
        w, m = features.shape[1], targets.shape[1]
        aug_feats = np.vstack([features, math.sqrt(ridge) * np.eye(w)])
        aug_targets = np.vstack([targets, np.zeros((w, m))])
        matrix = np.linalg.lstsq(aug_feats, aug_targets, rcond=None)[0].T
        norm = np.linalg.norm(matrix)
        if r_m is not None and norm > r_m:
            matrix = matrix * (r_m / norm)
        return matrix

    @pytest.mark.parametrize("refit_every", [1, 10])
    @pytest.mark.parametrize("r_m", [None, 0.3])
    def test_matches_fresh_solve_on_each_prefix(self, refit_every, r_m):
        rng = np.random.default_rng(17)
        T, w, m, ridge = 45, 4, 2, 0.5
        feats = rng.standard_normal((T, w))
        targets = feats @ rng.standard_normal((w, m)) + 0.1 * rng.standard_normal((T, m))
        preds, final, norms = _rolling_ridge(feats, targets, ridge, refit_every, r_m)
        # refits at 0, 10, 20, 30, 40 and the last step, 44
        refits = {t for t in range(T) if t % refit_every == 0 or t == T - 1}
        matrix = np.zeros((m, w))
        expected_norms = np.zeros(T)
        for t in range(T):
            np.testing.assert_allclose(preds[t], matrix @ feats[t], rtol=1e-9, atol=1e-12)
            if t in refits:
                matrix = self._fresh_fit(feats[: t + 1], targets[: t + 1], ridge, r_m)
            expected_norms[t] = np.linalg.norm(matrix)
        np.testing.assert_allclose(final, matrix, rtol=1e-9, atol=1e-12)
        if r_m is None:
            assert norms is None
        else:
            np.testing.assert_allclose(norms, expected_norms, rtol=1e-9)
            assert norms[-1] == pytest.approx(r_m)  # the ball binds

    def test_run_ftl_refits_every_ten_steps_beyond_2000(self, monkeypatch):
        T = 2001
        rng = np.random.default_rng(18)
        traj = Trajectory(
            inputs=rng.standard_normal((T, 1)), outputs=rng.standard_normal((T, 1))
        )
        phi = 0.5 ** np.arange(T)
        phi /= np.linalg.norm(phi)
        bank = FilterBank(
            horizon=T, k=1, phis=phi[None, :], sigmas=np.ones(1),
            scaled_filters=phi[None, :], method="eigen",
        )
        solves = []
        original = online._solve_gram

        def counted(gram, rhs):
            solves.append(gram.shape)
            return original(gram, rhs)

        monkeypatch.setattr(online, "_solve_gram", counted)
        result = run_ftl(traj, OnlineConfig(bank=bank, r_m=10.0))
        assert len(solves) == 201  # steps 0, 10, ..., 2000
        blocks = result.matrix_norms[:2000].reshape(200, 10)
        assert np.all(blocks == blocks[:, :1])
        assert len(np.unique(blocks[:, 0])) > 1


class TestRegretVsBestFixed:
    def test_realizable_inside_ball(self):
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((80, 4))
        m_true = 0.1 * rng.standard_normal((2, 4))
        targets = feats @ m_true.T
        loss = regret_vs_best_fixed(feats, targets, r_m=10.0)
        assert loss <= 1e-16

    def test_zero_radius_means_zero_matrix(self):
        rng = np.random.default_rng(12)
        feats = rng.standard_normal((30, 3))
        targets = rng.standard_normal((30, 1))
        loss = regret_vs_best_fixed(feats, targets, r_m=0.0)
        assert loss == pytest.approx(float((targets**2).sum()))

    def test_binding_constraint_lands_on_sphere(self):
        rng = np.random.default_rng(13)
        feats = rng.standard_normal((60, 4))
        targets = 5.0 * feats @ rng.standard_normal((4, 2))
        m = _constrained_least_squares(feats, targets, r_m=1.0)
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-6)

    def test_spectral_bisection_matches_solve_reference(self):
        rng = np.random.default_rng(16)
        T, w = 200, 12
        u, _ = np.linalg.qr(rng.standard_normal((T, w)))
        v, _ = np.linalg.qr(rng.standard_normal((w, w)))
        feats = (u * np.logspace(0, -6.5, w)) @ v.T  # cond(F^T F) = 1e13
        assert np.linalg.cond(feats.T @ feats) >= 1e12
        noise = 0.01 * rng.standard_normal((T, 2))
        targets = feats @ rng.standard_normal((w, 2)) + noise
        for r_m in (1.0, 0.1):
            unconstrained, *_ = np.linalg.lstsq(feats, targets, rcond=None)
            assert np.linalg.norm(unconstrained) > r_m  # the ball binds
            fast = _constrained_least_squares(feats, targets, r_m)
            slow = _bisection_by_solves(feats, targets, r_m)
            fast_losses = ((targets - feats @ fast.T) ** 2).sum(axis=1)
            slow_losses = ((targets - feats @ slow.T) ** 2).sum(axis=1)
            np.testing.assert_allclose(fast_losses, slow_losses, rtol=1e-9, atol=0)
            assert np.linalg.norm(fast) == pytest.approx(r_m, abs=1e-6)

    def test_ogd_respects_classical_regret_bound(self):
        # eta = D/(G sqrt(T)) with G the worst gradient over the ball
        rng = np.random.default_rng(14)
        T, w, m, r_m = 500, 8, 2, 2.0
        feats = rng.standard_normal((T, w))
        targets = rng.standard_normal((T, m))
        f_norms = np.linalg.norm(feats, axis=1)
        y_norms = np.linalg.norm(targets, axis=1)
        g_hat = float((2 * (r_m * f_norms + y_norms) * f_norms).max())
        d_hat = 2 * r_m
        eta = d_hat / (g_hat * math.sqrt(T))
        matrix = np.zeros((m, w))
        total = 0.0
        for t in range(T):
            resid = targets[t] - matrix @ feats[t]
            total += float(resid @ resid)
            matrix = matrix + 2 * eta * np.outer(resid, feats[t])
            norm = np.linalg.norm(matrix)
            if norm > r_m:
                matrix *= r_m / norm
        comp = regret_vs_best_fixed(feats, targets, r_m)
        assert total - comp <= 2 * g_hat * d_hat * math.sqrt(T)

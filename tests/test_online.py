import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefilter import _lapack, online
from wavefilter.baselines import baseline_ar
from wavefilter.batch import BatchSample, fit_batch
from wavefilter.experiments import simulate_scenario
from wavefilter.filters import FilterBank, build_filter_bank
from wavefilter.lds import LdsParams, Trajectory, simulate
from wavefilter.online import (
    OnlineConfig,
    _constrained_least_squares,
    _rolling_ridge,
    default_hyperparams,
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


def _rolling_ridge_by_solves(features, targets, ridge, refit_every=1, r_m=None):
    """Reference rolling fit: the Gram sums re-solved at every refit.

    numpy's solve, not scipy's: scipy's own OpenBLAS thread pool, called
    between the blocked fit's numpy products, stalls both.
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
            matrix = np.linalg.solve(gram, rhs).T
            if r_m is not None:
                norm = np.linalg.norm(matrix)
                if norm > r_m:
                    matrix = matrix * (r_m / norm)
                norms[t:] = np.linalg.norm(matrix)
    return predictions, matrix, norms


def _rolling_ridge_by_rank_one_steps(features, targets, ridge, refit_every=1, r_m=None):
    """Reference rolling fit: one Sherman-Morrison step of the inverse Gram per step."""
    (T, width), m = features.shape, targets.shape[1]
    inverse = np.eye(width) / ridge
    fit = np.zeros((m, width))
    matrix = np.zeros((m, width))
    predictions = np.zeros((T, m))
    norms = None if r_m is None else np.zeros(T)
    for t in range(T):
        f = features[t]
        predictions[t] = matrix @ f
        pf = inverse @ f
        gain = pf / (1.0 + f @ pf)
        fit += np.outer(targets[t] - fit @ f, gain)
        inverse -= np.outer(pf, gain)
        if t % refit_every == 0 or t == T - 1:
            matrix = fit.copy()  # the fit keeps moving between refits
            if r_m is not None:
                norm = np.linalg.norm(matrix)
                if norm > r_m:
                    matrix = matrix * (r_m / norm)
                norms[t:] = np.linalg.norm(matrix)
    return predictions, matrix, norms


def _assert_close(actual, expected, rtol):
    """Largest entry error at most ``rtol`` times the largest expected entry."""
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


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

    def test_rejects_a_one_step_horizon_by_name(self):
        # ln 1 = 0 divides eta
        with pytest.raises(ValueError, match="T=1 .*T >= 2 is needed"):
            default_hyperparams(1, 2.0, 1.0, 1.0, 1)


class TestOnlineConfig:
    @pytest.mark.parametrize("field", ["r_m", "eta"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_or_non_positive_value_by_name(self, field, value):
        bank = build_filter_bank(16, 2)
        with pytest.raises(ValueError, match=rf"^{field} must be finite and positive, got "):
            OnlineConfig(bank=bank, **{field: value})

    @pytest.mark.parametrize("field", ["r_m", "eta"])
    def test_accepts_finite_positive_values(self, field):
        config = OnlineConfig(bank=build_filter_bank(16, 2), **{field: 1e-300})
        assert getattr(config, field) == 1e-300


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
        object.__setattr__(state, "matrix", pred.matrix)
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

    def test_projection_of_a_norm_that_overflows(self):
        matrix = np.array([[1e300, -3e299], [0.0, 2e300]])
        projected = online._project_ball(matrix, 10.0)
        assert np.linalg.norm(projected) == pytest.approx(10.0)
        assert projected == pytest.approx(matrix * (10.0 / np.linalg.norm(matrix / 1e300)) / 1e300)
        with pytest.raises(FloatingPointError):
            online._project_ball(np.array([[np.inf, 1.0]]), 10.0)

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
        bank = build_filter_bank(T, 4)
        with pytest.raises(ValueError, match="step 31, column 2"):
            traj = Trajectory(inputs=xs, outputs=np.zeros((T, 1)))
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
        for run in (result, ftl):  # the report's totals are those of the loss arrays
            assert run.report.learner_loss == float(run.losses.sum())
            assert run.report.horizon == len(run.losses) == T

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

    @pytest.mark.parametrize("freeze_y_block", [True, False])
    @pytest.mark.parametrize("r_m", [10.0, 0.3])
    def test_loop_matches_per_step_update(self, freeze_y_block, r_m):
        T = 200
        traj = simulate_scenario("mimo_10", T, 0, 0.1, 0.1)
        bank = build_filter_bank(T, 5)
        config = OnlineConfig(bank=bank, r_m=r_m, freeze_y_block=freeze_y_block)
        result = run_online(traj, config)

        features = online_features(traj, bank)
        state = init_state(config, traj.input_dim, traj.output_dim, result.state.eta)
        predictions = np.zeros((T, traj.output_dim))
        norms = np.zeros(T)
        for t in range(T):
            predictions[t] = predict(state, features[t])
            state = update(state, features[t], traj.outputs[t])
            norms[t] = state.learned_norm()
        losses = ((traj.outputs - predictions) ** 2).sum(axis=1)

        assert np.array_equal(result.predictions, predictions)
        assert np.array_equal(result.losses, losses)
        assert np.array_equal(result.matrix_norms, norms)
        assert np.array_equal(result.state.matrix, state.matrix)
        if r_m < 1.0:
            assert norms.max() == pytest.approx(r_m)  # the ball binds
        else:
            assert norms.max() < r_m

    @staticmethod
    def _per_step_updates(traj, config, eta):
        """The loop of ``predict``/``update`` calls: its final state, predictions and
        norms, and the step whose update raised (None if none did)."""
        features = online_features(traj, config.bank)
        state = init_state(config, traj.input_dim, traj.output_dim, eta)
        predictions, norms = [], []
        for t in range(traj.length):
            predictions.append(predict(state, features[t]))
            try:
                with np.errstate(over="ignore"):
                    state = update(state, features[t], traj.outputs[t])
            except FloatingPointError:
                return state, predictions, norms, t + 1
            norms.append(state.learned_norm())
        return state, np.array(predictions), np.array(norms), None

    @staticmethod
    def _spiked(freeze_y_block, spike_step, eta=1e-200):
        """A 64-step trajectory whose output 3 is 1e300 at ``spike_step``, and a config
        whose step (by default) is small enough that the spike's update keeps the
        matrix norm finite."""
        T = 64
        base = simulate_scenario("mimo_10", T, 0, 0.1, 0.1)
        outputs = base.outputs.copy()
        outputs[spike_step - 1, 2] = 1e300
        config = OnlineConfig(
            bank=build_filter_bank(T, 4), eta=eta, r_m=10.0, freeze_y_block=freeze_y_block
        )
        return Trajectory(inputs=base.inputs, outputs=outputs), config

    @pytest.mark.parametrize("freeze_y_block", [True, False])
    def test_blow_up_raises_where_the_per_step_update_does(self, freeze_y_block):
        # the spike's own gradient is finite; the next step's, whose features
        # hold the spike as the previous output, overflows
        traj, config = self._spiked(freeze_y_block, spike_step=40)
        *_, where = self._per_step_updates(traj, config, config.eta)
        assert where == 41
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=r"\(step 41\)$"):
            run_online(traj, config)

    @pytest.mark.parametrize("freeze_y_block", [True, False])
    def test_a_finite_gradient_beyond_the_quick_bound_matches_per_step_update(
        self, freeze_y_block
    ):
        # a last-step spike: 2 ||r|| max|f| exceeds 1e300, every gradient entry is finite
        traj, config = self._spiked(freeze_y_block, spike_step=64)
        state, predictions, norms, where = self._per_step_updates(traj, config, config.eta)
        assert where is None
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_online(traj, config)
        assert np.array_equal(result.predictions, predictions)
        assert np.array_equal(result.state.matrix, state.matrix)
        assert np.array_equal(result.matrix_norms, norms)

    def test_an_overflowing_norm_lands_on_the_ball_not_at_zero(self):
        # the spike's step leaves entries near 1e299: their squares overflow, and
        # r_m / inf once zeroed the matrix; the next step's gradient then overflows
        traj, config = self._spiked(False, spike_step=40, eta=0.05)
        _, _, norms, where = self._per_step_updates(traj, config, config.eta)
        assert norms[39] == pytest.approx(10.0)
        assert where == 41
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=r"\(step 41\)$"):
            run_online(traj, config)

    @pytest.mark.parametrize("freeze_y_block", [True, False])
    def test_an_overflowing_norm_is_projected_as_the_per_step_update_does(self, freeze_y_block):
        traj, config = self._spiked(freeze_y_block, spike_step=64, eta=0.05)
        state, predictions, norms, where = self._per_step_updates(traj, config, config.eta)
        assert where is None
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_online(traj, config)
        assert np.array_equal(result.predictions, predictions)
        assert np.array_equal(result.state.matrix, state.matrix)
        assert np.array_equal(result.matrix_norms, norms)
        assert norms[-1] == pytest.approx(10.0)

    @pytest.mark.parametrize("freeze_y_block", [True, False])
    def test_a_step_that_overflows_an_entry_raises_where_the_per_step_update_does(
        self, freeze_y_block
    ):
        traj, config = self._spiked(freeze_y_block, spike_step=40, eta=1e10)
        *_, where = self._per_step_updates(traj, config, config.eta)
        assert where == 40
        with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match=r"overflowed the matrix.*\(step 40\)$"
        ):
            run_online(traj, config)

    def test_auto_eta_stays_positive_when_the_squared_targets_overflow(self):
        T = 64
        base = simulate_scenario("mimo_10", T, 0, 0.1, 0.1)
        outputs = base.outputs.copy()
        outputs[-1, 2] = 1e160
        traj = Trajectory(inputs=base.inputs, outputs=outputs)
        with np.errstate(over="ignore"):
            result = run_online(traj, OnlineConfig(bank=build_filter_bank(T, 4)))
        assert 0.0 < result.state.eta < math.inf  # it was 0.0: the learner never moved
        assert result.matrix_norms[: T - 1].max() > 0.0

    def test_auto_eta_without_overflow_is_the_plain_formula(self):
        rng = np.random.default_rng(14)
        features, targets = rng.standard_normal((50, 12)), 3.0 * rng.standard_normal((50, 2))
        f_bar = float(np.sqrt((features**2).sum(axis=1).mean()))
        l_bar = float(np.sqrt((targets**2).sum(axis=1).mean()))
        g_hat = 2.0 * (10.0 * f_bar + l_bar) * max(f_bar, 1e-12)
        assert online._auto_eta(features, targets, 10.0, 50) == 2.0 * 10.0 / (g_hat * math.sqrt(50))

    @pytest.mark.parametrize("freeze_y_block", [True, False])
    def test_single_output_loop_matches_per_step_update(self, freeze_y_block):
        # with one output row the prediction is a dot product, not a gemv
        T = 300
        traj = simulate_scenario("siso_hard", T, 0, 0.1, 0.1)
        config = OnlineConfig(bank=build_filter_bank(T, 8), r_m=0.5, freeze_y_block=freeze_y_block)
        result = run_online(traj, config)
        state, predictions, norms, where = self._per_step_updates(traj, config, result.state.eta)
        assert where is None
        assert np.array_equal(result.predictions, predictions)
        assert np.array_equal(result.state.matrix, state.matrix)
        assert np.array_equal(result.matrix_norms, norms)
        assert norms.max() == pytest.approx(0.5)  # the ball binds


@pytest.mark.parametrize("run", [run_online, run_ftl])
def test_trajectory_shorter_than_the_bank_names_both_lengths(run):
    traj = simulate_scenario("siso_hard", 39, 0, 0.1, 0.1)
    with pytest.raises(ValueError, match="^input length 39 does not match bank horizon 40$"):
        run(traj, OnlineConfig(bank=build_filter_bank(40, 4)))


class TestFtl:
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

    def test_default_ridge_keeps_the_loss_scale_free(self):
        # inputs and outputs x100 leave the mean loss / 100^2 within 10%;
        # a ridge of 1e-6 lets the first steps overfit the scaled copy (9.7
        # against 0.055)
        traj = simulate_scenario("siso_hard", 1000, 0, 0.1, 0.1)
        config = OnlineConfig(bank=build_filter_bank(1000, 25), r_m=1e6)
        scaled = Trajectory(inputs=100 * traj.inputs, outputs=100 * traj.outputs)
        plain = run_ftl(traj, config).losses.mean()
        assert run_ftl(scaled, config).losses.mean() / 100**2 == pytest.approx(plain, rel=0.1)


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

    @pytest.fixture(scope="class")
    def wave_features(self):
        # mimo_10 at T = 300: learned width 270 and 10 outputs
        traj = simulate_scenario("mimo_10", 300, 0, 0.1, 0.1)
        features = online_features(traj, build_filter_bank(300, 25))
        return features[:, : -traj.output_dim], traj.output_differences()

    @pytest.mark.parametrize("refit_every", [1, 10])
    @pytest.mark.parametrize("binding_ball", [False, True])
    @pytest.mark.parametrize("ridge", [1.0, 1e-6])
    def test_matches_solve_reference_on_wave_filter_features(
        self, wave_features, refit_every, binding_ball, ridge
    ):
        feats, targets = wave_features
        assert feats.shape[1] >= 200 and targets.shape[1] >= 5
        r_m = None
        if binding_ball:  # half the norm of the unconstrained final fit
            gram = feats.T @ feats + ridge * np.eye(feats.shape[1])
            r_m = 0.5 * np.linalg.norm(np.linalg.solve(gram, feats.T @ targets))
        preds, final, norms = _rolling_ridge(feats, targets, ridge, refit_every, r_m)
        ref_preds, ref_final, ref_norms = _rolling_ridge_by_solves(
            feats, targets, ridge, refit_every, r_m
        )
        if ridge == 1.0:
            np.testing.assert_allclose(preds, ref_preds, rtol=1e-9, atol=0)
            np.testing.assert_allclose(final, ref_final, rtol=1e-9, atol=0)
        else:  # ill-conditioned prefixes: compare on the scale of the output
            scale = np.abs(ref_preds).max()
            assert np.abs(preds - ref_preds).max() <= 1e-6 * scale
            assert np.abs(final - ref_final).max() <= 1e-6 * np.abs(ref_final).max()
        if r_m is None:
            assert norms is None and ref_norms is None
        else:
            np.testing.assert_allclose(norms, ref_norms, rtol=1e-9 if ridge == 1.0 else 1e-6)
            assert norms[-1] == pytest.approx(r_m)  # the ball binds

    def test_run_ftl_refits_every_ten_steps_beyond_2000(self):
        T = 2001
        rng = np.random.default_rng(18)
        traj = Trajectory(
            inputs=rng.standard_normal((T, 1)), outputs=rng.standard_normal((T, 1))
        )
        phi = 0.5 ** np.arange(T)
        phi /= np.linalg.norm(phi)
        bank = FilterBank(phis=phi[None, :], sigmas=np.ones(1), method="eigen")
        config = OnlineConfig(bank=bank, r_m=0.2)
        result = run_ftl(traj, config, ridge=1.0)
        features = online_features(traj, bank)
        preds, _, norms = _rolling_ridge_by_solves(
            features[:, :-1], traj.output_differences(), 1.0, refit_every=10, r_m=0.2
        )
        _assert_close(result.predictions, preds + features[:, -1:], 1e-9)
        _assert_close(result.matrix_norms, norms, 1e-9)
        assert norms.min() < 0.2 and norms.max() == pytest.approx(0.2)  # binds at some refits
        blocks = result.matrix_norms[:2000].reshape(200, 10)
        assert np.all(blocks == blocks[:, :1])
        assert len(np.unique(blocks[:, 0])) > 1

    def test_rolling_fits_make_no_solve(self, monkeypatch):
        rng = np.random.default_rng(19)
        T, k, n = 300, 40, 4
        traj = Trajectory(
            inputs=rng.standard_normal((T, n)), outputs=rng.standard_normal((T, 2))
        )
        bank = build_filter_bank(T, k)
        assert k * n > online._BLOCK  # the learned width exceeds the block length
        lapack_calls = []
        for name in ("eigh", "eigh_tridiagonal", "solveh_banded", "posv"):
            original = getattr(_lapack, name)

            def counted(*args, _name=name, _original=original):
                lapack_calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(_lapack, name, counted)
        solves = []
        np_solve = np.linalg.solve

        def counted_np(a, b):
            solves.append(a.shape)
            return np_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted_np)
        run_ftl(traj, OnlineConfig(bank=bank, r_m=10.0), ridge=1.0)
        baseline_ar(traj, tau=3, ridge=1.0)
        assert lapack_calls == []
        assert solves and all(s[0] <= online._BLOCK for s in solves)
        fit_batch([BatchSample.from_trajectory(traj)], bank, ridge=1.0)
        assert lapack_calls == ["posv"]  # the counter sees the batch solve

    def test_run_ftl_without_ridge_raises(self):
        # an empty history has no fit without a ridge, so step 0 is singular
        rng = np.random.default_rng(20)
        T = 20
        traj = Trajectory(
            inputs=rng.standard_normal((T, 2)), outputs=np.ones((T, 1))
        )
        config = OnlineConfig(bank=build_filter_bank(T, 3), r_m=10.0)
        with pytest.raises(np.linalg.LinAlgError, match="ridge 0.0"):
            run_ftl(traj, config, ridge=0.0)
        for ridge in (np.inf, np.nan):  # an infinite ridge would keep the fit at zero
            with pytest.raises(np.linalg.LinAlgError, match=f"^ridge {ridge} is not finite$"):
                run_ftl(traj, config, ridge=ridge)


# horizons around the block edges (128 steps after step 0), with the final
# step on and off the cadence of 10; widths 1 and above the block length
_SHAPES = [
    *[(T, 3, 2) for T in (1, 2, 127, 128, 129, 130, 2001)],
    *[(T, width, 1) for width in (1, 130) for T in (1, 129, 130)],
]


class TestBlockBoundaries:
    """The blocked rolling fit against both per-step references, around the block edges."""

    @staticmethod
    def _problem(T, width, m, ridge, refit_every, bind):
        rng = np.random.default_rng(T + 7 * width)
        feats = rng.standard_normal((T, width))
        targets = feats @ rng.standard_normal((width, m)) + 0.1 * rng.standard_normal((T, m))
        if not bind:
            return feats, targets, None
        # the median of the unprojected refit norms in the block after step 0
        _, _, raw = _rolling_ridge_by_rank_one_steps(feats, targets, ridge, refit_every, np.inf)
        r_m = float(np.median(raw[: online._BLOCK + 1]))
        if T > 2:  # binding at some refits of that block and not at others
            block = raw[1 : online._BLOCK + 1]
            assert block.min() < r_m < block.max()
        return feats, targets, r_m

    @pytest.mark.parametrize("T, width, m", _SHAPES)
    @pytest.mark.parametrize("refit_every", [1, 10])
    @pytest.mark.parametrize("bind", [False, True])
    def test_matches_rank_one_steps(self, T, width, m, refit_every, bind):
        feats, targets, r_m = self._problem(T, width, m, 1.0, refit_every, bind)
        preds, final, norms = _rolling_ridge(feats, targets, 1.0, refit_every, r_m)
        ref_preds, ref_final, ref_norms = _rolling_ridge_by_rank_one_steps(
            feats, targets, 1.0, refit_every, r_m
        )
        if T > 1:  # step 0 predicts zero in both
            _assert_close(preds, ref_preds, 1e-12)
        _assert_close(final, ref_final, 1e-12)
        if r_m is None:
            assert norms is None and ref_norms is None
        else:
            _assert_close(norms, ref_norms, 1e-12)

    @pytest.mark.parametrize("T, width, m", _SHAPES)
    @pytest.mark.parametrize("refit_every", [1, 10])
    @pytest.mark.parametrize("bind", [False, True])
    @pytest.mark.parametrize("ridge", [1.0, 1e-6])
    def test_matches_solves(self, T, width, m, refit_every, bind, ridge):
        feats, targets, r_m = self._problem(T, width, m, ridge, refit_every, bind)
        preds, final, norms = _rolling_ridge(feats, targets, ridge, refit_every, r_m)
        ref_preds, ref_final, ref_norms = _rolling_ridge_by_solves(
            feats, targets, ridge, refit_every, r_m
        )
        rtol = 1e-9 if ridge == 1.0 else 1e-6
        if T > 1:
            _assert_close(preds, ref_preds, rtol)
        _assert_close(final, ref_final, rtol)
        if r_m is not None:
            _assert_close(norms, ref_norms, rtol)


class TestIllConditionedBlocks:
    """A tiny ridge against large features: the blocked fit halves its blocks."""

    @staticmethod
    def _cholesky_sizes(monkeypatch):
        sizes = []
        original = np.linalg.cholesky

        def counted(a):
            try:
                factor = original(a)
            except np.linalg.LinAlgError:
                sizes.append(-a.shape[0])  # negative: this factorization failed
                raise
            sizes.append(a.shape[0])
            return factor

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        return sizes

    @staticmethod
    def _ar_trajectory(scale):
        rng = np.random.default_rng(0)
        xs = scale * rng.standard_normal((300, 2))
        ys = xs @ np.array([[0.5], [-0.2]]) + 0.01 * scale * rng.standard_normal((300, 1))
        return Trajectory(inputs=xs, outputs=ys)

    def test_imprecise_blocks_are_halved_and_match_the_per_step_loop(self, monkeypatch):
        rng = np.random.default_rng(21)
        feats = 10.0 * rng.standard_normal((300, 4))
        targets = feats @ rng.standard_normal((4, 2)) + rng.standard_normal((300, 2))
        sizes = self._cholesky_sizes(monkeypatch)
        preds, final, _ = _rolling_ridge(feats, targets, 1e-8)
        assert sizes[:4] == [1, 128, 64, 32]  # the first full block was halved
        step_preds, step_final, _ = _rolling_ridge_by_rank_one_steps(feats, targets, 1e-8)
        _assert_close(preds, step_preds, 1e-6)
        _assert_close(final, step_final, 1e-6)
        solve_preds, _, _ = _rolling_ridge_by_solves(feats, targets, 1e-8)
        error, step_error = (np.abs(p - solve_preds).max() for p in (preds, step_preds))
        assert error <= 2 * step_error  # no less accurate than the per-step loop

    def test_a_block_whose_factor_fails_is_halved(self, monkeypatch):
        scale = 1e3
        traj = self._ar_trajectory(scale)
        sizes = self._cholesky_sizes(monkeypatch)
        preds = baseline_ar(traj, tau=3)  # at its default ridge, 1e-8
        assert sizes[:2] == [1, -128]
        late = ((preds[50:] - traj.outputs[50:]) ** 2).mean() / scale**2
        assert late <= 2e-4  # twice the observation noise

    def test_ridge_below_the_rounding_of_the_gram_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="ridge 1e-08 is below the rounding"):
            baseline_ar(self._ar_trajectory(1e6), tau=3)


class TestNonFiniteLearnerInputs:
    """``regret_vs_best_fixed`` names the first non-finite entry."""

    @given(
        T=st.integers(1, 12),
        width=st.integers(1, 4),
        m=st.integers(1, 3),
        in_targets=st.booleans(),
        where=st.tuples(st.integers(0, 11), st.integers(0, 3)),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=60, deadline=None)
    def test_names_step_and_column(self, T, width, m, in_targets, where, value):
        rng = np.random.default_rng(T * 100 + width * 10 + m)
        feats, targets = rng.standard_normal((T, width)), rng.standard_normal((T, m))
        bad = targets if in_targets else feats
        t, i = where[0] % T, where[1] % bad.shape[1]
        bad[t, i] = value
        name = "targets" if in_targets else "features"
        expected = rf"^{name} hold a non-finite value \({value}\) at step {t + 1}, column {i + 1}"
        with pytest.raises(ValueError, match=expected):
            regret_vs_best_fixed(feats, targets, r_m=10.0)


class TestRegretVsBestFixed:
    def test_realizable_inside_ball(self):
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((80, 4))
        m_true = 0.1 * rng.standard_normal((2, 4))
        targets = feats @ m_true.T
        loss = regret_vs_best_fixed(feats, targets, r_m=10.0)
        assert loss <= 1e-16

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_rank_deficient_fit_inside_ball_is_the_least_squares_one(self, seed):
        # repeated columns leave a null space whose coordinates of F^T Y hold
        # only rounding; divided by the bisection's lower end 1e-14 they
        # would read as a ridge norm far above the radius
        rng = np.random.default_rng(seed)
        base = 10.0 * rng.standard_normal((100, 6))
        feats = np.column_stack([base, base[:, 0], base[:, 1] + base[:, 2]])
        targets = feats @ (0.1 * rng.standard_normal((2, 8))).T
        expected, *_ = np.linalg.lstsq(feats, targets, rcond=None)
        assert np.linalg.norm(expected) < 1.0
        np.testing.assert_array_equal(_constrained_least_squares(feats, targets, 1.0),
                                      expected.T)

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

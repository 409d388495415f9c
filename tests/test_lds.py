import re

import numpy as np
import pytest

from wavefilter.lds import (
    LdsParams,
    NoiseConfig,
    Trajectory,
    block_impulse_inputs,
    derivative_predictions,
    derivative_predictor,
    diagonalize,
    impulse_response_output,
    lipschitz_bound,
    pendulum_simulate,
    simulate,
    synthetic_system,
)


def _simulate_by_steps(params, inputs, noise=None):
    """Reference simulator: every product and noise draw at its own step."""
    xs = np.atleast_2d(np.asarray(inputs, dtype=float))
    T = xs.shape[0]
    m, d = params.output_dim, params.state_dim
    rng = np.random.default_rng(noise.seed) if noise is not None else None
    pstd = noise.process_std if noise else 0.0
    ostd = noise.observation_std if noise else 0.0

    h = params.a * params.h0
    ys = np.zeros((T, m))
    for t in range(T):
        ys[t] = params.c @ h + params.d @ xs[t]
        if ostd:
            ys[t] += ostd * rng.standard_normal(m)
        drive = h + params.b @ xs[t]
        if pstd:
            drive = drive + pstd * rng.standard_normal(d)
        h = params.a * drive
    return ys


def _same_bits(a, b):
    """Equal entries with equal signs, so zeros of either sign match too."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def random_system(rng, d=4, n=2, m=2, with_h0=False, scale=1.0):
    h0 = rng.standard_normal(d) if with_h0 else np.zeros(d)
    return LdsParams(
        a=rng.uniform(0, 1, d),
        b=scale * rng.standard_normal((d, n)),
        c=scale * rng.standard_normal((m, d)),
        d=scale * rng.standard_normal((m, n)),
        h0=h0,
    )


SCALAR = dict(a=np.array([0.5]), b=np.ones((1, 1)), c=np.ones((1, 1)),
              d=np.zeros((1, 1)), h0=np.zeros(1))


class TestLdsParams:
    def test_rejects_unstable_eigenvalues(self):
        with pytest.raises(ValueError, match=r"eigenvalues must lie in \[0, 1\]"):
            LdsParams(**dict(SCALAR, a=np.array([1.2])))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError, match=r"eigenvalues must lie in \[0, 1\]"):
            diagonalize(np.array([[0.5, 0.6], [0.6, 0.5]]), np.ones((2, 1)),
                        np.ones((1, 2)), np.zeros((1, 1)), np.zeros(2))

    def test_rejects_a_matrix_naming_diagonalize(self):
        with pytest.raises(ValueError, match=r"^a must be the 1-D diagonal .*diagonalize"):
            LdsParams(**dict(SCALAR, a=0.5 * np.eye(1)))

    @pytest.mark.parametrize("name", ["a", "b", "c", "d", "h0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry_by_field(self, name, value):
        fields = {key: array.copy() for key, array in SCALAR.items()}
        fields[name].flat[0] = value
        with pytest.raises(ValueError, match=rf"^{name} holds a non-finite value \({value}\)$"):
            LdsParams(**fields)

    @pytest.mark.parametrize("name, value, message", [
        ("b", np.ones(1), r"b must be 2-D \(state, input\), got shape \(1,\)"),
        ("c", np.ones(1), r"c must be 2-D \(output, state\), got shape \(1,\)"),
        ("d", np.zeros((1, 1, 1)), r"d must be 2-D \(output, input\), got shape \(1, 1, 1\)"),
        ("h0", np.zeros((1, 1)), r"h0 must be 1-D \(state\), got shape \(1, 1\)"),
        ("a", np.array(0.5), r"a must be the 1-D diagonal .*got shape \(\)"),
    ], ids=["b", "c", "d", "h0", "a"])
    def test_rejects_a_field_of_the_wrong_dimension_count_by_name(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            LdsParams(**dict(SCALAR, **{name: value}))

    def test_rejects_an_empty_state_by_name(self):
        with pytest.raises(ValueError, match=r"^a must hold at least one state, got length 0$"):
            LdsParams(a=np.zeros(0), b=np.zeros((0, 1)), c=np.zeros((1, 0)),
                      d=np.zeros((1, 1)), h0=np.zeros(0))

    def test_r_theta(self):
        params = LdsParams(
            a=np.array([0.5]), b=2 * np.ones((1, 1)), c=np.ones((1, 1)),
            d=np.zeros((1, 1)), h0=np.zeros(1),
        )
        assert params.r_theta == 2.0


class TestSimulate:
    def test_scalar_example(self):
        params = LdsParams(
            a=np.array([0.5]), b=np.ones((1, 1)), c=np.ones((1, 1)),
            d=np.zeros((1, 1)), h0=np.zeros(1),
        )
        traj = simulate(params, np.array([[1.0], [0.0], [0.0]]))
        assert traj.outputs[:, 0] == pytest.approx([0.0, 0.5, 0.25])

    def test_identity_transition_holds_state(self):
        h0 = np.array([1.0, -2.0])
        params = LdsParams(
            a=np.ones(2), b=np.zeros((2, 1)), c=np.eye(2),
            d=np.zeros((2, 1)), h0=h0,
        )
        traj = simulate(params, np.zeros((6, 1)))
        assert np.abs(traj.outputs - h0).max() <= 1e-14

    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        params = random_system(rng, with_h0=True)
        xs = rng.standard_normal((25, 2))
        traj = simulate(params, xs)
        for t in (1, 2, 13, 25):
            expect = impulse_response_output(params, xs, t)
            assert np.abs(traj.outputs[t - 1] - expect).max() <= 1e-10

    def test_noise_deterministic_per_seed(self):
        rng = np.random.default_rng(1)
        params = random_system(rng)
        xs = rng.standard_normal((10, 2))
        noise = NoiseConfig(process_std=0.3, observation_std=0.2, seed=7)
        a = simulate(params, xs, noise)
        b = simulate(params, xs, noise)
        assert np.array_equal(a.outputs, b.outputs)
        c = simulate(params, xs, NoiseConfig(0.3, 0.2, seed=8))
        assert not np.array_equal(a.outputs, c.outputs)

    def test_rejects_dimension_mismatch(self):
        params = random_system(np.random.default_rng(2))
        with pytest.raises(ValueError):
            simulate(params, np.zeros((5, 3)))


NOISE_MODES = {
    "none": None,
    "quiet": NoiseConfig(0.0, 0.0, seed=3),
    "process": NoiseConfig(process_std=0.3, seed=3),
    "observation": NoiseConfig(observation_std=0.2, seed=3),
    "both": NoiseConfig(0.3, 0.2, seed=3),
}


class TestSimulateMatchesPerStepLoop:
    @pytest.mark.parametrize("noise", list(NOISE_MODES))
    @pytest.mark.parametrize("T", [1, 2, 57])
    def test_random_systems(self, noise, T):
        rng = np.random.default_rng(T)
        params = random_system(rng, d=5, n=3, m=2, with_h0=True)
        xs = rng.standard_normal((T, 3))
        expect = _simulate_by_steps(params, xs, NOISE_MODES[noise])
        assert _same_bits(simulate(params, xs, NOISE_MODES[noise]).outputs, expect)

    @pytest.mark.parametrize("name, T", [("siso_hard", 4000), ("mimo_10", 1000)])
    def test_named_systems(self, name, T):
        params, gen = synthetic_system(name, seed=0)
        for seed in range(10):
            xs = gen.generate(T, params.input_dim, np.random.default_rng([seed, 1]))
            noise = NoiseConfig(0.1, 0.1, seed)
            expect = _simulate_by_steps(params, xs, noise)
            assert _same_bits(simulate(params, xs, noise).outputs, expect), seed


class TestNoiseConfig:
    @pytest.mark.parametrize("field", ["process_std", "observation_std"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
    def test_rejects_a_non_finite_or_negative_std_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite and nonnegative, got "):
            NoiseConfig(**{field: value})

    def test_accepts_zero_and_finite_stds(self):
        noise = NoiseConfig(process_std=0.0, observation_std=1e300)
        assert (noise.process_std, noise.observation_std) == (0.0, 1e300)


class TestDerivativePredictor:
    def test_identity_transition_reduces_to_input_terms(self):
        rng = np.random.default_rng(3)
        params = LdsParams(
            a=np.ones(3),
            b=rng.standard_normal((3, 2)),
            c=rng.standard_normal((2, 3)),
            d=rng.standard_normal((2, 2)),
            h0=np.zeros(3),
        )
        xs = rng.standard_normal((8, 2))
        traj = simulate(params, xs)
        cb_d = params.c @ params.b + params.d
        for t in (1, 4, 8):
            x_prev = xs[t - 2] if t >= 2 else np.zeros(2)
            y_prev = traj.outputs[t - 2] if t >= 2 else np.zeros(2)
            expect = y_prev + cb_d @ xs[t - 1] - params.d @ x_prev
            assert derivative_predictor(params, traj, t) == pytest.approx(expect)

    def test_hand_worked_scalar_case(self):
        params = LdsParams(
            a=np.array([0.5]), b=np.ones((1, 1)), c=np.ones((1, 1)),
            d=np.zeros((1, 1)), h0=np.zeros(1),
        )
        xs = np.array([[1.0], [0.0], [0.0]])
        traj = simulate(params, xs)
        # only the i=2 term survives: (A^2 - A) x_1 = (0.25 - 0.5)
        pred = derivative_predictor(params, traj, 3)
        assert pred[0] == pytest.approx(traj.outputs[1, 0] - 0.25)

    def test_self_prediction_gap_identity(self):
        # on its own noiseless data the comparator misses by exactly
        # CB (x_t - x_{t-1}); in particular it is exact on held inputs
        rng = np.random.default_rng(4)
        params = random_system(rng, d=5, n=3, m=2, with_h0=True)
        xs = rng.standard_normal((20, 3))
        xs[10:] = xs[9]  # constant tail
        traj = simulate(params, xs)
        cb = params.c @ params.b
        # t = 1 additionally misses the pre-history of h0 (y_0 = 0 convention)
        gap1 = derivative_predictor(params, traj, 1) - traj.outputs[0]
        assert gap1 == pytest.approx(cb @ xs[0] - params.c @ params.h0, abs=1e-9)
        for t in range(2, 21):
            gap = derivative_predictor(params, traj, t) - traj.outputs[t - 1]
            assert gap == pytest.approx(cb @ (xs[t - 1] - xs[t - 2]), abs=1e-9)
        for t in range(12, 21):  # constant-input region: exact
            err = derivative_predictor(params, traj, t) - traj.outputs[t - 1]
            assert np.abs(err).max() <= 1e-9


class TestDerivativePredictions:
    # the recursion reorders the per-step sums, so the two agree to
    # roundoff, not bit for bit; 1e-10 leaves a wide margin over ~1e-14
    TOL = 1e-10

    @pytest.mark.parametrize("T", [1, 2, 300])
    def test_matches_per_step_reference(self, T):
        rng = np.random.default_rng(T)
        params = random_system(rng, d=4, n=2, m=3, with_h0=True)
        assert np.abs(params.d).max() > 0 and np.abs(params.h0).max() > 0
        traj = simulate(params, rng.standard_normal((T, 2)), NoiseConfig(0.1, 0.1, seed=T))
        reference = np.stack(
            [derivative_predictor(params, traj, t) for t in range(1, T + 1)]
        )
        fast = derivative_predictions(params, traj)
        assert fast.shape == (T, 3)
        assert np.abs(fast - reference).max() <= self.TOL

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        params = random_system(rng, d=3, n=2, m=2)
        traj = simulate(random_system(rng, d=3, n=1, m=2), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            derivative_predictions(params, traj)


class TestDiagonalize:
    def test_preserves_outputs(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = q @ np.diag(rng.uniform(0, 1, 5)) @ q.T
        b, c, d = (rng.standard_normal(shape) for shape in ((5, 2), (2, 5), (2, 2)))
        h0 = rng.standard_normal(5)
        xs = rng.standard_normal((30, 2))
        # the dense recurrence: h_1 = A h0, y_t = C h_t + D x_t, h_{t+1} = A (h_t + B x_t)
        h, dense = a @ h0, []
        for x in xs:
            dense.append(c @ h + d @ x)
            h = a @ (h + b @ x)
        rotated = diagonalize(a, b, c, d, h0)
        assert rotated.a.shape == (5,)
        assert np.abs(simulate(rotated, xs).outputs - np.array(dense)).max() <= 1e-8

    def test_preserves_eigenvalues(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        eigs = np.sort(rng.uniform(0, 1, 4))
        rotated = diagonalize(q @ np.diag(eigs) @ q.T, np.zeros((4, 1)), np.zeros((1, 4)),
                              np.zeros((1, 1)), np.zeros(4))
        assert np.sort(rotated.a) == pytest.approx(eigs, abs=1e-10)

    @pytest.mark.parametrize("a", [
        np.array([[0.5, 0.1], [0.0, 0.5]]),  # asymmetric
        np.array([0.5, 0.5]),  # already a diagonal
        np.full((2, 2), np.nan),
    ], ids=["asymmetric", "vector", "nan"])
    def test_rejects_a_non_symmetric_matrix(self, a):
        with pytest.raises(ValueError, match=r"^a must be a finite, square, symmetric matrix"):
            diagonalize(a, np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)), np.zeros(2))


    @pytest.mark.parametrize("name, value", [
        ("b", np.ones((3, 1))), ("c", np.ones((1, 3))), ("h0", np.zeros(3)), ("h0", np.zeros(())),
    ], ids=["b", "c", "h0", "h0-scalar"])
    def test_rejects_a_state_dimension_mismatch_by_field(self, name, value):
        fields = dict(b=np.ones((2, 1)), c=np.ones((1, 2)), d=np.zeros((1, 1)), h0=np.zeros(2))
        fields[name] = value
        shape = re.escape(str(value.shape))
        with pytest.raises(ValueError, match=rf"^{name} has shape {shape}, but a has 2 states$"):
            diagonalize(0.5 * np.eye(2), **fields)


class TestLipschitzBound:
    def test_degenerate_system(self):
        params = LdsParams(
            a=np.array([0.5]), b=np.zeros((1, 1)), c=np.zeros((1, 1)),
            d=np.zeros((1, 1)), h0=np.zeros(1),
        )
        assert lipschitz_bound(params, 1.0) == 0.0

    def test_simulated_steps_respect_bound(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            params = random_system(rng, d=5, with_h0=True)
            xs = rng.standard_normal((50, 2))
            traj = simulate(params, xs)
            bound = lipschitz_bound(params, traj.r_x)
            steps = np.linalg.norm(traj.output_differences(), axis=1)
            assert steps.max() <= bound + 1e-9

    def test_scaling_linearity(self):
        rng = np.random.default_rng(8)
        params = random_system(rng, d=3)
        doubled = LdsParams(
            a=params.a, b=2 * params.b, c=params.c, d=params.d, h0=params.h0,
        )
        bn = np.linalg.norm(params.b)
        cn = np.linalg.norm(params.c)
        delta = lipschitz_bound(doubled, 1.0) - lipschitz_bound(params, 1.0)
        assert delta == pytest.approx(2 * bn * cn)


class TestSyntheticSystems:
    def test_siso_hard(self):
        params, gen = synthetic_system("siso_hard")
        assert np.sort(params.a) == pytest.approx([0.5, 0.999])
        assert gen.kind == "gaussian"

    def test_mimo_10(self):
        params, gen = synthetic_system("mimo_10")
        assert params.a.sum() == pytest.approx(4.5)
        assert np.array_equal(params.b, np.eye(10))
        assert gen.kind == "block_impulse"

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            synthetic_system("nope")

    def test_block_impulses_duty_cycle(self):
        rng = np.random.default_rng(0)
        xs = block_impulse_inputs(400, 2, rng)
        active = np.abs(xs).sum(axis=1) > 0
        assert active[:20].all() and not active[20:80].any()
        assert abs(active.mean() - 0.25) < 0.05


class TestPendulum:
    def test_rest_stays_at_rest(self):
        traj = pendulum_simulate(np.zeros((50, 1)), 0.0, 0.0)
        assert np.abs(traj.outputs).max() == 0.0

    def test_small_angle_matches_linearization(self):
        rng = np.random.default_rng(1)
        xs = 0.02 * rng.standard_normal((100, 1))
        traj = pendulum_simulate(xs, 0.0, 0.0)
        # oracle: identical RK4 on the linearized dynamics
        dt, gl, gamma = 0.01, 1.0, 0.1
        th, om = 0.0, 0.0
        lin = np.zeros(100)
        for t in range(100):
            u = xs[t, 0]

            def rhs(s):
                return np.array([s[1], -gl * s[0] - gamma * s[1] + u])

            s = np.array([th, om])
            k1 = rhs(s)
            k2 = rhs(s + dt / 2 * k1)
            k3 = rhs(s + dt / 2 * k2)
            k4 = rhs(s + dt * k3)
            th, om = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            lin[t] = th
        assert np.abs(traj.outputs[:, 0] - lin).max() <= 1e-3

    def test_energy_dissipates_without_forcing(self):
        torque = np.zeros((3000, 1))
        torque[:50] = 2.0  # a pulse from rest, then free swinging
        traj = pendulum_simulate(torque, 0.0, 0.0)
        theta = traj.outputs[:, 0]
        omega = np.gradient(theta, 0.01)
        energy = 0.5 * omega**2 + (1 - np.cos(theta))
        # coarse comparison; the finite-difference omega is approximate
        assert energy[-1] < energy[100] * 0.9

    def test_divergence_detected(self):
        with pytest.raises(FloatingPointError):
            pendulum_simulate(1e308 * np.ones((400, 1)), 0.0, 0.0)

    def test_rejects_zero_steps_as_simulate_does(self):
        params = LdsParams(a=np.zeros(1), b=np.ones((1, 1)), c=np.ones((1, 1)),
                           d=np.zeros((1, 1)), h0=np.zeros(1))
        for run in (lambda xs: pendulum_simulate(xs, 0.0, 0.0), lambda xs: simulate(params, xs)):
            with pytest.raises(ValueError, match="^need at least one input step$"):
                run(np.zeros((0, 1)))


class TestTrajectory:
    def test_recorded_bounds_cover_actuals(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((20, 2))
        ys = rng.standard_normal((20, 1))
        traj = Trajectory(inputs=xs, outputs=ys)
        assert traj.r_x >= np.linalg.norm(xs, axis=1).max()
        prev = np.vstack([np.zeros((1, 1)), ys[:-1]])
        assert traj.l_y >= np.linalg.norm(ys - prev, axis=1).max()

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(inputs=np.zeros((5, 1)), outputs=np.zeros((4, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["inputs", "outputs"])
    def test_rejects_non_finite_naming_step_and_column(self, field, bad):
        arrays = {"inputs": np.zeros((6, 3)), "outputs": np.zeros((6, 3))}
        arrays[field][3, 1] = bad
        arrays[field][5, 0] = np.nan  # only the first bad entry is named
        with pytest.raises(ValueError, match=f"{field} hold .* at step 4, column 2"):
            Trajectory(**arrays)

    def test_bounds_of_huge_finite_entries_stay_finite(self):
        # the plain sum of squares overflows; the bounds are rescaled instead
        traj = Trajectory(inputs=[[1e300, 1e300], [0.0, 0.0]], outputs=[[1e300], [-1e300]])
        assert traj.r_x == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-15)
        assert traj.l_y == pytest.approx(2e300, rel=1e-15)

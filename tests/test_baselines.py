import numpy as np
import pytest

from wavefilter.baselines import baseline_ar, baseline_last_value
from wavefilter.filters import build_filter_bank
from wavefilter.lds import LdsParams, NoiseConfig, Trajectory, simulate, synthetic_system
from wavefilter.online import OnlineConfig, run_ftl


class TestLastValue:
    def test_constant_output_is_free_after_first_step(self):
        ys = np.ones((10, 2))
        traj = Trajectory(inputs=np.zeros((10, 1)), outputs=ys)
        preds = baseline_last_value(traj)
        losses = ((ys - preds) ** 2).sum(axis=1)
        assert losses[0] == pytest.approx(2.0)
        assert losses[1:].max() == 0.0

    def test_loss_is_squared_step_difference(self):
        rng = np.random.default_rng(0)
        ys = rng.standard_normal((20, 2))
        traj = Trajectory(inputs=np.zeros((20, 1)), outputs=ys)
        preds = baseline_last_value(traj)
        losses = ((ys - preds) ** 2).sum(axis=1)
        diffs = (traj.output_differences() ** 2).sum(axis=1)
        assert losses == pytest.approx(diffs)
        assert losses.max() <= traj.l_y**2 + 1e-12


class TestAutoregressive:
    def test_feedthrough_exact_after_burn_in(self):
        rng = np.random.default_rng(1)
        params = LdsParams(
            a=np.zeros(1), b=np.zeros((1, 2)), c=np.zeros((1, 1)),
            d=rng.standard_normal((1, 2)), h0=np.zeros(1),
        )
        traj = simulate(params, rng.standard_normal((60, 2)))
        preds = baseline_ar(traj, tau=0, ridge=1e-10)
        errs = np.abs(preds - traj.outputs).max(axis=1)
        assert errs[10:].max() <= 1e-6

    def test_zero_inputs_zero_predictions(self):
        traj = Trajectory(
            inputs=np.zeros((15, 2)), outputs=np.random.default_rng(2).standard_normal((15, 1))
        )
        preds = baseline_ar(traj, tau=3)
        assert np.abs(preds).max() == 0.0

    def test_singular_gram_without_ridge_raises(self):
        # a dead input channel leaves a zero row in the unregularized Gram
        xs = np.random.default_rng(3).standard_normal((20, 2))
        xs[:, 1] = 0.0
        traj = Trajectory(inputs=xs, outputs=np.ones((20, 1)))
        with pytest.raises(np.linalg.LinAlgError):
            baseline_ar(traj, tau=1, ridge=0.0)
        for ridge in (np.inf, np.nan):  # an infinite ridge would keep every prediction at zero
            with pytest.raises(np.linalg.LinAlgError, match=f"^ridge {ridge} is not finite$"):
                baseline_ar(traj, tau=1, ridge=ridge)

    def test_rejects_negative_window(self):
        traj = Trajectory(inputs=np.zeros((5, 1)), outputs=np.zeros((5, 1)))
        with pytest.raises(ValueError):
            baseline_ar(traj, tau=-1)

    def test_short_window_loses_to_wave_filtering(self):
        # the almost-unit mode outlives any short input window
        params, gen = synthetic_system("siso_hard")
        T, k = 1500, 25
        bank = build_filter_bank(T, k)
        wave_wins = 0
        for seed in range(3):
            rng = np.random.default_rng([seed, 1])
            traj = simulate(params, gen.generate(T, 1, rng), NoiseConfig(0.1, 0.1, seed))
            ar_preds = baseline_ar(traj, tau=4, ridge=1e-6)
            ar_mse = float(((traj.outputs - ar_preds) ** 2).mean())
            result = run_ftl(traj, OnlineConfig(bank=bank, r_m=10.0), ridge=1e-6)
            wave_wins += result.losses.mean() < ar_mse
        assert wave_wins == 3

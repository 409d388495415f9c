import csv
import json

import numpy as np
import pytest

from wavefilter import io, online
from wavefilter.baselines import baseline_ar, baseline_last_value
from wavefilter.cli import main
from wavefilter.experiments import (
    EXPERIMENT_NAMES,
    default_experiment_config,
    run_experiment,
    simulate_scenario,
)
from wavefilter.filters import FeatureLayout, build_filter_bank, featurize_batch
from wavefilter.lds import (
    LdsParams,
    NoiseConfig,
    PendulumConfig,
    block_impulse_inputs,
    pendulum_simulate,
    simulate,
    synthetic_system,
)
from wavefilter.online import OnlineConfig, run_ftl
from wavefilter.verify import check_filter_bank


@pytest.fixture
def small_trajectory():
    rng = np.random.default_rng(0)
    params = LdsParams(
        a=np.array([0.9, 0.3]),
        b=rng.standard_normal((2, 2)),
        c=rng.standard_normal((2, 2)),
        d=np.zeros((2, 2)),
        h0=np.zeros(2),
    )
    return simulate(params, rng.standard_normal((40, 2)), NoiseConfig(0.05, 0.05, 3))


class TestRoundTrips:
    def test_filter_bank(self, tmp_path):
        bank = build_filter_bank(50, 6)
        io.save_filter_bank(bank, tmp_path / "bank")
        loaded = io.load_filter_bank(tmp_path / "bank")
        assert np.array_equal(loaded.phis, bank.phis)
        assert np.array_equal(loaded.sigmas, bank.sigmas)
        assert loaded.method == "eigen"
        meta = json.loads((tmp_path / "bank.json").read_text())
        assert meta["T"] == 50 and meta["k"] == 6
        assert meta["sign_convention"] == io.SIGN_CONVENTION

    def test_ode_bank_records_lambdas(self, tmp_path):
        bank = build_filter_bank(60, 20, method="ode")
        io.save_filter_bank(bank, tmp_path / "bank")
        loaded = io.load_filter_bank(tmp_path / "bank")
        assert loaded.lambdas is not None
        assert np.array_equal(loaded.lambdas, bank.lambdas)
        assert np.array_equal(loaded.sigma_extrapolated, bank.sigma_extrapolated)

    def test_trajectory(self, tmp_path, small_trajectory):
        io.save_trajectory(small_trajectory, tmp_path / "traj", {"generator": "test"})
        loaded = io.load_trajectory(tmp_path / "traj")
        assert np.array_equal(loaded.inputs, small_trajectory.inputs)
        assert np.array_equal(loaded.outputs, small_trajectory.outputs)

    def test_input_csv(self, tmp_path, small_trajectory):
        io.save_trajectory(small_trajectory, tmp_path / "traj")
        xs, ys = io.load_input_csv(tmp_path / "traj.csv")
        assert np.array_equal(xs, small_trajectory.inputs)
        assert np.array_equal(ys, small_trajectory.outputs)

    def test_predictor(self, tmp_path):
        layout = FeatureLayout(n=2, k=3, m=2, include_y=True)
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((2, layout.width))
        io.save_predictor(matrix, layout, tmp_path / "pred", source="relaxation")
        loaded, lay, meta = io.load_predictor(tmp_path / "pred")
        assert np.array_equal(loaded, matrix)
        assert lay == layout
        assert meta["source"] == "relaxation"

    def test_features(self, tmp_path):
        bank = build_filter_bank(30, 4)
        xs = np.random.default_rng(2).standard_normal((30, 2))
        feats = featurize_batch(xs, bank)
        io.save_features(feats.entries, feats.layout, tmp_path / "feats")
        meta = json.loads((tmp_path / "feats.json").read_text())
        assert meta["width"] == feats.layout.width
        data = io._read_matrix_csv(tmp_path / "feats.csv", skip_header=False)
        assert np.array_equal(data, feats.entries)

    def test_training_set_manifest(self, tmp_path, small_trajectory):
        io.save_trajectory(small_trajectory, tmp_path / "ep0")
        io.save_trajectory(small_trajectory, tmp_path / "ep1")
        (tmp_path / "manifest.json").write_text(
            json.dumps({"trajectories": ["ep0", "ep1"]})
        )
        loaded = io.load_training_set(tmp_path)
        assert len(loaded) == 2
        assert np.array_equal(loaded[0].outputs, small_trajectory.outputs)


class TestTrajectorySidecar:
    def _saved(self, tmp_path, **sidecar):
        base = tmp_path / "traj"
        io.save_trajectory(simulate_scenario("mimo_10", 50, 0, 0.1, 0.1), base)
        meta = json.loads(base.with_suffix(".json").read_text())
        meta.update(sidecar)
        base.with_suffix(".json").write_text(json.dumps(meta))
        return base

    def test_column_count_disagreeing_with_n_and_m_raises(self, tmp_path):
        base = self._saved(tmp_path, n=11)
        with pytest.raises(ValueError, match=r"traj\.csv has 21 columns.*n=11, m=10"):
            io.load_trajectory(base)

    def test_row_count_disagreeing_with_T_raises(self, tmp_path):
        base = self._saved(tmp_path, T=99)
        with pytest.raises(ValueError, match=r"traj\.csv has 50 rows.*T=99"):
            io.load_trajectory(base)


class TestCli:
    def test_filters_writes_bank(self, tmp_path, capsys):
        out = tmp_path / "bank"
        rc = main(["filters", "--T", "100", "--k", "8", "--out", str(out)])
        assert rc == 0
        loaded = io.load_filter_bank(out)
        assert loaded.phis.shape == (8, 100)

    def test_filters_rejects_zero_k(self, tmp_path):
        with pytest.raises(ValueError):
            main(["filters", "--T", "100", "--k", "0", "--out", str(tmp_path / "b")])

    def test_simulate_online_batch_pipeline(self, tmp_path, capsys):
        traj_base = tmp_path / "traj"
        rc = main(
            ["simulate", "--system", "siso_hard", "--T", "120", "--seed", "1",
             "--out", str(traj_base)]
        )
        assert rc == 0
        rc = main(
            ["online", "--data", str(traj_base), "--k", "8", "--out",
             str(tmp_path / "model")]
        )
        assert rc == 0
        steps = list(csv.DictReader((tmp_path / "model.steps.csv").open()))
        assert len(steps) == 120
        cum = 0.0
        for row in steps:
            cum += float(row["loss"])
            assert float(row["cumulative_loss"]) == pytest.approx(cum, rel=1e-12)

        (tmp_path / "train").mkdir()
        for i in range(2):
            main(
                ["simulate", "--system", "siso_hard", "--T", "120", "--seed",
                 str(10 + i), "--out", str(tmp_path / "train" / f"ep{i}")]
            )
        (tmp_path / "train" / "manifest.json").write_text(
            json.dumps({"trajectories": ["ep0", "ep1"]})
        )
        rc = main(
            ["batch", "--data", str(tmp_path / "train"), "--k", "8", "--out",
             str(tmp_path / "bmodel")]
        )
        assert rc == 0
        matrix, layout, meta = io.load_predictor(tmp_path / "bmodel")
        assert meta["source"] == "batch"
        assert matrix.shape == (1, layout.width)

    @pytest.mark.parametrize(
        "system, stds",
        [(name, (0.1, 0.1)) for name in EXPERIMENT_NAMES]
        + [("pendulum", (0.4, 0.3)), ("siso_hard", (0.4, 0.3))],
    )
    def test_simulate_writes_the_scenario_trajectory(self, tmp_path, system, stds):
        argv = ["simulate", "--system", system, "--T", "60", "--seed", "2",
                "--process-std", str(stds[0]), "--observation-std", str(stds[1]),
                "--out", str(tmp_path / "cli")]
        assert main(argv) == 0
        traj = simulate_scenario(system, 60, 2, *stds)
        io.save_trajectory(traj, tmp_path / "direct")
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()
        direct_meta = json.loads((tmp_path / "direct.json").read_text())
        cli_meta = json.loads((tmp_path / "cli.json").read_text())
        assert {key: cli_meta[key] for key in direct_meta} == direct_meta
        assert cli_meta["generator"] == system and cli_meta["seed"] == 2
        assert cli_meta["noise"] == {"process_std": stds[0], "observation_std": stds[1]}
        if stds != (0.1, 0.1):  # the noise flags reach the simulator
            default = simulate_scenario(system, 60, 2, 0.1, 0.1)
            assert not np.array_equal(traj.outputs, default.outputs)

    def test_verify_detects_corrupt_bank(self, tmp_path):
        base = tmp_path / "bank"
        main(["filters", "--T", "60", "--k", "5", "--out", str(base)])
        bank = io.load_filter_bank(base)
        checks = check_filter_bank(bank)
        assert all(c.passed for c in checks)
        # corrupt one filter entry and re-validate
        rows = (base.with_suffix(".csv")).read_text().splitlines()
        cells = rows[4].split(",")
        cells[2] = io.FLOAT_FMT % 0.5
        rows[4] = ",".join(cells)
        base.with_suffix(".csv").write_text("\n".join(rows) + "\n")
        corrupt = io.load_filter_bank(base)
        checks = check_filter_bank(corrupt)
        assert not all(c.passed for c in checks)

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 80, "k": 6}))
        out = tmp_path / "bank"
        rc = main(["filters", "--config", str(cfg), "--T", "70", "--k", "6",
                   "--out", str(out)])
        assert rc == 0
        loaded = io.load_filter_bank(out)
        assert loaded.horizon == 70  # explicit flag wins over config file


class TestExperiments:
    def test_deterministic_outputs(self, tmp_path):
        config = default_experiment_config(
            "siso_hard", horizon=150, seeds=(0, 1), out_dir=str(tmp_path / "a")
        )
        run_experiment(config)
        config_b = default_experiment_config(
            "siso_hard", horizon=150, seeds=(0, 1), out_dir=str(tmp_path / "b")
        )
        run_experiment(config_b)
        for name in ("rows_siso_hard_seed0.csv", "summary_siso_hard.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_threaded_matches_serial(self, tmp_path):
        config = default_experiment_config("siso_hard", horizon=120, seeds=(0, 1, 2))
        serial = run_experiment(config, threads=1)
        threaded = run_experiment(config, threads=3)
        assert serial == threaded

    def test_summary_matches_row_recomputation(self, tmp_path):
        config = default_experiment_config(
            "siso_hard", horizon=150, seeds=(0, 1), out_dir=str(tmp_path)
        )
        summary = run_experiment(config)
        per_learner = {}
        for seed in (0, 1):
            rows = list(
                csv.DictReader((tmp_path / f"rows_siso_hard_seed{seed}.csv").open())
            )
            assert rows, "rows csv should not be empty"
            by_learner = {}
            for row in rows:
                by_learner.setdefault(row["learner"], []).append(float(row["loss"]))
                # cumulative MSE column is the running mean of losses
            for learner, losses in by_learner.items():
                per_learner.setdefault(learner, []).append(np.mean(losses))
            # spot-check the running mean invariant on one learner
            wave = [r for r in rows if r["learner"] == "wave_filter"]
            cum = np.cumsum([float(r["loss"]) for r in wave])
            means = cum / np.arange(1, len(wave) + 1)
            stored = np.array([float(r["cumulative_mse"]) for r in wave])
            assert np.allclose(stored, means, rtol=1e-10)
        for learner, vals in per_learner.items():
            assert summary["final_mse"][learner] == pytest.approx(np.mean(vals))

    def test_one_featurization_and_comparator_fit_per_seed(self, monkeypatch):
        calls = {"featurize_batch": 0, "_constrained_least_squares": 0}
        for name in calls:
            original = getattr(online, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(online, name, counted)
        config = default_experiment_config("siso_hard", horizon=120, seeds=(0, 1))
        run_experiment(config)
        assert calls == {"featurize_batch": 2, "_constrained_least_squares": 2}

    @pytest.mark.parametrize("name", ["pendulum", "mimo_10"])
    def test_experiment_wiring_matches_direct_calls(self, name):
        # the intended settings: R_M = r_theta^2 sqrt(k) (r_theta^2 = 2 for
        # the pendulum), ridge 1 for FTL and AR, AR window 4, noise 0.1
        T, k, seeds = 120, 25, (0, 1)
        summary = run_experiment(default_experiment_config(name, horizon=T, seeds=seeds))
        bank = build_filter_bank(T, k)
        per_seed = {"ar": [], "last_value": [], "wave_filter": []}
        gaps = []
        for seed in seeds:
            rng = np.random.default_rng([seed, 1])
            if name == "pendulum":
                r_m = 2.0 * np.sqrt(k)
                inputs = block_impulse_inputs(T, 1, rng, scale=2.0)
                pend = PendulumConfig(accel_noise_std=0.05, obs_noise_std=0.001)
                traj = pendulum_simulate(pend, inputs, seed=seed)
            else:
                params, gen = synthetic_system(name, seed=0)
                r_m = params.r_theta**2 * np.sqrt(k)
                inputs = gen.generate(T, params.input_dim, rng)
                traj = simulate(params, inputs, NoiseConfig(0.1, 0.1, seed))
            ftl = run_ftl(traj, OnlineConfig(bank=bank, r_m=float(r_m)), ridge=1.0)
            for learner, preds in (
                ("ar", baseline_ar(traj, tau=4, ridge=1.0)),
                ("last_value", baseline_last_value(traj)),
            ):
                losses = ((traj.outputs - preds) ** 2).sum(axis=1)
                per_seed[learner].append(float(losses.mean()))
            per_seed["wave_filter"].append(float(ftl.losses.mean()))
            gaps.append(ftl.losses.sum() - ftl.comparator_losses.sum())
        assert summary["per_seed_final_mse"] == per_seed
        assert summary["comparator_gap"] == float(np.mean(gaps))

    def test_pendulum_smoke(self):
        config = default_experiment_config("pendulum", horizon=150, seeds=(0,))
        summary = run_experiment(config)
        assert "wave_filter" in summary["final_mse"]

    def test_mimo_learner_beats_last_value(self):
        config = default_experiment_config("mimo_10", horizon=400, seeds=(0, 1), k=8)
        summary = run_experiment(config)
        assert summary["final_mse"]["wave_filter"] < summary["final_mse"]["last_value"]


class TestRelaxationExport:
    def test_relaxed_predictor_round_trip(self, tmp_path):
        from wavefilter.lds import LdsParams
        from wavefilter.relaxation import build_M_theta

        rng = np.random.default_rng(7)
        bank = build_filter_bank(40, 5)
        params = LdsParams(
            a=rng.uniform(0, 1, 3),
            b=rng.standard_normal((3, 2)),
            c=rng.standard_normal((2, 3)),
            d=rng.standard_normal((2, 2)),
            h0=np.zeros(3),
        )
        pred = build_M_theta(params, bank)
        io.save_predictor(
            pred.as_matrix(), pred.layout, tmp_path / "mtheta", source="relaxation"
        )
        matrix, layout, meta = io.load_predictor(tmp_path / "mtheta")
        assert meta["source"] == "relaxation"
        assert np.array_equal(matrix, pred.as_matrix())
        assert layout == pred.layout

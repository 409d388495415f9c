import csv
import json
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wavefilter import cli, experiments, filters, io, online
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
    Trajectory,
    NoiseConfig,
    block_impulse_inputs,
    pendulum_simulate,
    simulate,
    synthetic_system,
)
from wavefilter.online import OnlineConfig, run_ftl, run_online
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


# Reference writers: the csv-module loops the package used before it had its
# own vectorized writer. Every file must stay byte-identical to them.
FMT = "%.17e"


def cli_error(capsys, argv) -> str:
    """The message of a CLI call that must fail on its input with exit status 2."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    prefix = f"wavefilter {argv[0]}: error: "
    assert err.startswith(prefix) and "Traceback" not in err, err
    return err[len(prefix):].rstrip("\n")


def _reference_matrix_csv(path, matrix):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(matrix):
            writer.writerow([FMT % v for v in row])


def _reference_trajectory_csv(path, trajectory):
    n, m = trajectory.input_dim, trajectory.output_dim
    header = ["t"] + [f"x_{i+1}" for i in range(n)] + [f"y_{i+1}" for i in range(m)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(trajectory.length):
            row = [str(t + 1)]
            row += [FMT % v for v in trajectory.inputs[t]]
            row += [FMT % v for v in trajectory.outputs[t]]
            writer.writerow(row)


def _reference_step_csv(path, result, outputs_width):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t", "loss", "cumulative_loss", "matrix_norm"]
        header += [f"yhat_{i+1}" for i in range(outputs_width)]
        writer.writerow(header)
        cum = 0.0
        for t in range(len(result.losses)):
            cum += result.losses[t]
            row = [str(t + 1), FMT % result.losses[t], FMT % cum, FMT % result.matrix_norms[t]]
            row += [FMT % v for v in result.predictions[t]]
            writer.writerow(row)


def _reference_result_rows_csv(path, experiment, seed, losses_by_learner):
    fields = ["experiment", "seed", "t", "learner", "loss", "cumulative_mse"]
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for learner, losses in losses_by_learner.items():
            cum = np.cumsum(losses) / np.arange(1, len(losses) + 1)
            for t in range(len(losses)):
                writer.writerow(
                    {"experiment": experiment, "seed": seed, "t": t + 1, "learner": learner,
                     "loss": FMT % float(losses[t]), "cumulative_mse": FMT % float(cum[t])}
                )


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

    def test_predictor(self, tmp_path):
        layout = FeatureLayout(n=2, k=3, m=2)
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((2, layout.width))
        io.save_predictor(matrix, layout, tmp_path / "pred", source="relaxation")
        loaded, lay, meta = io.load_predictor(tmp_path / "pred")
        assert np.array_equal(loaded, matrix)
        assert lay == layout
        assert meta["source"] == "relaxation"

    def test_dotted_base_names_stay_distinct(self, tmp_path, small_trajectory):
        other = simulate_scenario("siso_hard", 30, 0, 0.1, 0.1)
        pairs = [io.save_trajectory(small_trajectory, tmp_path / "ep.1"),
                 io.save_trajectory(other, tmp_path / "ep.2")]
        assert pairs == [(tmp_path / f"ep.{i}.csv", tmp_path / f"ep.{i}.json") for i in (1, 2)]
        assert np.array_equal(io.load_trajectory(tmp_path / "ep.1").outputs,
                              small_trajectory.outputs)
        assert np.array_equal(io.load_trajectory(tmp_path / "ep.2").outputs, other.outputs)
        # a name that already ends in .csv or .json has that suffix replaced
        pair = io.save_trajectory(other, tmp_path / "run.csv")
        assert pair == (tmp_path / "run.csv", tmp_path / "run.json")
        assert np.array_equal(io.load_trajectory(tmp_path / "run.json").outputs, other.outputs)

    def test_training_set_manifest(self, tmp_path, small_trajectory):
        io.save_trajectory(small_trajectory, tmp_path / "ep0")
        io.save_trajectory(small_trajectory, tmp_path / "ep1")
        (tmp_path / "manifest.json").write_text(
            json.dumps({"trajectories": ["ep0", "ep1"]})
        )
        loaded = io.load_training_set(tmp_path)
        assert len(loaded) == 2
        assert np.array_equal(loaded[0].outputs, small_trajectory.outputs)

    def test_training_set_reads_each_trajectory_when_accessed(self, tmp_path, monkeypatch):
        trajectories = [simulate_scenario("mimo_10", 40, seed, 0.1, 0.1) for seed in range(3)]
        for i, traj in enumerate(trajectories):
            io.save_trajectory(traj, tmp_path / f"ep{i}")
        (tmp_path / "manifest.json").write_text(json.dumps({"trajectories": ["ep0", "ep1", "ep2"]}))
        reads, load = [], io.load_trajectory
        monkeypatch.setattr(io, "load_trajectory", lambda base: reads.append(base) or load(base))
        loaded = io.load_training_set(tmp_path)
        assert reads == []  # only the sidecars are read up front
        assert (len(loaded), loaded.length, loaded.input_dim, loaded.output_dim) == (3, 40, 10, 10)
        assert np.array_equal(loaded[-1].outputs, trajectories[2].outputs)
        for got, expected in zip(loaded, trajectories):
            assert np.array_equal(got.inputs, expected.inputs)
        assert np.array_equal(loaded[1].outputs, trajectories[1].outputs)
        assert [base.name for base in reads] == ["ep2", "ep0", "ep1", "ep2", "ep1"]  # none kept
        with pytest.raises(IndexError):
            loaded[3]
        with pytest.raises(TypeError):
            loaded[0:2]


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

    def test_bounds_of_huge_finite_entries_are_standard_json(self, tmp_path):
        base = tmp_path / "traj"
        traj = Trajectory(inputs=[[1e300, 1e300]], outputs=[[1e300]])
        io.save_trajectory(traj, base)
        text = base.with_suffix(".json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        meta = json.loads(text)
        assert meta["r_x"] == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-15)
        assert meta["l_y"] == 1e300

    def test_bounds_beyond_the_double_range_are_null(self, tmp_path):
        big = np.finfo(float).max
        base = tmp_path / "traj"
        traj = Trajectory(inputs=[[big, big], [0.0, 0.0]], outputs=[[big], [-big]])
        io.save_trajectory(traj, base)
        meta = json.loads(base.with_suffix(".json").read_text())
        assert meta["r_x"] is None and meta["l_y"] is None


class TestByteIdentity:
    """Every table the package writes equals the reference writers' bytes."""

    @pytest.mark.parametrize("system", EXPERIMENT_NAMES)
    def test_trajectory(self, tmp_path, system):
        traj = simulate_scenario(system, 80, 1, 0.4, 0.3)
        csv_path, _ = io.save_trajectory(traj, tmp_path / "traj")
        _reference_trajectory_csv(tmp_path / "ref.csv", traj)
        assert csv_path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_trajectory_longer_than_one_chunk(self, tmp_path):
        traj = simulate_scenario("mimo_10", 4000, 3, 0.1, 0.1)
        assert traj.length * (1 + traj.input_dim + traj.output_dim) > 1.2 * io._CHUNK_CELLS
        csv_path, _ = io.save_trajectory(traj, tmp_path / "traj")
        _reference_trajectory_csv(tmp_path / "ref.csv", traj)
        assert csv_path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_trajectory_without_inputs_or_outputs(self, tmp_path):
        traj = Trajectory(inputs=np.empty((3, 0)), outputs=np.empty((3, 0)))
        csv_path, _ = io.save_trajectory(traj, tmp_path / "traj")
        assert csv_path.read_bytes() == b"t\r\n1\r\n2\r\n3\r\n"
        loaded = io.load_trajectory(tmp_path / "traj")
        assert loaded.inputs.shape == loaded.outputs.shape == (3, 0)

    @pytest.mark.parametrize("labels", [None, ["1", "2", "3"]])
    def test_rows_without_cells(self, tmp_path, labels):
        rows = np.empty((3, 0))
        io._write_csv(tmp_path / "rows.csv", (), (labels, rows))
        heads = [[]] * 3 if labels is None else [[label] for label in labels]
        expected = "".join(",".join(head + [FMT % v for v in row]) + "\r\n"
                           for head, row in zip(heads, rows))
        assert (tmp_path / "rows.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("method, k", [("eigen", 8), ("ode", 20)])
    def test_filter_bank(self, tmp_path, method, k):
        bank = build_filter_bank(60, k, method=method)
        csv_path, _ = io.save_filter_bank(bank, tmp_path / "bank")
        _reference_matrix_csv(tmp_path / "ref.csv", bank.phis.T)
        assert csv_path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_predictor_and_features(self, tmp_path):
        layout = FeatureLayout(n=2, k=3, m=2)
        matrix = np.random.default_rng(5).standard_normal((2, layout.width))
        csv_path, _ = io.save_predictor(matrix, layout, tmp_path / "pred", source="test")
        _reference_matrix_csv(tmp_path / "ref.csv", matrix)
        assert csv_path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        feats = featurize_batch(np.random.default_rng(6).standard_normal((30, 2)),
                                build_filter_bank(30, 4))
        layout = FeatureLayout(n=2, k=4, m=0)  # a tall matrix of feature values
        csv_path, _ = io.save_predictor(feats, layout, tmp_path / "feats", source="test")
        _reference_matrix_csv(tmp_path / "ref.csv", feats)
        assert csv_path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_special_values(self, tmp_path):
        row = np.array([[np.nan, np.inf, -np.inf, -0.0, 1e-320, 5e300]])
        layout = FeatureLayout(n=2, k=1, m=0)
        csv_path, _ = io.save_predictor(row, layout, tmp_path / "pred", source="test")
        _reference_matrix_csv(tmp_path / "ref.csv", row)
        assert csv_path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("learner", ["ogd", "ftl"])
    def test_online_steps(self, tmp_path, capsys, learner):
        io.save_trajectory(simulate_scenario("mimo_10", 60, 0, 0.1, 0.1), tmp_path / "traj")
        argv = ["online", "--data", str(tmp_path / "traj"), "--k", "6",
                "--learner", learner, "--out", str(tmp_path / "model")]
        assert main(argv) == 0
        traj = io.load_trajectory(tmp_path / "traj")
        config = OnlineConfig(bank=build_filter_bank(60, 6), eta="auto", r_m=10.0)
        if learner == "ftl":
            result = run_ftl(traj, config)
        else:
            result = run_online(traj, config)
        _reference_step_csv(tmp_path / "ref.csv", result, traj.output_dim)
        written = (tmp_path / "model.steps.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()

    # 40000 steps take more than one chunk, with labels wider than a float cell
    @pytest.mark.parametrize("experiment, seed, T", [("mimo_10", 3, 40), ("siso_hard", 0, 40000)])
    def test_result_rows(self, tmp_path, experiment, seed, T):
        rng = np.random.default_rng(4)
        losses = {
            "wave_filter": rng.exponential(size=T),
            "last_value": rng.exponential(size=T) * 1e-300,
            "ar": np.array([0.0, 5e-324, 1e300, 2.5]),
        }
        path = io.save_result_rows(experiment, seed, losses, tmp_path / "rows.csv")
        assert path == tmp_path / "rows.csv"
        _reference_result_rows_csv(tmp_path / "ref.csv", experiment, seed, losses)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_experiment_rows_file(self, tmp_path, monkeypatch):
        outcomes = []
        original = experiments._run_seed

        def recorded(*args):
            outcomes.append(original(*args))
            return outcomes[-1]

        monkeypatch.setattr(experiments, "_run_seed", recorded)
        config = default_experiment_config(
            "siso_hard", horizon=60, seeds=(2,), out_dir=str(tmp_path)
        )
        run_experiment(config)
        (outcome,) = outcomes
        _reference_result_rows_csv(tmp_path / "ref.csv", "siso_hard", 2, outcome.losses)
        written = (tmp_path / "rows_siso_hard_seed2.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()


def _cells(values):
    """The writer's cells for a column of ``values``, and ``FMT % v`` for each."""
    values = np.asarray(values, dtype=float)
    lines = io._format_rows(values[:, None]).tobytes().decode().split("\r\n")
    assert lines[-1] == ""
    return lines[:-1], [FMT % v for v in values.tolist()]


def _neighbours(values, ulps):
    """``values`` and the ``ulps`` doubles on either side of each."""
    values = np.asarray(values, dtype=float)
    near, up, down = [values], values, values
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        near += [up, down]
    return np.concatenate(near)


class TestCellFormat:
    """Each cell the writer makes equals Python's ``'%.17e' % v``."""

    @given(values=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_double(self, values):
        written, expected = _cells(values)
        assert written == expected

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{p}") for p in range(-100, 101)])
        values = _neighbours(powers, 20)
        written, expected = _cells(np.concatenate((values, -values)))
        assert written == expected

    def test_exact_ties_round_half_to_even(self):
        # m / 2**q with m odd has the decimal digits of m * 5**q, ending in 5;
        # with 19 of them, printing 18 is an exact tie
        rng = random.Random(0)
        ties = []
        for q in range(4, 27):
            low, high = -(-10**18 // 5**q), min(10**19 // 5**q, 2**53)
            for _ in range(200):
                m = rng.randrange(low, high) | 1
                if len(str(m * 5**q)) == 19:
                    ties.append(m / 2**q)
        assert len(ties) > 4000
        written, expected = _cells(ties + [-t for t in ties])
        assert written == expected
        # m * 5**q ends in 25 or 75: a tie 2|5 rounds down to 2, a tie 7|5 up to 8
        assert {cell[18] for cell in written[: len(ties)]} == {"2", "8"}

    def test_zeros_integers_and_the_range_ends(self):
        integers = [1.0, 2.0, 3.0, 10.0, 255.0, 1e15, 2.0**53, 1e22, 1e23]
        ends = _neighbours([1e-99, 9.999e99, 1e100], 3)
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                   np.finfo(float).max]
        values = np.concatenate((integers, np.negative(integers), ends, special))
        written, expected = _cells(values)
        assert written == expected


# finite doubles, with signed zeros, subnormals and +-1e300 always in reach
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_TABLES = arrays(
    np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6), elements=_FINITE
)


def _identical(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestTableRoundTrip:
    @given(matrix=_TABLES)
    @settings(max_examples=60, deadline=None)
    def test_matrix(self, tmp_path_factory, matrix):
        path = tmp_path_factory.mktemp("table") / "m.csv"
        io._write_csv(path, (), (None, matrix))
        _reference_matrix_csv(path.with_name("ref.csv"), matrix)
        assert path.read_bytes() == path.with_name("ref.csv").read_bytes()
        assert _identical(io._read_matrix_csv(path, skip_header=False), matrix)

    @given(matrix=_TABLES)
    @settings(max_examples=40, deadline=None)
    def test_trajectory(self, tmp_path_factory, matrix):
        base = tmp_path_factory.mktemp("traj") / "traj"
        with np.errstate(over="ignore"):  # r_x and l_y of +-1e300 entries overflow
            traj = Trajectory(inputs=matrix, outputs=matrix[:, ::-1])
            io.save_trajectory(traj, base)
            loaded = io.load_trajectory(base)
        assert _identical(loaded.inputs, traj.inputs)
        assert _identical(loaded.outputs, traj.outputs)

    def test_good_payload_is_split_by_numpy_alone(self, tmp_path, monkeypatch):
        io.save_trajectory(simulate_scenario("mimo_10", 20, 0, 0.1, 0.1), tmp_path / "traj")
        read, read_text = [], Path.read_text

        def recorded(path, *args, **kwargs):
            read.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", recorded)
        assert io.load_trajectory(tmp_path / "traj").length == 20
        assert read == ["traj.json"]


class TestReaderRejects:
    """Bad payloads fail at the reader, naming the file, line and column."""

    def _rewrite(self, path, line, edit):
        # rewritten with \n endings, which the reader accepts as well
        lines = path.read_text().splitlines()
        cells = lines[line - 1].split(",")
        lines[line - 1] = ",".join(edit(cells))
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "cell, why",
        [("abc", "'abc' is not a number"), ("1_0", "'1_0' is not a number"),
         ("nan", "'nan' is not finite"), ("-inf", "'-inf' is not finite")],
    )
    def test_bad_cell(self, tmp_path, cell, why):
        io.save_filter_bank(build_filter_bank(30, 4), tmp_path / "bank")
        self._rewrite(tmp_path / "bank.csv", 3, lambda c: c[:3] + [cell])
        with pytest.raises(ValueError, match=r"bank\.csv, line 3, column 4: " + re.escape(why)):
            io.load_filter_bank(tmp_path / "bank")

    @pytest.mark.parametrize(
        "edit, where",
        [(lambda c: c + ["1.0"], "column 22: 22 cells, not 21"),
         (lambda c: c[:-2], "column 20: 19 cells, not 21")],
    )
    def test_ragged_row(self, tmp_path, edit, where):
        io.save_trajectory(simulate_scenario("mimo_10", 20, 0, 0.1, 0.1), tmp_path / "traj")
        self._rewrite(tmp_path / "traj.csv", 5, edit)
        with pytest.raises(ValueError, match=r"traj\.csv, line 5, " + where):
            io.load_trajectory(tmp_path / "traj")

    def test_non_finite_trajectory_value(self, tmp_path):
        io.save_trajectory(simulate_scenario("siso_hard", 20, 0, 0.1, 0.1), tmp_path / "traj")
        self._rewrite(tmp_path / "traj.csv", 7, lambda c: c[:2] + ["inf"])
        with pytest.raises(ValueError, match=r"traj\.csv, line 7, column 3: 'inf' is not finite"):
            io.load_trajectory(tmp_path / "traj")

    def test_header_only_payload_names_the_sidecar(self, tmp_path):
        io.save_trajectory(simulate_scenario("siso_hard", 20, 0, 0.1, 0.1), tmp_path / "traj")
        header = (tmp_path / "traj.csv").read_text().splitlines()[0]
        (tmp_path / "traj.csv").write_text(header + "\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"traj\.csv has 0 columns.*n=1, m=1"):
                io.load_trajectory(tmp_path / "traj")

    @pytest.mark.parametrize("payload, skip_header", [("", False), ("a,b\r\n\r\n", True),
                                                      ("a,b\r\n  \r\n", True)],
                             ids=["empty", "blank-line", "spaces"])
    def test_no_rows_read_as_an_empty_table(self, tmp_path, payload, skip_header):
        # numpy warns that such a payload holds no data, or fails on a blank
        # cell; neither escapes the reader
        path = tmp_path / "t.csv"
        path.write_bytes(payload.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert io._read_matrix_csv(path, skip_header).shape == (0, 0)


class TestSidecarCrossChecks:
    def _edit_sidecar(self, base, **changes):
        meta = json.loads(base.with_suffix(".json").read_text())
        for key, change in changes.items():
            meta[key] = change(meta[key])
        base.with_suffix(".json").write_text(json.dumps(meta))

    @pytest.mark.parametrize("key, value, claim", [("k", 4, "T=30, k=4"), ("T", 31, "T=31, k=5")])
    def test_bank_payload_shape(self, tmp_path, key, value, claim):
        # a k=4 sidecar beside a 5-filter payload, or a T=31 one beside 30 rows
        base = tmp_path / "bank"
        io.save_filter_bank(build_filter_bank(30, 5), base)
        self._edit_sidecar(base, **{key: lambda v: value})
        expected = r"bank\.csv has shape \(30, 5\); sidecar .*bank\.json says " + claim
        with pytest.raises(ValueError, match=expected):
            io.load_filter_bank(base)

    @pytest.mark.parametrize("key", ["sigmas", "lambdas", "sigma_extrapolated"])
    def test_bank_sidecar_list_length(self, tmp_path, key):
        base = tmp_path / "bank"
        io.save_filter_bank(build_filter_bank(40, 6, method="ode"), base)
        self._edit_sidecar(base, **{key: lambda v: v[:-1]})
        expected = rf"bank\.csv comes with 5 {key}; sidecar .*bank\.json says k=6"
        with pytest.raises(ValueError, match=expected):
            io.load_filter_bank(base)

    def test_predictor_width(self, tmp_path):
        base = tmp_path / "pred"
        layout = FeatureLayout(n=2, k=3, m=2)
        io.save_predictor(np.ones((2, layout.width)), layout, base, source="test")
        self._edit_sidecar(base, layout=lambda lay: {**lay, "m": 4, "width": 14})
        with pytest.raises(ValueError, match=r"pred\.csv has 12 columns; .* says layout width 14"):
            io.load_predictor(base)

    @pytest.mark.parametrize(
        "change, claim",
        [
            ({"width": 999}, "width 999, include_y True"),
            ({"include_y": False}, "width 12, include_y False"),
            ({"width": None}, "width None, include_y True"),  # None drops the key
        ],
        ids=["width", "include_y", "no-width"],
    )
    def test_predictor_layout_fields_must_follow_from_n_k_m(self, tmp_path, change, claim):
        base = tmp_path / "pred"
        layout = FeatureLayout(n=2, k=3, m=2)
        io.save_predictor(np.ones((2, layout.width)), layout, base, source="test")
        self._edit_sidecar(
            base, layout=lambda lay: {k: v for k, v in {**lay, **change}.items() if v is not None}
        )
        expected = (r"pred\.csv is laid out by n=2, k=3, m=2: width 12, include_y True; "
                    rf"sidecar .*pred\.json says {claim}")
        with pytest.raises(ValueError, match=expected):
            io.load_predictor(base)

    def test_predictor_layout_of_negative_counts_is_rejected_by_name(self, tmp_path):
        # n=-2, k=-4 gives width 4 like n=1, k=2, m=0, and once loaded a conv block of 8 columns
        base = tmp_path / "pred"
        layout = FeatureLayout(n=1, k=2, m=0)
        io.save_predictor(np.ones((1, layout.width)), layout, base, source="test")
        self._edit_sidecar(base, layout=lambda lay: {**lay, "n": -2, "k": -4})
        expected = r"pred\.csv is described by sidecar .*pred\.json, whose layout\.n must be at least 0"
        with pytest.raises(ValueError, match=expected):
            io.load_predictor(base)

    def test_predictor_rows(self, tmp_path):
        base = tmp_path / "pred"
        layout = FeatureLayout(n=1, k=2, m=0)
        io.save_predictor(np.ones((1, layout.width)), layout, base, source="test")
        self._edit_sidecar(base, rows=lambda v: 3)
        with pytest.raises(ValueError, match=r"pred\.csv has 1 rows; .* says rows=3"):
            io.load_predictor(base)

    def _drop_from_sidecar(self, base, key, within=None):
        meta = json.loads(base.with_suffix(".json").read_text())
        del (meta[within] if within else meta)[key]
        base.with_suffix(".json").write_text(json.dumps(meta))

    @pytest.mark.parametrize("key", ["n", "m", "T"])
    def test_trajectory_sidecar_without_a_key_names_both_files(self, tmp_path, small_trajectory, key):
        base = tmp_path / "traj"
        io.save_trajectory(small_trajectory, base)
        self._drop_from_sidecar(base, key)
        expected = rf"traj\.csv is described by sidecar .*traj\.json, which lacks {key}$"
        with pytest.raises(ValueError, match=expected):
            io.load_trajectory(base)

    @pytest.mark.parametrize("key", ["T", "k", "method", "sigmas"])
    def test_bank_sidecar_without_a_key_names_both_files(self, tmp_path, key):
        base = tmp_path / "bank"
        io.save_filter_bank(build_filter_bank(30, 5), base)
        self._drop_from_sidecar(base, key)
        expected = rf"bank\.csv is described by sidecar .*bank\.json, which lacks {key}$"
        with pytest.raises(ValueError, match=expected):
            io.load_filter_bank(base)

    @pytest.mark.parametrize(
        "key, within", [("layout", None), ("rows", None), ("n", "layout"), ("k", "layout"),
                        ("m", "layout")]
    )
    def test_predictor_sidecar_without_a_key_names_both_files(self, tmp_path, key, within):
        base = tmp_path / "pred"
        layout = FeatureLayout(n=2, k=3, m=2)
        io.save_predictor(np.ones((2, layout.width)), layout, base, source="test")
        self._drop_from_sidecar(base, key, within)
        name = f"{within}\\.{key}" if within else key
        expected = rf"pred\.csv is described by sidecar .*pred\.json, which lacks {name}$"
        with pytest.raises(ValueError, match=expected):
            io.load_predictor(base)

    def test_empty_manifest(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps({"trajectories": []}))
        with pytest.raises(ValueError, match=r"manifest\.json lists no trajectories"):
            io.load_training_set(tmp_path)
        argv = ["batch", "--data", str(tmp_path), "--out", str(tmp_path / "model")]
        assert re.search(r"manifest\.json lists no trajectories", cli_error(capsys, argv))

    @pytest.mark.parametrize("manifest, expected", [
        ({}, "lacks a trajectories list"),
        (["ep0"], "does not hold a JSON object"),
        ({"trajectories": "ep0"}, r"lists trajectories as 'ep0', not as a list of names"),
        ({"trajectories": ["ep0", 1]}, r"lists trajectories as \['ep0', 1\], not as a list"),
        ({"trajectories": ["ep0", "../ep0"]}, r"lists '\.\./ep0', which is not a plain file name"),
        ({"trajectories": ["/tmp/ep0"]}, r"lists '/tmp/ep0', which is not a plain file name"),
        ({"trajectories": ["sub/ep0"]}, r"lists 'sub/ep0', which is not a plain file name"),
        ({"trajectories": ["ep0", ""]}, r"lists '', which is not a plain file name"),
    ], ids=["missing", "not-an-object", "a-string", "a-number-among-names", "parent", "absolute",
            "subdirectory", "empty-name"])
    def test_malformed_manifest_names_the_manifest(self, tmp_path, manifest, expected, capsys):
        io.save_trajectory(simulate_scenario("mimo_10", 50, 0, 0.1, 0.1), tmp_path / "ep0")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=rf"manifest\.json {expected}"):
            io.load_training_set(tmp_path)
        argv = ["batch", "--data", str(tmp_path), "--out", str(tmp_path / "model")]
        assert re.search(rf"manifest\.json {expected}", cli_error(capsys, argv))

    def test_manifest_that_is_not_json_names_the_manifest(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"trajectories": ["ep0"]')
        expected = r"manifest\.json is not valid JSON: Expecting ',' delimiter"
        with pytest.raises(ValueError, match=expected):
            io.load_training_set(tmp_path)
        argv = ["batch", "--data", str(tmp_path), "--out", str(tmp_path / "model")]
        assert re.search(expected, cli_error(capsys, argv))

    @pytest.mark.parametrize("sidecar, expected", [
        ('{"n": 1', "is not valid JSON: Expecting"),
        ("3", "does not hold a JSON object"),
    ], ids=["malformed", "a-number"])
    @pytest.mark.parametrize("load", [io.load_trajectory, io.load_filter_bank, io.load_predictor],
                             ids=["trajectory", "bank", "predictor"])
    def test_sidecar_that_is_not_a_json_object_names_it(self, tmp_path, small_trajectory, load,
                                                        sidecar, expected):
        base = tmp_path / "pair"
        io.save_trajectory(small_trajectory, base)
        base.with_suffix(".json").write_text(sidecar)
        with pytest.raises(ValueError, match=rf"pair\.json {expected}"):
            load(base)

    @pytest.mark.parametrize("artifact, key, value, shown", [
        ("bank", "sigmas", 3, "3, not a list of finite numbers"),
        ("bank", "sigmas", [float("nan")] * 6, f"{[float('nan')] * 6}, not a list of finite numbers"),
        ("bank", "lambdas", [float("inf")] * 6, f"{[float('inf')] * 6}, not a list of finite numbers"),
        ("bank", "sigma_extrapolated", [0] * 6, f"{[0] * 6}, not a list of booleans"),
        ("bank", "method", 7, "7, not a string"),
        ("bank", "T", "x", "'x', not an integer"),
        ("traj", "T", "x", "'x', not an integer"),
        ("traj", "n", 1.0, "1.0, not an integer"),
        ("pred", "layout", 3, "3, not an object"),
        ("pred", "rows", True, "True, not an integer"),
        ("pred", "layout.n", "2", "'2', not an integer"),
    ], ids=["bank-sigmas", "bank-sigmas-nan", "bank-lambdas-inf", "bank-extrapolated", "bank-method",
            "bank-T", "traj-T", "traj-n", "pred-layout", "pred-rows", "pred-layout.n"])
    def test_sidecar_value_of_the_wrong_type_names_both_files(self, tmp_path, small_trajectory,
                                                              artifact, key, value, shown):
        load = self._saved_with(tmp_path / artifact, artifact, small_trajectory, key, value)
        expected = (rf"{artifact}\.csv is described by sidecar .*{artifact}\.json, "
                    rf"whose {re.escape(key)} is {re.escape(shown)}$")
        with pytest.raises(ValueError, match=expected):
            load()

    @pytest.mark.parametrize("artifact, key, value, least", [
        ("bank", "T", 0, 1),
        ("bank", "k", 0, 1),
        ("traj", "T", 0, 1),
        ("traj", "n", -1, 0),
        ("traj", "m", -1, 0),
        ("pred", "rows", -1, 0),
        ("pred", "layout.n", -1, 0),
        ("pred", "layout.k", 0, 1),
        ("pred", "layout.m", -1, 0),
    ], ids=["bank-T", "bank-k", "traj-T", "traj-n", "traj-m", "pred-rows", "pred-layout.n",
            "pred-layout.k", "pred-layout.m"])
    def test_sidecar_count_below_its_least_names_both_files(self, tmp_path, small_trajectory,
                                                            artifact, key, value, least):
        load = self._saved_with(tmp_path / artifact, artifact, small_trajectory, key, value)
        expected = (rf"{artifact}\.csv is described by sidecar .*{artifact}\.json, "
                    rf"whose {re.escape(key)} must be at least {least}, got {value}$")
        with pytest.raises(ValueError, match=expected):
            load()

    def test_a_negative_input_count_cannot_move_the_step_counter_into_the_outputs(
            self, tmp_path, capsys):
        # n = -1, m = 3 fits a 3-column (t, x_1, y_1) file: 1 + n + m = 3
        traj = Trajectory(inputs=np.ones((20, 1)), outputs=np.zeros((20, 1)))
        io.save_trajectory(traj, tmp_path / "ep0")
        self._edit_sidecar(tmp_path / "ep0", n=lambda v: -1, m=lambda v: 3)
        (tmp_path / "manifest.json").write_text(json.dumps({"trajectories": ["ep0"]}))
        expected = r"ep0\.csv is described by sidecar .*ep0\.json, whose n must be at least 0, got -1$"
        with pytest.raises(ValueError, match=expected):
            io.load_trajectory(tmp_path / "ep0")
        with pytest.raises(ValueError, match=expected):
            io.load_training_set(tmp_path)
        for argv in (["online", "--data", str(tmp_path / "ep0")], ["batch", "--data", str(tmp_path)]):
            assert re.search(expected, cli_error(capsys, argv + ["--out", str(tmp_path / "out")]))

    @staticmethod
    def _saved_with(base, artifact, trajectory, key, value):
        """Save an ``artifact`` at ``base``, set its sidecar's ``key`` (``layout.n`` for a
        nested one) to ``value``, and return the call that loads it."""
        layout = FeatureLayout(n=2, k=3, m=2)
        save, load = {
            "bank": (lambda: io.save_filter_bank(build_filter_bank(40, 6, method="ode"), base),
                     io.load_filter_bank),
            "traj": (lambda: io.save_trajectory(trajectory, base), io.load_trajectory),
            "pred": (lambda: io.save_predictor(np.ones((2, layout.width)), layout, base, "test"),
                     io.load_predictor),
        }[artifact]
        save()
        meta = json.loads(base.with_suffix(".json").read_text())
        *within, name = key.split(".")
        (meta[within[0]] if within else meta)[name] = value
        base.with_suffix(".json").write_text(json.dumps(meta))
        return lambda: load(base)

    def test_trajectories_of_unequal_length_name_both_files(self, tmp_path, monkeypatch, capsys):
        for name, T in (("ep0", 50), ("ep1", 50), ("ep2", 60)):
            io.save_trajectory(simulate_scenario("mimo_10", T, 0, 0.1, 0.1), tmp_path / name)
        (tmp_path / "manifest.json").write_text(json.dumps({"trajectories": ["ep0", "ep1", "ep2"]}))
        expected = r"ep2\.csv has 60 steps, .*ep0\.csv has 50$"
        with pytest.raises(ValueError, match=expected):
            io.load_training_set(tmp_path)
        monkeypatch.setattr(cli, "build_filter_bank", None)  # no bank is built first
        argv = ["batch", "--data", str(tmp_path), "--out", str(tmp_path / "model")]
        assert re.search(expected, cli_error(capsys, argv))


    @pytest.mark.parametrize("what, dims", [("inputs", (2, 1)), ("outputs", (1, 2))])
    def test_trajectories_of_unequal_widths_name_both_files(self, tmp_path, monkeypatch, what,
                                                            dims, capsys):
        rng = np.random.default_rng(3)
        for name, (n, m) in (("ep0", (1, 1)), ("ep1", (1, 1)), ("ep2", dims)):
            traj = Trajectory(inputs=rng.standard_normal((50, n)),
                              outputs=rng.standard_normal((50, m)))
            io.save_trajectory(traj, tmp_path / name)
        (tmp_path / "manifest.json").write_text(json.dumps({"trajectories": ["ep0", "ep1", "ep2"]}))
        expected = rf"ep2\.csv has 2 {what}, .*ep0\.csv has 1$"
        with pytest.raises(ValueError, match=expected):
            io.load_training_set(tmp_path)
        monkeypatch.setattr(cli, "build_filter_bank", None)  # no bank is built first
        argv = ["batch", "--data", str(tmp_path), "--out", str(tmp_path / "model")]
        assert re.search(expected, cli_error(capsys, argv))

    def test_training_set_sidecar_without_a_key_names_both_files(self, tmp_path, monkeypatch,
                                                                 capsys):
        for name in ("ep0", "ep1"):
            io.save_trajectory(simulate_scenario("mimo_10", 50, 0, 0.1, 0.1), tmp_path / name)
        self._drop_from_sidecar(tmp_path / "ep1", "m")
        (tmp_path / "manifest.json").write_text(json.dumps({"trajectories": ["ep0", "ep1"]}))
        expected = r"ep1\.csv is described by sidecar .*ep1\.json, which lacks m$"
        with pytest.raises(ValueError, match=expected):
            io.load_training_set(tmp_path)
        monkeypatch.setattr(cli, "build_filter_bank", None)
        argv = ["batch", "--data", str(tmp_path), "--out", str(tmp_path / "model")]
        assert re.search(expected, cli_error(capsys, argv))


class TestStreamedTrainingSet:
    """``wavefilter batch`` reads, featurizes and folds in one episode at a time."""

    @staticmethod
    def _training_set(directory, episodes, T=200):
        names = [f"ep{i}" for i in range(episodes)]
        for seed, name in enumerate(names):
            io.save_trajectory(simulate_scenario("mimo_10", T, seed, 0.1, 0.1), directory / name)
        (directory / "manifest.json").write_text(json.dumps({"trajectories": names}))

    def test_memory_does_not_grow_with_episodes(self, tmp_path):
        import gc
        import tracemalloc

        peaks = {}
        for episodes in (6, 24):
            directory = tmp_path / str(episodes)
            directory.mkdir()
            self._training_set(directory, episodes)
            argv = ["batch", "--data", str(directory), "--k", "8",
                    "--out", str(directory / "model")]
            assert main(argv) == 0  # loading LAPACK and filling lazy caches would set the peak
            # the collector's schedule, set by whatever ran before, moved the peak by
            # up to 70 kB from run to run; a full collection starts every run alike
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[episodes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # holding every trajectory and its targets adds about 50 kB an episode
        assert peaks[24] <= 1.1 * peaks[6], peaks

    @pytest.mark.parametrize("fault, expected", [
        ("nan", r"ep3\.csv, line 8, column 4: 'nan' is not finite"),
        ("rows", r"ep3\.csv has 49 rows; sidecar .*ep3\.json says T=50"),
    ])
    def test_payload_error_in_a_streamed_episode_surfaces(self, tmp_path, fault, expected, capsys):
        self._training_set(tmp_path, 5, T=50)
        path = tmp_path / "ep3.csv"
        lines = path.read_text().splitlines(keepends=True)
        if fault == "nan":
            cells = lines[7].split(",")
            cells[3] = "nan"
            lines[7] = ",".join(cells)
        else:
            del lines[-1]
        path.write_text("".join(lines))
        argv = ["batch", "--data", str(tmp_path), "--k", "4", "--out", str(tmp_path / "model")]
        assert re.search(expected, cli_error(capsys, argv))
        assert not (tmp_path / "model.csv").exists()
        assert not (tmp_path / "model.json").exists()


class TestCli:
    @pytest.mark.parametrize("flag, field", [("--process-std", "process_std"),
                                             ("--observation-std", "observation_std")])
    @pytest.mark.parametrize("system", ["mimo_10", "pendulum"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_simulate_rejects_a_non_finite_std_by_name(self, tmp_path, capsys, flag, field, system,
                                                       value):
        argv = ["simulate", "--system", system, "--T", "5", flag, value,
                "--out", str(tmp_path / "traj")]
        message = cli_error(capsys, argv)
        assert re.search(rf"^{field} must be finite and nonnegative, got {value}", message)
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("system", ["mimo_10", "pendulum"])
    @pytest.mark.parametrize("T", [0, -5])
    def test_simulate_rejects_a_horizon_below_one(self, tmp_path, system, T, capsys):
        argv = ["simulate", "--system", system, "--T", str(T), "--out", str(tmp_path / "p0")]
        assert re.search(rf"^T must be at least 1, got {T}$", cli_error(capsys, argv))
        assert list(tmp_path.iterdir()) == []

    def test_filters_writes_bank(self, tmp_path, capsys):
        out = tmp_path / "bank"
        rc = main(["filters", "--T", "100", "--k", "8", "--out", str(out)])
        assert rc == 0
        loaded = io.load_filter_bank(out)
        assert loaded.phis.shape == (8, 100)

    def test_filters_rejects_zero_k(self, tmp_path, capsys):
        cli_error(capsys, ["filters", "--T", "100", "--k", "0", "--out", str(tmp_path / "b")])

    def test_ode_filters_reject_a_horizon_below_two(self, tmp_path, capsys):
        argv = ["filters", "--T", "1", "--k", "1", "--method", "ode", "--out", str(tmp_path / "b")]
        message = r"^method 'ode' needs a horizon T of at least 2, got T=1$"
        assert re.search(message, cli_error(capsys, argv))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["batch", "online"])
    def test_a_non_finite_ridge_exits_2_naming_it(self, tmp_path, capsys, command, value):
        TestStreamedTrainingSet._training_set(tmp_path, 2, T=30)
        data = tmp_path if command == "batch" else tmp_path / "ep0"
        argv = [command, "--data", str(data), "--k", "4", "--ridge", value,
                "--out", str(tmp_path / "model")]
        if command == "online":
            argv += ["--learner", "ftl"]
        expected = {"batch": f"ridge must be nonnegative and finite, got {value}",
                    "online": f"ridge {value} is not finite"}[command]
        assert cli_error(capsys, argv) == expected
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("flag, field", [("--r-m", "r_m"), ("--eta", "eta")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_online_rejects_a_non_finite_setting_by_name(self, tmp_path, capsys, flag, field,
                                                         value):
        traj_base = tmp_path / "traj"
        main(["simulate", "--system", "siso_hard", "--T", "60", "--out", str(traj_base)])
        argv = ["online", "--data", str(traj_base), "--k", "4", flag, value,
                "--out", str(tmp_path / "model")]
        message = cli_error(capsys, argv)
        assert re.search(rf"^{field} must be finite and positive, got {value}", message)
        assert not (tmp_path / "model.steps.csv").exists()

    @pytest.mark.parametrize("argv, expected", [
        (["filters", "--T", "0", "--k", "3"], "T must be at least 1, got 0"),
        (["experiment", "--name", "siso_hard", "--T", "0", "--seeds", "0"],
         "horizon must be at least 1, got 0"),
        (["experiment", "--name", "siso_hard", "--T", "20", "--seeds", "0", "--k", "0"],
         "k must be at least 1, got 0"),
        (["online", "--data", "missing"], "[Errno 2] No such file or directory: 'missing.json'"),
        (["online", "--data", "traj", "--k", "4", "--learner", "ftl", "--ridge", "0"],
         "ridge 0.0 is not positive: step 0 is singular"),
        (["online", "--data", "traj", "--k", "4", "--eta", "1e12", "--r-m", "1e300"],
         "the step overflowed the matrix; the learning rate has blown up (step 14)"),
        (["simulate", "--system", "pendulum", "--T", "3", "--process-std", "1e308"],
         "pendulum state diverged at step 2"),
    ], ids=["filters-horizon", "experiment-horizon", "experiment-k", "online-missing-data",
            "ftl-ridge-0", "online-blown-up", "pendulum-diverged"])
    def test_bad_input_exits_2_with_its_message(self, tmp_path, monkeypatch, capsys, argv,
                                                expected):
        monkeypatch.chdir(tmp_path)
        main(["simulate", "--system", "siso_hard", "--T", "60", "--out", "traj"])
        assert cli_error(capsys, argv + ["--out", "out"]) == expected

    def test_projected_overflow_prints_no_warning(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        main(["simulate", "--system", "siso_hard", "--T", "200", "--out", "traj"])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["online", "--data", "traj", "--k", "5", "--eta", "1e300",
                         "--out", "model"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("learner", ["ogd", "ftl"])
    def test_features_whose_gram_overflows_exit_2_naming_it(self, tmp_path, monkeypatch, capsys,
                                                            learner):
        # inputs of 1e200 from step 11: the features' squares overflow, and eigh of
        # the overflowed Gram once failed with "Eigenvalues did not converge"
        monkeypatch.chdir(tmp_path)
        base = simulate_scenario("siso_hard", 64, 0, 0.1, 0.1)
        inputs = base.inputs.copy()
        inputs[10:] = 1e200
        io.save_trajectory(Trajectory(inputs=inputs, outputs=base.outputs), Path("traj"))
        argv = ["online", "--data", "traj", "--k", "4", "--learner", learner, "--out", "model"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = cli_error(capsys, argv)
        assert message == ("the features' Gram matrix F^T F overflowed: "
                           "no best fixed matrix can be fitted")
        assert not Path("model.steps.csv").exists()

    def test_online_eta_that_is_not_a_number_is_a_parser_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["online", "--data", str(tmp_path / "traj"), "--eta", "abc",
                  "--out", str(tmp_path / "model")])
        assert exc.value.code == 2
        assert "argument --eta: expected 'auto' or a number, got 'abc'" in capsys.readouterr().err

    def test_dotted_out_names_stay_distinct(self, tmp_path, capsys):
        for seed in (1, 2):
            argv = ["simulate", "--system", "siso_hard", "--T", "60", "--seed", str(seed),
                    "--out", str(tmp_path / f"ep.{seed}")]
            assert main(argv) == 0
        (tmp_path / "manifest.json").write_text(json.dumps({"trajectories": ["ep.1", "ep.2"]}))
        for traj, seed in zip(io.load_training_set(tmp_path), (1, 2)):
            expected = simulate_scenario("siso_hard", 60, seed, 0.1, 0.1)
            assert np.array_equal(traj.outputs, expected.outputs)
        argv = ["online", "--data", str(tmp_path / "ep.1"), "--k", "4",
                "--out", str(tmp_path / "model.v1")]
        assert main(argv) == 0
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == ["ep.1.csv", "ep.1.json", "ep.2.csv", "ep.2.json", "manifest.json",
                           "model.v1.csv", "model.v1.json", "model.v1.steps.csv"]

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
        with (tmp_path / "model.steps.csv").open() as f:
            steps = list(csv.DictReader(f))
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
        assert layout == FeatureLayout(n=1, k=8, m=0)
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

    def test_config_file_supplies_required_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 50, "k": "6"}))
        out = tmp_path / "bank"
        assert main(["filters", "--config", str(cfg), "--out", str(out)]) == 0
        loaded = io.load_filter_bank(out)
        assert (loaded.horizon, loaded.k) == (50, 6)

    def test_config_values_meet_the_flag_choices(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "bogus"}))
        with pytest.raises(SystemExit) as exc:
            main(["filters", "--config", str(cfg), "--T", "50", "--k", "6",
                  "--out", str(tmp_path / "bank")])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", ["[1, 2]", '"filters"', "null"])
    def test_config_that_is_not_an_object_is_a_parser_error(self, tmp_path, capsys, payload):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(payload)
        with pytest.raises(SystemExit) as exc:
            main(["filters", "--config", str(cfg), "--out", str(tmp_path / "bank")])
        assert exc.value.code == 2
        assert f"--config file {cfg} does not hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, expected", [
        (None, "cannot be read: No such file or directory"),
        ('{"T": 5', "is not valid JSON: Expecting ',' delimiter"),
    ], ids=["missing", "malformed"])
    def test_config_that_cannot_be_read_is_a_parser_error(self, tmp_path, capsys, payload,
                                                          expected):
        cfg = tmp_path / "cfg.json"
        if payload is not None:
            cfg.write_text(payload)
        with pytest.raises(SystemExit) as exc:
            main(["filters", "--config", str(cfg), "--out", str(tmp_path / "bank")])
        assert exc.value.code == 2
        assert f"--config file {cfg} {expected}" in capsys.readouterr().err

    def test_abbreviated_explicit_flag_wins_over_config(self, tmp_path, monkeypatch):
        configs = []

        def recorded(config):
            configs.append(config)
            return {"final_mse": {}}

        monkeypatch.setattr(cli, "run_experiment", recorded)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [3, 4]}))
        assert main(["experiment", "--config", str(cfg), "--name", "siso_hard",
                     "--see", "1"]) == 0
        assert configs[0].seeds == (1,)

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
    @pytest.mark.parametrize("system", ["mimo_10", "pendulum"])
    @pytest.mark.parametrize("T", [0, -5])
    def test_simulate_scenario_rejects_a_horizon_below_one(self, system, T):
        with pytest.raises(ValueError, match=rf"^T must be at least 1, got {T}$"):
            simulate_scenario(system, T, 0, 0.1, 0.1)

    def test_simulate_scenario_names_a_non_finite_std(self):
        # was misreported as a non-finite output at step 2
        with pytest.raises(ValueError, match=r"^process_std must be finite and nonnegative"):
            simulate_scenario("mimo_10", 5, 0, float("nan"), 0.1)

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

    def test_seeds_run_serially(self):
        config = default_experiment_config("siso_hard", horizon=40, seeds=(0, 1), k=3)
        with pytest.raises(ValueError, match="threads must be 1, got 2: seeds run serially"):
            run_experiment(config, threads=2)

    def test_config_rejects_a_repeated_seed_by_name(self):
        with pytest.raises(ValueError, match=r"^seed 1 is listed more than once in seeds \(0, 1, 1\)$"):
            default_experiment_config("siso_hard", horizon=40, seeds=(0, 1, 1))

    def test_cli_rejects_a_repeated_seed(self, tmp_path, capsys):
        argv = ["experiment", "--name", "siso_hard", "--T", "40", "--seeds", "0", "0",
                "--out", str(tmp_path)]
        assert cli_error(capsys, argv) == "seed 0 is listed more than once in seeds (0, 0)"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, config", [(["--seeds"], None), ([], {"seeds": []})],
                             ids=["flag", "config"])
    def test_cli_rejects_an_empty_seed_list(self, tmp_path, capsys, argv, config):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv = ["--config", str(tmp_path / "cfg.json")]
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--name", "siso_hard", "--T", "40"] + argv)
        assert exc.value.code == 2
        assert "argument --seeds: expected at least one argument" in capsys.readouterr().err

    def test_cli_defaults_to_the_config_seeds(self, monkeypatch):
        configs = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda config: configs.append(config) or {"final_mse": {}})
        assert main(["experiment", "--name", "siso_hard"]) == 0
        assert configs[0].seeds == experiments.ExperimentConfig.seeds == tuple(range(10))

    def test_cli_has_no_threads_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--name", "siso_hard", "--T", "40", "--seeds", "0",
                  "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_config_file_with_threads_is_a_parser_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 40, "seeds": [0], "threads": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(cfg), "--name", "siso_hard"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_summary_matches_row_recomputation(self, tmp_path):
        config = default_experiment_config(
            "siso_hard", horizon=150, seeds=(0, 1), out_dir=str(tmp_path)
        )
        summary = run_experiment(config)
        per_learner = {}
        for seed in (0, 1):
            with (tmp_path / f"rows_siso_hard_seed{seed}.csv").open() as f:
                rows = list(csv.DictReader(f))
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
        # every FFT featurization, whatever its caller, streams through _conv_blocks_fft
        calls = {"_conv_blocks_fft": 0, "_constrained_least_squares": 0}
        for module, name in ((filters, "_conv_blocks_fft"), (online, "_constrained_least_squares")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        config = default_experiment_config("siso_hard", horizon=120, seeds=(0, 1))
        run_experiment(config)
        assert calls == {"_conv_blocks_fft": 2, "_constrained_least_squares": 2}

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
                traj = pendulum_simulate(inputs, 0.05, 0.001, seed=seed)
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
        io.save_predictor(pred.matrix, pred.layout, tmp_path / "mtheta", source="relaxation")
        matrix, layout, meta = io.load_predictor(tmp_path / "mtheta")
        assert meta["source"] == "relaxation"
        assert np.array_equal(matrix, pred.matrix)
        assert layout == pred.layout

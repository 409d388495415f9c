import importlib.util
import math
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"
_SPEC = importlib.util.spec_from_file_location("output_diff", _PATH)
output_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_diff)

VALUES = {
    "exp_mimo_10[0] seed 0: per_seed_final_mse.wave_filter": 0.25,
    "exp_mimo_10[0] seed 0: regret_curve[3]": -12.5,
    "cli_batch_ode[0] batch: exit_status": 0,
    "cli_batch_ode[0] batch: model.json.sha256": "ab12",
    "verify hankel-psd": "PASS min eigenvalue #",
    "verify hankel-psd #0": -2.1e-19,
    "pendulum.final_mse.ar": 1.5,
}


def _run(monkeypatch, capsys, change_values):
    monkeypatch.setattr(output_diff.bench_pairs, "_export", lambda rev, dest: rev)
    monkeypatch.setattr(
        output_diff, "_collect",
        lambda tree, workloads, seeds: dict(VALUES if tree.name == "parent" else change_values),
    )
    status = output_diff.main(["--parent", "HEAD~1", "--change", "HEAD"])
    return status, capsys.readouterr().out.splitlines()


def test_identical_trees_print_nothing(monkeypatch, capsys):
    assert _run(monkeypatch, capsys, VALUES) == (0, [])


def test_the_largest_difference_comes_first(monkeypatch, capsys):
    key = "exp_mimo_10[0] seed 0: per_seed_final_mse.wave_filter"
    changed = dict(VALUES)
    changed[key] = VALUES[key] * (1 + 1e-3)
    changed["pendulum.final_mse.ar"] = 1.5 * (1 + 1e-15)  # a last-bit move
    status, lines = _run(monkeypatch, capsys, changed)
    assert status == 1
    assert len(lines) == 2
    assert lines[0].startswith(f"{key}: old 0.25 new {changed[key]!r} |delta| 996 tol")
    assert lines[1].startswith("pendulum.final_mse.ar: old 1.5 new")


@pytest.mark.parametrize("old, new, distance", [
    (2.0, 2.0 + 2e-6, 0.99950025),  # 2e-6 / (1e-9 + 2e-6)
    (0.0, 1e-9, 1.0),
    (3, 4, 1 / (1e-9 + 3e-6)),
    ("ab12", "cd34", math.inf),
    (0.5, "(missing)", math.inf),
    (float("nan"), 1.0, math.inf),
])
def test_distance_is_in_units_of_the_benchmark_tolerance(old, new, distance):
    assert output_diff._distance(old, new) == pytest.approx(distance)


def test_differences_count_type_changes_and_missing_values():
    old = {"a": 1, "b": 2.0, "c": float("nan")}
    new = {"a": 1.0, "c": float("nan"), "d": "x"}
    found = output_diff.differences(old, new)
    assert [key for _, key, _, _ in found] == ["b", "d", "a"]
    assert found[0][3] == "(missing)" and found[1][2] == "(missing)"


def test_verify_lines_split_into_text_and_numbers():
    text = ("PASS  hankel-psd: min eigenvalue -2.148e-19\n"
            "FAIL  filter-l1: worst l1-minus-bound 3.000e-01\n"
            "PASS  hidden-state-decay: worst gap-minus-bound -1.7e-02, max closed-form diff 6.6e-16\n")
    assert output_diff._verify_values(text) == {
        "verify hankel-psd": "PASS min eigenvalue #",
        "verify hankel-psd #0": -2.148e-19,
        "verify filter-l1": "FAIL worst l1-minus-bound #",
        "verify filter-l1 #0": 0.3,
        "verify hidden-state-decay": "PASS worst gap-minus-bound #, max closed-form diff #",
        "verify hidden-state-decay #0": -0.017,
        "verify hidden-state-decay #1": 6.6e-16,
    }


def test_a_failing_verify_reports_its_exit_status_and_error(monkeypatch):
    # cli.main turns a ValueError into exit status 2 and a line on stderr;
    # the report shows both rather than only every verify line missing
    from wavefilter import cli

    def broken(profile):
        raise ValueError("a check could not run")

    monkeypatch.setattr(cli, "run_verification", broken)
    assert output_diff._verify_run(cli.main) == {
        "verify exit": 2,
        "verify error": "wavefilter verify: error: a check could not run",
    }


def test_a_passing_verify_exits_0_with_no_error():
    lines = "PASS  hankel-psd: min eigenvalue -2.148e-19\n"

    def main(argv):
        assert argv == ["verify"]
        print(lines, end="")
        return 0

    assert output_diff._verify_run(main) == {
        "verify hankel-psd": "PASS min eigenvalue #",
        "verify hankel-psd #0": -2.148e-19,
        "verify exit": 0,
        "verify error": "",
    }


def test_bank_runs_record_each_banks_rows_under_its_own_keys():
    from wavefilter import cli

    values = output_diff._bank_runs(cli)
    rows = {"eigen": ["bank-orthonormality", "bank-sigma-order", "bank-rayleigh", "bank-filter-l1"],
            "ode": ["bank-orthonormality", "bank-sigma-order"]}
    for method, names in rows.items():
        label = f"verify --bank {method}"
        assert values[f"{label} exit"] == 0 and values[f"{label} error"] == ""
        assert sorted(key for key in values if key.startswith(label) and "#" not in key) == sorted(
            [f"{label} {name}" for name in names] + [f"{label} exit", f"{label} error"])
        assert all(values[f"{label} {name}"].startswith("PASS ") for name in names)
    assert values["verify --bank eigen bank-rayleigh"] == "PASS max Rayleigh quotient deviation #"
    # the invariant suite is not run again: the plain verify run reports it
    assert "verify --bank eigen hankel-psd" not in values


def test_a_bank_run_passes_its_flags_and_labels_its_keys():
    def main(argv):
        assert argv == ["verify", "--bank", "b"]
        print("FAIL  bank-rayleigh: max Rayleigh quotient deviation 6.0e-03")
        return 1

    assert output_diff._verify_run(main, "--bank", "b", label="verify --bank eigen") == {
        "verify --bank eigen bank-rayleigh": "FAIL max Rayleigh quotient deviation #",
        "verify --bank eigen bank-rayleigh #0": 6.0e-03,
        "verify --bank eigen exit": 1,
        "verify --bank eigen error": "",
    }


def test_summaries_cover_the_pendulum_and_the_ogd_learner_on_mimo_10():
    from wavefilter import experiments

    def run_experiment(config):  # the summary fields that name the run
        return {"experiment": config.name, "horizon": config.horizon,
                "seeds": list(config.seeds), "learner": config.learner,
                "final_mse": {"wave_filter": 0.5}}

    fake = types.SimpleNamespace(
        default_experiment_config=experiments.default_experiment_config,
        run_experiment=run_experiment)
    values = output_diff._summaries(fake)
    assert {key: value for key, value in values.items() if key.startswith("mimo_10 ogd")} == {
        "mimo_10 ogd.experiment": "mimo_10",
        "mimo_10 ogd.horizon": 1000,
        **{f"mimo_10 ogd.seeds[{i}]": i for i in range(4)},
        "mimo_10 ogd.learner": "ogd",
        "mimo_10 ogd.final_mse.wave_filter": 0.5,
    }
    assert values["pendulum.learner"] == "ftl" and values["pendulum.horizon"] == 2000
    assert [values[f"pendulum.seeds[{i}]"] for i in range(4)] == [0, 1, 2, 3]

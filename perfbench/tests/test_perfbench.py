"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The in-process tests use shrunken copies of the workloads so they run in
seconds; the printing test runs the real harness on the cheapest workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    workloads.ExperimentWorkload("small_exp", "siso_hard", horizon=300, n_seeds=2),
    workloads.OracleWorkload(name="small_oracle", horizon=150, n_seeds=1),
    workloads.CliBatchWorkload(name="small_cli", horizon=120, n_seeds=2),
]


@pytest.fixture(autouse=True)
def _out_dir():
    run.OUT.mkdir(exist_ok=True)


def _values(workload, seed=0, tracer=None):
    _, ops = run.run_job(workload, seed, tracer)
    assert all(op.error is None for op in ops), [op.error for op in ops]
    return {op.id: op.values for op in ops}


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_outputs_equal_untraced(workload):
    originals = {(m.__name__, k): v for m in run.MODULES for k, v in vars(m).items()}
    plain = _values(workload)
    traced = _values(workload, tracer=tracing.Tracer())
    assert traced == plain
    restored = {(m.__name__, k): v for m in run.MODULES for k, v in vars(m).items()}
    assert all(restored[key] is value for key, value in originals.items())


def test_traced_counts_show_duplicate_work():
    counts = {}
    for workload in SMALL:
        tracer = tracing.Tracer()
        _values(workload, tracer=tracer)
        counts[workload.name] = {name: calls for name, (calls, _) in tracer.layer_totals().items()}
    # two featurize_batch calls per experiment seed: run_ftl and the comparator
    assert counts["small_exp"]["filters.featurize_batch"] == 4
    # two full derivative-comparator passes per oracle seed
    assert counts["small_oracle"]["lds.derivative_predictor"] == 2 * 150
    # the CLI batch featurizes every episode twice and the ode bank solves twice
    assert counts["small_cli"]["filters.featurize_batch"] == 4
    assert counts["small_cli"]["hankel.top_eigenpairs"] == 2


def _perturbed(values: dict) -> dict:
    out = json.loads(json.dumps(values))
    op_id = sorted(out)[0]
    key = next(k for k, v in sorted(out[op_id].items()) if isinstance(v, float))
    out[op_id][key] *= 1 + 1e-3
    return out


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_reference_gate(workload):
    reference = _values(workload)
    passing = run.Run(workload, 0, {workload.name: {"0": reference}})
    passing.job()
    assert passing.failures == [] and passing.attempted == len(reference)

    failing = run.Run(workload, 0, {workload.name: {"0": _perturbed(reference)}})
    failing.job()
    assert len(failing.failures) >= 1


def test_check_rejects_errors_nonfinite_and_exit_status():
    assert workloads.check(workloads.Op("a", error="boom"), None, None) == "boom"
    bad = workloads.Op("a", values={"x": float("nan")})
    assert "not finite" in workloads.check(bad, None, None)
    status = workloads.Op("a", values={"exit_status": 1})
    assert "exit status" in workloads.check(status, None, None)
    ok = workloads.Op("a", values={"x": 1.0, "h": "abc"})
    assert workloads.check(ok, {"x": 1.0 + 1e-9, "h": "abc"}, None) is None
    assert workloads.check(ok, {"x": 1.0, "h": "abd"}, None) is not None


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_batch_ode",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = bench[section]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    table = "\n".join(lines[:-1])
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(spec["name"] in line and line.endswith(" " + spec["unit"])
                   for line in table.splitlines())

"""The four benchmark workloads, their operations and their correctness gate.

Each workload is one *job* built from the package's public entry points.
``run`` is the timed part: it returns every operation with its raw result,
or the error it raised. ``outputs`` is untimed: it fills each operation's
flat dictionary of checked values. ``check`` compares those values with
the shipped references.

The workload seed picks the inputs. A job with workload seed ``s`` uses
the experiment or simulation seeds ``s*n .. s*n + n - 1``, where ``n`` is
the number of seeds in one job. Seed 0 gives the default seeds 0..n-1,
and two workload seeds never share inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Optional

import numpy as np

from wavefilter import cli, experiments, filters, lds, online, relaxation

# values are checked as |value - reference| <= ATOL + RTOL * |reference|;
# strings (file checksums) and integers (exit statuses) must match exactly
RTOL = 1e-6
ATOL = 1e-9

# counts a workload computes from its own configuration
COMPUTED_METRICS = ("online.ftl_refits",)


@dataclass
class Op:
    """One operation of a job: its raw result or error, then its checked values."""

    id: str
    raw: object = None
    error: Optional[str] = None
    values: dict = field(default_factory=dict)


Scope = Callable[[str], ContextManager]


def _attempt(op: Op, fn: Callable[[], object], scope: Scope) -> None:
    # per-operation boundary: an operation that raises is counted as failed,
    # with its message, and the job goes on with the next operation
    with scope(op.id):
        try:
            op.raw = fn()
        except Exception as exc:  # noqa: BLE001
            op.error = f"{type(exc).__name__}: {exc}"


def _seeds(seed: int, n: int) -> tuple[int, ...]:
    return tuple(range(seed * n, (seed + 1) * n))


def _fingerprint(prefix: str, matrix: np.ndarray) -> dict:
    """Frobenius norm and two fixed random projections of a float matrix.

    Each is as well conditioned as the matrix itself, so they hold at RTOL
    across BLAS thread counts; a plain sum of mixed-sign entries cancels
    and would not.
    """
    m = np.asarray(matrix, dtype=float)
    rng = np.random.default_rng(12345)
    out = {f"{prefix}.fro": float(np.linalg.norm(m))}
    for i in range(2):
        out[f"{prefix}.projection{i}"] = float((m * rng.standard_normal(m.shape)).sum())
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass(frozen=True)
class ExperimentWorkload:
    """``run_experiment`` with FTL and both baselines; one operation per seed."""

    name: str
    system: str
    horizon: int
    n_seeds: int

    def config(self, seed: int) -> experiments.ExperimentConfig:
        return experiments.default_experiment_config(
            self.system, horizon=self.horizon, seeds=_seeds(seed, self.n_seeds), k=25
        )

    def run(self, seed: int, workdir: Path, scope: Scope) -> list[Op]:
        job = Op(id="job")
        _attempt(job, lambda: experiments.run_experiment(self.config(seed), threads=1), scope)
        return [Op(id=f"seed {s}", raw=job.raw, error=job.error)
                for s in _seeds(seed, self.n_seeds)]

    def outputs(self, ops: list[Op], workdir: Path) -> None:
        for i, op in enumerate(ops):
            if op.error is not None:
                continue
            for learner, values in op.raw["per_seed_final_mse"].items():
                op.values[f"per_seed_final_mse.{learner}"] = values[i]
            # the curve is a mean over the job's seeds, so every operation
            # carries it and a wrong curve fails all of them
            op.values["regret_curve"] = op.raw["regret_curve"]["mean_regret"]

    def computed_counts(self, seed: int) -> dict:
        # one refit every `cadence` steps, plus one at the last step
        cfg = self.config(seed)
        T, cadence = cfg.horizon, cfg.ftl_refit_every()
        per_seed = len(range(0, T, cadence)) + (1 if (T - 1) % cadence else 0)
        return {"online.ftl_refits": per_seed * len(cfg.seeds)}


@dataclass(frozen=True)
class OracleWorkload:
    """OGD against the true-derivative comparator, plus the exact relaxation."""

    name: str = "oracle_mimo_10"
    horizon: int = 1000
    n_seeds: int = 2
    k: int = 25

    def _one_seed(self, params, gen, bank, s: int) -> dict:
        rng = np.random.default_rng([s, 1])
        inputs = gen.generate(self.horizon, params.input_dim, rng)
        noise = lds.NoiseConfig(process_std=0.1, observation_std=0.1, seed=s)
        traj = lds.simulate(params, inputs, noise)
        result = online.run_online(
            traj, online.OnlineConfig(bank=bank), comparator_params=params
        )
        predictor = relaxation.build_M_theta(params, bank)
        zeta, gap = relaxation.relaxation_residual(params, predictor, traj)
        return {
            "learner_loss": result.report.learner_loss,
            "comparator_loss": result.report.comparator_loss,
            "relaxation_gap": gap,
            "max_zeta": float(zeta.max()),
        }

    def run(self, seed: int, workdir: Path, scope: Scope) -> list[Op]:
        ops = [Op(id=f"seed {s}") for s in _seeds(seed, self.n_seeds)]
        setup = Op(id="setup")
        _attempt(setup, lambda: (lds.synthetic_system("mimo_10", seed=0),
                                 filters.build_filter_bank(self.horizon, self.k)), scope)
        for op, s in zip(ops, _seeds(seed, self.n_seeds)):
            if setup.error is not None:
                op.error = setup.error
                continue
            (params, gen), bank = setup.raw
            _attempt(op, lambda: self._one_seed(params, gen, bank, s), scope)
        return ops

    def outputs(self, ops: list[Op], workdir: Path) -> None:
        for op in ops:
            if op.error is None:
                op.values.update(op.raw)

    def computed_counts(self, seed: int) -> dict:
        return {}


@dataclass(frozen=True)
class CliBatchWorkload:
    """``wavefilter simulate`` x12, a manifest, then ``wavefilter batch --method ode``."""

    name: str = "cli_batch_ode"
    horizon: int = 1000
    n_seeds: int = 12
    k: int = 40

    @staticmethod
    def _main(argv: list[str]) -> int:
        # the CLI reports what it wrote on stdout; keep the benchmark's own
        # stdout for its result
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return cli.main(argv)

    def run(self, seed: int, workdir: Path, scope: Scope) -> list[Op]:
        ops = []
        names = []
        for s in _seeds(seed, self.n_seeds):
            op = Op(id=f"simulate {s}")
            argv = ["simulate", "--system", "mimo_10", "--T", str(self.horizon),
                    "--seed", str(s), "--out", str(workdir / f"traj_{s}")]
            _attempt(op, lambda: self._main(argv), scope)
            ops.append(op)
            names.append(f"traj_{s}")
        (workdir / "manifest.json").write_text(json.dumps({"trajectories": names}))
        op = Op(id="batch")
        argv = ["batch", "--data", str(workdir), "--k", str(self.k),
                "--method", "ode", "--out", str(workdir / "model")]
        _attempt(op, lambda: self._main(argv), scope)
        ops.append(op)
        return ops

    def outputs(self, ops: list[Op], workdir: Path) -> None:
        for op in ops:
            if op.error is not None:
                continue
            op.values["exit_status"] = op.raw
            if op.id == "batch":
                model = np.loadtxt(workdir / "model.csv", delimiter=",", ndmin=2)
                op.values["model.json.sha256"] = _sha256(workdir / "model.json")
                op.values.update(_fingerprint("model.csv", model))
            else:
                base = workdir / f"traj_{op.id.split()[1]}"
                op.values["csv.sha256"] = _sha256(base.with_suffix(".csv"))
                op.values["json.sha256"] = _sha256(base.with_suffix(".json"))

    def computed_counts(self, seed: int) -> dict:
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        ExperimentWorkload("exp_siso_hard", "siso_hard", horizon=4000, n_seeds=4),
        ExperimentWorkload("exp_mimo_10", "mimo_10", horizon=2000, n_seeds=2),
        OracleWorkload(),
        CliBatchWorkload(),
    )
}


def _finite(value) -> bool:
    if isinstance(value, str):
        return True
    return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))


def _close(value, ref) -> bool:
    if isinstance(ref, (str, int)):
        return value == ref
    a = np.asarray(value, dtype=float)
    b = np.asarray(ref, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= ATOL + RTOL * np.abs(b)))


def check(op: Op, reference: Optional[dict], first: Optional[dict]) -> Optional[str]:
    """Why ``op`` failed, or None when it passed.

    ``reference`` holds the shipped values for this operation, or None for
    a workload seed without references. ``first`` holds the values the
    same operation gave in the first job of this run; later jobs, traced
    or not, must repeat them. Checks that hold for any seed come first:
    no error, a zero exit status and finite values.
    """
    if op.error is not None:
        return op.error
    for key, value in op.values.items():
        if not _finite(value):
            return f"{key} is not finite"
    if op.values.get("exit_status", 0) != 0:
        return f"exit status {op.values['exit_status']}"
    for label, expected in (("reference", reference), ("first job", first)):
        if expected is None:
            continue
        if set(expected) != set(op.values):
            return f"checked values {sorted(op.values)} differ from {label} {sorted(expected)}"
        for key, ref in expected.items():
            if not _close(op.values[key], ref):
                return f"{key} differs from the {label}"
    return None


def load_references(path: Path) -> dict:
    """{workload: {workload seed: {op id: values}}} from the shipped JSON file."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())["workloads"]

"""Command-line front end.

Subcommands: ``filters`` (generate and export a filter bank),
``simulate`` (run a named system or the pendulum to a trajectory file),
``online`` / ``batch`` (learners over trajectory files), ``experiment``
(named multi-seed benchmark), ``verify`` (invariant suite). A JSON config
file can supply any flag's value; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import io
from .batch import BatchSample, fit_batch
from .experiments import (
    EXPERIMENT_NAMES,
    default_experiment_config,
    run_experiment,
    simulate_scenario,
)
from .filters import FeatureLayout, build_filter_bank
from .online import OnlineConfig, run_ftl, run_online
from .verify import ToleranceProfile, check_filter_bank, run_verification

FLOAT_FMT = io.FLOAT_FMT


def _apply_config_defaults(args: argparse.Namespace, argv: list[str]) -> None:
    if not getattr(args, "config", None):
        return
    overrides = json.loads(Path(args.config).read_text())
    explicit = {
        a.split("=")[0].lstrip("-").replace("-", "_") for a in argv if a.startswith("--")
    }
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and attr not in explicit:
            setattr(args, attr, value)


def _cmd_filters(args: argparse.Namespace) -> int:
    bank = build_filter_bank(args.T, args.k, method=args.method)
    csv_path, json_path = io.save_filter_bank(bank, Path(args.out))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    traj = simulate_scenario(
        args.system, args.T, args.seed, args.process_std, args.observation_std
    )
    meta = {"generator": args.system, "seed": args.seed}
    if args.system != "pendulum":
        meta["noise"] = {
            "process_std": args.process_std,
            "observation_std": args.observation_std,
        }
    paths = io.save_trajectory(traj, Path(args.out), metadata=meta)
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def _write_step_csv(path: Path, result, outputs_width: int) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t", "loss", "cumulative_loss", "matrix_norm"]
        header += [f"yhat_{i+1}" for i in range(outputs_width)]
        writer.writerow(header)
        cum = 0.0
        for t in range(len(result.losses)):
            cum += result.losses[t]
            row = [
                str(t + 1),
                FLOAT_FMT % result.losses[t],
                FLOAT_FMT % cum,
                FLOAT_FMT % result.matrix_norms[t],
            ]
            row += [FLOAT_FMT % v for v in result.predictions[t]]
            writer.writerow(row)


def _cmd_online(args: argparse.Namespace) -> int:
    traj = io.load_trajectory(Path(args.data))
    bank = build_filter_bank(traj.length, args.k, method=args.method)
    eta = args.eta if args.eta == "auto" else float(args.eta)
    config = OnlineConfig(bank=bank, eta=eta, r_m=args.r_m)
    if args.learner == "ftl":
        result = run_ftl(traj, config, ridge=args.ridge)
    else:
        result = run_online(traj, config)
    out = Path(args.out)
    _write_step_csv(out.with_suffix(".steps.csv"), result, traj.output_dim)
    io.save_predictor(
        result.state.matrix,
        result.state.layout,
        out,
        source=f"online-{args.learner}",
        config_echo={
            "k": args.k,
            "eta": eta if isinstance(eta, str) else float(eta),
            "r_m": args.r_m,
            "learner": args.learner,
        },
    )
    rep = result.report
    print(
        f"learner loss {rep.learner_loss:.6g}; comparator ({rep.comparator_kind}) "
        f"{rep.comparator_loss:.6g}; normalized regret {rep.normalized_regret:.6g}"
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    trajectories = io.load_training_set(Path(args.data))
    T = trajectories[0].length
    bank = build_filter_bank(T, args.k, method=args.method)
    samples = [BatchSample.from_trajectory(t) for t in trajectories]
    model = fit_batch(samples, bank, ridge=args.ridge)
    layout = FeatureLayout(n=trajectories[0].input_dim, k=args.k, m=0, include_y=False)
    io.save_predictor(
        model.matrix,
        layout,
        Path(args.out),
        source="batch",
        config_echo={"k": args.k, "ridge": args.ridge},
    )
    print(f"training MSE {model.training_mse:.6e} over {len(samples)} samples")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    seeds = tuple(range(args.num_seeds)) if args.seeds is None else tuple(args.seeds)
    config = default_experiment_config(
        args.name,
        horizon=args.T,
        seeds=seeds,
        k=args.k,
        learner=args.learner,
        out_dir=args.out,
    )
    summary = run_experiment(config, threads=args.threads)
    print(json.dumps(summary["final_mse"], indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = []
    if args.bank:
        checks += check_filter_bank(io.load_filter_bank(Path(args.bank)))
    profile = ToleranceProfile(sizes=tuple(args.sizes))
    checks += run_verification(profile)
    rows = [
        {"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in checks
    ]
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2))
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wavefilter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filters", help="generate and export a filter bank")
    p.add_argument("--config", default=None)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", default="eigen", choices=["eigen", "ode", "hilbert"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_filters)

    p = sub.add_parser("simulate", help="simulate a named system to a trajectory file")
    p.add_argument("--config", default=None)
    p.add_argument("--system", required=True, choices=list(EXPERIMENT_NAMES))
    p.add_argument("--T", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--process-std", type=float, default=0.1,
                   help="state noise; the pendulum's acceleration noise is half of it")
    p.add_argument("--observation-std", type=float, default=0.1,
                   help="output noise; the pendulum's is a hundredth of it")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("online", help="online learner over a trajectory file")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True, help="trajectory file base path")
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--method", default="eigen", choices=["eigen", "ode", "hilbert"])
    p.add_argument("--eta", default="auto")
    p.add_argument("--r-m", type=float, default=10.0)
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--learner", default="ogd", choices=["ogd", "ftl"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_online)

    p = sub.add_parser("batch", help="batch fit over a training-set directory")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True, help="directory with manifest.json")
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--method", default="eigen", choices=["eigen", "ode", "hilbert"])
    p.add_argument("--ridge", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("experiment", help="run a named multi-seed benchmark")
    p.add_argument("--config", default=None)
    p.add_argument("--name", required=True, choices=list(EXPERIMENT_NAMES))
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--num-seeds", type=int, default=10)
    p.add_argument("--seeds", type=int, nargs="*", default=None)
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--learner", default="ftl", choices=["ftl", "ogd"])
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--config", default=None)
    p.add_argument("--sizes", type=int, nargs="*", default=[64, 256, 1000])
    p.add_argument("--bank", default=None, help="also validate an exported bank")
    p.add_argument("--out", default=None, help="write a JSON report")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config_defaults(args, list(argv))
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: ``filters`` (generate and export a filter bank),
``simulate`` (run a named system or the pendulum to a trajectory file),
``online`` / ``batch`` (learners over trajectory files), ``experiment``
(named multi-seed benchmark), ``verify`` (invariant suite). A JSON config
file can supply any flag's value; explicit flags win. Its keys are parsed
as flags placed before the command line's own, so argparse checks their
types, choices and required flags alike. A command that fails on bad input,
an unreadable file or a run that diverges (``ValueError``, ``OSError``,
``FloatingPointError``) prints ``wavefilter <command>: error: <message>``
and exits 2, as a bad flag does.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io
from ._blas import serial_blas
from .batch import BatchSample, fit_batch
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    default_experiment_config,
    run_experiment,
    simulate_scenario,
)
from .filters import build_filter_bank
from .lds import _count
from .online import OnlineConfig, run_ftl, run_online
from .verify import ToleranceProfile, check_filter_bank, run_verification


def _config_flags(argv: list[str]) -> list[str]:
    """``--key value...`` per non-null entry of the ``--config`` file named in ``argv``."""
    pre = argparse.ArgumentParser(prog="wavefilter", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return []
    try:
        config = io._read_json_object(Path(path))
    except OSError as exc:
        pre.error(f"--config file {path} cannot be read: {exc.strerror}")
    except ValueError as exc:
        pre.error(f"--config file {exc}")
    tokens = []
    for key, value in config.items():
        if value is not None:
            values = value if isinstance(value, list) else [value]
            tokens += ["--" + key.replace("_", "-")] + [str(v) for v in values]
    return tokens


def _eta(text: str) -> str | float:
    """``--eta``'s value: ``"auto"`` or a float, which ``OnlineConfig`` checks."""
    if text == "auto":
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}") from None


def _positive_int(text: str) -> int:
    """A whole number of at least 1, such as each of ``--sizes``."""
    try:
        return _count("size", int(text), least=1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None


def _cmd_filters(args: argparse.Namespace) -> int:
    bank = build_filter_bank(args.T, args.k, method=args.method)
    csv_path, json_path = io.save_filter_bank(bank, Path(args.out))
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    traj = simulate_scenario(
        args.system, args.T, args.seed, args.process_std, args.observation_std
    )
    noise = {"process_std": args.process_std, "observation_std": args.observation_std}
    meta = {"generator": args.system, "seed": args.seed, "noise": noise}
    paths = io.save_trajectory(traj, Path(args.out), metadata=meta)
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    traj = io.load_trajectory(Path(args.data))
    bank = build_filter_bank(traj.length, args.k, method=args.method)
    config = OnlineConfig(bank=bank, eta=args.eta, r_m=args.r_m)
    if args.learner == "ftl":
        result = run_ftl(traj, config, ridge=args.ridge)
    else:
        result = run_online(traj, config)
    out = Path(args.out)
    header = ["t", "loss", "cumulative_loss", "matrix_norm"]
    header += [f"yhat_{i+1}" for i in range(traj.output_dim)]
    losses = result.losses
    steps = np.column_stack((losses, np.cumsum(losses), result.matrix_norms, result.predictions))
    io._write_csv(io._with_suffix(out, ".steps.csv"), header, io._numbered(steps))
    io.save_predictor(
        result.state.matrix,
        result.state.layout,
        out,
        source=f"online-{args.learner}",
        config_echo={
            "k": args.k,
            "eta": args.eta,
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
    bank = build_filter_bank(trajectories.length, args.k, method=args.method)
    samples = (BatchSample.from_trajectory(t) for t in trajectories)
    model = fit_batch(samples, bank, ridge=args.ridge)
    io.save_predictor(
        model.matrix,
        model.layout,
        Path(args.out),
        source="batch",
        config_echo={"k": args.k, "ridge": args.ridge},
    )
    print(f"training MSE {model.training_mse:.6e} over {len(trajectories)} samples")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = default_experiment_config(
        args.name,
        horizon=args.T,
        seeds=tuple(args.seeds),
        k=args.k,
        learner=args.learner,
        out_dir=args.out,
    )
    summary = run_experiment(config)
    print(json.dumps(summary["final_mse"], indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = []
    if args.bank:
        checks += check_filter_bank(io.load_filter_bank(Path(args.bank)))
    profile = ToleranceProfile(sizes=args.sizes)
    checks += run_verification(profile)
    if args.out:
        Path(args.out).write_text(json.dumps([asdict(c) for c in checks], indent=2))
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
    return 0 if all(c.passed for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wavefilter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filters", help="generate and export a filter bank")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", default="eigen", choices=["eigen", "ode", "hilbert"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_filters)

    p = sub.add_parser("simulate", help="simulate a named system to a trajectory file")
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
    p.add_argument("--data", required=True, help="trajectory file base path")
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--method", default="eigen", choices=["eigen", "ode", "hilbert"])
    p.add_argument("--eta", type=_eta, default="auto")
    p.add_argument("--r-m", type=float, default=10.0)
    p.add_argument("--ridge", type=float, default=1.0)
    p.add_argument("--learner", default="ogd", choices=["ogd", "ftl"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_online)

    p = sub.add_parser("batch", help="batch fit over a training-set directory")
    p.add_argument("--data", required=True, help="directory with manifest.json")
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--method", default="eigen", choices=["eigen", "ode", "hilbert"])
    p.add_argument("--ridge", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("experiment", help="run a named multi-seed benchmark")
    p.add_argument("--name", required=True, choices=list(EXPERIMENT_NAMES))
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--seeds", type=int, nargs="+", default=ExperimentConfig.seeds)
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--learner", default="ftl", choices=["ftl", "ogd"])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--sizes", type=_positive_int, nargs="+", default=[64, 256, 1000])
    p.add_argument("--bank", default=None, help="also validate an exported bank")
    p.add_argument("--out", default=None, help="write a JSON report")
    p.set_defaults(fn=_cmd_verify)
    for p in sub.choices.values():
        p.add_argument("--config", default=None, help="JSON file of flag values")
    return parser


@serial_blas
def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-"):
        # after the subcommand, before its flags: the last occurrence wins
        argv[1:1] = _config_flags(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"wavefilter {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Every checked output of two revisions, compared value by value.

Run from the root of a checkout:

    python3 tools/output_diff.py --parent REV --change HEAD [--workloads W ...] \
        [--seeds 0 1 2]

Each revision is exported with ``git archive`` into its own temporary
directory. In each tree one child process computes three sets of values
with that tree's package:

- the checked values of every benchmark workload and seed, as
  ``perfbench/make_references.py`` computes them (one untraced job);
- the lines of ``wavefilter verify`` at its default sizes, split into
  their numbers and the text around them, plus its exit status and the
  text it wrote to stderr (``verify exit``, ``verify error``);
- the rows of ``wavefilter verify --bank`` for two exported banks, an
  ``eigen`` bank (T=256, k=20) and an ``ode`` bank (T=256, k=30), under
  ``verify --bank eigen ...`` and ``verify --bank ode ...`` (the invariant
  suite is left out of these runs, as the plain run reports it);
- the pendulum experiment summary at its default horizon, seeds 0-3,
  and the ``mimo_10`` summary of the OGD learner (``learner="ogd"``) at
  T=1000, seeds 0-3, under ``pendulum`` and ``mimo_10 ogd``.

Every value that differs, bit for bit, is printed with its old and new
value and ``|new - old|`` in units of the benchmark's tolerance
``1e-9 + 1e-6 |old|``, largest first; a changed text or a missing value
counts as infinitely far. Nothing is printed when every value is equal.
The exit status is 1 when any value differs. Progress goes to stderr,
and nothing is written inside the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest.mock
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

import bench_pairs  # noqa: E402

RTOL = 1e-6
ATOL = 1e-9
PENDULUM_SEEDS = (0, 1, 2, 3)
OGD_HORIZON = 1000
OGD_SEEDS = (0, 1, 2, 3)


def _flatten(key: str, value, out: dict) -> None:
    """Scalars of a nested JSON value under ``key.field`` and ``key[i]`` names."""
    if isinstance(value, dict):
        for field, inner in value.items():
            _flatten(f"{key}.{field}", inner, out)
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            _flatten(f"{key}[{i}]", inner, out)
    else:
        out[key] = value


def _verify_values(text: str, label: str = "verify") -> dict:
    """``LABEL NAME`` -> the line with each number as ``#``; ``LABEL NAME #i`` -> number i."""
    values = {}
    for line in text.splitlines():
        status, _, rest = line.partition("  ")
        name, _, detail = rest.partition(": ")
        words, numbers = [], []
        for token in detail.split():
            number = token.rstrip(",")
            try:
                numbers.append(float(number))
                words.append("#" + token[len(number):])
            except ValueError:
                words.append(token)
        values[f"{label} {name}"] = " ".join([status] + words)
        values.update({f"{label} {name} #{i}": x for i, x in enumerate(numbers)})
    return values


def _verify_run(main, *flags: str, label: str = "verify") -> dict:
    """Values of ``main(["verify", *flags])``: its lines, its exit status and its stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["verify", *flags])
    values = _verify_values(out.getvalue(), label)
    values.update({f"{label} exit": status, f"{label} error": err.getvalue().strip()})
    return values


BANKS = {"eigen": ("--T", "256", "--k", "20"), "ode": ("--T", "256", "--k", "30")}


def _bank_runs(cli) -> dict:
    """Values of ``verify --bank`` for each of ``BANKS``, exported by ``filters``."""
    values = {}
    with tempfile.TemporaryDirectory(prefix="output_diff_banks_") as scratch, \
            unittest.mock.patch.object(cli, "run_verification", lambda profile: []):
        for method, flags in BANKS.items():
            base = str(Path(scratch) / method)
            cli.main(["filters", *flags, "--method", method, "--out", base])
            values.update(_verify_run(cli.main, "--bank", base, label=f"verify --bank {method}"))
    return values


def _summaries(experiments) -> dict:
    """Values of the pendulum summary and of the ``mimo_10`` OGD summary."""
    configs = {
        "pendulum": experiments.default_experiment_config("pendulum", seeds=PENDULUM_SEEDS),
        "mimo_10 ogd": experiments.default_experiment_config(
            "mimo_10", OGD_HORIZON, seeds=OGD_SEEDS, learner="ogd"),
    }
    values = {}
    for label, config in configs.items():
        _flatten(label, experiments.run_experiment(config), values)
    return values


def _child(spec: str) -> None:
    """Compute the values of a tree's package and write them as JSON.

    ``spec`` is a JSON object with the ``tree``, its ``workloads`` and
    ``seeds``, and the ``out`` file.
    """
    spec = json.loads(spec)
    tree, workload_names, seeds = Path(spec["tree"]), spec["workloads"], spec["seeds"]
    sys.path.insert(0, str(tree / "perfbench"))
    import run  # puts the tree's src/ first on sys.path and checks the import
    import workloads

    from wavefilter import cli, experiments

    values: dict = {}
    run.OUT.mkdir(exist_ok=True)
    for name in workload_names:
        for seed in seeds:
            job = run.Run(workloads.WORKLOADS[name], seed, references={})
            job.job()
            if job.failures:
                values[f"{name}[{seed}] failures"] = "; ".join(job.failures)
            for op_id, op_values in job.first.items():
                for key, value in op_values.items():
                    _flatten(f"{name}[{seed}] {op_id}: {key}", value, values)
    values.update(_verify_run(cli.main))
    values.update(_bank_runs(cli))
    values.update(_summaries(experiments))
    Path(spec["out"]).write_text(json.dumps(values))


def _collect(tree: Path, workload_names: list[str], seeds: list[int]) -> dict:
    """Values of the package exported under ``tree``, computed in a child process."""
    out = tree.parent / f"{tree.name}-values.json"
    code = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); "
            "import output_diff; output_diff._child(sys.argv[1])")
    spec = {"tree": str(tree), "workloads": workload_names, "seeds": seeds, "out": str(out)}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(spec)], cwd=tree,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"computing the values in {tree} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(out.read_text())


def _distance(old, new) -> float:
    """|new - old| in units of ATOL + RTOL |old|; inf for text, NaN or a missing value."""
    if not (isinstance(old, (int, float)) and isinstance(new, (int, float))):
        return math.inf
    distance = abs(new - old) / (ATOL + RTOL * abs(old))
    return math.inf if math.isnan(distance) else distance


def _same(old, new) -> bool:
    if isinstance(old, float) and isinstance(new, float) and math.isnan(old):
        return math.isnan(new)
    return type(old) is type(new) and old == new


def differences(old: dict, new: dict) -> list[tuple[float, str, object, object]]:
    """(distance, key, old, new) of every value that differs, largest distance first."""
    missing = "(missing)"
    found = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, missing), new.get(key, missing)
        if not _same(a, b):
            found.append((_distance(a, b), key, a, b))
    found.sort(key=lambda d: -d[0])
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--workloads", nargs="+", choices=bench_pairs.WORKLOADS,
                        default=list(bench_pairs.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="output_diff_"))
    try:
        values = {}
        for side in ("parent", "change"):
            tree = scratch / side
            commit = bench_pairs._export(getattr(args, side), tree)
            values[side] = _collect(tree, args.workloads, args.seeds)
            print(f"{side} {commit}: {len(values[side])} values", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    found = differences(values["parent"], values["change"])
    for distance, key, old, new in found:
        print(f"{key}: old {old!r} new {new!r} |delta| {distance:.3g} tol")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

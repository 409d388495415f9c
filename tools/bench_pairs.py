"""Alternating parent/change runs of the benchmark, summarized as a BENCH file.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent REV --change HEAD --pairs 10 \
        --seconds 10 --seed 0 --out BENCH_topic.json

Each revision is exported with ``git archive`` into its own temporary
directory, so both sides run from their committed files. For every pair
and workload, ``perfbench/run.py --workload W --seed S --seconds N
--trace 0`` runs once per side, and the side that runs first alternates
from pair to pair. Per workload and end-to-end metric the output gives
each side's median and quartiles, the pairs the change won (lower is
better; ties count for neither side), every raw value, the run context,
and a verdict read by the simplicity-review rules against the metric's
``BENCHMARK.json`` bound, a share of the parent's median:

- ``gain``: the change wins at least 9 in 10 pairs, the medians differ
  by more than the parent's quartile spread, and the change's share of
  failed operations on the workload is no larger than the parent's;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``unresolved``: the parent's quartile spread is wider than the bound,
  and not every change run beats every parent run;
- ``unchanged``: any other case.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("exp_siso_hard", "exp_mimo_10", "oracle_mimo_10", "cli_batch_ode")
METRICS = ("job_s", "setup_s", "peak_rss_mib")


def _export(rev: str, dest: Path) -> str:
    """Files of ``rev`` written under ``dest``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], check=True, capture_output=True,
                            text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {m: result["metrics"][m]["value"] for m in METRICS}
    values.update(correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"])
    context = [line for line in lines if line.startswith("context ")]
    values["context"] = json.loads(context[0][len("context "):]) if context else None
    return values


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _verdict(
    parent: list[float], change: list[float], bound: float, failed_shares: tuple[float, float]
) -> str:
    """``gain``, ``regression``, ``unresolved`` or ``unchanged`` (see the module doc).

    ``failed_shares`` holds the parent's and the change's shares of failed operations.
    """
    base, new = _summary(parent), _summary(change)
    spread, allowed = base["q3"] - base["q1"], bound * base["median"]
    won = sum(c < p for p, c in zip(parent, change))
    no_more_failures = failed_shares[1] <= failed_shares[0]
    if 10 * won >= 9 * len(parent) and base["median"] - new["median"] > spread and no_more_failures:
        return "gain"
    if new["median"] - base["median"] > allowed:
        return "regression"
    if spread > allowed and max(change) >= min(parent):
        return "unresolved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be at least 2, for the quartiles of each side; not {args.pairs}")

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {side: scratch / side for side in ("parent", "change")}
        commits = {side: _export(getattr(args, side), trees[side]) for side in trees}
        benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
        runs = {w: {"parent": [], "change": []} for w in args.workloads}
        load_before = os.getloadavg()
        started = time.time()
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in args.workloads:
                for side in order:
                    runs[workload][side].append(_run(trees[side], workload, args.seed,
                                                     args.seconds))
                print(f"pair {pair + 1}/{args.pairs} {workload}: " + ", ".join(
                    f"{side} {runs[workload][side][-1]['job_s']:.4f} s" for side in order),
                    flush=True)
        workloads = {}
        for workload, sides in runs.items():
            failed = {s: sum(r["failed"] for r in rs) for s, rs in sides.items()}
            attempted = {s: sum(r["attempted"] for r in rs) for s, rs in sides.items()}
            shares = tuple(failed[s] / max(attempted[s], 1) for s in ("parent", "change"))
            metrics = {}
            for metric in METRICS:
                parent = [r[metric] for r in sides["parent"]]
                change = [r[metric] for r in sides["change"]]
                metrics[metric] = {
                    "parent": _summary(parent),
                    "change": _summary(change),
                    "change_won": sum(c < p for p, c in zip(parent, change)),
                    "ties": sum(c == p for p, c in zip(parent, change)),
                    "pairs": len(parent),
                    "verdict": _verdict(parent, change, bounds[metric], shares),
                    "parent_runs": parent,
                    "change_runs": change,
                }
            metrics["all_correct"] = all(r["correct"] for s in sides.values() for r in s)
            metrics["failed_operations"] = failed
            metrics["attempted_operations"] = attempted
            workloads[workload] = metrics
        record = {
            "command": f"perfbench/run.py --workload W --seed {args.seed} "
                       f"--seconds {args.seconds:g} --trace 0",
            "parent": commits["parent"],
            "change": commits["change"],
            "pairs": args.pairs,
            "order": "parent first in odd-numbered pairs, change first in even-numbered ones",
            "context": {
                "perfbench": runs[args.workloads[0]]["change"][0]["context"],
                "loadavg_before": load_before,
                "loadavg_after": os.getloadavg(),
                "wall_s": round(time.time() - started, 1),
            },
            "workloads": workloads,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write the reference values that every benchmark operation is checked against.

    python3 perfbench/make_references.py --seeds 0 1 2 [--workload exp_mimo_10 ...]

Runs one untraced job per workload and seed and stores the checked values
of each operation in ``perfbench/references.json``, keeping the entries
it does not recompute. Regenerate references only when the package's
outputs are meant to change, and record the old and new values in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads

REFERENCES = run.HERE / "references.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS),
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    run.OUT.mkdir(exist_ok=True)
    refs = workloads.load_references(REFERENCES)
    for name in args.workload:
        for seed in args.seeds:
            job = run.Run(workloads.WORKLOADS[name], seed, references={})
            job.job()
            if job.failures:
                print(f"{name} seed {seed}: {job.failures}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(seed)] = job.first
            print(f"{name} seed {seed}: {len(job.first)} operations", flush=True)
            REFERENCES.write_text(json.dumps(
                {"rtol": workloads.RTOL, "atol": workloads.ATOL, "workloads": refs},
                indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

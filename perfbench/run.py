"""wavefilter benchmark: time whole jobs untraced, or time each layer traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exp_siso_hard --seed 0 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json``: it times a fresh interpreter importing the package
(``setup_s``), then repeats the workload's job until ``--seconds`` have
passed and reports the median job time and the peak resident memory.
With ``--trace 1`` it alternates untraced and traced jobs for the same
time and reports the per-layer metrics from the traced ones. Every
operation of every job is checked (see workloads.py). The last line of
stdout is the result as one JSON object; the full record, with the run
context and, for traced runs, every span, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
# a job takes 6-17 s on a 2-core machine, so a run window ends mid-job;
# every run still times at least this many jobs so job_s is a median
MIN_JOBS = 2

sys.path.insert(0, str(SRC))


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


try:
    import numpy
    import scipy
    import wavefilter
except ImportError as exc:
    _fail(f"cannot import the package from {SRC}: {exc}")
if not Path(wavefilter.__file__).resolve().is_relative_to(SRC):
    _fail(f"imported wavefilter from {wavefilter.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = tracing.package_modules()
# functools caches of the package, cleared before every job so that each
# job pays what a fresh process pays (a CLI call is a fresh process)
CACHES = list({id(o): o for m in MODULES for o in vars(m).values()
               if hasattr(o, "cache_clear")}.values())


def _blas_threads() -> dict:
    """Threads each bundled OpenBLAS will use, keyed by library file name."""
    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def _l3_bytes():
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        d = Path(index)
        if (d / "level").read_text().strip() == "3":
            size = (d / "size").read_text().strip()
            scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
            return int(size.rstrip("KMG")) * scale
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.exists():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def run_context() -> dict:
    """What a number depends on; numbers from different contexts are not compared."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": _l3_bytes(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "git_commit": _git_commit(),
    }


def setup_seconds() -> list[float]:
    """Wall times of fresh interpreters that import the package and exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wavefilter"],
                       env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def run_job(workload, seed: int, tracer=None) -> tuple[float, list]:
    """Run one job of ``workload``; return its wall time and its checked operations."""
    for cache in CACHES:
        cache.cache_clear()
    workdir = Path(tempfile.mkdtemp(prefix="job-", dir=OUT))
    scope = tracer.operation if tracer else (lambda op_id: contextlib.nullcontext())
    if tracer:
        tracer.reset()
        tracer.install(MODULES)
    try:
        start = time.perf_counter()
        ops = workload.run(seed, workdir, scope)
        elapsed = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    try:
        workload.outputs(ops, workdir)
    finally:
        shutil.rmtree(workdir)
    return elapsed, ops


class Run:
    """Jobs of one workload and seed, with the check of every operation."""

    def __init__(self, workload, seed: int, references: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.references = references.get(workload.name, {}).get(str(seed))
        self.first: dict = {}  # op id -> values of its first passing run
        self.attempted = 0
        self.failures: list[str] = []

    def job(self, tracer=None) -> float:
        """Run one job, check its operations, and return its wall time."""
        elapsed, ops = run_job(self.workload, self.seed, tracer)
        for op in ops:
            self.attempted += 1
            reference = None
            if self.references is not None:
                reference = self.references.get(op.id, {"(no reference)": None})
            reason = workloads.check(op, reference, self.first.get(op.id))
            if reason is not None:
                self.failures.append(f"{op.id}: {reason}")
            elif op.id not in self.first:
                self.first[op.id] = op.values
        return elapsed


def end_to_end(run: Run, seconds: float, specs: list) -> tuple[dict, dict]:
    setup = setup_seconds()
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_JOBS or time.perf_counter() < deadline:
        times.append(run.job())
    values = {
        "setup_s": statistics.median(setup),
        "job_s": statistics.median(times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return _pick(values, specs), {"setup_s": setup, "job_s": times}


def per_layer(run: Run, seconds: float, specs: list) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    untraced, traced, totals, counts, spans = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(run.job())
        traced.append(run.job(tracer))
        totals.append(tracer.layer_totals())
        counts.append(dict(tracer.counts, **run.workload.computed_counts(run.seed)))
        spans.append(tracer.spans)
    known_spans = tracing.traced_names(MODULES)
    values = {
        "trace.overhead_frac":
            (statistics.median(traced) - statistics.median(untraced))
            / statistics.median(untraced),
    }
    for spec in specs:
        name = spec["name"]
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s") and span in known_spans:
            if kind == "calls":
                values[name] = statistics.median_low([t.get(span, (0, 0.0))[0] for t in totals])
            else:
                values[name] = statistics.median([t.get(span, (0, 0.0))[1] for t in totals])
        elif name in tracing.COMPUTED_METRICS + workloads.COMPUTED_METRICS:
            values[name] = statistics.median_low([c.get(name, 0) for c in counts])
    record = {"job_s_untraced": untraced, "job_s_traced": traced, "spans": spans}
    return _pick(values, specs), record


def _pick(values: dict, specs: list) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        _fail(f"BENCHMARK.json names metrics this harness does not measure: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def _write_record(name: str, seed: int, trace: int, record: dict) -> None:
    spans = record.pop("spans", None)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for job, job_spans in enumerate(spans):
                for i, (span, start, end, parent, op) in enumerate(job_spans):
                    fh.write(json.dumps({"job": job, "id": i, "name": span, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")


def measure(name: str, seed: int, seconds: float, trace: int, bench: dict,
            context: dict) -> dict:
    """One run of one workload; prints a table and returns the result object."""
    run = Run(workloads.WORKLOADS[name], seed, workloads.load_references(HERE / "references.json"))
    if trace:
        metrics, record = per_layer(run, seconds, bench["per_layer"])
    else:
        metrics, record = end_to_end(run, seconds, bench["end_to_end"])
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    record.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  context=context, checked_against=("references" if run.references
                                                    else "first job only"),
                  failures=run.failures, result=result)
    _write_record(name, seed, trace, record)
    print(f"{name} seed {seed} trace {trace}: {run.attempted} operations, "
          f"{len(run.failures)} failed, checked against {record['checked_against']}")
    for key, metric in metrics.items():
        print(f"  {key:40s} {metric['value']:>16.6g} {metric['unit']}")
    for failure in run.failures[:10]:
        print(f"perfbench: {name}: {failure}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.exists():
        _fail(f"{bench_file} not found")
    bench = json.loads(bench_file.read_text())
    OUT.mkdir(exist_ok=True)
    context = run_context()
    print("context " + json.dumps(context))
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(n, args.seed, args.seconds, args.trace, bench, context) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

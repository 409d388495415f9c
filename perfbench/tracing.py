"""Timing wrappers installed on the package's public functions from outside.

The package itself has no tracing yet, so the traced run replaces each
public function, in every module namespace that binds it, by a wrapper
that records a span: name, start, end, parent span and operation id.
Calls made through a module global (``filters.top_eigenpairs`` inside
``build_filter_bank``, ``featurize_batch`` imported locally by the CLI)
resolve to the wrapper too, so nested calls become child spans. Spans stay
in memory until the run writes them out; ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional

import wavefilter

# names outside a module's __all__ that are entry points in their own right:
# the comparator that experiments._run_seed calls directly, the CLI entry,
# and the per-seed step of run_experiment (its seed becomes the span's op id)
EXTRA_TARGETS = (
    ("online", "_constrained_least_squares"),
    ("cli", "main"),
    ("experiments", "_run_seed"),
)


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths if Path(p).exists())


def _pair_bytes(base) -> int:
    # io stores every artifact as <base>.csv plus a <base>.json sidecar
    base = Path(base)
    return _file_bytes(base.with_suffix(".csv"), base.with_suffix(".json"))


# counts computed from array and file sizes at the call boundary:
# span name -> f(args, kwargs, result) -> {metric: increment}
COMPUTED = {
    "hankel.build_hankel": lambda a, kw, r: {"hankel.build_hankel.bytes": r.entries.nbytes},
    "io.save_trajectory": lambda a, kw, r: {"io.bytes_written": _file_bytes(*r)},
    "io.save_predictor": lambda a, kw, r: {"io.bytes_written": _file_bytes(*r)},
    "io.save_filter_bank": lambda a, kw, r: {"io.bytes_written": _file_bytes(*r)},
    "io.save_features": lambda a, kw, r: {"io.bytes_written": _file_bytes(*r)},
    "io.save_result_rows": lambda a, kw, r: {"io.bytes_written": _file_bytes(r)},
    "io.load_trajectory": lambda a, kw, r: {"io.bytes_read": _pair_bytes(a[0])},
    "io.load_training_set": lambda a, kw, r: {
        "io.bytes_read": _file_bytes(Path(a[0]) / "manifest.json")
    },
}

COMPUTED_METRICS = ("hankel.build_hankel.bytes", "io.bytes_written", "io.bytes_read")

# span name -> f(args, kwargs) -> operation id of the spans it encloses
OP_SETTERS = {
    "experiments.run_seed": lambda a, kw: f"seed {a[1]}",
}


def package_modules() -> list:
    """The package and every submodule, imported."""
    mods = [wavefilter]
    for info in pkgutil.iter_modules(wavefilter.__path__):
        mods.append(importlib.import_module(f"wavefilter.{info.name}"))
    return mods


def span_name(fn: Callable) -> str:
    module = fn.__module__.rsplit(".", 1)[-1]
    return f"{module}.{fn.__name__.lstrip('_')}"


# fft is the featurizer's private kernel: featurize_batch is its only
# caller, so its time is counted as featurize_batch's self time
UNTRACED_MODULES = ("fft",)


def _targets(modules: list) -> dict:
    """id(original function) -> original, for every traced function."""
    found = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        if short in UNTRACED_MODULES:
            continue
        names = list(getattr(mod, "__all__", ()))
        names += [name for owner, name in EXTRA_TARGETS if owner == short]
        for name in names:
            obj = getattr(mod, name, None)
            if callable(obj) and not isinstance(obj, type):
                found[id(obj)] = obj
    return found


def traced_names(modules: list) -> set:
    """Span names of every function the tracer wraps."""
    return {span_name(fn) for fn in _targets(modules).values()}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op: Optional[str] = None
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, fn: Callable) -> Callable:
        name = span_name(fn)
        computed = COMPUTED.get(name)
        op_setter = OP_SETTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_op = self.op
            if op_setter is not None:
                self.op = op_setter(args, kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self.op = outer_op
            if computed is not None:
                self.counts.update(computed(args, kwargs, result))
            return result

        return traced

    def install(self, modules: list) -> None:
        targets = _targets(modules)
        wrappers = {key: self._wrap(fn) for key, fn in targets.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, obj = self._installed.pop()
            setattr(mod, attr, obj)

    @contextlib.contextmanager
    def operation(self, op_id: str) -> Iterator[None]:
        """Mark the spans recorded inside the block with ``op_id``."""
        outer, self.op = self.op, op_id
        try:
            yield
        finally:
            self.op = outer

    def reset(self) -> None:
        """Forget recorded spans and counts; keep the wrappers installed."""
        self.spans = []
        self.counts = Counter()

    def layer_totals(self) -> dict:
        """{span name: (calls, self seconds)} over the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because jobs run on one thread.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import wavefilter
from wavefilter import experiments, online

# scipy submodules that each add import time and resident memory; the
# package needs none of them at import
HEAVY = ("scipy.sparse", "scipy.signal", "scipy.fft", "scipy.optimize")


def test_package_import_loads_no_heavy_scipy_submodule():
    code = (
        "import sys, wavefilter; "
        f"print(','.join(m for m in sys.modules if m.startswith({HEAVY!r})))"
    )
    src = str(Path(wavefilter.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.stdout.strip() == ""


def test_every_exported_name_exists():
    # the benchmark's tracer wraps functions by their __all__ names, so a
    # stale name would silently drop a traced layer
    modules = [wavefilter] + [
        importlib.import_module(f"wavefilter.{info.name}")
        for info in pkgutil.iter_modules(wavefilter.__path__)
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_names_the_benchmark_reaches_directly():
    # perfbench/ calls these by name: run_experiment with threads, the
    # config's refit cadence, and it traces _run_seed (reading the seed
    # from its second argument) and the comparator fit
    assert "threads" in inspect.signature(experiments.run_experiment).parameters
    assert list(inspect.signature(experiments._run_seed).parameters) == [
        "config", "seed", "bank"
    ]
    config = experiments.default_experiment_config("mimo_10", horizon=2001)
    assert config.ftl_refit_every() == 10
    assert callable(online._constrained_least_squares)

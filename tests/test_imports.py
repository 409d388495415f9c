import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import wavefilter
from wavefilter import batch, cli, experiments, filters, hankel, io, lds, online, relaxation
from wavefilter.filters import FeatureLayout, build_filter_bank
from wavefilter.hankel import build_hankel
from wavefilter.lds import Trajectory, synthetic_system


def _fresh_import(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this checkout's package."""
    src = str(Path(wavefilter.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return out.stdout.strip()


def _submodules() -> list:
    return [importlib.import_module(f"wavefilter.{info.name}")
            for info in pkgutil.iter_modules(wavefilter.__path__)]


def test_package_import_loads_no_heavy_scipy_submodule():
    # no scipy module at all: the top-level scipy package and its LAPACK
    # extension load on the first LAPACK call (wavefilter._lapack), about
    # 15 ms and 3 MiB, not at package import. Nor does it
    # look up numpy's BLAS thread controls; the first decorated call does.
    # Nor fractions or decimal (about 4 ms together): the CSV writer builds
    # its power-of-ten table from integers, on its first call. Nor
    # concurrent.futures (about 6 ms): the seeds of an experiment run serially.
    code = (
        "import sys, wavefilter, wavefilter._blas; "
        "assert 'api' not in wavefilter._blas._scope; "
        "print(','.join(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'fractions', 'decimal', 'concurrent')))"
    )
    assert _fresh_import(code) == ""


def test_package_import_loads_every_module_but_the_cli():
    # what a CLI call imports, and so what the benchmark's setup time covers
    code = "import sys, wavefilter; print(' '.join(sorted(sys.modules)))"
    loaded = {name for name in _fresh_import(code).split() if name.startswith("wavefilter.")}
    assert loaded == {mod.__name__ for mod in _submodules()} - {"wavefilter.cli"}


def test_cli_commands_load_no_scipy_linalg():
    # the eigen and ode banks, the batch ridge solve and the rolling FTL fit reach LAPACK
    # through wavefilter._lapack, which loads scipy's f2py module alone: scipy.linalg
    # would bring scipy's array-API layer (scipy._lib._array_api) with it
    code = (
        "import json, sys, tempfile\n"
        "from pathlib import Path\n"
        "from wavefilter.cli import main\n"
        "d = Path(tempfile.mkdtemp())\n"
        "for name in ('ep0', 'ep1'):\n"
        "    assert main(['simulate', '--system', 'mimo_10', '--T', '60',\n"
        "                 '--seed', name[-1], '--out', str(d / name)]) == 0\n"
        "(d / 'manifest.json').write_text(json.dumps({'trajectories': ['ep0', 'ep1']}))\n"
        "for argv in (['filters', '--T', '60', '--k', '5', '--method', 'eigen'],\n"
        "             ['filters', '--T', '60', '--k', '5', '--method', 'ode'],\n"
        "             ['batch', '--data', str(d), '--k', '5'],\n"
        "             ['online', '--data', str(d / 'ep0'), '--k', '5', '--learner', 'ftl']):\n"
        "    assert main(argv + ['--out', str(d / argv[0])]) == 0\n"
        "print(' '.join(m for m in ('scipy.linalg._flapack', 'scipy.linalg',\n"
        "                           'scipy._lib._array_api') if m in sys.modules))"
    )
    assert _fresh_import(code).splitlines()[-1] == "scipy.linalg._flapack"


def test_scipy_linalg_imported_after_the_package_reuses_its_lapack_module():
    code = (
        "from wavefilter import _lapack\n"
        "from wavefilter.hankel import _sign_normalize, build_hankel, top_eigenpairs\n"
        "spec = top_eigenpairs(build_hankel(50), 5)\n"
        "used = _lapack._flapack().dsyevr\n"
        "import numpy as np, scipy.linalg\n"
        "w, v = scipy.linalg.eigh(build_hankel(50).entries, subset_by_index=[45, 49])\n"
        "order = np.argsort(w)[::-1]\n"
        "assert np.array_equal(w[order], spec.sigmas)\n"
        "assert np.array_equal(_sign_normalize(v[:, order]), spec.phis)\n"
        "lapack = scipy.linalg.lapack\n"
        "print(lapack.dsyevr is used, lapack._flapack is _lapack._flapack())"
    )
    assert _fresh_import(code) == "True True"


def test_lapack_module_reuses_a_loaded_scipy_linalg():
    code = (
        "import importlib.machinery, scipy.linalg\n"
        "def refuse(*args):\n"
        "    raise AssertionError('loaded again')\n"
        "importlib.machinery.ExtensionFileLoader = refuse\n"
        "from wavefilter import _lapack\n"
        "import numpy as np\n"
        "_lapack.posv(np.eye(3), np.ones((3, 1)))\n"
        "print(_lapack._flapack() is scipy.linalg._flapack)"
    )
    assert _fresh_import(code) == "True"


def test_time_series_enter_through_one_check():
    # lds._rows is the one place a time series is coerced and checked finite:
    # np.atleast_2d read a 1-D array as one step, and the helpers it replaced
    # stay gone
    users = [mod.__name__ for mod in _submodules()
             if "atleast_2d" in Path(mod.__file__).read_text()]
    assert users == []
    assert not hasattr(filters, "_as_2d")
    assert not hasattr(lds, "_check_finite")
    assert callable(lds._rows)


def test_counts_enter_through_one_check():
    # lds._count is the one place a count, horizon or step index is checked to be
    # an integer in range; the hand-written checks it replaced stay gone
    gate = inspect.getsource(lds._count)
    for mod in _submodules():
        text = Path(mod.__file__).read_text().replace(gate, "")
        for spelling in ("np.integer", "need 1 <=", "must be positive"):
            assert spelling not in text, (mod.__name__, spelling)
    assert not hasattr(hankel, "_check_integer")
    assert "np.integer" in gate


def test_package_root_binds_only_its_modules():
    # each public name has one import path, wavefilter.<module>.<name>: a
    # patch or trace of a root alias would miss every call made inside the
    # package, so no alias, lazy __getattr__ or __all__ at the root
    dunders = {"__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
               "__package__", "__path__", "__spec__", "__version__"}
    others = [
        name
        for name, value in vars(wavefilter).items()
        if name not in dunders
        and not (isinstance(value, types.ModuleType) and value.__name__ == f"wavefilter.{name}")
    ]
    assert others == []


def test_every_exported_name_exists():
    # the benchmark's tracer wraps functions by their __all__ names, so a
    # stale name would silently drop a traced layer
    missing = [
        f"{mod.__name__}.{name}"
        for mod in _submodules()
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_exported_callables_belong_to_their_module():
    # a re-export would give a function two import paths, and the tracer
    # names each span after the module that defines the function
    strays = [
        f"{mod.__name__}.{name} is defined in {obj.__module__}"
        for mod in _submodules()
        for name in getattr(mod, "__all__", ())
        if callable(obj := getattr(mod, name)) and obj.__module__ != mod.__name__
    ]
    assert strays == []


def test_names_the_benchmark_reaches_directly(tmp_path, monkeypatch):
    # perfbench/ calls these by name: run_experiment with threads=1, the
    # config's refit cadence, and it traces _run_seed (reading the seed
    # from its second argument) and the comparator fit
    assert "threads" in inspect.signature(experiments.run_experiment).parameters
    assert list(inspect.signature(experiments._run_seed).parameters) == [
        "config", "seed", "bank"
    ]
    config = experiments.default_experiment_config("mimo_10", horizon=2001)
    assert config.ftl_refit_every() == 10
    assert callable(online._constrained_least_squares)

    # every per-layer .calls / .self_s metric of BENCHMARK.json names a function
    # the tracer wraps: a function in its module's __all__ or one of the
    # tracer's extra targets, whose span name drops the leading underscore;
    # a metric naming neither makes the traced benchmark run exit 2
    extra = {"online.constrained_least_squares": online._constrained_least_squares,
             "cli.main": cli.main, "experiments.run_seed": experiments._run_seed}
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    unmeasured = []
    for metric in bench["per_layer"]:
        span, _, kind = metric["name"].rpartition(".")
        if kind not in ("calls", "self_s") or span in extra:
            continue
        owner, name = span.split(".")
        module = importlib.import_module(f"wavefilter.{owner}")
        fn = getattr(module, name, None)
        if name not in module.__all__ or not callable(fn) or isinstance(fn, type):
            unmeasured.append(metric["name"])
    assert unmeasured == []

    # it also wraps these io functions by their __all__ names and sizes the
    # files they touch into io.bytes_written / io.bytes_read: from the
    # (csv, json) pair or the path that a save_* returns, and from the base
    # or directory that a load_* takes first
    traced_io = ("save_trajectory", "save_predictor", "save_filter_bank", "save_result_rows",
                 "load_trajectory", "load_training_set")
    assert set(traced_io) <= set(io.__all__)
    bank = build_filter_bank(5, 2)
    layout = FeatureLayout(n=1, k=2, m=0)
    pairs = [
        io.save_trajectory(experiments.simulate_scenario("siso_hard", 5, 0, 0.1, 0.1),
                           tmp_path / "traj"),
        io.save_predictor(np.ones((1, layout.width)), layout, tmp_path / "pred", source="x"),
        io.save_filter_bank(bank, tmp_path / "bank"),
    ]
    for pair, name in zip(pairs, ("traj", "pred", "bank")):
        assert pair == (tmp_path / f"{name}.csv", tmp_path / f"{name}.json")
        assert all(path.stat().st_size > 0 for path in pair)
    rows = io.save_result_rows("siso_hard", 0, {"ar": np.ones(3)}, tmp_path / "rows.csv")
    assert rows == tmp_path / "rows.csv" and rows.stat().st_size > 0
    assert list(inspect.signature(io.load_trajectory).parameters) == ["base"]
    assert list(inspect.signature(io.load_training_set).parameters) == ["directory"]

    # it counts featurize_batch and online_features calls per layer, sizes
    # the Hankel matrix from its entries, and the oracle workload draws its
    # inputs from the mimo_10 generator. online_features and fit_batch call
    # featurize_batch through their module globals, which the tracer
    # replaces, so every FFT featurization counts as a featurize_batch call
    assert "featurize_batch" in filters.__all__
    assert "online_features" in online.__all__
    calls = []

    def recorded(inputs, bank, y_prev=None, out=None):
        calls.append(bank)
        return filters.featurize_batch(inputs, bank, y_prev, out)

    monkeypatch.setattr(online, "featurize_batch", recorded)
    monkeypatch.setattr(batch, "featurize_batch", recorded)
    trajectory = Trajectory(inputs=np.ones((5, 1)), outputs=np.ones((5, 1)))
    online.online_features(trajectory, bank)
    batch.fit_batch([batch.BatchSample.from_trajectory(trajectory)] * 2, bank)
    assert calls == [bank] * 3
    assert build_hankel(3).entries.nbytes > 0
    assert callable(synthetic_system("mimo_10")[1].generate)

    # the oracle workload builds these by keyword and reads these results
    params, gen = synthetic_system("mimo_10", seed=0)
    noise = lds.NoiseConfig(process_std=0.1, observation_std=0.1, seed=0)
    traj = lds.simulate(params, gen.generate(5, params.input_dim, np.random.default_rng(0)), noise)
    result = online.run_online(traj, online.OnlineConfig(bank=bank), comparator_params=params)
    assert np.isfinite([result.report.learner_loss, result.report.comparator_loss]).all()
    predictor = relaxation.build_M_theta(params, bank)
    zeta, gap = relaxation.relaxation_residual(params, predictor, traj)
    assert np.isfinite([float(zeta.max()), gap]).all()

    # the experiment workloads read the config's horizon and seeds, and per
    # seed the final MSEs and the mean regret curve of the summary
    config = experiments.default_experiment_config("siso_hard", horizon=5, seeds=(0, 1), k=2)
    assert (config.horizon, config.seeds) == (5, (0, 1))
    summary = experiments.run_experiment(config, threads=1)
    assert all(len(values) == 2 for values in summary["per_seed_final_mse"].values())
    assert len(summary["regret_curve"]["mean_regret"]) == 5

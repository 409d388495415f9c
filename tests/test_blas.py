"""numpy's BLAS runs on one thread inside the package's entry points, and only there."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavefilter
from wavefilter import _blas, experiments, io
from wavefilter._blas import serial_blas
from wavefilter.filters import build_filter_bank


def _count_api():
    serial_blas(lambda: None)()  # the lookup happens on the first decorated call
    if not _blas._scope["api"]:
        pytest.skip("numpy is not linked against OpenBLAS")
    return _blas._scope["api"]


@pytest.fixture
def two_threads():
    """(get, set) of numpy's thread count, with the count at 2 for the test."""
    get, set_ = _count_api()
    saved = get()
    set_(2)
    try:
        yield get, set_
    finally:
        set_(saved)


def test_count_is_one_inside_and_restored_after_return(two_threads):
    get, _ = two_threads
    assert serial_blas(get)() == 1
    assert get() == 2


def test_count_is_restored_after_raise(two_threads):
    get, _ = two_threads
    seen = []

    @serial_blas
    def failing():
        seen.append(get())
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        failing()
    assert seen == [1] and get() == 2


def test_nested_calls_restore_only_at_the_outermost_exit(two_threads):
    get, _ = two_threads
    seen = []
    inner = serial_blas(lambda: seen.append(get()))

    @serial_blas
    def outer():
        inner()
        seen.append(get())  # the inner exit must not restore the count

    outer()
    assert seen == [1, 1] and get() == 2


def test_experiment_runs_serial_blas_and_restores(two_threads, monkeypatch):
    get, _ = two_threads
    seen = []
    run_seed = experiments._run_seed

    def recording(config, seed, bank):
        seen.append(get())
        return run_seed(config, seed, bank)

    monkeypatch.setattr(experiments, "_run_seed", recording)
    config = experiments.default_experiment_config("siso_hard", horizon=40, seeds=(0, 1, 2, 3),
                                                   k=3)
    experiments.run_experiment(config)
    assert seen == [1, 1, 1, 1] and get() == 2


_CHILD = """
import hashlib, sys
import numpy as np
from wavefilter import io, lds, online
bank = io.load_filter_bank(sys.argv[1])
params, gen = lds.synthetic_system("mimo_10", seed=0)
inputs = gen.generate(600, params.input_dim, np.random.default_rng(0))
traj = lds.simulate(params, inputs, lds.NoiseConfig(process_std=0.1, observation_std=0.1, seed=0))
losses = online.run_ftl(traj, online.OnlineConfig(bank=bank)).losses
print(hashlib.sha256(np.ascontiguousarray(losses).tobytes()).hexdigest())
"""


def test_ftl_losses_are_bit_identical_across_blas_thread_counts(tmp_path):
    _count_api()
    # the bank is built once and loaded by both children, so scipy's eigh,
    # which keeps its threads, plays no part
    base = tmp_path / "bank"
    io.save_filter_bank(build_filter_bank(600, 25), base)
    src = str(Path(wavefilter.__file__).resolve().parents[1])
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _CHILD, str(base)], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        hashes.append(out.stdout.strip())
    assert len(hashes[0]) == 64 and hashes[0] == hashes[1]


def test_eigen_bank_moves_within_davis_kahan_across_thread_counts(tmp_path):
    # scipy's eigh keeps its threads, so the filters may move across thread
    # counts; the eigenvalues may not, and filter j may move by no more than
    # a perturbation of size 8 eps sigma_1 allows for its gap sigma_j - sigma_{j+1}
    child = ("import sys, numpy as np\n"
             "from wavefilter.filters import build_filter_bank\n"
             "b = build_filter_bank(1000, 26)\n"
             "np.savez(sys.argv[1], sigmas=b.sigmas, phis=b.phis)\n")
    src = str(Path(wavefilter.__file__).resolve().parents[1])
    banks = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   OPENBLAS_NUM_THREADS=threads)
        path = tmp_path / f"bank{threads}.npz"
        subprocess.run([sys.executable, "-c", child, str(path)], env=env, check=True,
                       capture_output=True, text=True, timeout=300)
        banks.append(np.load(path))
    sigmas = banks[0]["sigmas"]
    assert np.array_equal(sigmas, banks[1]["sigmas"])
    gaps = sigmas[:25] - sigmas[1:]
    assert np.all(gaps > 0)
    bound = 8 * np.finfo(float).eps * sigmas[0] / gaps
    moved = np.abs(banks[0]["phis"][:25] - banks[1]["phis"][:25]).max(axis=1)
    assert np.all(moved <= bound)

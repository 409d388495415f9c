"""The package's LAPACK calls against their scipy.linalg references, bit for bit."""

import numpy as np
import pytest
import scipy.linalg

from wavefilter import _lapack, hankel, ode, online
from wavefilter.hankel import build_hankel, hilbert_matrix, top_eigenpairs


def _recorder(monkeypatch, name):
    """Calls of ``_lapack.<name>`` as (inputs, result), the inputs copied before LAPACK runs."""
    calls = []
    original = getattr(_lapack, name)

    def recorded(*args):
        copies = [np.copy(a, order="K") if isinstance(a, np.ndarray) else a for a in args]
        result = original(*args)
        calls.append((copies, result))
        return result

    monkeypatch.setattr(_lapack, name, recorded)
    return calls


def _assert_equal(ours, reference):
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("matrix", [build_hankel, hilbert_matrix])
@pytest.mark.parametrize("T, k", [(2, 1), (300, 1), (300, 25), (300, 40),
                                  (1000, 1), (1000, 25), (1000, 40)])
def test_top_eigenpairs_match_scipy_eigh(matrix, T, k, monkeypatch):
    calls = _recorder(monkeypatch, "eigh")
    H = matrix(T)
    spec = top_eigenpairs(H, k)
    [((a, first, last), result)] = calls
    assert (first, last) == (T - k, T - 1)
    w, v = scipy.linalg.eigh(a, subset_by_index=[first, last], overwrite_a=True,
                             check_finite=False)
    _assert_equal(result, (w, v))
    order = np.argsort(w)[::-1]
    _assert_equal((spec.sigmas, spec.phis), (w[order], hankel._sign_normalize(v[:, order])))


@pytest.mark.parametrize("T", [2, 1000])
def test_ode_operator_fit_and_eigenpairs_match_scipy(T, monkeypatch):
    banded = _recorder(monkeypatch, "solveh_banded")
    tridiagonal = _recorder(monkeypatch, "eigh_tridiagonal")
    ode.fitted_wave_operator.cache_clear()  # so the fit runs here
    count = min(T, 40)
    ode._operator_eigs(T, count)
    assert len(banded) == ode._FIT_ITERS
    for (ab, rhs), x in banded:
        _assert_equal((x,), (scipy.linalg.solveh_banded(ab, rhs, lower=True),))
    [((d, e, first, last), result)] = tridiagonal
    assert (first, last) == (T - count, T - 1)
    _assert_equal(result, scipy.linalg.eigh_tridiagonal(d, e, select="i",
                                                        select_range=(first, last)))


@pytest.mark.parametrize("rhs", [1, 20])
def test_ridge_solve_matches_scipy_cholesky(rhs):
    rng = np.random.default_rng(rhs)
    F = rng.standard_normal((200, 30))
    gram, cross, ridge = F.T @ F, F.T @ rng.standard_normal((200, rhs)), 0.5
    shifted = gram + ridge * np.eye(len(gram))
    expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(shifted.T, overwrite_a=True),
                                      cross).T
    _assert_equal((online._ridge_gram_solve(gram, cross, ridge),), (expected,))


_SMALL = np.random.default_rng(0).standard_normal((20, 4))
_GRAM = _SMALL.T @ _SMALL
# name: (finite inputs, the package's call, scipy's call)
_CALLS = {
    "eigh_tridiagonal": (
        (np.array([2.0, 3.0, 4.0]), np.array([0.5, 0.5])),
        lambda d, e: _lapack.eigh_tridiagonal(d, e, 1, 2),
        lambda d, e: scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(1, 2)),
    ),
    "solveh_banded": (
        (np.array([[4.0] * 5, [1.0] * 5, [0.5] * 5]), np.ones(5)),
        _lapack.solveh_banded,
        lambda ab, b: scipy.linalg.solveh_banded(ab, b, lower=True),
    ),
    "cho_factor": (
        (_GRAM,),
        _lapack.cho_factor,
        lambda a: scipy.linalg.cho_factor(a, overwrite_a=True),
    ),
    "cho_solve": (
        (np.linalg.cholesky(_GRAM).T, np.ones((4, 2))),
        _lapack.cho_solve,
        lambda c, b: scipy.linalg.cho_solve((c, False), b),
    ),
}


@pytest.mark.parametrize("name, index", [("eigh_tridiagonal", 0), ("eigh_tridiagonal", 1),
                                         ("solveh_banded", 0), ("solveh_banded", 1),
                                         ("cho_factor", 0), ("cho_solve", 0), ("cho_solve", 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_input_raises_as_scipy_does(name, index, value):
    inputs, ours, reference = _CALLS[name]

    def spoiled():
        arrays = [a.copy() for a in inputs]
        arrays[index].flat[1] = value
        return arrays

    with pytest.raises(ValueError, match="infs or NaNs") as expected:
        reference(*spoiled())
    with pytest.raises(ValueError) as raised:
        ours(*spoiled())
    assert str(raised.value) == str(expected.value)


def test_gram_that_is_not_positive_definite_raises_linalg_error():
    gram = np.diag([1.0, -2.0, 3.0])
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor") as expected:
        scipy.linalg.cho_factor(gram.copy(), overwrite_a=True)
    with pytest.raises(np.linalg.LinAlgError) as raised:
        online._ridge_gram_solve(gram.copy(), np.ones((3, 1)), 0.0)
    assert str(raised.value) == str(expected.value)


def test_band_matrix_that_is_not_positive_definite_raises_linalg_error():
    ab = np.array([[1.0, -1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError) as expected:
        scipy.linalg.solveh_banded(ab, np.ones(3), lower=True)
    with pytest.raises(np.linalg.LinAlgError) as raised:
        _lapack.solveh_banded(ab, np.ones(3))
    assert str(raised.value) == str(expected.value)


def test_missing_extension_raises_import_error_naming_scipy(monkeypatch):
    import importlib.machinery
    import sys

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=rf"scipy {scipy.__version__} has no _flapack"):
        _lapack._flapack()

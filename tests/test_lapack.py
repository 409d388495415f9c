"""The package's LAPACK calls against their scipy.linalg references, bit for bit."""

import numpy as np
import pytest
import scipy.linalg

from wavefilter import _lapack, hankel, ode
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


@pytest.mark.parametrize("width", [27, 270, 420])
def test_posv_matches_scipy_cholesky(width):
    rng = np.random.default_rng(width)
    F = rng.standard_normal((2 * width, width))
    shifted, cross = F.T @ F + 0.5 * np.eye(width), F.T @ rng.standard_normal((2 * width, 10))
    expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(shifted), cross)
    _assert_equal((_lapack.posv(shifted.T, cross),), (expected,))


def _spd(width):
    rng = np.random.default_rng(width)
    F = rng.standard_normal((2 * width, width))
    return F.T @ F + 0.5 * np.eye(width), rng.standard_normal((width, 3))


def test_posv_reads_only_the_upper_triangle():
    a, b = _spd(30)
    spoiled = np.asfortranarray(a)
    spoiled[np.tril_indices(30, -1)] = 1e3  # an indefinite matrix if LAPACK read it
    _assert_equal((_lapack.posv(spoiled, b),), (_lapack.posv(np.asfortranarray(a), b),))


@pytest.mark.parametrize("order", ["F", "C"])
def test_posv_overwrites_only_a_fortran_order_a_and_never_b(order):
    # f2py hands a Fortran-order array to LAPACK as it is, which overwrites its upper
    # triangle with cho_factor's factor; a C-order one goes through a copy
    a, b = _spd(30)
    given, rhs = np.array(a, order=order), b.copy()
    _lapack.posv(given, rhs)
    assert np.array_equal(rhs, b)
    if order == "F":
        assert np.array_equal(given, scipy.linalg.cho_factor(a)[0])
    else:
        assert np.array_equal(given, a)


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
    "posv": (
        (_GRAM, np.ones((4, 2))),
        _lapack.posv,
        lambda a, b: scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, overwrite_a=True), b),
    ),
}


@pytest.mark.parametrize("name, index", [("eigh_tridiagonal", 0), ("eigh_tridiagonal", 1),
                                         ("solveh_banded", 0), ("solveh_banded", 1),
                                         ("posv", 0), ("posv", 1)])
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
        _lapack.posv(gram.copy(), np.ones((3, 1)))
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

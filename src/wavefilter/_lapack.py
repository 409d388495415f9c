"""scipy's LAPACK wrappers, called without importing ``scipy.linalg`` (see the README).

``import scipy.linalg`` loads scipy's array-API layer, which walks ``dir(numpy)`` and so
imports numpy's lazy ``f2py`` and ``testing`` submodules: about 0.2 s and 17 MiB of peak
RSS in every process that builds a bank or solves a ridge. The f2py extension that
``scipy.linalg.lapack`` re-exports loads alone in a few milliseconds. It is taken from
``sys.modules`` when scipy.linalg is loaded, and otherwise loaded from scipy's install
and registered under its own name, so a later ``import scipy.linalg`` reuses it.

Each function is the f2py call sequence of the scipy.linalg function named in its
docstring, restricted to the arguments the package passes, with the same finite checks,
LAPACK ``info`` checks and error types; the scipy.linalg functions are its reference in
the tests.
"""

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_NAME = "scipy.linalg._flapack"


def _flapack():
    module = sys.modules.get(_NAME)
    if module is None:
        import scipy  # the top-level package alone: no submodule

        directory = os.path.join(scipy.__path__[0], "linalg")
        path = next((p for suffix in importlib.machinery.EXTENSION_SUFFIXES
                     if os.path.exists(p := os.path.join(directory, "_flapack" + suffix))), None)
        if path is None:
            raise ImportError(f"scipy {scipy.__version__} has no _flapack extension in {directory}")
        loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(_NAME, path, loader=loader))
        loader.exec_module(module)
        sys.modules[_NAME] = module
    return module


def eigh(a: np.ndarray, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh(a, subset_by_index=[first, last], overwrite_a=True,
    check_finite=False)``: eigenpairs ``first..last`` (ascending) of the symmetric ``a``,
    of which LAPACK reads the lower triangle and overwrites it when ``a`` is Fortran-ordered.
    """
    lapack = _flapack()
    lwork, liwork, info = lapack.dsyevr_lwork(a.shape[0], lower=1)
    if info:
        raise ValueError(f"Internal work array size computation failed: {info}")
    w, z, m, _, info = lapack.dsyevr(a, compute_v=1, range="I", il=first + 1, iu=last + 1,
                                     lower=1, lwork=int(lwork), liwork=int(liwork), overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed (LAPACK info={info})")
    return w[:m], z[:, :m]


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray, first: int,
                     last: int) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(first, last))``:
    eigenpairs ``first..last`` (ascending) of the tridiagonal matrix with diagonal ``d``
    (length 2 or more) and off-diagonal ``e``, by bisection and inverse iteration.
    """
    lapack = _flapack()
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, first + 1, last + 1, 0.0, "B")
    _check_info(info, "stebz (eigh_tridiagonal)", "did not converge (LAPACK info=%d)")
    w = w[:m]
    v, info = lapack.dstein(d, e, w, iblock, isplit)
    _check_info(info, "stein (eigh_tridiagonal)", "%d eigenvectors failed to converge")
    order = np.argsort(w)  # bisection returns them block by block
    return w[order], v[:, order]


def _check_info(info: int, routine: str, positive: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} " + positive % info)


def solveh_banded(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solveh_banded(ab, b, lower=True)``: ``x`` solving ``A x = b`` for the
    positive definite band matrix ``A`` whose diagonal and subdiagonals are the rows of ``ab``.
    """
    ab, b = np.asarray_chkfinite(ab), np.asarray_chkfinite(b)
    _, x, info = _flapack().dpbsv(ab, b, lower=1, overwrite_ab=0, overwrite_b=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
    return x


def posv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, overwrite_a=True), b)`` in one
    ``dposv`` call, which is ``dpotrf`` then ``dpotrs``: ``x`` solving ``A x = b`` for the
    symmetric positive definite ``A``, of which LAPACK reads the upper triangle and
    overwrites it with the factor when ``a`` is Fortran-ordered.
    """
    a, b = np.asarray_chkfinite(a), np.asarray_chkfinite(b)
    _, x, info = _flapack().dposv(a, b, lower=0, overwrite_a=1, overwrite_b=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument "
                         'on entry to "POSV".')
    return x

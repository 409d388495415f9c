import math
import mmap
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import wavefilter
from wavefilter import hankel
from wavefilter.hankel import (
    NOISE_FLOOR,
    HankelMatrix,
    build_hankel,
    full_spectrum,
    hilbert_matrix,
    mu_curve,
    quarter_power_apply,
    spectral_tail_sum,
    top_eigenpairs,
)


def closed_form_2x2(a, b, c):
    """Eigenvalues of [[a, b], [b, c]], descending."""
    mean = (a + c) / 2.0
    disc = math.sqrt(((a - c) / 2.0) ** 2 + b**2)
    return mean + disc, mean - disc


def _hankel_reference(T):
    """The T-by-T moment matrix by broadcasting: T^2 integer temporaries."""
    idx = np.arange(1, T + 1)
    s = idx[:, None] + idx[None, :]
    return 2.0 / (s**3 - s)


def _hilbert_reference(T):
    idx = np.arange(1, T + 1)
    return 1.0 / (idx[:, None] + idx[None, :] - 1.0)


class TestBuildHankel:
    @pytest.mark.parametrize("T", [1, 2, 3, 37, 1000])
    def test_matches_broadcast_reference(self, T):
        assert np.array_equal(build_hankel(T).entries, _hankel_reference(T))
        assert np.array_equal(hilbert_matrix(T).entries, _hilbert_reference(T))

    def test_entries_are_read_only(self):
        with pytest.raises(ValueError):
            build_hankel(4).entries[0, 0] = 1.0
        with pytest.raises(ValueError):
            hilbert_matrix(4).entries[1, 2] = 1.0
        with pytest.raises(ValueError):
            build_hankel(4).symbol[0] = 1.0

    def test_hilbert_matrix_takes_only_the_size(self):
        with pytest.raises(TypeError):
            hilbert_matrix(3, -1)

    def test_allocates_linear_memory(self):
        # the dense 4000^2 matrix alone would be 122 MiB
        tracemalloc.start()
        try:
            build_hankel(4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_size_one(self):
        entries = build_hankel(1).entries
        assert entries.shape == (1, 1)
        assert entries[0, 0] == pytest.approx(1.0 / 3.0)

    def test_size_three_entries(self):
        expected = np.array(
            [
                [1 / 3, 1 / 12, 1 / 30],
                [1 / 12, 1 / 30, 1 / 60],
                [1 / 30, 1 / 60, 1 / 105],
            ]
        )
        assert np.abs(build_hankel(3).entries - expected).max() == 0.0

    def test_trace_bound_large(self):
        assert np.trace(build_hankel(1000).entries) < 0.75

    def test_entry_formula_and_symmetry(self):
        Z = build_hankel(37).entries
        assert np.array_equal(Z, _hankel_reference(37))
        assert np.array_equal(Z, Z.T)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_hankel(0)
        with pytest.raises(ValueError):
            hilbert_matrix(0)

    @pytest.mark.parametrize("builder", [build_hankel, hilbert_matrix])
    @pytest.mark.parametrize("T", [10.5, 10.0, "10"])
    def test_names_a_horizon_that_is_not_an_integer(self, builder, T):
        with pytest.raises(ValueError, match=rf"^T must be an integer, got {T!r}$"):
            builder(T)

    @pytest.mark.parametrize("builder", [build_hankel, hilbert_matrix])
    def test_takes_a_numpy_integer_horizon(self, builder):
        assert np.array_equal(builder(np.int32(5)).symbol, builder(5).symbol)


class TestHankelMatrix:
    def test_entries_are_a_view_of_the_symbol(self):
        H = HankelMatrix(np.arange(7.0))
        assert H.size == 4
        assert np.array_equal(H.entries, np.add.outer(np.arange(4), np.arange(4)))
        assert H.entries.base is not None and H.entries.nbytes == 8 * 4 * 4

    def test_keeps_a_copy_of_the_symbol(self):
        symbol = np.arange(5.0)
        H = HankelMatrix(symbol)
        symbol[0] = np.nan
        assert H.symbol[0] == 0.0 and H.entries[0, 0] == 0.0

    @pytest.mark.parametrize("symbol", [np.ones(4), np.ones((3, 3)), np.ones(0), np.float64(1.0)],
                             ids=["even", "2-D", "empty", "scalar"])
    def test_rejects_a_symbol_that_is_not_odd_and_1d(self, symbol):
        with pytest.raises(ValueError, match="symbol must be 1-D of odd length"):
            HankelMatrix(symbol)

    def test_names_the_first_non_finite_index(self):
        symbol = np.ones(9)
        symbol[[3, 6]] = np.inf, np.nan
        with pytest.raises(ValueError, match=r"symbol must be finite; index 3 is inf$"):
            HankelMatrix(symbol)


class TestMuCurve:
    def test_alpha_zero(self):
        assert mu_curve(0.0, 4) == pytest.approx([-1.0, 0.0, 0.0, 0.0])

    def test_alpha_one(self):
        assert mu_curve(1.0, 4) == pytest.approx([0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("alpha", [-0.2, 1.5])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            mu_curve(alpha, 5)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=300))
    @settings(max_examples=80, deadline=None)
    def test_norm_properties(self, alpha, T):
        entries = mu_curve(alpha, T)
        assert np.abs(entries).sum() <= 1.0 + 1e-12
        assert entries @ entries <= 1.0 + 1e-12
        envelope = 1.0 / np.arange(1, T + 1)
        assert np.all(np.abs(entries) <= envelope + 1e-12)


class TestTopEigenpairs:
    def test_two_by_two_closed_form(self):
        spec = top_eigenpairs(build_hankel(2), 2)
        lo_hi = closed_form_2x2(1 / 3, 1 / 12, 1 / 30)
        assert spec.sigmas == pytest.approx(lo_hi, abs=1e-12)
        assert spec.sigmas == pytest.approx([0.354927, 0.011740], abs=1e-6)

    def test_eigenpair_residual(self):
        H = build_hankel(300)
        spec = top_eigenpairs(H, 300)
        reliable = spec.sigmas > NOISE_FLOOR
        resid = H.entries @ spec.phis - spec.phis * spec.sigmas
        assert np.linalg.norm(resid[:, reliable], axis=0).max() <= 1e-8

    def test_orthonormal_and_sign_convention(self):
        spec = top_eigenpairs(build_hankel(120), 120)
        gram = spec.phis.T @ spec.phis
        assert np.abs(gram - np.eye(120)).max() <= 1e-10
        for j in range(120):
            col = spec.phis[:, j]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert first > 0

    def test_sorted_descending(self):
        spec = top_eigenpairs(build_hankel(80), 80)
        assert np.all(np.diff(spec.sigmas) <= 1e-12)

    def test_deterministic(self):
        a = top_eigenpairs(build_hankel(60), 10)
        b = top_eigenpairs(build_hankel(60), 10)
        assert np.array_equal(a.sigmas, b.sigmas)
        assert np.array_equal(a.phis, b.phis)

    def test_rejects_bad_k(self):
        H = build_hankel(5)
        with pytest.raises(ValueError):
            top_eigenpairs(H, 6)
        with pytest.raises(ValueError):
            top_eigenpairs(H, 0)


def _old_top_eigenpairs(entries, k):
    """The subset eigensolve of the full T-by-T matrix: the reference for the triangle copy."""
    T = len(entries)
    w, v = scipy.linalg.eigh(entries, subset_by_index=[T - k, T - 1])
    order = np.argsort(w)[::-1]
    return w[order], hankel._sign_normalize(v[:, order])


def _run_child(code: str) -> str:
    """stdout of a fresh interpreter that runs ``code`` with this checkout's package."""
    src = str(Path(wavefilter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=300).stdout


def _skip_unless_pages_can_be_counted():
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/status")
    thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    if thp.exists() and "[always]" in thp.read_text():
        pytest.skip("the kernel backs every allocation with huge pages")


class TestLowerTriangleSolve:
    """Every solve copies only the lower triangle, the part LAPACK reads."""

    @pytest.mark.parametrize("matrix", [build_hankel, hilbert_matrix],
                             ids=["eigen", "hilbert"])
    # (2000, 1999) would add 30 s for the same all-but-one solve checked at T = 1000
    @pytest.mark.parametrize("T, k", sorted(
        {(T, k) for T in (2, 3, 257, 1000, 2000) for k in (1, min(25, T - 1), T - 1)}
        - {(2000, 1999)} | {(T, T) for T in (1, 2, 3, 257)}
    ))
    def test_bit_identical_to_the_full_matrix_solve(self, matrix, T, k):
        H = matrix(T)
        sigmas, phis = _old_top_eigenpairs(H.entries, k)
        spec = top_eigenpairs(H, k)
        assert np.array_equal(spec.sigmas, sigmas)
        assert np.array_equal(spec.phis, phis)

    def test_buffer_is_an_anonymous_mapping(self):
        a = hankel._lower_triangle(build_hankel(300))
        assert isinstance(a.base, mmap.mmap) and a.flags.f_contiguous
        assert len(a.base) == a.nbytes

    def test_upper_triangle_is_never_read(self, monkeypatch):
        H = build_hankel(60)
        a = top_eigenpairs(H, 10)
        fill = hankel._lower_triangle

        def poisoned(matrix):
            out = fill(matrix)
            out[np.triu_indices(len(out), 1)] = np.nan
            return out

        monkeypatch.setattr(hankel, "_lower_triangle", poisoned)
        b = top_eigenpairs(H, 10)
        assert np.array_equal(a.sigmas, b.sigmas)
        assert np.array_equal(a.phis, b.phis)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("i, j", [(0, 0), (59, 59), (59, 0), (31, 30)])
    def test_rejects_non_finite_on_or_below_the_diagonal(self, value, i, j):
        # entry (i, j) is symbol[i + j]: the matrix is refused when it is built, for any k
        symbol = np.array(build_hankel(60).symbol)
        symbol[i + j] = value
        with pytest.raises(ValueError, match=rf"symbol must be finite; index {i + j} is"):
            HankelMatrix(symbol)

    def test_without_madvise_gives_the_same_eigenpairs(self, monkeypatch):
        H = build_hankel(300)
        a = top_eigenpairs(H, 25)
        monkeypatch.delattr(hankel.mmap, "MADV_NOHUGEPAGE", raising=False)
        b = top_eigenpairs(H, 25)
        assert np.array_equal(a.sigmas, b.sigmas)
        assert np.array_equal(a.phis, b.phis)

    def test_upper_triangle_pages_stay_unresident(self):
        _skip_unless_pages_can_be_counted()
        T = 3000
        # VmHWM is the child's own peak; ru_maxrss starts from the parent's at exec
        grown = 1024 * int(_run_child(
            "from wavefilter.hankel import build_hankel, top_eigenpairs\n"
            "def peak():\n"
            "    return next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "                if line.startswith('VmHWM:'))\n"
            "import scipy.linalg\n"
            f"H = build_hankel({T})\n"
            "before = peak()\n"
            "top_eigenpairs(H, 25)\n"
            "print(peak() - before)\n"
        ))
        # a full copy is 8T^2 bytes; the lower triangle is 4T^2, and each column's
        # lower part shares at most two 4 KiB pages with the upper triangle
        assert grown < 4 * T * T + 2 * 4096 * T

    def test_buffer_leaves_no_pages_resident_in_the_heap(self):
        _skip_unless_pages_can_be_counted()
        T = 2000
        # the buffer is unmapped when its array is released, so a second solve keeps
        # none of the 32 MB resident
        grown = 1024 * int(_run_child(
            "from wavefilter.hankel import build_hankel, top_eigenpairs\n"
            "def rss():\n"
            "    return next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "                if line.startswith('VmRSS:'))\n"
            f"H = build_hankel({T})\n"
            "top_eigenpairs(H, 25)\n"
            "before = rss()\n"
            "top_eigenpairs(H, 25)\n"
            "print(rss() - before)\n"
        ))
        assert grown < T * T  # the triangle alone would leave about 4T^2 bytes

    def test_free_heap_pages_are_released_before_the_fill(self):
        _skip_unless_pages_can_be_counted()
        # the second 32 MB array comes from the heap, which keeps it resident once freed
        released = 1024 * int(_run_child(
            "import numpy as np\n"
            "import scipy.linalg\n"
            "from wavefilter.hankel import build_hankel, top_eigenpairs\n"
            "def rss():\n"
            "    return next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "                if line.startswith('VmRSS:'))\n"
            "for _ in range(2):\n"
            "    x = np.ones(4_000_000)\n"
            "    del x\n"
            "before = rss()\n"
            "top_eigenpairs(build_hankel(100), 5)\n"
            "print(before - rss())\n"
        ))
        assert released > 16e6


class TestSpectralTailSum:
    def test_full_cut_is_zero(self):
        spec = full_spectrum(64)
        assert spectral_tail_sum(spec, 64) == 0.0

    def test_zero_cut_is_trace(self):
        spec = full_spectrum(64)
        assert spectral_tail_sum(spec, 0) == pytest.approx(
            np.trace(build_hankel(64).entries), abs=1e-8
        )

    def test_rejects_bad_k(self):
        spec = full_spectrum(64)
        with pytest.raises(ValueError):
            spectral_tail_sum(spec, 65)

    def test_rejects_partial_spectrum(self):
        spec = top_eigenpairs(build_hankel(64), 10)
        with pytest.raises(ValueError):
            spectral_tail_sum(spec, 2)


class TestQuarterPowerApply:
    def test_basis_vector_scaling_and_l1(self):
        T = 256
        spec = full_spectrum(T)
        for j in (0, 3, 9):
            out = quarter_power_apply(spec, spec.phis[:, j])
            expect = spec.sigmas[j] ** 0.25 * spec.phis[:, j]
            assert np.abs(out - expect).max() <= 1e-10
            assert np.abs(out).sum() <= 2 + 2 * math.log2(T)

    def test_two_by_two_closed_form(self):
        # explicit 2x2 eigendecomposition oracle for Z_2^{1/4} e_1
        spec = full_spectrum(2)
        hi, lo = closed_form_2x2(1 / 3, 1 / 12, 1 / 30)
        Z = build_hankel(2).entries
        for lam, other in ((hi, lo), (lo, hi)):
            v = np.array([Z[0, 1], lam - Z[0, 0]])
            v /= np.linalg.norm(v)
            if lam == hi:
                u1 = v
            else:
                u2 = v
        e1 = np.array([1.0, 0.0])
        expect = hi**0.25 * (u1 @ e1) * u1 + lo**0.25 * (u2 @ e1) * u2
        assert quarter_power_apply(spec, e1) == pytest.approx(expect, abs=1e-12)

    def test_rejects_non_unit(self):
        spec = full_spectrum(16)
        with pytest.raises(ValueError):
            quarter_power_apply(spec, np.ones(16))

    def test_rejects_partial_spectrum(self):
        spec = top_eigenpairs(build_hankel(16), 4)
        v = np.zeros(16)
        v[0] = 1.0
        with pytest.raises(ValueError):
            quarter_power_apply(spec, v)

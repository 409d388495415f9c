import numpy as np
import pytest

from wavefilter import ode
from wavefilter.filters import build_filter_bank, featurize_batch
from wavefilter.hankel import NOISE_FLOOR, full_spectrum
from wavefilter.ode import fd_wave_operator, fitted_wave_operator, ode_filter_bank


class TestOperators:
    def test_fd_operator_shapes_and_symmetry_structure(self):
        diag, off = fd_wave_operator(100)
        assert diag.shape == (100,) and off.shape == (99,)
        assert np.all(off >= 0)
        assert np.all(diag < 0)

    def test_fitted_operator_deterministic(self):
        a1, b1 = fitted_wave_operator(128)
        a2, b2 = fitted_wave_operator(128)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_fitted_operator_close_to_fd_in_the_bulk(self):
        # the correction mainly reshapes coefficients near the first grid
        # points; deep in the grid it stays close to plain differences
        T = 200
        a_fd, b_fd = fd_wave_operator(T)
        a_fit, b_fit = fitted_wave_operator(T)
        mid = slice(T // 2, T - 5)
        rel = np.abs(b_fit[mid] - b_fd[mid]) / np.abs(b_fd[mid])
        assert np.median(rel) < 0.5


def _fit_banded_add_at(T, phis, theta, weights, anchor_diag, anchor_off, ridge):
    """The banded operator fit assembled by ``np.add.at`` scatters: the reference."""
    from scipy.linalg import solveh_banded

    n_u = 2 * T - 1
    ab = np.zeros((3, n_u))
    rhs = np.zeros(n_u)
    ia = 2 * np.arange(T)
    for j in range(phis.shape[1]):
        phi = phis[:, j]
        wt = weights[j]
        pm = np.r_[0.0, phi[:-1]]
        pp = np.r_[phi[1:], 0.0]
        y = theta[j] * phi
        np.add.at(rhs, ia, wt * phi * y)
        np.add.at(rhs, ia[1:] - 1, wt * pm[1:] * y[1:])
        np.add.at(rhs, ia[:-1] + 1, wt * pp[:-1] * y[:-1])
        np.add.at(ab[0], ia, wt * phi * phi)
        np.add.at(ab[0], ia[1:] - 1, wt * pm[1:] * pm[1:])
        np.add.at(ab[0], ia[:-1] + 1, wt * pp[:-1] * pp[:-1])
        np.add.at(ab[1], ia[1:] - 1, wt * pm[1:] * phi[1:])
        np.add.at(ab[1], ia[:-1], wt * phi[:-1] * pp[:-1])
        np.add.at(ab[2], ia[1:-1] - 1, wt * pm[1:-1] * pp[1:-1])
    ab[0] += ridge
    rhs[0::2] += ridge * anchor_diag
    rhs[1::2] += ridge * anchor_off
    u = solveh_banded(ab, rhs, lower=True)
    return u[0::2], u[1::2]


def _fitted_wave_operator_per_mode(T):
    """The operator fit one mode at a time, with the scatter-assembled banded fit: the reference."""
    if T < 2:
        raise ValueError("grid size must be at least 2")
    spec = ode._moment_spectrum(T)
    n_rel = int(np.sum(spec.sigmas > NOISE_FLOOR))
    J = max(min(n_rel, ode._FIT_MODES), 1)
    phis = spec.phis[:, :J]

    def rayleigh(diag, off, v):
        return float(v @ (diag * v) + 2.0 * (v[:-1] * v[1:]) @ off)

    def apply_tridiagonal(diag, off, v):
        out = diag * v
        out[1:] += off * v[:-1]
        out[:-1] += off * v[1:]
        return out

    a0, b0 = fd_wave_operator(T)
    scale = np.abs(a0).max()
    a0s, b0s = a0 / scale, b0 / scale
    theta = np.array([rayleigh(a0s, b0s, phis[:, j]) for j in range(J)])
    weights = np.ones(J)
    a, b = a0s, b0s
    for _ in range(ode._FIT_ITERS):
        a, b = _fit_banded_add_at(T, phis, theta, weights, a0s, b0s, ode._FIT_RIDGE)
        theta = np.array([rayleigh(a, b, phis[:, j]) for j in range(J)])
        if J > 1:
            res = np.array([
                np.linalg.norm(apply_tridiagonal(a, b, phis[:, j]) - theta[j] * phis[:, j])
                for j in range(J)
            ])
            gaps = np.array([
                min(abs(theta[j] - theta[i]) for i in range(J) if i != j) for j in range(J)
            ])
            mix = res / np.maximum(gaps, 1e-12)
            weights = weights * np.clip(mix / mix.mean(), 0.1, None) ** 1.5
            weights /= weights.mean()
    return a * scale, b * scale


class TestFitBanded:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("T", [2, 3, 50, 257, 1000])
    def test_strided_assembly_equals_the_scatter_reference(self, T, order):
        # in either memory layout of phis the modes are summed in order
        rng = np.random.default_rng(T)
        J = min(T, 8)
        phis = np.asarray(np.linalg.qr(rng.standard_normal((T, J)))[0], order=order)
        assert phis.flags.c_contiguous == (order == "C")
        theta = -rng.uniform(0.1, 1.0, J)
        weights = rng.uniform(0.5, 2.0, J)
        diag, off = fd_wave_operator(T)
        scale = np.abs(diag).max()
        args = (T, phis, theta, weights, diag / scale, off / scale, ode._FIT_RIDGE)
        a, b = ode._fit_banded(*args)
        a_ref, b_ref = _fit_banded_add_at(*args)
        assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)


@pytest.mark.parametrize("T", [2, 3, 17, 200, 1000])
def test_operator_and_bank_equal_the_per_mode_reference_bit_for_bit(monkeypatch, T):
    a, b = fitted_wave_operator(T)
    bank = ode_filter_bank(T, min(T, 40))
    a_ref, b_ref = _fitted_wave_operator_per_mode(T)
    assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
    monkeypatch.setattr(ode, "fitted_wave_operator", _fitted_wave_operator_per_mode)
    ref = ode_filter_bank(T, min(T, 40))
    assert np.array_equal(bank.phis, ref.phis)
    assert np.array_equal(bank.sigmas, ref.sigmas)
    assert np.array_equal(bank.lambdas, ref.lambdas)
    assert np.array_equal(bank.sigma_extrapolated, ref.sigma_extrapolated)


class TestOdeFilterBank:
    def test_one_hankel_eigendecomposition_per_horizon(self, monkeypatch):
        calls = []
        original = ode.top_eigenpairs

        def counting(H, k):
            calls.append((H.size, k))
            return original(H, k)

        ode._moment_spectrum.cache_clear()
        ode.fitted_wave_operator.cache_clear()
        monkeypatch.setattr(ode, "top_eigenpairs", counting)
        ode_filter_bank(90, 12)
        ode_filter_bank(90, 20)
        assert calls == [(90, 40)]

    def test_orthonormal(self):
        bank = ode_filter_bank(200, 30)
        gram = bank.phis @ bank.phis.T
        assert np.abs(gram - np.eye(30)).max() <= 1e-8

    def test_accepted_by_featurizer(self):
        bank = ode_filter_bank(100, 20)
        xs = np.random.default_rng(0).standard_normal((100, 2))
        feats = featurize_batch(xs, bank)
        assert feats.shape == (100, 20 * 2 + 4)
        from wavefilter.filters import featurize_online

        fv = featurize_online(xs[:40], np.zeros(3), bank)
        assert fv.shape == (20 * 2 + 4 + 3,)
        assert np.allclose(fv[: 20 * 2 + 4][-2:], xs[39])

    def test_deep_bank_succeeds_where_eigen_refuses(self):
        with pytest.raises(ValueError):
            build_filter_bank(200, 60, method="eigen")
        bank = build_filter_bank(200, 60, method="ode")
        assert bank.k == 60

    def test_overlap_with_reliable_filters(self):
        T = 200
        spec = full_spectrum(T)
        bank = ode_filter_bank(T, 12)
        for j in range(10):
            assert abs(bank.phis[j] @ spec.phis[:, j]) >= 0.95

    def test_matched_sigmas_then_extrapolated(self):
        T = 200
        spec = full_spectrum(T)
        reliable = int(np.sum(spec.sigmas > NOISE_FLOOR))
        bank = ode_filter_bank(T, reliable + 5)
        assert bank.sigmas[:reliable] == pytest.approx(
            spec.sigmas[:reliable], rel=1e-10
        )
        assert bank.sigma_extrapolated is not None
        assert not bank.sigma_extrapolated[:reliable].any()
        assert bank.sigma_extrapolated[reliable:].all()
        assert np.all(np.diff(bank.sigmas) <= 0)

    def test_deep_filters_stay_smooth(self):
        # second-difference total variation of operator filters stays
        # bounded across orders; deep noise-floor eigenvectors do not
        T = 300
        spec = full_spectrum(T)
        bank = ode_filter_bank(T, 40)

        def roughness(v):
            return np.abs(np.diff(np.diff(v))).sum()

        worst_ode = max(roughness(bank.phis[j]) for j in range(40))
        worst_eigen = max(roughness(spec.phis[:, j]) for j in range(40))
        assert worst_ode < 10.0
        assert worst_eigen > 2 * worst_ode

    def test_lambdas_recorded_per_filter(self):
        bank = ode_filter_bank(100, 8)
        assert bank.lambdas is not None and bank.lambdas.shape == (8,)
        assert np.all(np.isfinite(bank.lambdas))

    @pytest.mark.parametrize("T", [1, 0, -4])
    def test_rejects_a_horizon_below_two_before_any_eigendecomposition(self, monkeypatch, T):
        monkeypatch.setattr(ode, "top_eigenpairs", lambda *args: pytest.fail("eigh ran"))
        message = rf"^method 'ode' needs a horizon T of at least 2, got T={T}$"
        with pytest.raises(ValueError, match=message):
            ode_filter_bank(T, 1)
        if T >= 1:
            with pytest.raises(ValueError, match=message):
                build_filter_bank(T, 1, method="ode")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            ode_filter_bank(50, 0)
        with pytest.raises(ValueError):
            ode_filter_bank(50, 51)

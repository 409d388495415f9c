import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from wavefilter import _lapack, batch
from wavefilter.batch import (
    BatchSample,
    fit_batch,
    predict_derivative,
    predict_pure_batch,
)
from wavefilter.filters import (
    FeatureLayout,
    FilterBank,
    augment_hint,
    build_filter_bank,
    featurize_batch,
)
from wavefilter.lds import LdsParams, Trajectory, simulate
from wavefilter.online import online_features


def random_diagonal_system(rng, d=5, n=2, m=2):
    b = rng.standard_normal((d, n))
    b /= np.linalg.norm(b)
    c = rng.standard_normal((m, d))
    c /= np.linalg.norm(c)
    return LdsParams(
        a=rng.uniform(0, 1, d), b=b, c=c,
        d=0.3 * rng.standard_normal((m, n)), h0=np.zeros(d),
    )


def make_samples(rng, params, bank, N):
    samples = []
    for _ in range(N):
        xs = rng.standard_normal((bank.horizon, params.input_dim))
        traj = simulate(params, xs)
        samples.append(BatchSample.from_trajectory(traj))
    return samples


class TestBatchSample:
    @pytest.mark.parametrize("field", ["inputs", "targets"])
    def test_rejects_non_finite_naming_step_and_column(self, field):
        arrays = {"inputs": np.zeros((6, 2)), "targets": np.zeros((6, 1))}
        arrays[field][2, -1] = np.inf
        column = arrays[field].shape[1]
        with pytest.raises(ValueError, match=f"{field} hold .* at step 3, column {column}"):
            BatchSample(**arrays)


class TestFitBatch:
    def test_planted_model_recovered(self):
        rng = np.random.default_rng(0)
        T, k, n, m = 100, 6, 2, 2
        bank = build_filter_bank(T, k)
        width = n * k + 2 * n
        m_true = 0.3 * rng.standard_normal((m, width))
        samples = []
        for _ in range(4):
            xs = rng.standard_normal((T, n))
            feats = featurize_batch(xs, bank)
            samples.append(BatchSample(inputs=xs, targets=feats @ m_true.T))
        model = fit_batch(samples, bank, ridge=1e-10)
        mse = 0.0
        for s in samples:
            feats = featurize_batch(s.inputs, bank)
            mse += float(((s.targets - feats @ model.matrix.T) ** 2).mean())
        assert mse / len(samples) <= 1e-6

    def test_zero_targets_zero_model(self):
        rng = np.random.default_rng(1)
        bank = build_filter_bank(50, 4)
        xs = rng.standard_normal((50, 2))
        model = fit_batch(
            [BatchSample(inputs=xs, targets=np.zeros((50, 2)))], bank, ridge=1e-6
        )
        assert np.abs(model.matrix).max() <= 1e-12

    def test_noiseless_system_fits_well(self):
        rng = np.random.default_rng(2)
        T, k, N = 200, 20, 4
        bank = build_filter_bank(T, k)
        params = random_diagonal_system(rng)
        samples = make_samples(rng, params, bank, N)
        model = fit_batch(samples, bank)
        mse = 0.0
        for s in samples:
            feats = featurize_batch(s.inputs, bank)
            mse += float(((s.targets - feats @ model.matrix.T) ** 2).mean())
        assert mse / N <= 1e-4

    def test_training_mse_matches_refeaturized_residuals(self):
        rng = np.random.default_rng(6)
        bank = build_filter_bank(60, 5)
        samples = make_samples(rng, random_diagonal_system(rng), bank, 3)
        model = fit_batch(samples, bank, ridge=1e-4)
        total, count, y_sq = 0.0, 0, 0.0
        for s in samples:
            feats = featurize_batch(s.inputs, bank)
            resid = s.targets - feats @ model.matrix.T
            total += float((resid**2).sum())
            count += resid.size
            y_sq += float((s.targets**2).sum())
        # the streamed SSE subtracts terms of size ||Y||^2, so it is exact to a
        # few eps ||Y||^2; here ||Y||^2 / SSE is about 8e5 (observed 1.06x the bound)
        rel = 8 * np.finfo(float).eps * y_sq / total
        assert model.training_mse == pytest.approx(total / count, rel=rel, abs=0)

    def test_rejects_negative_ridge_before_featurizing(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("featurized before the ridge was checked")

        monkeypatch.setattr(batch, "featurize_batch", unreachable)
        bank = build_filter_bank(20, 3)
        samples = [BatchSample(inputs=np.ones((20, 2)), targets=np.ones((20, 1)))] * 3
        with pytest.raises(ValueError, match="ridge must be nonnegative"):
            fit_batch(samples, bank, -1.0)
        for ridge in (np.nan, np.inf):  # inf would fit zero, nan would fail as the data's fault
            with pytest.raises(ValueError, match=f"^ridge must be .* finite, got {ridge}$"):
                fit_batch(samples, bank, ridge)

    def test_ridge_monotonicity(self):
        rng = np.random.default_rng(3)
        bank = build_filter_bank(80, 6)
        params = random_diagonal_system(rng)
        samples = make_samples(rng, params, bank, 2)
        residuals = []
        for ridge in (1e-8, 1e-4, 1e-1, 10.0):
            model = fit_batch(samples, bank, ridge=ridge)
            total = 0.0
            for s in samples:
                feats = featurize_batch(s.inputs, bank)
                total += float(((s.targets - feats @ model.matrix.T) ** 2).sum())
            residuals.append(total)
        assert all(b >= a - 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_zero_features_without_ridge_raise(self):
        bank = build_filter_bank(20, 3)
        samples = [BatchSample(inputs=np.zeros((20, 1)), targets=np.ones((20, 1)))]
        with pytest.raises(np.linalg.LinAlgError):
            fit_batch(samples, bank, ridge=0.0)

    def test_needs_a_sample(self):
        bank = build_filter_bank(20, 3)
        with pytest.raises(ValueError):
            fit_batch([], bank)

    @staticmethod
    def _stacking_reference(samples, bank, ridge):
        """Matrix, SSE, stacked features and targets of the fit over vstacked episodes."""
        feats = [featurize_batch(s.inputs, bank) for s in samples]
        F, Y = np.vstack(feats), np.vstack([s.targets for s in samples])
        if ridge == 0.0:
            matrix = np.linalg.lstsq(F, Y, rcond=None)[0].T
        else:
            matrix = _cholesky_reference(F, Y, ridge)
        sse = sum(float(((s.targets - f @ matrix.T) ** 2).sum()) for s, f in zip(samples, feats))
        return matrix, sse, F, Y

    @pytest.mark.parametrize("ridge", [1e-8, 0.0])
    @pytest.mark.parametrize("method", ["eigen", "ode"])
    def test_equals_the_stacking_reference(self, method, ridge):
        # ridge 0 keeps the stacked lstsq, bit for bit. A positive ridge sums
        # per-episode Grams, which round differently from one product over the
        # stacked rows, and the solve amplifies that by about cond(F)^2
        # (cond(F) ~ 2.5e3 here; observed 1.6e-9 and 1.5e-12 at most)
        rng = np.random.default_rng(11)
        bank = build_filter_bank(120, 8, method=method)
        samples = make_samples(rng, random_diagonal_system(rng, n=3), bank, 5)
        matrix, sse, F, Y = self._stacking_reference(samples, bank, ridge)
        model = fit_batch(samples, bank, ridge=ridge)
        if ridge == 0.0:
            assert np.array_equal(model.matrix, matrix)
            assert model.training_mse == sse / Y.size
        else:
            assert np.linalg.norm(model.matrix - matrix) <= 1e-8 * np.linalg.norm(matrix)
            assert np.linalg.norm(F @ (model.matrix - matrix).T) <= 1e-11 * np.linalg.norm(Y)

    @pytest.mark.parametrize("ridge", [1e-8, 0.0])
    @pytest.mark.parametrize("method", ["eigen", "ode"])
    def test_one_episode_equals_the_stacking_reference(self, method, ridge):
        # one episode's Gram is 0 + F^T F, exactly the reference's
        rng = np.random.default_rng(11)
        bank = build_filter_bank(120, 8, method=method)
        samples = make_samples(rng, random_diagonal_system(rng, n=3), bank, 1)
        matrix, sse, _, Y = self._stacking_reference(samples, bank, ridge)
        model = fit_batch(samples, bank, ridge=ridge)
        assert np.array_equal(model.matrix, matrix)
        if ridge == 0.0:
            assert model.training_mse == sse / Y.size
        else:  # from the normal equations, to a few eps ||Y||^2
            eps = np.finfo(float).eps
            assert abs(model.training_mse * Y.size - sse) <= 8 * eps * float((Y**2).sum())

    @pytest.mark.parametrize("T, k, ridge, fit_ratio", [
        (120, 8, 1e-4, 1e7),  # ||Y||^2 / sse about 8e7
        (200, 20, 1e-8, 1e15),  # a perfect fit: sse is rounding, as large as the error
    ])
    def test_training_mse_of_a_noiseless_system(self, T, k, ridge, fit_ratio):
        # sse = ||Y||^2 - <M, B^T> - ridge ||M||^2 cancels all but sse of ||Y||^2,
        # so its error is a few eps ||Y||^2 (at most 2.2 in a sweep of ridges
        # 1e-8..1e-2 over three banks and two noiseless systems each)
        rng = np.random.default_rng(21)
        bank = build_filter_bank(T, k)
        samples = make_samples(rng, random_diagonal_system(rng), bank, 5)
        model = fit_batch(samples, bank, ridge=ridge)
        F = np.vstack([featurize_batch(s.inputs, bank) for s in samples])
        Y = np.vstack([s.targets for s in samples])
        sse, squares = float(((Y - F @ model.matrix.T) ** 2).sum()), float((Y**2).sum())
        assert squares / sse > fit_ratio
        assert model.training_mse >= 0.0
        assert abs(model.training_mse * Y.size - sse) <= 8 * np.finfo(float).eps * squares

    @pytest.mark.parametrize("method", ["eigen", "hilbert"])
    def test_training_mse_where_the_fitted_terms_cancel(self, method):
        # random targets on ill-conditioned features: large coefficients cancel
        # in F M^T, and the identity's error follows || |F| |M|^T ||^2 instead of
        # ||Y||^2 (observed at most 0.37 eps of it, and up to 1.8e5 eps ||Y||^2)
        rng = np.random.default_rng(0)
        bank = build_filter_bank(300, 10, method=method)
        samples = [BatchSample(inputs=rng.standard_normal((300, 4)),
                               targets=rng.standard_normal((300, 2))) for _ in range(2)]
        model = fit_batch(samples, bank)
        F = np.vstack([featurize_batch(s.inputs, bank) for s in samples])
        Y = np.vstack([s.targets for s in samples])
        sse = float(((Y - F @ model.matrix.T) ** 2).sum())
        magnitude = float(((np.abs(F) @ np.abs(model.matrix).T) ** 2).sum())
        assert abs(model.training_mse * Y.size - sse) <= np.finfo(float).eps * magnitude

    @pytest.mark.parametrize("ridge", [1e-8, 0.0])
    def test_filters_are_transformed_once_per_fit(self, monkeypatch, ridge):
        calls = _count_spectra(monkeypatch)
        rng = np.random.default_rng(14)
        bank = build_filter_bank(40, 4)
        model = fit_batch(make_samples(rng, random_diagonal_system(rng), bank, 4), bank, ridge)
        assert calls == [bank]
        assert np.isfinite(model.training_mse)

    def test_one_bank_transforms_its_filters_once_across_featurizers(self, monkeypatch):
        calls = _count_spectra(monkeypatch)
        rng = np.random.default_rng(17)
        bank = build_filter_bank(50, 5)
        samples = make_samples(rng, random_diagonal_system(rng), bank, 3)
        featurize_batch(samples[0].inputs, bank)
        for s in samples[:2]:
            online_features(Trajectory(inputs=s.inputs, outputs=s.targets), bank)
        fit_batch(samples, bank)
        assert calls == [bank]
        assert not bank.spectrum.flags.writeable

    @pytest.mark.parametrize("ridge", [1e-8, 0.0])
    @pytest.mark.parametrize("field, widths, message, bad", [
        ("inputs", (2, 2, 3), "episode 2 has input width 3, episode 0 has 2", 2),
        ("targets", (1, 2, 1), "episode 1 has target width 2, episode 0 has 1", 1),
    ])
    def test_rejects_differing_widths_before_featurizing(self, monkeypatch, field, widths,
                                                         message, bad, ridge):
        # episodes are taken one at a time, so those before the mismatch are
        # featurized; the mismatched one is not, and nothing is solved
        featurized = _record_featurized(monkeypatch)

        def unreachable(*args, **kwargs):
            raise AssertionError("solved despite differing widths")

        monkeypatch.setattr(_lapack, "posv", unreachable)
        monkeypatch.setattr(np.linalg, "lstsq", unreachable)
        bank = build_filter_bank(20, 3)
        shapes = {"inputs": [2, 2, 2], "targets": [1, 1, 1], field: widths}
        samples = [BatchSample(inputs=np.full((20, a), i + 1.0), targets=np.ones((20, b)))
                   for i, (a, b) in enumerate(zip(shapes["inputs"], shapes["targets"]))]
        with pytest.raises(ValueError, match=message):
            fit_batch(samples, bank, ridge)
        assert [xs[0, 0] for xs in featurized] == [i + 1.0 for i in range(bad)]

    @pytest.mark.parametrize("ridge", [1e-8, 0.0])
    def test_names_the_episode_whose_length_differs_from_the_horizon(self, monkeypatch, ridge):
        featurized = _record_featurized(monkeypatch)
        bank = build_filter_bank(60, 3)
        samples = [BatchSample(inputs=np.full((T, 2), i + 1.0), targets=np.ones((T, 1)))
                   for i, T in enumerate((60, 60, 60, 50, 60))]
        with pytest.raises(ValueError, match="^episode 3 has 50 steps, the bank horizon is 60$"):
            fit_batch(samples, bank, ridge)
        assert [xs[0, 0] for xs in featurized] == [1.0, 2.0, 3.0]

    def test_takes_a_generator_in_one_pass(self):
        rng = np.random.default_rng(15)
        bank = build_filter_bank(60, 5)
        samples = make_samples(rng, random_diagonal_system(rng), bank, 4)
        taken = []

        def stream():
            for s in samples:
                taken.append(s)
                yield s

        model = fit_batch(stream(), bank, ridge=1e-6)
        assert taken == samples
        listed = fit_batch(samples, bank, ridge=1e-6)
        assert np.array_equal(model.matrix, listed.matrix)
        assert model.training_mse == listed.training_mse
        stacked = fit_batch(iter(samples), bank, ridge=0.0)
        assert np.array_equal(stacked.matrix, fit_batch(samples, bank, ridge=0.0).matrix)

    def test_ridge_added_in_place_equals_the_identity_sum(self):
        rng = np.random.default_rng(16)
        bank = build_filter_bank(80, 5)
        sample = BatchSample(inputs=rng.standard_normal((80, 2)),
                             targets=rng.standard_normal((80, 3)))
        F = featurize_batch(sample.inputs, bank)
        expected = _cholesky_reference(F, sample.targets, 1e-3)
        assert np.array_equal(fit_batch([sample], bank, 1e-3).matrix, expected)

    def test_huge_ridge_shrinks_to_zero(self):
        rng = np.random.default_rng(8)
        sample = BatchSample(inputs=rng.standard_normal((50, 1)),
                             targets=rng.standard_normal((50, 2)))
        model = fit_batch([sample], build_filter_bank(50, 2), ridge=1e12)
        assert np.abs(model.matrix).max() <= 1e-9

    def test_ridge_solve_matches_augmented_lstsq(self):
        # the ridge minimizer is plain least squares on [F; sqrt(ridge) I], [Y; 0]
        rng = np.random.default_rng(9)
        bank = build_filter_bank(60, 3)
        sample = BatchSample(inputs=rng.standard_normal((60, 1)),
                             targets=rng.standard_normal((60, 2)))
        ridge = 1e-3
        direct = fit_batch([sample], bank, ridge).matrix
        feats = featurize_batch(sample.inputs, bank)
        aug_feats = np.vstack([feats, math.sqrt(ridge) * np.eye(5)])
        aug_targets = np.vstack([sample.targets, np.zeros((5, 2))])
        expected, *_ = np.linalg.lstsq(aug_feats, aug_targets, rcond=None)
        assert np.abs(direct - expected.T).max() <= 1e-8


def _cholesky_reference(F, Y, ridge):
    """scipy's Cholesky solve of ``(F^T F + ridge I) M^T = F^T Y``, as M."""
    shifted = F.T @ F + ridge * np.eye(F.shape[1])
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(shifted), F.T @ Y).T


def _count_spectra(monkeypatch) -> list:
    """Banks whose filter spectrum is computed from now on, one entry per transform."""
    transform, calls = FilterBank.spectrum.func, []

    def counted(bank):
        calls.append(bank)
        return transform(bank)

    spectrum = functools.cached_property(counted)
    spectrum.__set_name__(FilterBank, "spectrum")
    monkeypatch.setattr(FilterBank, "spectrum", spectrum)
    return calls


def _record_featurized(monkeypatch) -> list:
    """Inputs of every episode ``fit_batch`` featurizes from now on, in order."""
    featurized, featurize = [], batch.featurize_batch

    def recorded(inputs, bank, y_prev=None, out=None):
        featurized.append(inputs)
        return featurize(inputs, bank, y_prev, out)

    monkeypatch.setattr(batch, "featurize_batch", recorded)
    return featurized


def _traced_peak(fn, *args):
    """Result of ``fn(*args)`` and the peak bytes numpy allocated during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFeaturizationMemory:
    """The convolutions stream into their destination; the transient stays small."""

    def test_fit_batch_memory_does_not_grow_with_episodes(self):
        # a positive ridge keeps one episode's rows and the width^2 normal equations;
        # ridge 0 holds the stacked design matrix once
        rng = np.random.default_rng(12)
        T, n, k = 1000, 10, 40
        bank = build_filter_bank(T, k)
        design_bytes = 6 * T * (n * k + 2 * n) * 8
        peaks = {}
        for episodes in (6, 24):
            samples = [BatchSample(inputs=rng.standard_normal((T, n)),
                                   targets=rng.standard_normal((T, 3)))
                       for _ in range(episodes)]
            _, peaks[episodes] = _traced_peak(fit_batch, samples, bank)
        assert peaks[24] <= 1.1 * peaks[6]
        assert peaks[6] < design_bytes
        _, stacked = _traced_peak(fit_batch, samples[:6], bank, 0.0)
        assert stacked < 1.25 * design_bytes  # a vstacked copy would make it over 2

    def test_ridge_solve_factors_the_gram_in_place(self):
        # LAPACK takes the Gram in Fortran order; a C-ordered one costs a width^2 copy
        rng = np.random.default_rng(17)
        width = 400
        F, Y = rng.standard_normal((2 * width, width)), rng.standard_normal((2 * width, 3))
        _, peak = _traced_peak(lambda gram, cross: _lapack.posv(gram.T, cross), F.T @ F, F.T @ Y)
        assert peak < 4 * width**2

    def test_featurize_batch_transient_is_bounded(self):
        rng = np.random.default_rng(13)
        T, n, k = 4096, 10, 25
        # the filter values do not matter to the allocations; skip the T=4096 eigensolve
        bank = FilterBank(phis=rng.standard_normal((k, T)), sigmas=np.ones(k), method="eigen")
        out, peak = _traced_peak(featurize_batch, rng.standard_normal((T, n)), bank)
        assert peak < 2.5 * out.nbytes  # all k*n convolutions at once took 3.7


class TestPredictions:
    def test_zero_features_zero_prediction(self):
        rng = np.random.default_rng(4)
        bank = build_filter_bank(30, 3)
        params = random_diagonal_system(rng)
        model = fit_batch(make_samples(rng, params, bank, 2), bank)
        width = model.matrix.shape[1]
        assert predict_derivative(model, np.zeros(width)) == pytest.approx(
            np.zeros(2)
        )

    @pytest.mark.parametrize("ridge", [1e-8, 0.0])
    def test_model_layout_is_the_one_it_featurized_with(self, monkeypatch, ridge):
        rng = np.random.default_rng(9)
        bank = build_filter_bank(30, 4)
        widths, featurize = [], batch.featurize_batch

        def recorded(inputs, bank, y_prev=None, out=None):
            widths.append(featurize(inputs, bank, y_prev, out).shape[1])
            return out

        monkeypatch.setattr(batch, "featurize_batch", recorded)
        samples = [BatchSample(rng.standard_normal((30, 3)), rng.standard_normal((30, 2)))
                   for _ in range(2)]
        model = fit_batch(samples, bank, ridge)
        assert model.layout == FeatureLayout(n=3, k=4, m=0)
        assert widths == [model.layout.width] * 2 == [model.matrix.shape[1]] * 2

    def test_linearity(self):
        rng = np.random.default_rng(5)
        bank = build_filter_bank(30, 3)
        params = random_diagonal_system(rng)
        model = fit_batch(make_samples(rng, params, bank, 2), bank)
        width = model.matrix.shape[1]
        u, v = rng.standard_normal(width), rng.standard_normal(width)
        lhs = predict_derivative(model, 2 * u + 3 * v)
        rhs = 2 * predict_derivative(model, u) + 3 * predict_derivative(model, v)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_pure_batch_accumulates(self):
        rng = np.random.default_rng(6)
        bank = build_filter_bank(30, 3)
        params = random_diagonal_system(rng)
        model = fit_batch(make_samples(rng, params, bank, 2), bank)
        width = model.matrix.shape[1]
        feats = np.tile(rng.standard_normal(width), (7, 1))
        out = predict_pure_batch(model, feats)
        step = predict_derivative(model, feats[0])
        for t in range(7):
            assert out[t] == pytest.approx((t + 1) * step, rel=1e-10)

    def test_pure_batch_error_grows_at_most_linearly(self):
        rng = np.random.default_rng(7)
        T, k = 200, 20
        bank = build_filter_bank(T, k)
        params = random_diagonal_system(rng)
        train = make_samples(rng, params, bank, 6)
        model = fit_batch(train, bank)
        xs = rng.standard_normal((T, 2))
        traj = simulate(params, xs)
        feats = featurize_batch(xs, bank)
        preds = predict_pure_batch(model, feats)
        per_step = np.abs(
            predict_derivative(model, feats) - traj.output_differences()
        ).max()
        err = np.linalg.norm(preds - traj.outputs, axis=1)
        ts = np.arange(1, T + 1)
        assert np.all(err <= ts * per_step * np.sqrt(2) + 1e-12)

    def test_zero_model_zero_outputs(self):
        rng = np.random.default_rng(8)
        bank = build_filter_bank(30, 3)
        xs = rng.standard_normal((30, 2))
        model = fit_batch(
            [BatchSample(inputs=xs, targets=np.zeros((30, 2)))], bank, ridge=1e-6
        )
        feats = featurize_batch(xs, bank)
        assert np.abs(predict_pure_batch(model, feats)).max() <= 1e-10


class TestHilbertFilters:
    def test_two_by_two_eigenvalues(self):
        bank = build_filter_bank(2, 2, method="hilbert")
        assert bank.sigmas == pytest.approx([1.26760, 0.06573], abs=1e-4)

    def test_positive_and_decaying(self):
        bank = build_filter_bank(40, 12, method="hilbert")
        assert bank.sigmas.min() > 0
        assert np.all(np.diff(bank.sigmas) < 0)

    def test_interchangeable_in_fit(self):
        rng = np.random.default_rng(9)
        T = 150
        bank = build_filter_bank(T, 15, method="hilbert")
        params = random_diagonal_system(rng)
        samples = make_samples(rng, params, bank, 4)
        model = fit_batch(samples, bank)
        mse = 0.0
        for s in samples:
            feats = featurize_batch(s.inputs, bank)
            mse += float(((s.targets - feats @ model.matrix.T) ** 2).mean())
        assert mse / len(samples) <= 1e-3


class TestHiddenStateHints:
    def test_hints_restore_realizability(self):
        rng = np.random.default_rng(10)
        T, k, N, d = 150, 15, 5, 4
        params_base = random_diagonal_system(rng, d=d)
        bank_plain = build_filter_bank(T, k)
        bank_hint = build_filter_bank(T + 1, k)

        plain, hinted = [], []
        for _ in range(N):
            h0 = rng.standard_normal(d)
            h0 *= 2.0 / np.linalg.norm(h0)
            params = LdsParams(
                a=params_base.a, b=params_base.b, c=params_base.c,
                d=params_base.d, h0=h0,
            )
            xs = rng.standard_normal((T, 2))
            traj = simulate(params, xs)
            plain.append(BatchSample.from_trajectory(traj))
            aug = augment_hint(xs, h0)
            ys = np.vstack([np.zeros((1, 2)), traj.outputs])
            diffs = np.vstack([np.zeros((1, 2)), np.diff(ys, axis=0)])[1:]
            targets = np.vstack([np.zeros((1, 2)), diffs])
            hinted.append(BatchSample(inputs=aug, targets=targets))

        def mse(samples, bank):
            model = fit_batch(samples, bank)
            total, count = 0.0, 0
            for s in samples:
                feats = featurize_batch(s.inputs, bank)
                resid = s.targets - feats @ model.matrix.T
                total += float((resid**2).sum())
                count += resid.size
            return total / count

        with_hint = mse(hinted, bank_hint)
        without = mse(plain, bank_plain)
        assert with_hint <= 1e-4
        assert without > with_hint * 100

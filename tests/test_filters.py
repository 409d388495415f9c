import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefilter import filters, io
from wavefilter.filters import (
    FeatureLayout,
    FilterBank,
    augment_alternating,
    augment_hint,
    build_filter_bank,
    featurize_batch,
    featurize_batch_naive,
    featurize_online,
)
from wavefilter.hankel import build_hankel, top_eigenpairs
from wavefilter.lds import LdsParams, Trajectory, diagonalize, simulate
from wavefilter.online import online_features


def _convolve_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of real arrays along the last axis, broadcast over the rest.

    The batched FFT the featurizer ran before it streamed one filter at a
    time: ``numpy.fft`` real transforms zero-padded to the next power of two
    at or above the output length ``a.shape[-1] + b.shape[-1] - 1``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out_len = a.shape[-1] + b.shape[-1] - 1
    n = 1 << max(out_len - 1, 1).bit_length()
    spec = np.fft.rfft(a, n) * np.fft.rfft(b, n)
    return np.fft.irfft(spec, n)[..., :out_len]


def _batched_rows(xs: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Batch rows from all k*n convolutions at once: the reference for the streamed path."""
    T, n = xs.shape
    # c[j, i, s] = sum_u filt[j, u] * x[s - u, i]; feature time t picks s = t-2
    c = _convolve_full(bank.scaled_filters[:, None, :], xs.T[None, :, :])
    blocks = np.zeros((T, bank.k, n))
    if T > 1:
        blocks[1:] = np.moveaxis(c[:, :, : T - 1], -1, 0)
    return np.hstack([blocks.reshape(T, bank.k * n), _shifted(xs), xs])


def _conv_blocks_per_filter(xs: np.ndarray, spec_f: np.ndarray, out: np.ndarray) -> None:
    """One ``irfft`` of shape (n, N) per filter: the reference for the grouped transforms."""
    T, n = xs.shape
    size = 2 * (spec_f.shape[1] - 1)
    spec_x = np.fft.rfft(xs.T, size)
    out[0] = 0.0
    for j in range(len(spec_f)):
        c = np.fft.irfft(spec_f[j] * spec_x, size)
        out[1:, j * n : (j + 1) * n] = c[:, : T - 1].T


def _shifted(rows: np.ndarray) -> np.ndarray:
    """Rows one step later, row 0 zero."""
    out = np.zeros_like(rows)
    out[1:] = rows[:-1]
    return out


class TestInternalFft:
    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(3)
        for la, lb in ((1, 1), (5, 9), (128, 128), (1000, 357)):
            a = rng.standard_normal(la)
            b = rng.standard_normal(lb)
            assert np.abs(_convolve_full(a, b) - np.convolve(a, b)).max() <= 1e-10

    def test_broadcasts_leading_axes(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 1, 16))
        b = rng.standard_normal((1, 2, 9))
        out = _convolve_full(a, b)
        assert out.shape == (3, 2, 24)
        for i in range(3):
            for j in range(2):
                assert np.allclose(out[i, j], np.convolve(a[i, 0], b[0, j]))


class TestBuildFilterBank:
    def test_first_scaled_filter_small(self):
        bank = build_filter_bank(2, 1)
        spec = top_eigenpairs(build_hankel(2), 1)
        assert spec.sigmas[0] == pytest.approx(0.354927, abs=1e-6)
        expect = spec.sigmas[0] ** 0.25 * spec.phis[:, 0]
        assert np.abs(bank.scaled_filters[0] - expect).max() <= 1e-14

    def test_hilbert_base_matrix(self):
        expected = np.array(
            [[1, 1 / 2, 1 / 3], [1 / 2, 1 / 3, 1 / 4], [1 / 3, 1 / 4, 1 / 5]]
        )
        bank = build_filter_bank(3, 2, method="hilbert")
        w = np.linalg.eigvalsh(expected)[::-1]
        assert bank.sigmas == pytest.approx(w[:2], abs=1e-12)

    def test_counts_and_lengths(self):
        for method in ("eigen", "hilbert", "ode"):
            bank = build_filter_bank(50, 7, method=method)
            assert bank.scaled_filters.shape == (7, 50)
            assert bank.sigmas.shape == (7,)

    def test_scaled_filter_l1_bound(self):
        for T in (64, 256):
            bank = build_filter_bank(T, 20)
            bound = 2 + 2 * math.log2(T)
            assert np.abs(bank.scaled_filters).sum(axis=1).max() <= bound

    def test_rejects_bad_requests(self):
        with pytest.raises(ValueError):
            build_filter_bank(64, 0)
        with pytest.raises(ValueError):
            build_filter_bank(64, 41)  # beyond the eigen cap
        with pytest.raises(ValueError):
            build_filter_bank(10, 11)
        with pytest.raises(ValueError):
            build_filter_bank(64, 5, method="mystery")

    @pytest.mark.parametrize("T, k, method, name", [
        (10, 2.5, "eigen", "k"),
        (10.5, 3, "eigen", "T"),
        (10, 2.5, "ode", "k"),
        (10.0, 3, "hilbert", "T"),
        (10, "3", "eigen", "k"),
    ])
    def test_rejects_a_horizon_or_count_that_is_not_an_integer(self, T, k, method, name):
        value = T if name == "T" else k
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            build_filter_bank(T, k, method=method)

    def test_takes_numpy_integers(self):
        bank = build_filter_bank(np.int64(10), np.int32(3))
        assert bank.phis.shape == (3, 10)
        assert np.array_equal(bank.phis, build_filter_bank(10, 3).phis)


class TestDerivedBankFields:
    """k, horizon and the scaled filters come from phis and sigmas alone."""

    @staticmethod
    def _assert_derived(bank):
        assert (bank.k, bank.horizon) == bank.phis.shape
        assert np.array_equal(bank.scaled_filters, bank.sigmas[:, None] ** 0.25 * bank.phis)

    @pytest.mark.parametrize(
        "method, T, k", [("eigen", 30, 5), ("hilbert", 20, 4), ("ode", 40, 12)]
    )
    def test_built_and_reloaded_banks(self, tmp_path, method, T, k):
        bank = build_filter_bank(T, k, method=method)
        self._assert_derived(bank)
        io.save_filter_bank(bank, tmp_path / "bank")
        loaded = io.load_filter_bank(tmp_path / "bank")
        self._assert_derived(loaded)
        assert np.array_equal(loaded.scaled_filters, bank.scaled_filters)

    def test_rejects_one_dimensional_phis(self):
        with pytest.raises(ValueError, match=r"phis must be 2-D .*got shape \(5,\)"):
            FilterBank(phis=np.ones(5), sigmas=np.ones(1), method="eigen")

    def test_rejects_a_sigma_count_unlike_the_filter_count(self):
        with pytest.raises(ValueError, match="3 sigmas for 2 filters"):
            FilterBank(phis=np.eye(2, 5), sigmas=np.ones(3), method="eigen")


class TestFeaturizeOnline:
    def test_zero_inputs_leave_only_y_block(self):
        bank = build_filter_bank(32, 4)
        y_prev = np.array([1.5, -2.0])
        fv = featurize_online(np.zeros((10, 3)), y_prev, bank)
        layout = FeatureLayout(n=3, k=4, m=2)
        assert fv[: layout.y_block.start] == pytest.approx(0.0)
        assert fv[layout.y_block] == pytest.approx(y_prev)

    def test_impulse_selects_filter_coordinate(self):
        T, k, n = 32, 4, 3
        bank = build_filter_bank(T, k)
        for t in (2, 5, 17):
            xs = np.zeros((t, n))
            xs[0, 1] = 1.0  # impulse on coordinate 2 at time 1
            fv = featurize_online(xs, np.zeros(1), bank)
            conv = fv[: n * k].reshape(k, n)
            for j in range(k):
                assert conv[j, 1] == pytest.approx(bank.scaled_filters[j, t - 2])
            assert conv[:, 0] == pytest.approx(0.0)

    def test_width_identity(self):
        bank = build_filter_bank(20, 6)
        fv = featurize_online(np.ones((5, 3)), np.zeros(2), bank)
        assert fv.shape == (3 * 6 + 2 * 3 + 2,)
        assert FeatureLayout(n=3, k=6, m=2).width == 26

    def test_entry_bound(self):
        T, k, n = 128, 10, 2
        bank = build_filter_bank(T, k)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1, 1, (T, n))
        r_x = np.abs(xs).max()
        fv = featurize_online(xs, np.zeros(1), bank)
        bound = (2 + 2 * math.log2(T)) * r_x
        assert np.abs(fv[: n * k]).max() <= bound

    def test_rejects_non_finite_naming_step_and_column(self):
        bank = build_filter_bank(16, 2)
        xs = np.zeros((7, 2))
        xs[4, 1] = np.nan
        with pytest.raises(ValueError, match="inputs hold .* at step 5, column 2"):
            featurize_online(xs, np.zeros(1), bank)
        # y_prev is the output of the step before the current input
        with pytest.raises(ValueError, match="outputs hold .* at step 6, column 3"):
            featurize_online(np.zeros((7, 2)), np.array([0.0, 1.0, np.inf]), bank)

    def test_rejects_bad_history(self):
        bank = build_filter_bank(16, 2)
        with pytest.raises(ValueError):
            featurize_online(np.zeros((0, 2)), np.zeros(1), bank)
        with pytest.raises(ValueError):
            featurize_online(np.zeros(5), np.zeros(1), bank)


class TestFeaturizeBatch:
    def test_fft_matches_naive(self):
        rng = np.random.default_rng(1)
        T, n, k = 1024, 4, 10
        bank = build_filter_bank(T, k)
        xs = rng.standard_normal((T, n))
        fast = featurize_batch(xs, bank)
        slow = featurize_batch_naive(xs, bank)
        assert np.abs(fast - slow).max() <= 1e-8

    def test_rejects_non_finite_inputs_naming_step_and_column(self):
        bank = build_filter_bank(32, 4)
        for bad in (np.nan, np.inf, -np.inf):
            xs = np.zeros((32, 3))
            xs[9, 2] = bad
            xs[20, 0] = np.nan  # only the first bad entry is named
            for featurize in (featurize_batch, featurize_batch_naive):
                with pytest.raises(ValueError, match="step 10, column 3"):
                    featurize(xs, bank)

    def test_zero_inputs(self):
        bank = build_filter_bank(64, 5)
        feats = featurize_batch(np.zeros((64, 2)), bank)
        assert np.abs(feats).max() == 0.0

    def test_impulse_identity(self):
        T, k, n = 64, 5, 2
        bank = build_filter_bank(T, k)
        xs = np.zeros((T, n))
        xs[0, 0] = 1.0
        feats = featurize_batch(xs, bank)
        for t in range(2, T + 1):
            conv = feats[t - 1, : k * n].reshape(k, n)
            assert conv[:, 0] == pytest.approx(bank.scaled_filters[:, t - 2])

    def test_matches_online_path(self):
        T, n, k = 40, 2, 6
        bank = build_filter_bank(T, k)
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((T, n))
        batch = featurize_batch(xs, bank)
        for t in (1, 2, 7, 40):
            fv = featurize_online(xs[:t], np.zeros(1), bank)
            assert batch[t - 1] == pytest.approx(fv[:-1], abs=1e-10)

    def test_rejects_length_mismatch(self):
        bank = build_filter_bank(64, 5)
        with pytest.raises(ValueError):
            featurize_batch(np.zeros((32, 2)), bank)

    def test_previous_outputs_fill_the_trailing_block(self):
        bank = build_filter_bank(30, 4)
        rng = np.random.default_rng(6)
        xs, y_prev = rng.standard_normal((30, 2)), rng.standard_normal((30, 3))
        layout = FeatureLayout(n=2, k=4, m=3)
        out = np.empty((30, layout.width))
        assert featurize_batch(xs, bank, y_prev, out) is out
        assert np.array_equal(out[:, : layout.y_block.start], featurize_batch(xs, bank))
        assert np.array_equal(out[:, layout.y_block], y_prev)

    @pytest.mark.parametrize("y_prev, message", [
        (np.zeros((31, 1)), "y_prev has 31 rows, the inputs have 32"),
        (np.zeros(32), r"y_prev must be 2-D \(time, coordinates\), got shape \(32,\)"),
        (np.zeros((32, 2, 1)), "y_prev must be 2-D"),
    ])
    def test_rejects_y_prev_of_the_wrong_shape(self, y_prev, message):
        with pytest.raises(ValueError, match=message):
            featurize_batch(np.zeros((32, 2)), build_filter_bank(32, 4), y_prev)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_y_prev_naming_step_and_column(self, bad):
        y_prev = np.zeros((32, 2))
        y_prev[6, 1] = bad
        with pytest.raises(ValueError, match=r"^y_prev hold .* at step 7, column 2"):
            featurize_batch(np.zeros((32, 2)), build_filter_bank(32, 4), y_prev)

    @pytest.mark.parametrize("shape", [(32, 12), (31, 13), (32, 13, 1)])
    def test_rejects_out_of_the_wrong_shape(self, shape):
        message = f"out has shape {shape}, the features need (32, 13)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            featurize_batch(np.zeros((32, 2)), build_filter_bank(32, 4), np.zeros((32, 1)),
                            np.empty(shape))


# the ode fit needs a grid of at least two points
@pytest.mark.parametrize(
    "T, method",
    [(T, method) for T in (1, 2, 3, 64, 513, 1000) for method in ("eigen", "hilbert", "ode")
     if T > 1 or method != "ode"],
)
class TestStreamedConvolutions:
    """The per-filter streamed FFT equals the batched one bit for bit."""

    @staticmethod
    def _bank(T, method):
        return build_filter_bank(T, min(T, 6), method=method)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_featurize_batch_equals_the_batched_fft(self, T, method, n):
        bank = self._bank(T, method)
        xs = np.random.default_rng(T * n).standard_normal((T, n))
        assert np.array_equal(featurize_batch(xs, bank), _batched_rows(xs, bank))

    def test_online_features_equal_their_old_construction(self, T, method):
        bank = self._bank(T, method)
        rng = np.random.default_rng(T)
        xs, ys = rng.standard_normal((T, 3)), rng.standard_normal((T, 2))
        conv = FeatureLayout(n=3, k=bank.k, m=2).conv_blocks
        old = np.hstack([_batched_rows(xs, bank)[:, conv], _shifted(xs), xs, _shifted(ys)])
        assert np.array_equal(online_features(Trajectory(inputs=xs, outputs=ys), bank), old)

    def test_one_filter_spectrum_serves_every_episode(self, T, method):
        # fit_batch featurizes every episode into one block with the bank's one spectrum
        bank = self._bank(T, method)
        spectrum = bank.spectrum
        out = np.empty((T, FeatureLayout(n=3, k=bank.k, m=0).width))
        for seed in (T, T + 1):
            xs = np.random.default_rng(seed).standard_normal((T, 3))
            assert featurize_batch(xs, bank, out=out) is out
            assert np.array_equal(out, featurize_batch(xs, replace(bank)))
            assert np.array_equal(out, _batched_rows(xs, bank))
        assert bank.spectrum is spectrum


@pytest.mark.parametrize("T, k, method",
                         [(1000, 40, "ode"), (1000, 25, "eigen"), (257, 9, "hilbert")])
@pytest.mark.parametrize("n", [1, 3, 10])
def test_grouped_transforms_equal_one_per_filter(T, k, method, n):
    bank = build_filter_bank(T, k, method=method)
    spec_f = bank.spectrum
    xs = np.random.default_rng(T + n).standard_normal((T, n))
    grouped, single = np.empty((T, k * n)), np.empty((T, k * n))
    filters._conv_blocks_fft(xs, spec_f, grouped)
    _conv_blocks_per_filter(xs, spec_f, single)
    assert np.array_equal(grouped, single)


class TestFeatureLayout:
    """One layout fixes the columns of every featurizer's output."""

    @given(n=st.integers(1, 6), k=st.integers(1, 8), m=st.integers(0, 4))
    def test_blocks_tile_the_width_once_in_order(self, n, k, m):
        layout = FeatureLayout(n=n, k=k, m=m)
        assert layout.include_y == (m > 0)
        blocks = [layout.conv_block(j) for j in range(k)]
        blocks += [layout.x_prev_block, layout.x_block]
        if m:
            blocks.append(layout.y_block)
        columns = [c for block in blocks for c in range(layout.width)[block]]
        assert columns == list(range(layout.width))
        assert list(range(layout.width)[layout.conv_blocks]) == columns[: n * k]

    @given(
        T=st.integers(1, 40),
        n=st.integers(1, 3),
        k=st.integers(1, 6),
        m=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_online_step_matches_the_batch_rows(self, T, n, k, m, seed):
        bank = build_filter_bank(T, min(k, T))
        rng = np.random.default_rng(seed)
        xs, ys = rng.standard_normal((T, n)), rng.standard_normal((T, m))
        rows = online_features(Trajectory(inputs=xs, outputs=ys), bank)
        naive = featurize_batch_naive(xs, bank)
        conv = FeatureLayout(n=n, k=bank.k, m=m).conv_blocks
        for t in range(1, T + 1):
            fv = featurize_online(xs[:t], ys[t - 2] if t >= 2 else np.zeros(m), bank)
            assert np.allclose(fv, rows[t - 1], rtol=0.0, atol=1e-10)
            assert np.array_equal(fv[conv], naive[t - 1, conv])


class TestAugmentAlternating:
    def test_documented_example(self):
        out = augment_alternating(np.array([[1.0], [1.0]]))
        assert np.array_equal(out, [[1.0, -1.0], [1.0, 1.0]])

    def test_zero_input(self):
        assert np.abs(augment_alternating(np.zeros((5, 3)))).max() == 0.0

    def test_width_doubles(self):
        assert augment_alternating(np.ones((7, 4))).shape == (7, 8)

    def test_negative_mode_recovered_with_parity_recombination(self):
        # A symmetric system with a negative eigenvalue equals a PSD-split
        # system driven by the augmented inputs, after recombining the two
        # output halves with the alternating sign.
        rng = np.random.default_rng(9)
        T, n, m = 40, 2, 2
        eigs = np.array([0.7, -0.6])
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        A = q @ np.diag(eigs) @ q.T
        B = rng.standard_normal((2, n))
        C = rng.standard_normal((m, 2))
        D = rng.standard_normal((m, n))
        xs = rng.standard_normal((T, n))

        # direct evaluation of the closed-form response with symmetric A
        ys = np.zeros((T, m))
        apow = A.copy()
        for t in range(1, T + 1):
            acc = D @ xs[t - 1]
            apow_i = A.copy()
            for i in range(1, t):
                acc = acc + C @ (apow_i @ (B @ xs[t - 1 - i]))
                apow_i = apow_i @ A
            ys[t - 1] = acc

        pos = q @ np.diag(np.maximum(eigs, 0.0)) @ q.T
        neg = q @ np.diag(np.maximum(-eigs, 0.0)) @ q.T
        split = diagonalize(
            np.block([[pos, np.zeros((2, 2))], [np.zeros((2, 2)), neg]]),
            np.block([[B, np.zeros((2, n))], [np.zeros((2, n)), B]]),
            np.block([[C, np.zeros((m, 2))], [np.zeros((m, 2)), C]]),
            np.block([[D, np.zeros((m, n))], [np.zeros((m, n)), np.zeros((m, n))]]),
            np.zeros(4),
        )
        traj = simulate(split, augment_alternating(xs))
        signs = np.where(np.arange(1, T + 1) % 2 == 1, -1.0, 1.0)
        recombined = traj.outputs[:, :m] + signs[:, None] * traj.outputs[:, m:]
        assert np.abs(recombined - ys).max() <= 1e-10


class TestAugmentHint:
    def test_zero_hint(self):
        out = augment_hint(np.ones((4, 2)), np.zeros(3))
        assert np.abs(out[:, 2:]).max() == 0.0

    def test_unit_hint_lands_at_time_zero(self):
        out = augment_hint(np.ones((4, 2)), np.array([1.0, 0.0]))
        assert np.array_equal(out[0], [0.0, 0.0, 1.0, 0.0])
        assert np.abs(out[1:, 2:]).max() == 0.0

    def test_length_grows_by_one(self):
        assert augment_hint(np.ones((6, 2)), np.zeros(2)).shape == (7, 4)

    def test_hint_impulse_replays_initial_state(self):
        # feeding the hint through an identity input block reproduces the
        # system started from h0, shifted by one step
        rng = np.random.default_rng(2)
        d, n, m, T = 3, 2, 2, 30
        params = LdsParams(
            a=rng.uniform(0, 1, d),
            b=rng.standard_normal((d, n)),
            c=rng.standard_normal((m, d)),
            d=np.zeros((m, n)),
            h0=rng.standard_normal(d),
        )
        xs = rng.standard_normal((T, n))
        ys = simulate(params, xs).outputs
        zero_h0 = LdsParams(
            a=params.a,
            b=np.hstack([params.b, np.eye(d)]),
            c=params.c,
            d=np.zeros((m, n + d)),
            h0=np.zeros(d),
        )
        aug = augment_hint(xs, params.h0)
        ys_aug = simulate(zero_h0, aug).outputs
        assert np.abs(ys_aug[1:] - ys).max() <= 1e-10

import math

import numpy as np
import pytest

from wavefilter.filters import build_filter_bank
from wavefilter.hankel import NOISE_FLOOR
from wavefilter.lds import LdsParams, simulate
from wavefilter.online import online_features
from wavefilter.relaxation import build_M_theta, relaxation_residual


def random_diagonal_system(rng, d=4, n=2, m=2, r=1.5, with_d=True):
    b = rng.standard_normal((d, n))
    b *= r / np.linalg.norm(b)
    c = rng.standard_normal((m, d))
    c *= r / np.linalg.norm(c)
    dmat = rng.standard_normal((m, n)) if with_d else np.zeros((m, n))
    if with_d:
        dmat *= 0.5 * r / np.linalg.norm(dmat)
    return LdsParams(a=rng.uniform(0, 1, d), b=b, c=c, d=dmat, h0=np.zeros(d))


class TestBuildMTheta:
    def test_zero_b_leaves_only_input_blocks(self):
        rng = np.random.default_rng(0)
        params = LdsParams(
            a=rng.uniform(0, 1, 3),
            b=np.zeros((3, 2)),
            c=rng.standard_normal((2, 3)),
            d=rng.standard_normal((2, 2)),
            h0=np.zeros(3),
        )
        pred = build_M_theta(params, build_filter_bank(32, 4))
        assert np.abs(pred.conv_blocks).max() == 0.0
        assert np.array_equal(pred.m_x, params.d)
        assert np.array_equal(pred.m_x_prev, -params.d)

    def test_output_block_is_identity(self):
        rng = np.random.default_rng(1)
        params = random_diagonal_system(rng)
        pred = build_M_theta(params, build_filter_bank(32, 4))
        assert np.array_equal(pred.m_y, np.eye(2))

    def test_single_zero_mode_uses_first_curve_coordinate(self):
        # with alpha = 0 the decay curve is -e_1, so each filter block is
        # -sigma_j^{-1/4} phi_j(1) times the rank-one output-input map
        bank = build_filter_bank(16, 3)
        params = LdsParams(
            a=np.zeros(1), b=np.ones((1, 1)), c=np.ones((1, 1)),
            d=np.zeros((1, 1)), h0=np.zeros(1),
        )
        pred = build_M_theta(params, bank)
        for j in range(3):
            expect = -bank.sigmas[j] ** -0.25 * bank.phis[j, 0]
            assert pred.conv_blocks[j][0, 0] == pytest.approx(expect, rel=1e-12)

    def test_rejects_non_eigen_bank(self):
        params = LdsParams(
            a=np.array([0.5]), b=np.ones((1, 1)), c=np.ones((1, 1)),
            d=np.zeros((1, 1)), h0=np.zeros(1),
        )
        with pytest.raises(ValueError):
            build_M_theta(params, build_filter_bank(16, 3, method="hilbert"))

    def test_block_product_matches_flat_matrix(self):
        rng = np.random.default_rng(2)
        bank = build_filter_bank(64, 6)
        params = random_diagonal_system(rng)
        pred = build_M_theta(params, bank)
        flat = pred.as_matrix()
        layout = pred.layout
        feats = rng.standard_normal(layout.width)
        blockwise = (
            sum(
                pred.conv_blocks[j] @ feats[layout.conv_block(j)]
                for j in range(bank.k)
            )
            + pred.m_x_prev @ feats[layout.x_prev_block]
            + pred.m_x @ feats[layout.x_block]
            + pred.m_y @ feats[layout.y_block]
        )
        assert flat @ feats == pytest.approx(blockwise, rel=1e-12)

    def test_coefficient_bound(self):
        # every reconstruction coefficient is at most 6^(1/4) sigma^(1/4)
        # after the inverse scaling, i.e. bounded by 6^(1/4)
        bank = build_filter_bank(128, 12)
        for alpha in np.arange(0.0, 1.001, 0.05):
            params = LdsParams(
                a=np.array([alpha]), b=np.ones((1, 1)), c=np.ones((1, 1)),
                d=np.zeros((1, 1)), h0=np.zeros(1),
            )
            pred = build_M_theta(params, bank)
            for j in range(pred.usable_k):
                assert abs(pred.conv_blocks[j][0, 0]) <= 6**0.25 + 1e-9

    def test_frobenius_bound(self):
        rng = np.random.default_rng(3)
        k = 10
        bank = build_filter_bank(64, k)
        for _ in range(20):
            params = random_diagonal_system(rng, r=rng.uniform(1.0, 2.0))
            pred = build_M_theta(params, bank)
            r = params.r_theta
            assert pred.frobenius_norm_active() <= 6**0.25 * r**2 * math.sqrt(k) + 3 * r**2

    def test_noise_floor_caps_usable_filters(self):
        bank = build_filter_bank(256, 25)
        params = random_diagonal_system(np.random.default_rng(4))
        pred = build_M_theta(params, bank)
        reliable = int(np.sum(bank.sigmas > NOISE_FLOOR))
        assert pred.usable_k == reliable < 25
        assert np.abs(pred.conv_blocks[reliable:]).max() == 0.0


class TestRelaxationResidual:
    def test_full_basis_is_near_exact(self):
        rng = np.random.default_rng(5)
        T = 30
        bank = build_filter_bank(T, T)
        params = random_diagonal_system(rng, d=6)
        traj = simulate(params, rng.standard_normal((T, 2)))
        pred = build_M_theta(params, bank, noise_floor=0.0)
        zeta, gap = relaxation_residual(params, pred, traj)
        assert zeta.max() <= 1e-6

    def test_pure_feedthrough_has_zero_residual(self):
        rng = np.random.default_rng(6)
        params = LdsParams(
            a=np.zeros(2),
            b=np.zeros((2, 2)),
            c=np.zeros((2, 2)),
            d=rng.standard_normal((2, 2)),
            h0=np.zeros(2),
        )
        for k in (2, 5):
            bank = build_filter_bank(40, k)
            traj = simulate(params, rng.standard_normal((40, 2)))
            pred = build_M_theta(params, bank)
            zeta, gap = relaxation_residual(params, pred, traj)
            assert zeta.max() <= 1e-12
            assert abs(gap) <= 1e-12

    def test_residual_shrinks_with_more_filters(self):
        rng = np.random.default_rng(7)
        T = 200
        params = random_diagonal_system(rng, d=6)
        traj = simulate(params, rng.standard_normal((T, 2)))
        peaks = []
        for k in (4, 8, 12, 16):
            pred = build_M_theta(params, build_filter_bank(T, k))
            zeta, _ = relaxation_residual(params, pred, traj)
            peaks.append(zeta.max())
        assert all(b <= a * 1.1 for a, b in zip(peaks, peaks[1:]))
        assert peaks[-1] < peaks[0] * 1e-3

    def test_predictions_match_online_feature_path(self):
        rng = np.random.default_rng(8)
        T = 64
        bank = build_filter_bank(T, 8)
        params = random_diagonal_system(rng)
        traj = simulate(params, rng.standard_normal((T, 2)))
        pred = build_M_theta(params, bank)
        feats = online_features(traj, bank)
        direct = pred.predict(feats)
        assert direct.shape == (T, 2)

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        bank = build_filter_bank(16, 3)
        params = random_diagonal_system(rng, n=2, m=2)
        pred = build_M_theta(params, bank)
        other = simulate(
            random_diagonal_system(rng, n=3, m=2), rng.standard_normal((16, 3))
        )
        with pytest.raises(ValueError):
            relaxation_residual(params, pred, other)

    def test_trajectory_shorter_than_the_bank_names_both_lengths(self):
        rng = np.random.default_rng(10)
        params = random_diagonal_system(rng)
        pred = build_M_theta(params, build_filter_bank(16, 3))
        traj = simulate(params, rng.standard_normal((15, 2)))
        with pytest.raises(ValueError, match="^input length 15 does not match bank horizon 16$"):
            relaxation_residual(params, pred, traj)

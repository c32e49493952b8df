import numpy as np
import pytest

from tensorbss import moments
from tensorbss.simgen import ArmaSpec, gen_arma
from tensorbss.tensor import series_mode_product

import oracles

rng = np.random.default_rng(99)


class TestSigmaTau:
    def test_whitened_series_tau0(self):
        xs = rng.standard_normal((2000, 3))
        xs = xs - xs.mean(axis=0)
        w = np.linalg.inv(np.linalg.cholesky(xs.T @ xs / len(xs)))
        ys = xs @ w.T
        assert np.allclose(moments.mode_autocov(ys, 1, 0), np.eye(3),
                           atol=1e-10)

    def test_two_point_hand_value(self):
        xs = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = np.array([[0.0, 1.0], [0.0, 0.0]])  # single summand outer(x1, x2)
        assert np.array_equal(moments.mode_autocov(xs, 1, 1), expected)

    def test_ar1_autocovariance(self):
        r = np.random.default_rng(5)
        xs = np.column_stack([gen_arma(ArmaSpec(phi=(0.9,)), 50000, r) for _ in range(2)])
        s1 = moments.mode_autocov(xs, 1, 1)
        assert abs(s1[0, 0] - 0.9) < 0.02
        assert abs(s1[1, 1] - 0.9) < 0.02

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            moments.mode_autocov(rng.standard_normal((5, 2)), 1, 5)

    def test_matches_oracle(self):
        xs = rng.standard_normal((30, 3))
        for tau in (0, 1, 3):
            assert np.allclose(moments.mode_autocov(xs, 1, tau),
                               oracles.naive_sigma_tau(xs, tau), atol=1e-12)


class TestBTau:
    def test_gaussian_fourth_moment(self):
        xs = np.random.default_rng(11).standard_normal((200000, 3))
        b0 = moments.mode_b_tau(xs, 1, 0)
        assert np.allclose(b0, 5.0 * np.eye(3), atol=0.08)  # (p + 2) I for p = 3

    def test_single_frame(self):
        x = rng.standard_normal(4)
        b = moments.mode_b_tau(x[None, :], 1, 0)
        assert np.allclose(b, (x @ x) * np.outer(x, x), atol=1e-14)

    def test_matches_oracle(self):
        xs = rng.standard_normal((30, 3))
        for tau in (0, 2):
            assert np.allclose(moments.mode_b_tau(xs, 1, tau),
                               oracles.naive_b_tau(xs, tau), atol=1e-12)


class TestBTauIJ:
    """Entries of mode_b_lags_grid(x, 1, (tau, tau, 0, 0)), the vector B_ij."""

    def test_sum_over_diagonal_recovers_b_tau(self):
        xs = rng.standard_normal((40, 3))
        grid = moments.mode_b_lags_grid(xs, 1, (1, 1, 0, 0))
        total = sum(grid[i, i] for i in range(3))
        assert np.allclose(total, moments.mode_b_tau(xs, 1, 1), atol=1e-12)

    def test_one_hot_series(self):
        xs = np.zeros((4, 2))
        xs[:, 0] = [1.0, 2.0, 1.0, 2.0]
        b = moments.mode_b_lags_grid(xs, 1, (0, 0, 0, 0))[0, 0]
        # weight x_{t,1}^2 times outer(x_t, x_t), averaged
        expected = np.mean([x[0] ** 2 * np.outer(x, x) for x in xs], axis=0)
        assert np.allclose(b, expected, atol=1e-14)

    def test_matches_oracle(self):
        xs = rng.standard_normal((20, 3))
        for tau in (0, 1):
            grid = moments.mode_b_lags_grid(xs, 1, (tau, tau, 0, 0))
            for i in (1, 3):
                for j in (1, 2):
                    assert np.allclose(grid[i - 1, j - 1],
                                       oracles.naive_b_tau_ij(xs, tau, i, j), atol=1e-12)

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            moments.mode_b_lags_grid(rng.standard_normal((10, 2)), 1, (10, 10, 0, 0))

    def test_grid_matches_single_calls(self):
        xs = rng.standard_normal((25, 3))
        grid = moments.mode_b_lags_grid(xs, 1, (2, 2, 0, 0))
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert np.allclose(grid[i - 1, j - 1],
                                   oracles.naive_b_tau_ij(xs, 2, i, j), atol=1e-13)


class TestCTauIJ:
    """Entries of c_tau_grid, the gJADE cumulant-type matrices C_ij."""

    def test_gaussian_cumulant_vanishes(self):
        xs = np.random.default_rng(13).standard_normal((300000, 2))
        xs = xs - xs.mean(axis=0)
        c = moments.c_tau_grid(xs, 0)[0, 0]
        assert np.abs(c).max() < 0.05

    def test_delta_term_only_on_diagonal_indices(self):
        xs = rng.standard_normal((30, 2))
        b = moments.mode_b_lags_grid(xs, 1, (1, 1, 0, 0))[0, 1]
        s = moments.mode_autocov(xs, 1, 1)
        e = np.zeros((2, 2))
        e[0, 1] = e[1, 0] = 1.0
        assert np.allclose(moments.c_tau_grid(xs, 1)[0, 1], b - s @ e @ s.T, atol=1e-14)

    def test_recomposition(self):
        xs = rng.standard_normal((30, 3))
        grid = moments.c_tau_grid(xs, 1)
        for (i, j) in ((1, 1), (2, 3)):
            assert np.allclose(grid[i - 1, j - 1],
                               oracles.naive_c_tau_ij(xs, 1, i, j), atol=1e-12)


class TestModeCov:
    def test_constant_series_rank_pattern(self):
        x = np.zeros((3, 2, 2))
        x[0, 0, 0] = 1.0
        xs = np.repeat(x[None], 5, axis=0)
        g = moments.mode_autocov(xs, 1, 0)
        expected = np.zeros((3, 3))
        expected[0, 0] = 0.25  # single unit fiber, rho_1 = 4
        assert np.allclose(g, expected, atol=1e-14)

    def test_iid_normal_is_identity(self):
        xs = np.random.default_rng(3).standard_normal((100000, 3, 2, 2))
        for mode in (1, 2, 3):
            assert np.allclose(moments.mode_autocov(xs, mode, 0),
                               np.eye(xs.shape[mode]), atol=0.02)

    def test_matches_oracle(self):
        xs = rng.standard_normal((20, 3, 2, 2))
        for mode in (1, 2, 3):
            assert np.allclose(moments.mode_autocov(xs, mode, 0),
                               oracles.naive_mode_autocov(xs, mode, 0), atol=1e-12)


class TestModeAutocov:
    def test_tau0_reduces_to_mode_cov(self):
        xs = rng.standard_normal((30, 3, 2))
        cov = np.einsum("tij,tkj->ik", xs, xs) / (30 * 2)  # sum_t X_t X_t^T / (T rho_1)
        assert np.allclose(moments.mode_autocov(xs, 1, 0), cov, atol=1e-14)

    def test_ar1_fibers_diagonal_dominance(self):
        from tensorbss.tensor import unvectorize

        r = np.random.default_rng(17)
        comps = np.column_stack([gen_arma(ArmaSpec(phi=(0.9,)), 50000, r)
                                 for _ in range(12)])
        xs = np.stack([unvectorize(row, (3, 2, 2)) for row in comps])
        s1 = moments.mode_autocov(xs, 1, 1)
        assert np.allclose(s1, 0.9 * np.eye(3), atol=0.05)

    def test_matches_oracle(self):
        xs = rng.standard_normal((30, 3, 2, 2))
        for mode in (1, 2, 3):
            got = moments.mode_autocov(xs, mode, 2)
            assert np.allclose(got, oracles.naive_mode_autocov(xs, mode, 2), atol=1e-12)


class TestModeBTau:
    def test_iid_normal_nearly_diagonal(self):
        xs = np.random.default_rng(23).standard_normal((100000, 3, 2, 2))
        b = moments.mode_b_tau(xs, 1, 0)
        off = b - np.diag(np.diag(b))
        assert np.abs(off).max() < 0.05

    def test_single_frame(self):
        x = rng.standard_normal((3, 2, 2))
        f = x.reshape(3, -1, order="F")
        expected = f @ f.T @ f @ f.T / 4.0
        assert np.allclose(moments.mode_b_tau(x[None], 1, 0), expected, atol=1e-13)

    def test_matches_oracle(self):
        xs = rng.standard_normal((30, 3, 2, 2))
        for mode in (1, 3):
            for tau in (0, 1):
                assert np.allclose(moments.mode_b_tau(xs, mode, tau),
                                   oracles.naive_mode_b_tau(xs, mode, tau), atol=1e-12)


class TestModeBLags:
    """Entries of mode_b_lags_grid, the mode joint lagged fourth moments."""

    def test_zero_lags_sum_is_trace_weighted_moment(self):
        # summing over i = j turns the scalar weight into tr(X X^T); this
        # equals mode_b_tau only in the vector case (rho_m = 1)
        xs = rng.standard_normal((20, 3, 2, 2))
        grid = moments.mode_b_lags_grid(xs, 1, (0, 0, 0, 0))
        total = sum(grid[i, i] for i in range(3))
        f = np.stack([oracles.naive_m_flatten(x, 1) for x in xs])
        w = np.einsum("tik,tik->t", f, f)
        want = np.einsum("t,tik,tjk->ij", w, f, f) / (20 * 4)
        assert np.allclose(total, want, atol=1e-12)

    def test_zero_lags_sum_identity_vector_case(self):
        xs = rng.standard_normal((20, 4))
        grid = moments.mode_b_lags_grid(xs, 1, (0, 0, 0, 0))
        total = sum(grid[i, i] for i in range(4))
        assert np.allclose(total, moments.mode_b_tau(xs, 1, 0), atol=1e-12)

    def test_matches_oracle(self):
        xs = rng.standard_normal((20, 3, 2, 2))
        for taus in ((0, 1, 1, 0), (1, 1, 0, 0), (0, 2, 0, 2)):
            grid = moments.mode_b_lags_grid(xs, 1, taus)
            for (i, j) in ((1, 1), (2, 3), (3, 1)):
                want = oracles.naive_mode_b_lags(xs, 1, taus, i, j)
                assert np.allclose(grid[i - 1, j - 1], want, atol=1e-12)

    def test_grid_matches_single_calls(self):
        xs = rng.standard_normal((15, 3, 2))
        grid = moments.mode_b_lags_grid(xs, 1, (0, 1, 1, 0))
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert np.allclose(grid[i - 1, j - 1],
                                   oracles.naive_mode_b_lags(xs, 1, (0, 1, 1, 0), i, j),
                                   atol=1e-13)

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            moments.mode_b_lags_grid(rng.standard_normal((5, 2, 2)), 1, (0, 0, 0, 9))


class TestModeCTauIJ:
    """Entries of mode_c_grid, the mode gJADE matrices."""

    def test_composition_consistency(self):
        xs = rng.standard_normal((20, 3, 2, 2))
        g1 = moments.mode_b_lags_grid(xs, 1, (0, 1, 1, 0))
        g2 = moments.mode_b_lags_grid(xs, 1, (0, 1, 0, 1))
        g3 = moments.mode_b_lags_grid(xs, 1, (1, 1, 0, 0))
        s0 = moments.mode_autocov(xs, 1, 0)
        grid = moments.mode_c_grid(xs, 1, 1)
        for (i, j) in ((1, 1), (2, 3)):
            e = np.zeros((3, 3))
            e[i - 1, j - 1] += 1.0
            e[j - 1, i - 1] += 1.0
            want = (g1[i - 1, j - 1] + g2[i - 1, j - 1] - g3[i - 1, j - 1]
                    - s0 @ (e + np.eye(3)) @ s0.T)
            assert np.allclose(grid[i - 1, j - 1], want, atol=1e-14)

    def test_gaussian_iid_value(self):
        # Wishart second moments give C^m_{0ii} = (rho_m - 1) I for i.i.d.
        # standard normal entries; the matrix is 0 only in the vector case
        xs = np.random.default_rng(31).standard_normal((200000, 3, 2))
        xs = xs - xs.mean(axis=0)
        c = moments.mode_c_grid(xs, 1, 0)[0, 0]
        assert np.abs(c - np.eye(3)).max() < 0.05  # rho_1 = 2
        ys = np.random.default_rng(32).standard_normal((200000, 3))
        ys = ys - ys.mean(axis=0)
        assert np.abs(moments.mode_c_grid(ys, 1, 0)[0, 0]).max() < 0.05

    def test_matches_oracle(self):
        xs = rng.standard_normal((20, 3, 2, 2))
        for mode in (1, 2):
            grid = moments.mode_c_grid(xs, mode, 1)
            for (i, j) in ((1, 1), (1, 2)):
                want = oracles.naive_mode_c_tau_ij(xs, mode, 1, i, j)
                assert np.allclose(grid[i - 1, j - 1], want, atol=1e-12)

    def test_grid_matches_single_calls(self):
        xs = rng.standard_normal((15, 3, 2))
        grid = moments.mode_c_grid(xs, 2, 1)
        for i in (1, 2):
            for j in (1, 2):
                assert np.allclose(grid[i - 1, j - 1],
                                   oracles.naive_mode_c_tau_ij(xs, 2, 1, i, j), atol=1e-13)


class TestStructuralInvariants:
    def test_order1_mode_functionals_reduce_to_vector(self):
        xs = rng.standard_normal((25, 4))
        assert np.allclose(moments.mode_autocov(xs, 1, 2),
                           oracles.naive_sigma_tau(xs, 2), atol=1e-13)
        assert np.allclose(moments.mode_b_tau(xs, 1, 1),
                           oracles.naive_b_tau(xs, 1), atol=1e-13)

    def test_order1_c_differs_only_by_identity_shift(self):
        # the mode C subtracts S0 (E + E' + I) S0' while the vector C
        # subtracts S0 (E + E') S0' + delta_ij I; at r = 1 the two agree
        # up to a multiple of S0 S0' - delta_ij I, which does not move the
        # joint diagonalizer
        xs = rng.standard_normal((25, 4))
        s0 = moments.mode_autocov(xs, 1, 0)
        mode_grid = moments.mode_c_grid(xs, 1, 0)
        vector_grid = moments.c_tau_grid(xs, 0)
        for (i, j) in ((1, 1), (2, 4)):
            diff = mode_grid[i - 1, j - 1] - vector_grid[i - 1, j - 1]
            want = (1.0 if i == j else 0.0) * np.eye(4) - s0 @ s0.T
            assert np.allclose(diff, want, atol=1e-12)

    def test_flattening_order_invariance(self):
        # mode functionals only see Gram-type products of the flattening,
        # so permuting fibers (time-constant relabeling) leaves them unchanged
        xs = rng.standard_normal((20, 3, 2, 2))
        swapped = xs.transpose(0, 1, 3, 2)  # permutes the mode-1 fibers
        for tau in (0, 1):
            assert np.allclose(moments.mode_autocov(xs, 1, tau),
                               moments.mode_autocov(swapped, 1, tau), atol=1e-14)
            assert np.allclose(moments.mode_b_tau(xs, 1, tau),
                               moments.mode_b_tau(swapped, 1, tau), atol=1e-14)
        assert np.allclose(moments.mode_c_grid(xs, 1, 1)[0, 1],
                           moments.mode_c_grid(swapped, 1, 1)[0, 1], atol=1e-14)

    def test_orthogonal_transformation_identity(self):
        # finite-sample transformation law for the joint lagged fourth moments
        # under per-mode orthogonal mixing
        r = np.random.default_rng(7)
        zs = r.standard_normal((15, 3, 2, 2))
        us = []
        for p in (3, 2, 2):
            q, rr = np.linalg.qr(r.standard_normal((p, p)))
            us.append(q * np.sign(np.diag(rr)))
        xs = zs
        for mode, u in enumerate(us, start=1):
            xs = series_mode_product(xs, u, mode)
        taus = (0, 1, 1, 0)
        m = 1
        u = us[0]
        grid_z = moments.mode_b_lags_grid(zs, m, taus)
        grid_x = moments.mode_b_lags_grid(xs, m, taus)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                want = np.zeros((3, 3))
                for k in range(3):
                    for l in range(3):
                        want += u[i - 1, k] * u[j - 1, l] * (u @ grid_z[k, l] @ u.T)
                assert np.allclose(grid_x[i - 1, j - 1], want, atol=1e-10)

import numpy as np
import pytest

from tensorbss import moments
from tensorbss.simgen import ArmaSpec, gen_arma
from tensorbss.tensor import series_flatten, series_mode_product

import oracles

rng = np.random.default_rng(99)

BUILDERS = (moments.mode_autocov, moments.mode_b_tau, moments.mode_c_grids, moments.c_grids)


def one_lag(builder, xs, tau, mode=1):
    """A builder's one-lag set on a mode of `xs`: the matrix, or the gJADE
    grid of shape (p, p, p, p) indexed [i-1, j-1]."""
    out = builder(series_flatten(xs, mode), (tau,))
    if builder in (moments.mode_autocov, moments.mode_b_tau):
        return out[0]
    p = out.shape[1]
    return out.reshape(p, p, p, p)


def b_grid(f, taus):
    """B_ij(a, b, c, d) = (1/rho) E[(e_i^T X_{t+a} X_{t+b}^T e_j) X_{t+c} X_{t+d}^T]
    on a flattening, all (i, j); shape (p, p, p, p)."""
    t, _, rho = f.shape
    n = t - max(taus)
    return np.einsum("tir,tjr,tks,tls->ijkl", *(f[v:v + n] for v in taus)) / (n * rho)


class TestSigmaTau:
    def test_whitened_series_tau0(self):
        xs = rng.standard_normal((2000, 3))
        xs = xs - xs.mean(axis=0)
        w = np.linalg.inv(np.linalg.cholesky(xs.T @ xs / len(xs)))
        ys = xs @ w.T
        assert np.allclose(one_lag(moments.mode_autocov, ys, 0), np.eye(3),
                           atol=1e-10)

    def test_two_point_hand_value(self):
        xs = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = np.array([[0.0, 1.0], [0.0, 0.0]])  # single summand outer(x1, x2)
        assert np.array_equal(one_lag(moments.mode_autocov, xs, 1), expected)

    def test_ar1_autocovariance(self):
        r = np.random.default_rng(5)
        xs = np.column_stack([gen_arma(ArmaSpec(phi=(0.9,)), 50000, r) for _ in range(2)])
        s1 = one_lag(moments.mode_autocov, xs, 1)
        assert abs(s1[0, 0] - 0.9) < 0.02
        assert abs(s1[1, 1] - 0.9) < 0.02

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            moments.mode_autocov(series_flatten(rng.standard_normal((5, 2)), 1), (5,))

    def test_matches_oracle(self):
        xs = rng.standard_normal((30, 3))
        for tau in (0, 1, 3):
            assert np.allclose(one_lag(moments.mode_autocov, xs, tau),
                               oracles.naive_sigma_tau(xs, tau), atol=1e-12)


class TestBTau:
    def test_gaussian_fourth_moment(self):
        xs = np.random.default_rng(11).standard_normal((200000, 3))
        b0 = one_lag(moments.mode_b_tau, xs, 0)
        assert np.allclose(b0, 5.0 * np.eye(3), atol=0.08)  # (p + 2) I for p = 3

    def test_single_frame(self):
        x = rng.standard_normal(4)
        b = one_lag(moments.mode_b_tau, x[None, :], 0)
        assert np.allclose(b, (x @ x) * np.outer(x, x), atol=1e-14)

    def test_matches_oracle(self):
        xs = rng.standard_normal((30, 3))
        for tau in (0, 2):
            assert np.allclose(one_lag(moments.mode_b_tau, xs, tau),
                               oracles.naive_b_tau(xs, tau), atol=1e-12)


class TestBTauIJ:
    """The vector B_ij = E[(x_{t+tau})_i (x_{t+tau})_j x_t x_t^T], read off the
    one-lag c_grids set as C_ij + S (E_ij + E_ji) S^T + delta_ij I."""

    @staticmethod
    def grid(xs, tau):
        s = one_lag(moments.mode_autocov, xs, tau)
        p = len(s)
        pair = np.einsum("ki,lj->ijkl", s, s)
        out = one_lag(moments.c_grids, xs, tau) + pair + pair.transpose(1, 0, 2, 3)
        out[range(p), range(p)] += np.eye(p)
        return out

    def test_sum_over_diagonal_recovers_b_tau(self):
        xs = rng.standard_normal((40, 3))
        grid = self.grid(xs, 1)
        total = sum(grid[i, i] for i in range(3))
        assert np.allclose(total, one_lag(moments.mode_b_tau, xs, 1), atol=1e-12)

    def test_one_hot_series(self):
        xs = np.zeros((4, 2))
        xs[:, 0] = [1.0, 2.0, 1.0, 2.0]
        b = self.grid(xs, 0)[0, 0]
        # weight x_{t,1}^2 times outer(x_t, x_t), averaged
        expected = np.mean([x[0] ** 2 * np.outer(x, x) for x in xs], axis=0)
        assert np.allclose(b, expected, atol=1e-14)

    def test_matches_oracle(self):
        xs = rng.standard_normal((20, 3))
        for tau in (0, 1):
            grid = self.grid(xs, tau)
            for i in (1, 3):
                for j in (1, 2):
                    assert np.allclose(grid[i - 1, j - 1],
                                       oracles.naive_b_tau_ij(xs, tau, i, j), atol=1e-12)

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            moments.c_grids(series_flatten(rng.standard_normal((10, 2)), 1), (10,))

    def test_grid_matches_single_calls(self):
        xs = rng.standard_normal((25, 3))
        grid = self.grid(xs, 2)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert np.allclose(grid[i - 1, j - 1],
                                   oracles.naive_b_tau_ij(xs, 2, i, j), atol=1e-13)


class TestCTauIJ:
    """Entries of the one-lag c_grids set, the gJADE cumulant-type matrices C_ij."""

    def test_gaussian_cumulant_vanishes(self):
        xs = np.random.default_rng(13).standard_normal((300000, 2))
        xs = xs - xs.mean(axis=0)
        c = one_lag(moments.c_grids, xs, 0)[0, 0]
        assert np.abs(c).max() < 0.05

    def test_delta_term_only_on_diagonal_indices(self):
        xs = rng.standard_normal((30, 2))
        b = b_grid(series_flatten(xs, 1), (1, 1, 0, 0))[0, 1]
        s = one_lag(moments.mode_autocov, xs, 1)
        e = np.zeros((2, 2))
        e[0, 1] = e[1, 0] = 1.0
        assert np.allclose(one_lag(moments.c_grids, xs, 1)[0, 1], b - s @ e @ s.T, atol=1e-14)

    def test_recomposition(self):
        xs = rng.standard_normal((30, 3))
        grid = one_lag(moments.c_grids, xs, 1)
        for (i, j) in ((1, 1), (2, 3)):
            assert np.allclose(grid[i - 1, j - 1],
                               oracles.naive_c_tau_ij(xs, 1, i, j), atol=1e-12)


class TestModeCov:
    def test_constant_series_rank_pattern(self):
        x = np.zeros((3, 2, 2))
        x[0, 0, 0] = 1.0
        xs = np.repeat(x[None], 5, axis=0)
        g = one_lag(moments.mode_autocov, xs, 0)
        expected = np.zeros((3, 3))
        expected[0, 0] = 0.25  # single unit fiber, rho_1 = 4
        assert np.allclose(g, expected, atol=1e-14)

    def test_iid_normal_is_identity(self):
        xs = np.random.default_rng(3).standard_normal((100000, 3, 2, 2))
        for mode in (1, 2, 3):
            assert np.allclose(one_lag(moments.mode_autocov, xs, 0, mode),
                               np.eye(xs.shape[mode]), atol=0.02)

    def test_matches_oracle(self):
        xs = rng.standard_normal((20, 3, 2, 2))
        for mode in (1, 2, 3):
            assert np.allclose(one_lag(moments.mode_autocov, xs, 0, mode),
                               oracles.naive_mode_autocov(xs, mode, 0), atol=1e-12)


class TestModeAutocov:
    def test_tau0_reduces_to_mode_cov(self):
        xs = rng.standard_normal((30, 3, 2))
        cov = np.einsum("tij,tkj->ik", xs, xs) / (30 * 2)  # sum_t X_t X_t^T / (T rho_1)
        assert np.allclose(one_lag(moments.mode_autocov, xs, 0), cov, atol=1e-14)

    def test_ar1_fibers_diagonal_dominance(self):
        from tensorbss.tensor import unvectorize

        r = np.random.default_rng(17)
        comps = np.column_stack([gen_arma(ArmaSpec(phi=(0.9,)), 50000, r)
                                 for _ in range(12)])
        xs = np.stack([unvectorize(row, (3, 2, 2)) for row in comps])
        s1 = one_lag(moments.mode_autocov, xs, 1)
        assert np.allclose(s1, 0.9 * np.eye(3), atol=0.05)

    def test_matches_oracle(self):
        xs = rng.standard_normal((30, 3, 2, 2))
        for mode in (1, 2, 3):
            got = one_lag(moments.mode_autocov, xs, 2, mode)
            assert np.allclose(got, oracles.naive_mode_autocov(xs, mode, 2), atol=1e-12)


class TestModeBTau:
    def test_iid_normal_nearly_diagonal(self):
        xs = np.random.default_rng(23).standard_normal((100000, 3, 2, 2))
        b = one_lag(moments.mode_b_tau, xs, 0)
        off = b - np.diag(np.diag(b))
        assert np.abs(off).max() < 0.05

    def test_single_frame(self):
        x = rng.standard_normal((3, 2, 2))
        f = x.reshape(3, -1, order="F")
        expected = f @ f.T @ f @ f.T / 4.0
        assert np.allclose(one_lag(moments.mode_b_tau, x[None], 0), expected, atol=1e-13)

    def test_matches_oracle(self):
        xs = rng.standard_normal((30, 3, 2, 2))
        for mode in (1, 3):
            for tau in (0, 1):
                assert np.allclose(one_lag(moments.mode_b_tau, xs, tau, mode),
                                   oracles.naive_mode_b_tau(xs, mode, tau), atol=1e-12)


class TestModeBLags:
    """The mode joint lagged fourth moments at lag 0, B_ij(0, 0, 0, 0), read off
    the one-lag mode_c_grids set as C^m_ij + S_0 (E_ij + E_ji + I) S_0^T."""

    @staticmethod
    def grid(xs):
        s0 = one_lag(moments.mode_autocov, xs, 0)
        pair = np.einsum("ki,lj->ijkl", s0, s0)
        pair = pair + pair.transpose(1, 0, 2, 3)
        return one_lag(moments.mode_c_grids, xs, 0) + pair + s0 @ s0.T

    def test_zero_lags_sum_is_trace_weighted_moment(self):
        # summing over i = j turns the scalar weight into tr(X X^T); this
        # equals mode_b_tau only in the vector case (rho_m = 1)
        xs = rng.standard_normal((20, 3, 2, 2))
        grid = self.grid(xs)
        total = sum(grid[i, i] for i in range(3))
        f = np.stack([oracles.naive_m_flatten(x, 1) for x in xs])
        w = np.einsum("tik,tik->t", f, f)
        want = np.einsum("t,tik,tjk->ij", w, f, f) / (20 * 4)
        assert np.allclose(total, want, atol=1e-12)

    def test_zero_lags_sum_identity_vector_case(self):
        xs = rng.standard_normal((20, 4))
        grid = self.grid(xs)
        total = sum(grid[i, i] for i in range(4))
        assert np.allclose(total, one_lag(moments.mode_b_tau, xs, 0), atol=1e-12)

    def test_matches_oracle(self):
        xs = rng.standard_normal((20, 3, 2, 2))
        grid = self.grid(xs)
        for (i, j) in ((1, 1), (2, 3), (3, 1)):
            want = oracles.naive_mode_b_lags(xs, 1, (0, 0, 0, 0), i, j)
            assert np.allclose(grid[i - 1, j - 1], want, atol=1e-12)

    def test_grid_matches_single_calls(self):
        xs = rng.standard_normal((15, 3, 2))
        grid = self.grid(xs)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                assert np.allclose(grid[i - 1, j - 1],
                                   oracles.naive_mode_b_lags(xs, 1, (0, 0, 0, 0), i, j),
                                   atol=1e-13)

    def test_lag_out_of_range(self):
        with pytest.raises(ValueError):
            moments.mode_c_grids(series_flatten(rng.standard_normal((5, 2, 2)), 1), (9,))


class TestModeCTauIJ:
    """Entries of the one-lag mode_c_grids set, the mode gJADE matrices."""

    def test_composition_consistency(self):
        xs = rng.standard_normal((20, 3, 2, 2))
        s0 = one_lag(moments.mode_autocov, xs, 0)
        grid = one_lag(moments.mode_c_grids, xs, 1)
        for (i, j) in ((1, 1), (2, 3)):
            e = np.zeros((3, 3))
            e[i - 1, j - 1] += 1.0
            e[j - 1, i - 1] += 1.0
            want = (oracles.naive_mode_b_lags(xs, 1, (0, 1, 1, 0), i, j)
                    + oracles.naive_mode_b_lags(xs, 1, (0, 1, 0, 1), i, j)
                    - oracles.naive_mode_b_lags(xs, 1, (1, 1, 0, 0), i, j)
                    - s0 @ (e + np.eye(3)) @ s0.T)
            assert np.allclose(grid[i - 1, j - 1], want, atol=1e-14)

    def test_gaussian_iid_value(self):
        # Wishart second moments give C^m_{0ii} = (rho_m - 1) I for i.i.d.
        # standard normal entries; the matrix is 0 only in the vector case
        xs = np.random.default_rng(31).standard_normal((200000, 3, 2))
        xs = xs - xs.mean(axis=0)
        c = one_lag(moments.mode_c_grids, xs, 0)[0, 0]
        assert np.abs(c - np.eye(3)).max() < 0.05  # rho_1 = 2
        ys = np.random.default_rng(32).standard_normal((200000, 3))
        ys = ys - ys.mean(axis=0)
        assert np.abs(one_lag(moments.mode_c_grids, ys, 0)[0, 0]).max() < 0.05

    def test_matches_oracle(self):
        xs = rng.standard_normal((20, 3, 2, 2))
        for mode in (1, 2):
            grid = one_lag(moments.mode_c_grids, xs, 1, mode)
            for (i, j) in ((1, 1), (1, 2)):
                want = oracles.naive_mode_c_tau_ij(xs, mode, 1, i, j)
                assert np.allclose(grid[i - 1, j - 1], want, atol=1e-12)

    def test_grid_matches_single_calls(self):
        xs = rng.standard_normal((15, 3, 2))
        grid = one_lag(moments.mode_c_grids, xs, 1, 2)
        for i in (1, 2):
            for j in (1, 2):
                assert np.allclose(grid[i - 1, j - 1],
                                   oracles.naive_mode_c_tau_ij(xs, 2, 1, i, j), atol=1e-13)


class TestGJadeSets:
    """The builders' lag sets as the fits call them, chiefly c_grids and mode_c_grids."""

    @staticmethod
    def vector_grid(f, tau):
        # B_ij(tau, tau, 0, 0) - S (E_ij + E_ji) S^T - delta_ij I
        s = oracles.naive_sigma_tau(f[:, :, 0], tau)
        p = s.shape[0]
        out = b_grid(f, (tau, tau, 0, 0))
        for i in range(p):
            for j in range(p):
                e = np.zeros((p, p))
                e[i, j] += 1.0
                e[j, i] += 1.0
                out[i, j] -= s @ e @ s.T + (i == j) * np.eye(p)
        return out.reshape(-1, p, p)

    @staticmethod
    def mode_grid(f, tau):
        # B_ij(0, tau, tau, 0) + B_ij(0, tau, 0, tau) - B_ij(tau, tau, 0, 0)
        # - S_0 (E_ij + E_ji + I) S_0^T
        t, p, rho = f.shape
        s0 = np.einsum("tir,tjr->ij", f, f) / (t * rho)
        out = (b_grid(f, (0, tau, tau, 0)) + b_grid(f, (0, tau, 0, tau))
               - b_grid(f, (tau, tau, 0, 0)))
        for i in range(p):
            for j in range(p):
                e = np.eye(p)
                e[i, j] += 1.0
                e[j, i] += 1.0
                out[i, j] -= s0 @ e @ s0.T
        return out.reshape(-1, p, p)

    @pytest.mark.parametrize("lags", [(0, 1, 3), tuple(range(13))])
    def test_vector_set_stacks_the_lag_grids(self, lags):
        f = series_flatten(np.random.default_rng(41).standard_normal((60, 5)), 1)
        got = moments.c_grids(f, lags)
        assert got.shape == (25 * len(lags), 5, 5)
        want = np.concatenate([self.vector_grid(f, tau) for tau in lags])
        assert np.abs(got - want).max() < 1e-13

    @pytest.mark.parametrize("lags", [(0, 1, 3), tuple(range(13))])
    @pytest.mark.parametrize("dims", [(4, 3), (3, 2, 2)])
    def test_mode_set_stacks_the_lag_grids(self, dims, lags):
        xs = np.random.default_rng(42).standard_normal((60,) + dims)
        for mode, p in enumerate(dims, start=1):
            f = series_flatten(xs, mode)
            got = moments.mode_c_grids(f, lags)
            assert got.shape == (p * p * len(lags), p, p)
            want = np.concatenate([self.mode_grid(f, tau) for tau in lags])
            assert np.abs(got - want).max() < 1e-13

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("dims", [(5,), (3, 2, 2)])
    def test_set_is_its_one_lag_sets_in_lag_order(self, builder, dims):
        f = series_flatten(np.random.default_rng(43).standard_normal((40,) + dims), 1)
        lags = (0, 2, 5)
        assert np.array_equal(builder(f, lags),
                              np.concatenate([builder(f, (tau,)) for tau in lags]))

    def test_lag_out_of_range_in_a_set(self):
        xs = rng.standard_normal((10, 2, 2))
        for builder in BUILDERS:
            with pytest.raises(ValueError, match="lag 10 out of range for series of length 10"):
                builder(series_flatten(xs[:, :, 0], 1), (0, 1, 10))
            with pytest.raises(ValueError, match="lag 12 out of range for series of length 10"):
                builder(series_flatten(xs, 2), (0, 12, 3))


class TestLagProducts:
    """`_lag_products`' two kernels, one einsum per lag for small frames and a
    batched matmul for larger ones, against per-frame products, with the
    3x2x2 and vector (12,) frames on the einsum side and the 10x8x3 frames
    on the matmul side."""

    SIDES = [((12,), True), ((3, 2, 2), True), ((10, 8, 3), False)]

    @pytest.mark.parametrize("dims,einsum", SIDES)
    def test_the_frame_shape_picks_the_kernel(self, dims, einsum):
        xs = np.random.default_rng(47).standard_normal((20,) + dims)
        for mode in range(1, len(dims) + 1):
            f = series_flatten(xs, mode)
            assert moments._einsum_side(f) is einsum
            g = moments._time_last(f)
            assert np.array_equal(g, f)
            assert (g is f) is not einsum

    @pytest.mark.parametrize("frame_max", [0, 10**9])  # every frame on one side
    @pytest.mark.parametrize("dims", [dims for dims, _ in SIDES])
    def test_kernels_match_per_frame_products(self, monkeypatch, dims, frame_max):
        monkeypatch.setattr(moments, "EINSUM_FRAME_MAX", frame_max)
        t = 40
        xs = np.random.default_rng(48).standard_normal((t,) + dims)
        for mode in range(1, len(dims) + 1):
            f = series_flatten(xs, mode)
            p = f.shape[1]
            for a, b in ((0, 0), (3, 0), (0, 5)):
                n = t - max(a, b)
                want = np.stack([f[a + k] @ f[b + k].T for k in range(n)]).reshape(n, p * p)
                for frames in (f, moments._time_last(f)):
                    got = moments._lag_products(frames, a, b, n)
                    assert got.shape == (n, p * p)
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("dims", [(3, 2, 2), (10, 8, 3)])
    def test_builders_match_the_oracles_on_each_side(self, dims):
        xs = np.random.default_rng(49).standard_normal((30,) + dims)
        f = series_flatten(xs, 1)
        p = dims[0]
        lags = (0, 2)
        for got, tau in zip(moments.mode_b_tau(f, lags), lags):
            assert np.allclose(got, oracles.naive_mode_b_tau(xs, 1, tau), atol=1e-12)
        grids = moments.mode_c_grids(f, lags).reshape(len(lags), p, p, p, p)
        for grid, tau in zip(grids, lags):
            for i, j in ((1, 1), (1, 2), (p, 1)):
                assert np.allclose(grid[i - 1, j - 1],
                                   oracles.naive_mode_c_tau_ij(xs, 1, tau, i, j), atol=1e-12)


class TestVectorBranches:
    """mode_b_tau's weighted Gram for rho = 1 against its general per-lag
    products, and mode_autocov's GEMMs at rho = 1 against rho = 2: a zero
    column along rho keeps every sum and doubles the 1/rho divisor."""

    @pytest.mark.parametrize("builder", [moments.mode_autocov, moments.mode_b_tau])
    @pytest.mark.parametrize("lags", [(0, 1, 3), tuple(range(13))])
    @pytest.mark.parametrize("p", [1, 5, 12])
    def test_rho_one_matches_the_general_path(self, builder, lags, p):
        f = series_flatten(np.random.default_rng(45).standard_normal((200, p)), 1)
        f2 = np.concatenate([f, np.zeros_like(f)], axis=2)
        assert f.shape == (200, p, 1) and f2.shape == (200, p, 2)
        assert np.abs(2.0 * builder(f2, lags) - builder(f, lags)).max() < 1e-13

    @pytest.mark.parametrize("dims,mode", [((5,), 1), ((3, 2, 2), 2)])
    def test_autocov_at_the_last_lag(self, dims, mode):
        # one summand: X_0 X_{T-1}^T / rho
        xs = np.random.default_rng(46).standard_normal((30,) + dims)
        f = series_flatten(xs, mode)
        want = f[0] @ f[-1].T / f.shape[2]
        assert np.abs(moments.mode_autocov(f, (29,))[0] - want).max() < 1e-15


class TestStructuralInvariants:
    def test_order1_mode_functionals_reduce_to_vector(self):
        xs = rng.standard_normal((25, 4))
        assert np.allclose(one_lag(moments.mode_autocov, xs, 2),
                           oracles.naive_sigma_tau(xs, 2), atol=1e-13)
        assert np.allclose(one_lag(moments.mode_b_tau, xs, 1),
                           oracles.naive_b_tau(xs, 1), atol=1e-13)

    def test_order1_c_differs_only_by_identity_shift(self):
        # the mode C subtracts S0 (E + E' + I) S0' while the vector C
        # subtracts S0 (E + E') S0' + delta_ij I; at r = 1 the two agree
        # up to a multiple of S0 S0' - delta_ij I, which does not move the
        # joint diagonalizer
        xs = rng.standard_normal((25, 4))
        s0 = one_lag(moments.mode_autocov, xs, 0)
        mode_grid = one_lag(moments.mode_c_grids, xs, 0)
        vector_grid = one_lag(moments.c_grids, xs, 0)
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
            assert np.allclose(one_lag(moments.mode_autocov, xs, tau),
                               one_lag(moments.mode_autocov, swapped, tau), atol=1e-14)
            assert np.allclose(one_lag(moments.mode_b_tau, xs, tau),
                               one_lag(moments.mode_b_tau, swapped, tau), atol=1e-14)
        assert np.allclose(one_lag(moments.mode_c_grids, xs, 1)[0, 1],
                           one_lag(moments.mode_c_grids, swapped, 1)[0, 1], atol=1e-14)

    def test_orthogonal_transformation_identity(self):
        # finite-sample transformation law under per-mode orthogonal mixing:
        # D_ij = C^m_ij + S_0 S_0^T, the mode gJADE grid without its identity
        # term, maps as D^x_ij = sum_kl u_ik u_jl U D^z_kl U^T
        r = np.random.default_rng(7)
        zs = r.standard_normal((15, 3, 2, 2))
        us = []
        for p in (3, 2, 2):
            q, rr = np.linalg.qr(r.standard_normal((p, p)))
            us.append(q * np.sign(np.diag(rr)))
        xs = zs
        for mode, u in enumerate(us, start=1):
            xs = series_mode_product(xs, u, mode)
        u = us[0]

        def d_grid(ys):
            s0 = one_lag(moments.mode_autocov, ys, 0)
            return one_lag(moments.mode_c_grids, ys, 1) + s0 @ s0.T

        grid_z, grid_x = d_grid(zs), d_grid(xs)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                want = np.zeros((3, 3))
                for k in range(3):
                    for l in range(3):
                        want += u[i - 1, k] * u[j - 1, l] * (u @ grid_z[k, l] @ u.T)
                assert np.allclose(grid_x[i - 1, j - 1], want, atol=1e-10)

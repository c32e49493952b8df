"""Recovery metrics: minimum distance index, correlations, kurtosis ranking."""

import numpy as np
import pytest

from tensorbss.bss import apply_unmixing, unmix
from tensorbss.metrics import kron_unmixing, kurtosis_rank, max_abs_correlations, mdi
from tensorbss.simgen import gen_latent_setting, gen_mixing, mix
from tensorbss.tensor import series_components

from oracles import brute_mdi


def random_pjd(p, rng):
    """A random permutation-sign-scale matrix C."""
    c = np.zeros((p, p))
    perm = rng.permutation(p)
    scales = rng.uniform(0.2, 3.0, p) * rng.choice([-1.0, 1.0], p)
    c[np.arange(p), perm] = scales
    return c


class TestMdi:
    def test_matches_brute_force_permutation_search(self):
        rng = np.random.default_rng(0)
        for p in (2, 3, 4, 5, 6, 7):
            for _ in range(20):
                gamma = rng.standard_normal((p, p))
                omega = rng.standard_normal((p, p))
                assert abs(mdi(gamma, omega).value - brute_mdi(gamma, omega)) < 1e-12

    def test_zero_for_exact_inverse_up_to_pjd(self):
        rng = np.random.default_rng(1)
        for p in (2, 4, 6):
            omega = rng.standard_normal((p, p))
            c = random_pjd(p, rng)
            assert mdi(c @ np.linalg.inv(omega), omega).value < 1e-12

    def test_invariant_under_pjd_on_the_estimate(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            gamma = rng.standard_normal((5, 5))
            omega = rng.standard_normal((5, 5))
            c = random_pjd(5, rng)
            assert abs(mdi(c @ gamma, omega).value - mdi(gamma, omega).value) < 1e-12

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = rng.integers(2, 8)
            v = mdi(rng.standard_normal((p, p)), rng.standard_normal((p, p))).value
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_assignment_and_row_scores_reported(self):
        res = mdi(np.eye(3)[::-1], np.eye(3))
        np.testing.assert_array_equal(res.assignment, [2, 1, 0])
        np.testing.assert_allclose(res.row_scores, 1.0, atol=1e-15)

    def test_extreme_scales(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4))
        want = mdi(g, np.eye(4)).value
        for c in (1e-200, 1e-160, 1e160, 1e200):
            assert abs(mdi(c * g, np.eye(4)).value - want) <= 1e-12
        g[2] = 0.0
        with pytest.raises(ValueError, match="zero row"):
            mdi(1e-200 * g, np.eye(4))

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            mdi(np.ones((1, 1)), np.ones((1, 1)))
        g = np.eye(3)
        g[0] = 0.0
        with pytest.raises(ValueError):
            mdi(g, np.eye(3))


class TestKronUnmixing:
    def test_acts_like_chained_mode_products(self):
        rng = np.random.default_rng(10)
        zs = gen_latent_setting("arma", 400, rng)
        xs = mix(zs, gen_mixing((3, 2, 2), "gaussian", rng))
        res = unmix(xs, "tfobi")
        flat = (series_components(xs) - series_components(xs).mean(axis=0))
        via_kron = flat @ kron_unmixing(res.mode_unmixers).T
        via_modes = series_components(apply_unmixing(xs, res))
        np.testing.assert_allclose(via_kron, via_modes, atol=1e-12)

    def test_rejects_non_square_factor(self):
        with pytest.raises(ValueError):
            kron_unmixing([np.eye(2), np.ones((2, 3))])


class TestMaxAbsCorrelations:
    def test_verbatim_and_negated_targets_score_one(self):
        rng = np.random.default_rng(20)
        zs = rng.standard_normal((500, 3))
        pairs = max_abs_correlations(zs[:, [1]], [zs[:, 0], -zs[:, 1], zs[:, 2]])
        corrs = [c for c, _ in pairs]
        assert corrs[1] > 1.0 - 1e-12
        assert corrs[0] < 0.2 and corrs[2] < 0.2

    def test_tensor_recovered_uses_linear_component_indices(self):
        rng = np.random.default_rng(21)
        zs = gen_latent_setting("arma", 2000, rng)
        flat = series_components(zs)
        pairs = max_abs_correlations(zs, [flat[:, 5]])
        corr, idx = pairs[0]
        assert corr > 1.0 - 1e-12
        # Linear index 5 in a (3, 2, 2) frame, first index fastest.
        assert idx == (3, 2, 1)

    def test_zero_variance_component_skipped_with_warning(self):
        rng = np.random.default_rng(22)
        comps = np.column_stack([np.zeros(100), rng.standard_normal(100)])
        with pytest.warns(UserWarning):
            pairs = max_abs_correlations(comps, [comps[:, 1]])
        # The constant column is never selected as the best match.
        assert pairs[0][1] == (2,)
        assert pairs[0][0] > 1.0 - 1e-12

    def test_constant_target_rejected(self):
        zs = np.random.default_rng(23).standard_normal((100, 3))
        with pytest.raises(ValueError, match="target 2 is constant"):
            max_abs_correlations(zs, [zs[:, 0], np.full(100, 0.1), zs[:, 2]])


class TestKurtosisRank:
    def test_gaussian_components_near_zero(self):
        rng = np.random.default_rng(30)
        ranked = kurtosis_rank(rng.standard_normal((200000, 3)))
        for value, _ in ranked:
            assert abs(value) < 0.1

    def test_spiky_component_ranked_first(self):
        rng = np.random.default_rng(31)
        xs = np.column_stack([
            rng.standard_normal(5000),
            rng.standard_t(4, 5000),
            rng.uniform(-1, 1, 5000),
        ])
        ranked = kurtosis_rank(xs)
        assert ranked[0][1] == (2,)
        assert ranked[-1][1] == (3,)
        assert ranked[0][0] > ranked[1][0] > ranked[2][0]

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        xs = rng.standard_t(6, (1000, 4))
        r1 = kurtosis_rank(xs)
        r2 = kurtosis_rank(xs * np.array([1.0, 10.0, 0.1, 100.0]))
        for (v1, i1), (v2, i2) in zip(r1, r2):
            assert i1 == i2
            assert abs(v1 - v2) < 1e-10

    def test_tensor_input_reports_multi_indices(self):
        rng = np.random.default_rng(33)
        ranked = kurtosis_rank(rng.standard_normal((500, 3, 2)))
        assert sorted(i for _, i in ranked) == sorted(
            (a, b) for b in (1, 2) for a in (1, 2, 3)
        )

"""Generator sanity checks: marginals, dependence signatures, mixing draws."""

import re

import numpy as np
import pytest

from tensorbss.metrics import mdi
from tensorbss.simgen import (
    ArmaSpec,
    GarchSpec,
    SvSpec,
    SETTINGS,
    arma_setting_specs,
    gen_arma,
    gen_garch,
    gen_latent_setting,
    gen_mixing,
    gen_sv,
    mix,
    sv_setting_specs,
)


def sample_ac(x, tau):
    xc = x - x.mean()
    return float(np.dot(xc[:-tau], xc[tau:]) / np.dot(xc, xc))


def excess_kurtosis(x):
    xc = x - x.mean()
    m2 = np.mean(xc ** 2)
    return float(np.mean(xc ** 4) / m2 ** 2 - 3.0)


class TestArma:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = gen_arma(ArmaSpec(phi=(0.9,)), 50000, rng)
        assert abs(x.mean()) < 1e-12
        assert abs(x.var() - 1.0) < 1e-12

    def test_ar1_autocorrelation(self):
        rng = np.random.default_rng(1)
        x = gen_arma(ArmaSpec(phi=(0.9,)), 100000, rng)
        assert abs(sample_ac(x, 1) - 0.9) < 0.02
        assert abs(sample_ac(x, 2) - 0.81) < 0.03

    def test_ma2_autocorrelation(self):
        # MA(2) with theta = (0.5, -0.5): rho_1 = 1/6, rho_2 = -1/3, rho_3 = 0.
        rng = np.random.default_rng(2)
        x = gen_arma(ArmaSpec(theta=(0.5, -0.5)), 100000, rng)
        assert abs(sample_ac(x, 1) - 1.0 / 6.0) < 0.02
        assert abs(sample_ac(x, 2) + 1.0 / 3.0) < 0.02
        assert abs(sample_ac(x, 3)) < 0.02

    def test_random_ma_coefficients_resampled(self):
        rng = np.random.default_rng(3)
        spec = ArmaSpec(random_ma_order=10)
        x = gen_arma(spec, 20000, rng)
        y = gen_arma(spec, 20000, rng)
        # Fresh U(-1, 1) coefficients per call: lag-1 autocorrelations differ.
        assert abs(sample_ac(x, 1) - sample_ac(y, 1)) > 1e-3

    @pytest.mark.parametrize("phi,modulus", [
        ((1.5,), "1.5"), ((1.2,), "1.2"), ((2.0,), "2"), ((1.0,), "1"), ((-1.0,), "1"),
        ((0.5, 0.6), "1.06394"), ((0.0, -1.21), "1.1"),
    ])
    def test_non_stationary_ar_part_rejected(self, phi, modulus):
        # an explosive AR part used to give an all-zero or trend-dominated series
        with pytest.raises(ValueError, match=rf"^ARMA stationarity requires every AR root "
                                             rf"inside the unit circle, but phi=.* has one "
                                             rf"of modulus {modulus}$"):
            ArmaSpec(phi=phi)

    def test_non_finite_path_names_the_model(self):
        with pytest.raises(ValueError, match="^ARMA recursion diverged: the generated "
                                             "path is not finite$"):
            gen_arma(ArmaSpec(theta=(1e308,) * 5), 100, np.random.default_rng(0))

    @pytest.mark.parametrize("theta", [(1e308, 1e308), (1e300,)], ids=["mean", "variance"])
    def test_finite_path_too_large_to_standardize_names_the_model(self, theta):
        # finite, but its mean or its variance overflows: an error, not an
        # overflow warning and a NaN series
        with pytest.raises(ValueError, match="^ARMA path too large to standardize: its "
                                             "mean or variance overflows$"):
            gen_arma(ArmaSpec(theta=theta), 10, np.random.default_rng(0))


@pytest.mark.parametrize("gen,spec", [
    (gen_arma, ArmaSpec(phi=(0.5,))),
    (gen_garch, GarchSpec(alpha=(0.1,), beta=(0.8,))),
    (gen_sv, SvSpec(mu=-9, phi=0.2, sigma=0.01)),
], ids=["arma", "garch", "sv"])
@pytest.mark.parametrize("t", [0, -5])
def test_series_length_below_one_rejected(gen, spec, t):
    with pytest.raises(ValueError, match="^series length must be positive$"):
        gen(spec, t, np.random.default_rng(0))


class TestGarch:
    def test_unit_variance_and_heavy_tails(self):
        rng = np.random.default_rng(4)
        x = gen_garch(GarchSpec(alpha=(0.1,), beta=(0.8,)), 100000, rng)
        assert abs(x.var() - 1.0) < 1e-12
        assert excess_kurtosis(x) > 0.1

    def test_levels_uncorrelated_squares_correlated(self):
        rng = np.random.default_rng(5)
        x = gen_garch(GarchSpec(alpha=(0.2,), beta=(0.2,)), 100000, rng)
        assert abs(sample_ac(x, 1)) < 0.02
        assert sample_ac(x ** 2, 1) > 0.05

    def test_nonstationary_spec_rejected(self):
        with pytest.raises(ValueError):
            GarchSpec(alpha=(0.5,), beta=(0.5,))

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            GarchSpec(alpha=(0.5, -0.1))


class TestSv:
    def test_unit_variance_and_volatility_clustering(self):
        rng = np.random.default_rng(6)
        x = gen_sv(SvSpec(mu=-10, phi=0.98, sigma=0.2), 100000, rng)
        assert abs(x.var() - 1.0) < 1e-12
        assert abs(sample_ac(x, 1)) < 0.02
        ls = np.log(x ** 2 + 1e-300)
        assert sample_ac(ls, 1) > sample_ac(ls, 10) > 0.05

    def test_t_innovations_fatten_tails(self):
        rng = np.random.default_rng(7)
        thin = gen_sv(SvSpec(mu=-9, phi=0.2, sigma=0.01), 200000, rng)
        fat = gen_sv(SvSpec(mu=-9, phi=0.2, sigma=0.01, nu=5), 200000, rng)
        assert excess_kurtosis(fat) > excess_kurtosis(thin) + 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SvSpec(mu=0, phi=1.0, sigma=0.2)
        with pytest.raises(ValueError):
            SvSpec(mu=0, phi=0.5, sigma=0.0)
        with pytest.raises(ValueError):
            SvSpec(mu=0, phi=0.5, sigma=0.2, nu=2.0)


class TestSettings:
    def test_both_settings_define_twelve_models(self):
        assert len(arma_setting_specs()) == 12
        assert len(sv_setting_specs()) == 12
        assert set(SETTINGS) == {"arma", "sv"}

    def test_latent_setting_shape_and_moments(self):
        rng = np.random.default_rng(8)
        zs = gen_latent_setting("arma", 5000, rng)
        assert zs.shape == (5000, 3, 2, 2)
        flat = zs.reshape(5000, -1)
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(flat.var(axis=0), 1.0, atol=1e-12)

    def test_components_nearly_uncorrelated(self):
        rng = np.random.default_rng(9)
        zs = gen_latent_setting("sv", 50000, rng).reshape(50000, -1)
        corr = np.corrcoef(zs.T)
        off = corr - np.eye(12)
        assert np.max(np.abs(off)) < 0.03

    def test_determinism_given_seed(self):
        a = gen_latent_setting("arma", 300, np.random.default_rng(10))
        b = gen_latent_setting("arma", 300, np.random.default_rng(10))
        np.testing.assert_array_equal(a, b)

    def test_unknown_setting_and_bad_dims_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            gen_latent_setting("bogus", 100, rng)
        with pytest.raises(ValueError):
            gen_latent_setting("arma", 100, rng, dims=(3, 3))

    def test_negative_sizes_rejected(self):
        # twelve cells, as the setting needs, but no size may be below 1
        with pytest.raises(ValueError, match=r"^dims \(-3, -2, 2\): every size must be >= 1$"):
            gen_latent_setting("arma", 100, np.random.default_rng(11), dims=(-3, -2, 2))

    @pytest.mark.parametrize("dims", [(3, 2, 2.7), (3.0, 2, 2), (3, "2", 2), (True, 2)])
    def test_non_integer_sizes_rejected(self, dims):
        # such a size used to be truncated, so (3, 2, 2.7) ran on 3x2x2 frames
        with pytest.raises(ValueError, match=rf"^dims {re.escape(str(dims))}: every size "
                                             rf"must be an integer$"):
            gen_latent_setting("arma", 100, np.random.default_rng(11), dims=dims)

    def test_numpy_integer_sizes_accepted(self):
        dims = tuple(np.int64(d) for d in (3, 2, 2))
        assert gen_latent_setting("arma", 100, np.random.default_rng(11), dims=dims).shape \
            == (100, 3, 2, 2)


class TestMixing:
    def test_haar_matrices_are_orthogonal(self):
        rng = np.random.default_rng(12)
        for a in gen_mixing((3, 2, 5), "haar", rng):
            np.testing.assert_allclose(a @ a.T, np.eye(a.shape[0]), atol=1e-12)

    def test_gaussian_matrices_are_well_conditioned(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            for a in gen_mixing((3, 2, 2), "gaussian", rng):
                assert np.linalg.cond(a) <= 1e6

    def test_haar_sign_convention_removes_qr_ambiguity(self):
        # Column distribution should be sign-symmetric; check the first entry
        # of the first column averages near zero over many draws.
        rng = np.random.default_rng(14)
        vals = [gen_mixing((4,), "haar", rng)[0][0, 0] for _ in range(2000)]
        assert abs(np.mean(vals)) < 0.05

    def test_non_integer_size_rejected(self):
        with pytest.raises(ValueError, match=r"^dims \(3, 2\.5\): every size must be an integer$"):
            gen_mixing((3, 2.5), "haar", np.random.default_rng(12))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gen_mixing((2,), "orthonormal-ish", np.random.default_rng(0))

    def test_mix_applies_chained_mode_products(self):
        rng = np.random.default_rng(15)
        zs = rng.standard_normal((50, 3, 2))
        mats = gen_mixing((3, 2), "gaussian", rng)
        xs = mix(zs, mats)
        want = np.einsum("tab,ia,jb->tij", zs, mats[0], mats[1])
        np.testing.assert_allclose(xs, want, atol=1e-12)

    def test_mix_rejects_wrong_matrix_count(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            mix(rng.standard_normal((10, 3, 2)), [np.eye(3)])

    def test_mdi_invariant_to_mixing_rescale(self):
        rng = np.random.default_rng(17)
        omega = rng.standard_normal((4, 4))
        gamma = rng.standard_normal((4, 4))
        v1 = mdi(gamma, omega).value
        v2 = mdi(gamma, omega * 3.0).value
        # Row rescaling of the gains is folded into the MDI infimum, so a
        # global rescale of the mixing matrix leaves the index unchanged.
        assert abs(v1 - v2) < 1e-12

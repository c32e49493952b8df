"""Unmixing pipeline tests: whitening, equivariance, consistency, collapses."""

import numpy as np
import pytest

from tensorbss.bss import (
    METHOD_NAMES,
    apply_unmixing,
    method_lags,
    unmix,
    whiten,
)
from tensorbss import moments
from tensorbss.bench import ExperimentSpec, _replicate_rng
from tensorbss.cli import main
from tensorbss.linalg import RankDeficiencyError
from tensorbss.metrics import kron_unmixing, mdi
from tensorbss.simgen import ArmaSpec, gen_arma, gen_latent_setting, gen_mixing, mix
from tensorbss.tensor import series_components, series_mode_product

from oracles import naive_mode_autocov, pj_distance


def ar1_pair(t, rng, phis=(0.9, -0.9)):
    return np.column_stack([
        gen_arma(ArmaSpec(phi=(phi,)), t, rng) for phi in phis
    ])


class TestWhitening:
    def test_vector_whitened_covariance_is_identity(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((500, 4)) @ rng.standard_normal((4, 4))
        xs -= xs.mean(axis=0)
        ys, (w,) = whiten(xs)
        np.testing.assert_allclose(moments.mode_autocov(ys, 1, 0), np.eye(4),
                                   atol=1e-10)

    def test_vector_whitener_for_diagonal_covariance(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal((200000, 2)) * np.array([2.0, 3.0])
        xs -= xs.mean(axis=0)
        _, (w,) = whiten(xs)
        np.testing.assert_allclose(w, np.diag([0.5, 1.0 / 3.0]), atol=2e-2)

    def test_tensor_mode_covariances_become_identity(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((800, 3, 2, 2))
        for m, a in enumerate([rng.standard_normal((p, p)) for p in (3, 2, 2)],
                              start=1):
            xs = series_mode_product(xs, a, m)
        xs -= xs.mean(axis=0)
        ys, whiteners = whiten(xs)
        assert len(whiteners) == 3
        # Simultaneous standardization from a finite sample leaves each mode
        # covariance proportional to the identity, not exactly I.
        for m in range(1, 4):
            cov = moments.mode_autocov(ys, m, 0)
            off = cov - np.diag(np.diag(cov))
            assert np.max(np.abs(off)) < 0.2 * np.min(np.diag(cov))

    def test_whitener_is_symmetric_inverse_root_of_mode_covariance(self):
        rng = np.random.default_rng(4)
        vec = rng.standard_normal((400, 4)) @ rng.standard_normal((4, 4))
        ten = rng.standard_normal((400, 3, 2, 2))
        for m, p in enumerate((3, 2, 2), start=1):
            ten = series_mode_product(ten, rng.standard_normal((p, p)), m)
        for xs in (vec, ten):
            xs = xs - xs.mean(axis=0)
            _, whiteners = whiten(xs)
            assert len(whiteners) == xs.ndim - 1
            for m, w in enumerate(whiteners, start=1):
                np.testing.assert_array_equal(w, w.T)
                sigma = naive_mode_autocov(xs, m, 0)
                np.testing.assert_allclose(w @ sigma @ w, np.eye(len(w)), atol=1e-10)

    def test_ill_conditioned_gaussian_mixing_fits_every_method(self):
        # the Kronecker product of these per-mode mixings has condition
        # number 2.6e6, so the vectorized frames' covariance has an
        # eigenvalue ratio near 1e-13
        rng = _replicate_rng(3, 0, 0)
        zs = gen_latent_setting("sv", 8000, rng)
        mats = gen_mixing((3, 2, 2), "gaussian", rng)
        xs = mix(zs, mats)
        omega = kron_unmixing(mats)
        for method in METHOD_NAMES:
            res = unmix(xs, method)
            assert 0.0 <= mdi(kron_unmixing(res.mode_unmixers), omega).value <= 1.0

    def test_rank_deficiency_names_the_mode(self):
        xs = np.random.default_rng(3).standard_normal((300, 3, 2))
        xs[:, :, 1] = 2.0 * xs[:, :, 0]
        xs -= xs.mean(axis=0)
        with pytest.raises(RankDeficiencyError, match="^mode 2: "):
            whiten(xs)

    def test_one_dimensional_series_rejected(self):
        with pytest.raises(ValueError, match=r"series of shape \(T, p_1"):
            whiten(np.zeros(10))


class TestVectorMethods:
    def test_sobi_recovers_ar1_pair(self):
        rng = np.random.default_rng(10)
        zs = ar1_pair(4000, rng)
        omega = rng.standard_normal((2, 2))
        res = unmix(zs @ omega.T, "sobi", lags=range(1, 13))
        assert mdi(res.mode_unmixers[0], omega).value < 0.15

    def test_gjade_at_lag_zero_separates_kurtosis_mixture(self):
        rng = np.random.default_rng(11)
        zs = np.column_stack([
            rng.standard_t(5, 6000) * np.sqrt(3.0 / 5.0),
            rng.uniform(-np.sqrt(3), np.sqrt(3), 6000),
        ])
        omega = rng.standard_normal((2, 2))
        res = unmix(zs @ omega.T, "jade")
        assert mdi(res.mode_unmixers[0], omega).value < 0.15

    def test_affine_equivariance(self):
        rng = np.random.default_rng(12)
        zs = ar1_pair(1500, rng, phis=(0.8, -0.5))
        zs = np.column_stack([zs, gen_arma(ArmaSpec(theta=(0.5, -0.5)), 1500, rng)])
        a = rng.standard_normal((3, 3))
        for name in ("sobi", "gfobi", "gjade"):
            g1 = unmix(zs, name).mode_unmixers[0]
            g2 = unmix(zs @ a.T, name).mode_unmixers[0]
            # Gamma(AX) and Gamma(X) A^{-1} agree up to permutation and signs.
            assert mdi(g2, a @ np.linalg.inv(g1)).value < 1e-8

    def test_extreme_scale_gives_scaled_unmixer(self):
        rng = np.random.default_rng(14)
        xs = mix(gen_latent_setting("arma", 300, rng), gen_mixing((3, 2, 2), "haar", rng))
        gamma = unmix(xs, "sobi").mode_unmixers[0]
        scaled = unmix(1e200 * xs, "sobi").mode_unmixers[0] * 1e200
        assert np.abs(scaled - gamma).max() <= 1e-10 * np.abs(gamma).max()

    def test_scale_invariance_of_recovered_components(self):
        rng = np.random.default_rng(13)
        xs = ar1_pair(1000, rng) @ rng.standard_normal((2, 2))
        r1 = unmix(xs, "sobi")
        r2 = unmix(7.5 * xs, "sobi")
        assert pj_distance(r1.recovered[:50].T, r2.recovered[:50].T) < 1e-8


class TestTensorMethods:
    def test_tsobi_consistency_identity_mixing(self):
        rng = np.random.default_rng(20)
        zs = gen_latent_setting("arma", 8000, rng)
        res = unmix(zs, "tsobi")
        gamma = kron_unmixing(res.mode_unmixers)
        assert mdi(gamma, np.eye(12)).value < 0.1

    def test_orthogonal_equivariance_per_mode(self):
        rng = np.random.default_rng(21)
        zs = gen_latent_setting("arma", 2000, rng, dims=(3, 2, 2))
        vs = gen_mixing((3, 2, 2), "haar", rng)
        g1 = unmix(zs, "tsobi").mode_unmixers
        g2 = unmix(mix(zs, vs), "tsobi").mode_unmixers
        for m in range(3):
            assert mdi(g2[m], vs[m] @ np.linalg.inv(g1[m])).value < 1e-8

    def test_order_one_tensor_path_collapses_to_vector(self):
        rng = np.random.default_rng(22)
        xs = ar1_pair(2000, rng, phis=(0.9, -0.6))
        xs = np.column_stack([xs, gen_arma(ArmaSpec(theta=(0.7,)), 2000, rng)])
        for tname, vname in (("tsobi", "sobi"), ("tgfobi", "gfobi"),
                             ("tfobi", "fobi")):
            gt = unmix(xs, tname).mode_unmixers[0]
            gv = unmix(xs, vname).mode_unmixers[0]
            assert pj_distance(gt, gv) < 1e-10

    def test_vector_method_on_tensor_input_vectorizes(self):
        rng = np.random.default_rng(23)
        zs = gen_latent_setting("arma", 1000, rng)
        r_tensor_input = unmix(zs, "sobi")
        r_flat_input = unmix(series_components(zs), "sobi")
        np.testing.assert_allclose(r_tensor_input.mode_unmixers[0],
                                   r_flat_input.mode_unmixers[0], atol=1e-12)


class TestSpecialCases:
    def test_lag_zero_tensor_methods_match_their_aliases(self):
        rng = np.random.default_rng(30)
        zs = gen_latent_setting("sv", 1500, rng)
        xs = mix(zs, gen_mixing((3, 2, 2), "gaussian", rng))
        for gname, aname in (("tgfobi", "tfobi"), ("tgjade", "tjade")):
            rg = unmix(xs, gname, lags=(0,))
            ra = unmix(xs, aname)
            for m in range(3):
                assert pj_distance(rg.mode_unmixers[m], ra.mode_unmixers[m]) < 1e-10

    def test_lag_zero_vector_methods_match_their_aliases(self):
        rng = np.random.default_rng(31)
        xs = ar1_pair(1200, rng) @ rng.standard_normal((2, 2))
        for gname, aname in (("gfobi", "fobi"), ("gjade", "jade")):
            g = unmix(xs, gname, lags=(0,)).mode_unmixers[0]
            a = unmix(xs, aname).mode_unmixers[0]
            assert pj_distance(g, a) < 1e-10

    def test_fixed_lag_methods_reject_other_lag_sets(self):
        for name in ("fobi", "jade", "tfobi", "tjade"):
            with pytest.raises(ValueError):
                method_lags(name, lags=(0, 1))

    def test_sobi_rejects_lag_zero(self):
        with pytest.raises(ValueError):
            method_lags("sobi", (0, 1, 2))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            method_lags("amuse")


class TestMethodTable:
    def test_table_shape(self):
        assert len(METHOD_NAMES) == 10
        for name, entry in METHOD_NAMES.items():
            lag_matrices, tensor_path, default = entry
            assert callable(lag_matrices) and type(tensor_path) is bool
            assert type(default) is tuple
            assert method_lags(name, default) == default == method_lags(name)
        assert sum(tensor_path for _, tensor_path, _ in METHOD_NAMES.values()) == 5

    def test_mixed_case_name_rejected_everywhere(self, tmp_path, capsys):
        xs = np.random.default_rng(53).standard_normal((300, 3, 2, 2))
        with pytest.raises(ValueError, match="unknown method 'TSOBI'"):
            unmix(xs, "TSOBI")
        with pytest.raises(ValueError, match="unknown method 'TSOBI'"):
            ExperimentSpec(setting="arma", mixing="haar", methods=("TSOBI",))
        with pytest.raises(SystemExit) as exc:
            main(["unmix", "--in", str(tmp_path / "x.ts"), "--method", "TSOBI",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 1

    def test_lags_resolved_sorted_and_deduplicated(self):
        assert method_lags("tsobi", (3, 1, 1)) == (1, 3)
        assert method_lags("tgjade", range(0, 3)) == (0, 1, 2)
        assert method_lags("sobi", np.array([2, 1])) == (1, 2)
        assert method_lags("tfobi", [np.int64(0)]) == (0,)
        assert all(type(v) is int for v in method_lags("sobi", np.array([2, 1])))

    @pytest.mark.parametrize("lags,bad", [((1.5, 2.9), "1.5"), ("12", "'12'"), (5, "5"),
                                          (np.array([1.0, 2.0]), "1.0")])
    def test_non_integer_lags_rejected(self, lags, bad):
        with pytest.raises(ValueError, match=f"integers, got .*{bad}"):
            method_lags("tsobi", lags)
        with pytest.raises(ValueError, match="integers"):
            unmix(np.random.default_rng(54).standard_normal((100, 2, 2)), "tsobi", lags=lags)


class TestApplyUnmixing:
    def test_reproduces_training_recovered(self):
        rng = np.random.default_rng(40)
        zs = gen_latent_setting("arma", 1000, rng)
        xs = mix(zs, gen_mixing((3, 2, 2), "gaussian", rng))
        res = unmix(xs, "tsobi")
        np.testing.assert_allclose(apply_unmixing(xs, res), res.recovered,
                                   atol=1e-13)

    def test_vector_fit_on_tensor_input(self):
        rng = np.random.default_rng(43)
        xs = mix(gen_latent_setting("arma", 500, rng), gen_mixing((3, 2, 2), "gaussian", rng))
        res = unmix(xs, "sobi")
        np.testing.assert_allclose(apply_unmixing(xs, res), res.recovered, atol=1e-13)

    def test_round_trip_with_inverse_unmixers(self):
        rng = np.random.default_rng(41)
        zs = gen_latent_setting("arma", 500, rng)
        xs = mix(zs, gen_mixing((3, 2, 2), "gaussian", rng))
        res = unmix(xs, "tgfobi")
        back = res.recovered
        for m, g in enumerate(res.mode_unmixers, start=1):
            back = series_mode_product(back, np.linalg.inv(g), m)
        np.testing.assert_allclose(back + res.mean, xs, atol=1e-10)

    def test_out_of_sample_uses_training_mean(self):
        rng = np.random.default_rng(42)
        xs = ar1_pair(1000, rng) @ rng.standard_normal((2, 2)) + np.array([5.0, -3.0])
        res = unmix(xs[:800], "sobi")
        got = apply_unmixing(xs[800:], res)
        expected = (xs[800:] - res.mean) @ res.mode_unmixers[0].T
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_frame_shape_mismatch_rejected(self):
        rng = np.random.default_rng(43)
        res = unmix(ar1_pair(500, rng), "sobi")
        with pytest.raises(ValueError):
            apply_unmixing(rng.standard_normal((10, 3)), res)


class TestConvergenceRates:
    def test_off_diagonal_gain_mass_shrinks_with_t(self):
        lengths = (1000, 8000, 64000)
        meds = []
        for t in lengths:
            vals = []
            for seed in range(10):
                rng = np.random.default_rng([100, t, seed])
                zs = gen_latent_setting("arma", t, rng)
                vals.append(mdi(kron_unmixing(unmix(zs, "tsobi").mode_unmixers),
                                np.eye(12)).value)
            meds.append(np.median(vals))
        assert meds[0] > meds[1] > meds[2]
        assert meds[2] < 0.05


class TestInputValidation:
    def test_series_shorter_than_lag_rejected(self):
        xs = np.random.default_rng(50).standard_normal((10, 2))
        with pytest.raises(ValueError):
            unmix(xs, "sobi", lags=(12,))

    @pytest.mark.parametrize("method", ["sobi", "tsobi"])
    def test_one_dimensional_series_rejected(self, method):
        xs = np.random.default_rng(51).standard_normal(50)
        with pytest.raises(ValueError, match=r"series of shape \(T, p_1"):
            unmix(xs, method)

    @pytest.mark.parametrize("method", ["tsobi", "sobi", "tgjade"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, method, bad):
        xs = np.random.default_rng(52).standard_normal((300, 3, 2, 2))
        xs[17, 1, 0, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            unmix(xs, method)

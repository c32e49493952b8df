import numpy as np
import pytest

from tensorbss import linalg
from tensorbss.bss import whiten
from tensorbss.linalg import RankDeficiencyError, joint_diagonalize

from oracles import diag_objective, pj_distance

rng = np.random.default_rng(42)


def random_orthogonal(p, r=rng):
    q, rr = np.linalg.qr(r.standard_normal((p, p)))
    return q * np.sign(np.diag(rr))


def series_with_covariance(root, t=64, seed=0):
    """A centered (t, p) series whose covariance is exactly root @ root."""
    z = np.random.default_rng(seed).standard_normal((t, len(root)))
    q, _ = np.linalg.qr(z - z.mean(axis=0))
    return np.sqrt(t) * q @ root


class TestSymInvSqrt:
    """The symmetric inverse square root of a mode covariance, which
    `bss.whiten` computes from the series itself."""

    def test_identity(self):
        _, (w,) = whiten(series_with_covariance(np.eye(3)))
        assert np.allclose(w, np.eye(3), atol=1e-14)

    def test_analytic_diagonal(self):
        _, (w,) = whiten(series_with_covariance(np.diag([2.0, 3.0])))
        assert np.allclose(w, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_random_spd(self):
        r = np.random.default_rng(7)
        xs = r.standard_normal((300, 5)) @ r.standard_normal((5, 5))
        xs -= xs.mean(axis=0)
        s = xs.T @ xs / len(xs)
        _, (w,) = whiten(xs)
        assert np.abs(w - w.T).max() < 1e-10
        assert np.allclose(w @ s @ w, np.eye(5), atol=1e-8)
        lam, q = np.linalg.eigh(s)
        assert np.allclose(w, (q / np.sqrt(lam)) @ q.T, atol=1e-8)

    def test_rank_deficiency_reports_ratio(self):
        xs = np.random.default_rng(5).standard_normal((200, 2)) * np.array([1.0, 1e-15])
        with pytest.raises(RankDeficiencyError, match="ratio"):
            whiten(xs - xs.mean(axis=0))
        with pytest.raises(RankDeficiencyError, match="ratio 0.000e"):
            whiten(np.random.default_rng(6).standard_normal((3, 5)))  # fewer rows than p


class TestJointDiagonalize:
    def test_already_diagonal(self):
        ms = [np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 5.0, 2.0])]
        res = joint_diagonalize(ms)
        assert pj_distance(res.rotation, np.eye(3)) < 1e-10
        assert res.converged

    def test_planted_rotation(self):
        p = 6
        q = random_orthogonal(p)
        ms = [q @ np.diag(rng.standard_normal(p)) @ q.T for _ in range(13)]
        res = joint_diagonalize(ms)
        assert pj_distance(res.rotation.T, q.T) < 1e-8
        assert res.converged

    def test_single_matrix_matches_eigendecomposition(self):
        q = random_orthogonal(4)
        s = q @ np.diag([4.0, 3.0, 2.0, 1.0]) @ q.T
        res = joint_diagonalize([s])
        _, vecs = np.linalg.eigh(s)
        assert pj_distance(res.rotation.T, vecs.T) < 1e-9

    def test_objective_no_worse_than_identity(self):
        for _ in range(5):
            ms = rng.standard_normal((4, 5, 5))
            ms = 0.5 * (ms + ms.transpose(0, 2, 1))
            res = joint_diagonalize(ms)
            assert res.objective >= diag_objective(ms, np.eye(5)) - 1e-12

    def test_objective_trace_non_decreasing(self):
        ms = rng.standard_normal((6, 5, 5))
        ms = 0.5 * (ms + ms.transpose(0, 2, 1))
        res = joint_diagonalize(ms)
        trace = np.array(res.objective_trace)
        assert np.all(np.diff(trace) >= -1e-9 * max(1.0, trace.max()))

    def test_objective_invariant_under_pj(self):
        ms = rng.standard_normal((3, 4, 4))
        ms = 0.5 * (ms + ms.transpose(0, 2, 1))
        res = joint_diagonalize(ms)
        u = res.rotation
        perm = rng.permutation(4)
        signs = np.diag(rng.choice([-1.0, 1.0], 4))
        u2 = (u @ signs)[:, perm]
        assert abs(diag_objective(ms, u) - diag_objective(ms, u2)) < 1e-9

    def test_frobenius_mass_conserved(self):
        ms = rng.standard_normal((4, 5, 5))
        ms = 0.5 * (ms + ms.transpose(0, 2, 1))
        res = joint_diagonalize(ms)
        u = res.rotation
        for m in ms:
            rotated = u.T @ m @ u
            d = np.diag(rotated)
            off = rotated - np.diag(d)
            assert np.isclose(d @ d + np.sum(off * off), np.sum(m * m), atol=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            joint_diagonalize(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            joint_diagonalize(np.zeros((0, 3, 3)))

    def test_non_convergence_flagged_not_fatal(self, monkeypatch):
        ms = rng.standard_normal((5, 6, 6))
        ms = 0.5 * (ms + ms.transpose(0, 2, 1))
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 2)
        res = joint_diagonalize(ms, tol=0.0)
        assert not res.converged
        assert res.sweeps_used == 2

    def test_non_symmetric_set_diagonalized_as_its_symmetric_parts(self):
        # SOBI hands the raw lagged covariances over and relies on this
        ms = np.random.default_rng(8).standard_normal((6, 5, 5))
        sym = 0.5 * (ms + ms.transpose(0, 2, 1))
        assert not np.array_equal(ms, sym)
        raw, parts = joint_diagonalize(ms), joint_diagonalize(sym)
        assert np.array_equal(raw.rotation, parts.rotation)
        assert raw.objective == parts.objective
        assert raw.objective_trace == parts.objective_trace
        assert (raw.sweeps_used, raw.converged) == (parts.sweeps_used, parts.converged)

    def test_deterministic_output_convention(self):
        q = random_orthogonal(5)
        ms = [q @ np.diag(rng.standard_normal(5)) @ q.T for _ in range(4)]
        res = joint_diagonalize(ms)
        u = res.rotation
        d1 = np.diag(u.T @ ms[0] @ u)
        assert np.all(np.diff(d1) <= 1e-12)  # descending by first matrix
        peaks = u[np.argmax(np.abs(u), axis=0), np.arange(5)]
        assert np.all(peaks > 0)

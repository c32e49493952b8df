import numpy as np
import pytest

from tensorbss import linalg
from tensorbss.linalg import joint_diagonalize

from oracles import diag_objective, naive_jacobi, pj_distance

rng = np.random.default_rng(42)


def random_orthogonal(p, r=rng):
    q, rr = np.linalg.qr(r.standard_normal((p, p)))
    return q * np.sign(np.diag(rr))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_set_rejected(self, bad):
        ms = np.random.default_rng(10).standard_normal((3, 4, 4))
        ms[1, 2, 0] = bad
        with pytest.raises(FloatingPointError, match="matrix set is not finite"):
            joint_diagonalize(ms)

    @pytest.mark.parametrize("p", [2, 5, 12])
    @pytest.mark.parametrize("size", ["one", "below", "boundary", "above"])
    def test_matches_textbook_jacobi(self, p, size):
        # one matrix, and K below, at and above p(p+1)/2, the dimension of the
        # symmetric p x p matrices (at it, the largest set left uncompressed)
        n = p * (p + 1) // 2
        k = {"one": 1, "below": 2, "boundary": n, "above": n + 3}[size]
        ms = np.random.default_rng([p, k]).standard_normal((k, p, p))
        res = joint_diagonalize(ms)
        u, sweeps, converged = naive_jacobi(ms, linalg.TOL, linalg.MAX_SWEEPS)
        assert (res.sweeps_used, res.converged) == (sweeps, converged)
        assert np.abs(res.rotation - u).max() < 1e-12
        assert res.matrices_diagonalized == min(k, p * (p + 1) // 2)

    def test_compressed_set_follows_the_textbook_trajectory(self):
        # K = 832 matrices of size 8x8, far above p(p+1)/2 = 36: a planted
        # rotation plus noise, diagonalized as 36 matrices
        p, k = 8, 832
        r = np.random.default_rng(11)
        q = random_orthogonal(p, r)
        ms = q @ (r.standard_normal((k, p))[:, :, None] * np.eye(p)) @ q.T
        ms += 0.05 * r.standard_normal((k, p, p))
        res = joint_diagonalize(ms)
        u, sweeps, converged = naive_jacobi(ms, linalg.TOL, linalg.MAX_SWEEPS)
        assert res.matrices_diagonalized == 36
        assert converged and (res.sweeps_used, res.converged) == (sweeps, converged)
        assert np.abs(res.rotation - u).max() < 1e-12
        assert np.isclose(res.objective, diag_objective(0.5 * (ms + ms.transpose(0, 2, 1)), u),
                          rtol=1e-12)

    def test_compressed_set_ordered_by_the_first_input_matrix(self):
        # the order/sign convention reads the first matrix of the input set,
        # not of the p(p+1)/2 = 136 matrices that are rotated
        p, k = 16, 150
        r = np.random.default_rng(16)
        q = random_orthogonal(p, r)
        ms = q @ (r.standard_normal((k, p))[:, :, None] * np.eye(p)) @ q.T
        ms += 1e-3 * r.standard_normal((k, p, p))
        res = joint_diagonalize(ms)
        assert res.matrices_diagonalized == 136
        u = res.rotation
        d1 = np.diag(u.T @ (0.5 * (ms[0] + ms[0].T)) @ u)
        assert np.all(np.diff(d1) < 0)
        assert np.all(u[np.argmax(np.abs(u), axis=0), np.arange(p)] > 0)

    def test_one_by_one_set_is_identity(self):
        res = joint_diagonalize(np.array([[[2.0]], [[-3.0]]]))
        assert np.array_equal(res.rotation, np.eye(1))
        assert (res.sweeps_used, res.converged) == (0, True)
        assert res.objective == 13.0
        assert res.matrices_diagonalized == 2

    def test_non_convergence_flagged_not_fatal(self, monkeypatch):
        ms = rng.standard_normal((5, 6, 6))
        ms = 0.5 * (ms + ms.transpose(0, 2, 1))
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 2)
        monkeypatch.setattr(linalg, "TOL", 0.0)
        res = joint_diagonalize(ms)
        assert not res.converged
        assert res.sweeps_used == 2

    def test_tol_governs_the_stop(self, monkeypatch):
        ms = np.random.default_rng(9).standard_normal((5, 6, 6))
        tight = joint_diagonalize(ms)
        monkeypatch.setattr(linalg, "TOL", 1e-3)
        loose = joint_diagonalize(ms)
        assert tight.converged and loose.converged
        assert loose.sweeps_used < tight.sweeps_used
        # no Givens angle exceeds pi/4, so no pair is rotated at all
        monkeypatch.setattr(linalg, "TOL", 1.0)
        still = joint_diagonalize(ms)
        assert still.converged and still.sweeps_used == 1
        assert still.objective == still.objective_trace[0]

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

"""Orthogonal joint approximate diagonalization, and the error raised for a
numerically rank-deficient mode (the whitening itself is `bss.whiten`)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import ddot, drot

__all__ = ["RankDeficiencyError", "JointDiagResult", "MAX_SWEEPS", "TOL", "joint_diagonalize"]

MAX_SWEEPS = 100  # Jacobi sweeps before a fit is reported as not converged
TOL = 1e-12  # Givens angles within this are skipped; a sweep of only such converges


class RankDeficiencyError(ValueError):
    """Raised when a mode of a series is numerically rank deficient, so it cannot be whitened."""


@dataclass
class JointDiagResult:
    """Outcome of the joint approximate diagonalization."""

    rotation: np.ndarray
    objective: float
    sweeps_used: int
    converged: bool
    matrices_diagonalized: int  # the set's size after compression (see joint_diagonalize)
    objective_trace: list = field(default_factory=list)


def joint_diagonalize(ms) -> JointDiagResult:
    """Find an orthogonal U maximizing the summed squared diagonals of U^T M U.

    Cyclic Jacobi over index pairs; each Givens angle solves the 2x2
    sub-problem in closed form over the symmetric parts (M + M^T) / 2 of the
    input matrices, which is all the objective sees; the input set need not
    be symmetric, but a non-finite entry raises `FloatingPointError`.  A sweep
    whose angles all lie within `TOL` ends the search; after `MAX_SWEEPS`
    sweeps it stops, not converged.

    The angles and the objective see the set only through
    G = sum_k vec(S_k) vec(S_k)^T, of rank at most p(p+1)/2.  So when K
    exceeds p(p+1)/2 (and p >= 2), the K matrices are replaced by the
    sqrt(lambda_i) reshape(v_i, p, p) of G's top p(p+1)/2 eigenpairs, which
    have the same G and so the same Jacobi trajectory in exact arithmetic: the
    eigenmatrix reduction of JADE (Cardoso & Souloumiac 1993), over all
    nonzero eigenmatrices.  `objective` and `objective_trace` are taken on the
    set that is rotated.

    Each pair's angle is taken with `math.atan2`/`math.hypot` on the Python
    floats that BLAS `ddot` returns, and its rotation is two BLAS `drot`
    calls: U sits in slot K of the (p, K+1, p) set, so one call rotates
    columns i and j of every matrix and of U, the other rows i and j of the
    K matrices.

    The columns of the returned rotation are ordered by descending diagonal
    of U^T M_1 U and signed so that each column's largest-magnitude entry
    is positive.
    """
    a = np.asarray(ms, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a set of square matrices of equal size")
    if a.shape[0] < 1:
        raise ValueError("need at least one matrix")
    if not np.isfinite(a).all():
        raise FloatingPointError("matrix set is not finite")
    k, p = a.shape[:2]
    n = p * (p + 1) // 2
    if p >= 2 and k > n:
        # G from the Gram H = F^T F of the raw (K, p^2) view F: G = P H P with
        # P = (I + T) / 2 the projection onto vec of symmetric matrices, T the
        # transposition of (r, c); the directions beyond p(p+1)/2 are
        # antisymmetric, with zero weight
        f = a.reshape(k, p * p)
        g = (f.T @ f).reshape(p, p, p, p)
        g = g + g.transpose(1, 0, 2, 3)
        g += g.transpose(0, 1, 3, 2)
        g *= 0.25
        lam, v = np.linalg.eigh(g.reshape(p * p, p * p))
        lam, v = lam[:-n - 1:-1], v[:, :-n - 1:-1]  # top n, largest first
        a = (v * np.sqrt(np.maximum(lam, 0.0))).T.reshape(n, p, p)
        k = n
    # symmetrized into slots 0..K-1 of a (p, K+1, p) layout, a[r, k, c] = S_k[r, c],
    # with U in slot K: rows i and j of the K matrices are one contiguous run
    # each, and columns i and j of the K matrices and of U one stride-p run each
    au = np.empty((p, k + 1, p))
    a = np.add(a.transpose(1, 0, 2), a.transpose(2, 0, 1), out=au[:, :k])
    a *= 0.5
    u = au[:, k]
    u[...] = np.eye(p)
    fa = au.reshape(-1)  # the flat view that `drot` rotates in place
    # per pair (i, j): the K-length runs S_k[i, i], S_k[j, j], S_k[i, j],
    # S_k[j, i], and the offsets of rows i and j in `fa`; `drot` writes in
    # place, so the views stay current
    pairs = [(i, j, a[i, :, i], a[j, :, j], a[i, :, j], a[j, :, i], i * (k + 1) * p,
              j * (k + 1) * p) for i in range(p - 1) for j in range(i + 1, p)]
    d, o = np.empty(k), np.empty(k)  # each pair's S_ii - S_jj and S_ij + S_ji, reused
    trace = [_diag_mass(a)]
    sweeps = 0
    converged = p < 2
    for sweep in range(MAX_SWEEPS):
        if converged:
            break
        sweeps = sweep + 1
        rotated = False
        for i, j, aii, ajj, aij, aji, row_i, row_j in pairs:
            np.subtract(aii, ajj, out=d)
            np.add(aij, aji, out=o)
            ton = ddot(d, d) - ddot(o, o)
            toff = 2.0 * ddot(d, o)
            theta = 0.5 * math.atan2(toff, ton + math.hypot(ton, toff))
            if abs(theta) <= TOL:
                continue
            rotated = True
            c, s = math.cos(theta), math.sin(theta)
            # x_i <- c x_i + s x_j, x_j <- c x_j - s x_i (args n, offx, incx, offy, incy):
            # columns i and j of the set and of U, then rows i and j of the set
            drot(fa, fa, c, s, p * (k + 1), i, p, j, p, 1, 1)
            drot(fa, fa, c, s, p * k, row_i, 1, row_j, 1, 1, 1)
        trace.append(_diag_mass(a))
        converged = not rotated
    # deterministic order/sign convention: descending diagonal of U^T M_1 U
    m0 = np.asarray(ms[0], dtype=float)
    d1 = np.diag(u.T @ (0.5 * (m0 + m0.T)) @ u)
    order = np.argsort(-d1, kind="stable")
    u = u[:, order]
    signs = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(p)])
    signs[signs == 0] = 1.0
    u = u * signs
    return JointDiagResult(
        rotation=u,
        objective=trace[-1],
        sweeps_used=sweeps,
        converged=converged,
        matrices_diagonalized=k,
        objective_trace=trace,
    )


def _diag_mass(a: np.ndarray) -> float:
    # the (K, p) diagonals of a (p, K, p) set, in C order, so the sum runs in
    # the order of the matrices and then of the diagonal
    d = np.ascontiguousarray(np.diagonal(a, axis1=0, axis2=2))
    return float(np.sum(d * d))

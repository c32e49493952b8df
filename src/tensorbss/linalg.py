"""Symmetric eigen-machinery and orthogonal joint approximate diagonalization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RankDeficiencyError", "JointDiagResult", "sym_eigen", "sym_inv_sqrt",
           "joint_diagonalize"]

# relative asymmetry that sym_eigen tolerates, and the smallest min/max
# eigenvalue ratio that sym_inv_sqrt accepts as full rank
SYM_RTOL = 1e-10
EPS_RANK = 1e-12


class RankDeficiencyError(ValueError):
    """Raised when a matrix required to be positive definite is numerically singular."""


def sym_eigen(s: np.ndarray):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues descending, orthonormal eigenvectors as columns).
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    scale = max(1.0, np.abs(s).max())
    if np.abs(s - s.T).max() > SYM_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (s + s.T))
    return vals[::-1], vecs[:, ::-1]


def sym_inv_sqrt(s: np.ndarray) -> np.ndarray:
    """Unique symmetric inverse square root of a symmetric positive definite matrix."""
    vals, vecs = sym_eigen(s)
    vmax = vals[0]
    vmin = vals[-1]
    if vmax <= 0 or vmin <= EPS_RANK * vmax:
        ratio = vmin / vmax if vmax > 0 else float("-inf")
        raise RankDeficiencyError(
            f"matrix is numerically rank deficient: min/max eigenvalue ratio {ratio:.3e}"
        )
    r = (vecs * (1.0 / np.sqrt(vals))) @ vecs.T
    return 0.5 * (r + r.T)


@dataclass
class JointDiagResult:
    """Outcome of the joint approximate diagonalization."""

    rotation: np.ndarray
    objective: float
    sweeps_used: int
    converged: bool
    objective_trace: list = field(default_factory=list)


def joint_diagonalize(ms, tol: float = 1e-12, max_sweeps: int = 100) -> JointDiagResult:
    """Find an orthogonal U maximizing the summed squared diagonals of U^T M U.

    Cyclic Jacobi over index pairs; each Givens angle solves the 2x2
    sub-problem in closed form over the symmetrized parts of the input
    matrices.  Non-symmetric inputs are symmetrized up front, which leaves
    the optimal rotation unchanged for the moment matrices used here.

    The columns of the returned rotation are ordered by descending diagonal
    of U^T M_1 U and signed so that each column's largest-magnitude entry
    is positive.
    """
    a = np.array(ms, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a set of square matrices of equal size")
    if a.shape[0] < 1:
        raise ValueError("need at least one matrix")
    a = 0.5 * (a + a.transpose(0, 2, 1))
    p = a.shape[1]
    u = np.eye(p)
    trace = [_diag_mass(a)]
    sweeps = 0
    converged = p < 2
    for sweep in range(max_sweeps):
        if converged:
            break
        sweeps = sweep + 1
        max_angle = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p):
                d = a[:, i, i] - a[:, j, j]
                o = a[:, i, j] + a[:, j, i]
                ton = d @ d - o @ o
                toff = 2.0 * (d @ o)
                theta = 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))
                max_angle = max(max_angle, abs(theta))
                if abs(theta) <= tol:
                    continue
                c = np.cos(theta)
                s = np.sin(theta)
                ai = a[:, :, i].copy()
                a[:, :, i] = c * ai + s * a[:, :, j]
                a[:, :, j] = c * a[:, :, j] - s * ai
                ri = a[:, i, :].copy()
                a[:, i, :] = c * ri + s * a[:, j, :]
                a[:, j, :] = c * a[:, j, :] - s * ri
                ui = u[:, i].copy()
                u[:, i] = c * ui + s * u[:, j]
                u[:, j] = c * u[:, j] - s * ui
        trace.append(_diag_mass(a))
        if max_angle <= tol:
            converged = True
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
        objective_trace=trace,
    )


def _diag_mass(a: np.ndarray) -> float:
    d = np.diagonal(a, axis1=1, axis2=2)
    return float(np.sum(d * d))

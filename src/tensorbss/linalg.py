"""Orthogonal joint approximate diagonalization, and the error raised for a
numerically rank-deficient mode (the whitening itself is `bss.whiten`)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RankDeficiencyError", "JointDiagResult", "MAX_SWEEPS", "joint_diagonalize"]

MAX_SWEEPS = 100  # Jacobi sweeps before a fit is reported as not converged


class RankDeficiencyError(ValueError):
    """Raised when a mode of a series is numerically rank deficient, so it cannot be whitened."""


@dataclass
class JointDiagResult:
    """Outcome of the joint approximate diagonalization."""

    rotation: np.ndarray
    objective: float
    sweeps_used: int
    converged: bool
    objective_trace: list = field(default_factory=list)


def joint_diagonalize(ms, tol: float = 1e-12) -> JointDiagResult:
    """Find an orthogonal U maximizing the summed squared diagonals of U^T M U.

    Cyclic Jacobi over index pairs; each Givens angle solves the 2x2
    sub-problem in closed form over the symmetric parts (M + M^T) / 2 of the
    input matrices, which is all the objective sees; the input set need not
    be symmetric.  At most `MAX_SWEEPS` sweeps run.

    The columns of the returned rotation are ordered by descending diagonal
    of U^T M_1 U and signed so that each column's largest-magnitude entry
    is positive.
    """
    a = np.asarray(ms, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a set of square matrices of equal size")
    if a.shape[0] < 1:
        raise ValueError("need at least one matrix")
    p = a.shape[1]
    # symmetrized into a (p, p, K) layout, so that a rotated row or column is
    # p runs of K contiguous values
    a = np.add(a.transpose(1, 2, 0), a.transpose(2, 1, 0), out=np.empty((p, p, len(a))))
    a *= 0.5
    t1 = np.empty(a.shape[1:])
    t2 = np.empty(a.shape[1:])
    u = np.eye(p)
    trace = [_diag_mass(a)]
    sweeps = 0
    converged = p < 2
    for sweep in range(MAX_SWEEPS):
        if converged:
            break
        sweeps = sweep + 1
        max_angle = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p):
                d = a[i, i] - a[j, j]
                o = a[i, j] + a[j, i]
                ton = d @ d - o @ o
                toff = 2.0 * (d @ o)
                theta = 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))
                max_angle = max(max_angle, abs(theta))
                if abs(theta) <= tol:
                    continue
                c = np.cos(theta)
                s = np.sin(theta)
                # columns i, j, then rows i, j, in place: x_i <- c x_i + s x_j, x_j <- c x_j - s x_i
                for xi, xj in ((a[:, i], a[:, j]), (a[i], a[j])):
                    np.copyto(t1, xi)
                    np.multiply(xj, s, out=t2)
                    xi *= c
                    xi += t2
                    t1 *= s
                    xj *= c
                    xj -= t1
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
    # the (K, p) diagonals of a (p, p, K) set, in C order, so the sum runs in
    # the order of the matrices and then of the diagonal
    d = np.ascontiguousarray(np.diagonal(a, axis1=0, axis2=1))
    return float(np.sum(d * d))

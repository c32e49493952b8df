"""Lagged moment functionals for vector and tensor-valued series.

All functionals are finite-sample estimators: the expectation is the
average over the valid time range, dividing by the number of summands,
T - max(lags used).  Inputs are assumed pre-centered; no re-centering
happens here.

Vector series have shape (T, p).  Tensor series have shape
(T, p_1, ..., p_r); the mode variants work on the m-flattenings and carry
the 1/rho_m factor.
"""

from __future__ import annotations

import numpy as np

from .tensor import series_flatten

__all__ = [
    "sigma_tau",
    "b_tau",
    "b_tau_grid",
    "c_tau_grid",
    "mode_cov",
    "mode_autocov",
    "mode_b_tau",
    "mode_b_lags_grid",
    "mode_c_grid",
]


def _check_lag(tau: int, t: int) -> None:
    if not 0 <= tau < t:
        raise ValueError(f"lag {tau} out of range for series of length {t}")


def _pair_units(p: int):
    """Yield (i, j, E_ij + E_ji) over all 0-based index pairs, j fastest."""
    for i in range(p):
        for j in range(p):
            e = np.zeros((p, p))
            e[i, j] += 1.0
            e[j, i] += 1.0
            yield i, j, e


# ---------------------------------------------------------------------------
# vector family


def sigma_tau(xs: np.ndarray, tau: int, symmetrize: bool = False) -> np.ndarray:
    """Lagged covariance E[x_t x_{t+tau}^T]."""
    xs = np.asarray(xs, dtype=float)
    t = xs.shape[0]
    _check_lag(tau, t)
    n = t - tau
    m = xs[:n].T @ xs[tau:tau + n] / n
    if symmetrize:
        m = 0.5 * (m + m.T)
    return m


def b_tau(xs: np.ndarray, tau: int) -> np.ndarray:
    """Lagged fourth-moment matrix E[x_t x_{t+tau}^T x_{t+tau} x_t^T]."""
    xs = np.asarray(xs, dtype=float)
    t = xs.shape[0]
    _check_lag(tau, t)
    n = t - tau
    w = np.einsum("ti,ti->t", xs[tau:tau + n], xs[tau:tau + n])
    return np.einsum("t,ti,tj->ij", w, xs[:n], xs[:n]) / n


def b_tau_grid(xs: np.ndarray, tau: int) -> np.ndarray:
    """Joint lagged fourth moments for all index pairs; shape (p, p, p, p).

    Entry [i-1, j-1] is B_ij = E[(x_{t+tau})_i (x_{t+tau})_j x_t x_t^T].
    """
    xs = np.asarray(xs, dtype=float)
    t, p = xs.shape
    _check_lag(tau, t)
    n = t - tau
    lead = xs[tau:tau + n]
    w = np.einsum("ti,tj->tij", lead, lead).reshape(n, p * p)
    base = np.einsum("tk,tl->tkl", xs[:n], xs[:n]).reshape(n, p * p)
    return (w.T @ base).reshape(p, p, p, p) / n


def c_tau_grid(xs: np.ndarray, tau: int) -> np.ndarray:
    """All gJADE cumulant-type matrices for a lag; shape (p, p, p, p) indexed [i-1, j-1].

    C_ij = B_ij - S (E_ij + E_ji) S^T - delta_ij I, with B_ij the entries of
    :func:`b_tau_grid` and S = sigma_tau(xs, tau).
    """
    b = b_tau_grid(xs, tau)
    s = sigma_tau(xs, tau)
    p = s.shape[0]
    out = np.empty_like(b)
    for i, j, e in _pair_units(p):
        c = b[i, j] - s @ e @ s.T
        if i == j:
            c = c - np.eye(p)
        out[i, j] = c
    return out


# ---------------------------------------------------------------------------
# mode (tensor) family


def mode_cov(xs: np.ndarray, mode: int) -> np.ndarray:
    """Mode covariance: mean covariance of all m-mode vectors (with 1/rho_m)."""
    return mode_autocov(xs, mode, 0, symmetrize=False)


def mode_autocov(xs: np.ndarray, mode: int, tau: int, symmetrize: bool = True) -> np.ndarray:
    """Mode lagged covariance (1/rho_m) E[X^(m)_t (X^(m)_{t+tau})^T]."""
    f = series_flatten(xs, mode)
    t, _, rho = f.shape
    _check_lag(tau, t)
    n = t - tau
    m = np.einsum("tij,tkj->ik", f[:n], f[tau:tau + n]) / (n * rho)
    if symmetrize:
        m = 0.5 * (m + m.T)
    return m


def mode_b_tau(xs: np.ndarray, mode: int, tau: int) -> np.ndarray:
    """Mode lagged fourth moment (1/rho_m) E[X_t X_{t+tau}^T X_{t+tau} X_t^T] on flattenings."""
    f = series_flatten(xs, mode)
    t, _, rho = f.shape
    _check_lag(tau, t)
    n = t - tau
    g = np.einsum("tij,tkj->tik", f[:n], f[tau:tau + n])
    return np.einsum("tik,tjk->ij", g, g) / (n * rho)


def mode_b_lags_grid(xs: np.ndarray, mode: int, taus) -> np.ndarray:
    """Mode joint lagged fourth moments for lags (tau_1..tau_4); shape (p_m, p_m, p_m, p_m).

    Entry [i-1, j-1] is
    (1/rho_m) E[(e_i^T X_{t+tau1} X_{t+tau2}^T e_j) X_{t+tau3} X_{t+tau4}^T].
    """
    f = series_flatten(xs, mode)
    t, p, rho = f.shape
    t1, t2, t3, t4 = (int(v) for v in taus)
    for tau in (t1, t2, t3, t4):
        _check_lag(tau, t)
    n = t - max(t1, t2, t3, t4)
    w = np.einsum("tik,tjk->tij", f[t1:t1 + n], f[t2:t2 + n]).reshape(n, p * p)
    base = np.einsum("tik,tjk->tij", f[t3:t3 + n], f[t4:t4 + n]).reshape(n, p * p)
    return (w.T @ base).reshape(p, p, p, p) / (n * rho)


def mode_c_grid(xs: np.ndarray, mode: int, tau: int) -> np.ndarray:
    """All mode gJADE matrices for a lag; shape (p_m, p_m, p_m, p_m) indexed [i-1, j-1].

    C^m_ij = B_ij(0, tau, tau, 0) + B_ij(0, tau, 0, tau) - B_ij(tau, tau, 0, 0)
    - S_0 (E_ij + E_ji + I) S_0^T, with B the grids of :func:`mode_b_lags_grid`
    and S_0 the mode covariance.
    """
    g1 = mode_b_lags_grid(xs, mode, (0, tau, tau, 0))
    g2 = mode_b_lags_grid(xs, mode, (0, tau, 0, tau))
    g3 = mode_b_lags_grid(xs, mode, (tau, tau, 0, 0))
    s0 = mode_cov(xs, mode)
    p = s0.shape[0]
    out = np.empty((p, p, p, p))
    for i, j, e in _pair_units(p):
        out[i, j] = g1[i, j] + g2[i, j] - g3[i, j] - s0 @ (e + np.eye(p)) @ s0.T
    return out

"""Lagged moment functionals of the m-flattenings of a series.

All functionals are finite-sample estimators: the expectation is the
average over the valid time range, dividing by the number of summands,
T - max(lags used).  Inputs are assumed pre-centered; no re-centering
happens here.

A tensor series has shape (T, p_1, ..., p_r); each functional works on
the mode-m flattenings X_t of shape (p_m, rho_m) and carries the 1/rho_m
factor.  A vector series of shape (T, p) is the mode-1 case with
rho_1 = 1, where the functionals are the vector SOBI/gFOBI moments.
Every grid is built from the lag products X_{t+a} X_{t+b}^T.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import series_flatten

__all__ = [
    "mode_autocov",
    "mode_b_tau",
    "mode_b_lags_grid",
    "c_tau_grid",
    "mode_c_grid",
]


def _check_lag(tau: int, t: int) -> None:
    if not 0 <= tau < t:
        raise ValueError(f"lag {tau} out of range for series of length {t}")


def _lag_products(f: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """F_{t+a} F_{t+b}^T for t < n, each flattened; shape (n, p * p)."""
    return np.matmul(f[a:a + n], f[b:b + n].swapaxes(1, 2)).reshape(n, -1)


def _grid(w: np.ndarray, base: np.ndarray, rho: int) -> np.ndarray:
    """(1/(n rho)) sum_t w_t[i, j] base_t as a (p, p, p, p) grid, from flat products."""
    n, pp = w.shape
    p = math.isqrt(pp)
    return (w.T @ base).reshape(p, p, p, p) / (n * rho)


def mode_autocov(xs: np.ndarray, mode: int, tau: int, symmetrize: bool = True) -> np.ndarray:
    """Mode lagged covariance (1/rho_m) E[X^(m)_t (X^(m)_{t+tau})^T]."""
    f = series_flatten(xs, mode)
    t, _, rho = f.shape
    _check_lag(tau, t)
    n = t - tau
    m = np.tensordot(f[:n], f[tau:tau + n], axes=([0, 2], [0, 2])) / (n * rho)
    if symmetrize:
        m = 0.5 * (m + m.T)
    return m


def mode_b_tau(xs: np.ndarray, mode: int, tau: int) -> np.ndarray:
    """Mode lagged fourth moment (1/rho_m) E[X_t X_{t+tau}^T X_{t+tau} X_t^T] on flattenings."""
    f = series_flatten(xs, mode)
    t, p, rho = f.shape
    _check_lag(tau, t)
    n = t - tau
    # H_t = X_{t+tau} X_t^T stacked row-wise, so h^T h = sum_t H_t^T H_t
    h = _lag_products(f, tau, 0, n).reshape(n * p, p)
    return h.T @ h / (n * rho)


def mode_b_lags_grid(xs: np.ndarray, mode: int, taus) -> np.ndarray:
    """Mode joint lagged fourth moments for lags (tau_1..tau_4); shape (p_m, p_m, p_m, p_m).

    Entry [i-1, j-1] is
    (1/rho_m) E[(e_i^T X_{t+tau1} X_{t+tau2}^T e_j) X_{t+tau3} X_{t+tau4}^T].
    """
    f = series_flatten(xs, mode)
    t, _, rho = f.shape
    t1, t2, t3, t4 = (int(v) for v in taus)
    for tau in (t1, t2, t3, t4):
        _check_lag(tau, t)
    n = t - max(t1, t2, t3, t4)
    return _grid(_lag_products(f, t1, t2, n), _lag_products(f, t3, t4, n), rho)


def _pair_term(s: np.ndarray) -> np.ndarray:
    """S (E_ij + E_ji) S^T for all index pairs; shape (p, p, p, p) indexed [i, j]."""
    outer = np.einsum("ki,lj->ijkl", s, s)
    return outer + outer.transpose(1, 0, 2, 3)


def c_tau_grid(xs: np.ndarray, tau: int) -> np.ndarray:
    """All vector gJADE matrices for a lag; shape (p, p, p, p) indexed [i-1, j-1].

    C_ij = B_ij - S (E_ij + E_ji) S^T - delta_ij I, with
    B_ij = E[(x_{t+tau})_i (x_{t+tau})_j x_t x_t^T] and S = E[x_t x_{t+tau}^T].
    """
    out = (mode_b_lags_grid(xs, 1, (tau, tau, 0, 0))
           - _pair_term(mode_autocov(xs, 1, tau, symmetrize=False)))
    p = out.shape[0]
    out[range(p), range(p)] -= np.eye(p)
    return out


def mode_c_grid(xs: np.ndarray, mode: int, tau: int) -> np.ndarray:
    """All mode gJADE matrices for a lag; shape (p_m, p_m, p_m, p_m) indexed [i-1, j-1].

    C^m_ij = B_ij(0, tau, tau, 0) + B_ij(0, tau, 0, tau) - B_ij(tau, tau, 0, 0)
    - S_0 (E_ij + E_ji + I) S_0^T, with B the grids of :func:`mode_b_lags_grid`
    and S_0 the mode covariance.  All three B grids come from the products
    A_t = X_t X_{t+tau}^T and Q_t = X_t X_t^T.
    """
    f = series_flatten(xs, mode)
    t, p, rho = f.shape
    _check_lag(tau, t)
    n = t - tau
    a = _lag_products(f, 0, tau, n)
    q = _lag_products(f, 0, 0, t)
    a_sum = a + a.reshape(n, p, p).swapaxes(1, 2).reshape(n, -1)
    s0 = q.sum(axis=0).reshape(p, p) / (t * rho)
    return (_grid(a, a_sum, rho) - _grid(q[tau:], q[:n], rho)
            - _pair_term(s0) - s0 @ s0.T)

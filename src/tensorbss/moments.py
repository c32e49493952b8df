"""Lagged moment functionals of the m-flattenings of a series.

All functionals are finite-sample estimators: the expectation is the
average over the valid time range, dividing by the number of summands,
T - max(lags used).  Inputs are assumed pre-centered; no re-centering
happens here.

A tensor series has shape (T, p_1, ..., p_r); each functional works on
the mode-m flattenings X_t of shape (p_m, rho_m) and carries the 1/rho_m
factor.  A vector series of shape (T, p) is the mode-1 case with
rho_1 = 1, where the functionals are the vector SOBI/gFOBI moments.
Every grid is built from the lag products X_{t+a} X_{t+b}^T.  The gJADE
set builders `c_grids` and `mode_c_grids` form Q_t = X_t X_t^T once for
all their lags, and take each lag's GEMMs over the p(p+1)/2 entries
i <= j of its symmetric side before expanding them to the full grid.
"""

from __future__ import annotations

import numpy as np

from .tensor import series_flatten

__all__ = [
    "mode_autocov",
    "mode_b_tau",
    "mode_b_lags_grid",
    "c_tau_grid",
    "c_grids",
    "mode_c_grid",
    "mode_c_grids",
]


def _check_lag(tau: int, t: int) -> None:
    if not 0 <= tau < t:
        raise ValueError(f"lag {tau} out of range for series of length {t}")


def _lag_products(f: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """F_{t+a} F_{t+b}^T for t < n, each flattened; shape (n, p * p)."""
    return np.matmul(f[a:a + n], f[b:b + n].swapaxes(1, 2)).reshape(n, -1)


def mode_autocov(xs: np.ndarray, mode: int, tau: int) -> np.ndarray:
    """Mode lagged covariance (1/rho_m) E[X^(m)_t (X^(m)_{t+tau})^T]."""
    f = series_flatten(xs, mode)
    t, _, rho = f.shape
    _check_lag(tau, t)
    n = t - tau
    return np.tensordot(f[:n], f[tau:tau + n], axes=([0, 2], [0, 2])) / (n * rho)


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
    t, p, rho = f.shape
    t1, t2, t3, t4 = (int(v) for v in taus)
    for tau in (t1, t2, t3, t4):
        _check_lag(tau, t)
    n = t - max(t1, t2, t3, t4)
    w = _lag_products(f, t1, t2, n)
    return (w.T @ _lag_products(f, t3, t4, n)).reshape(p, p, p, p) / (n * rho)


def _pair_term(s: np.ndarray) -> np.ndarray:
    """S (E_ij + E_ji) S^T for all index pairs; shape (p, p, p, p) indexed [i, j]."""
    outer = np.einsum("ki,lj->ijkl", s, s)
    return outer + outer.transpose(1, 0, 2, 3)


def _upper_columns(p: int):
    """Rows and columns of the p(p+1)/2 entries i <= j of a p x p matrix, in
    row-major order, and for each of its p * p entries, flat, the position
    of (min(i, j), max(i, j)) in that list."""
    rows, cols = np.triu_indices(p)
    pos = np.empty((p, p), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    return rows, cols, pos.reshape(-1)


def _q_products(f: np.ndarray, lags) -> np.ndarray:
    """Check the lags, then form Q_t = F_t F_t^T once for all of them; shape (T, p * p)."""
    t = f.shape[0]
    for tau in lags:
        _check_lag(tau, t)
    return _lag_products(f, 0, 0, t)


def _q_grid(qu: np.ndarray, tau: int, rho: int, expand: np.ndarray) -> np.ndarray:
    """(1/(n rho)) sum_{t<n} Q_{t+tau}[i, j] Q_t[k, l], n = T - tau, as a
    (p * p, p * p) array, from the columns i <= j of Q (`_upper_columns`)."""
    n = len(qu) - tau
    return (qu[tau:].T @ qu[:n] / (n * rho))[np.ix_(expand, expand)]


def c_grids(xs: np.ndarray, lags) -> np.ndarray:
    """All vector gJADE matrices for a lag set; shape (K, p, p), lag first, then i, j fastest.

    C_ij = B_ij - S (E_ij + E_ji) S^T - delta_ij I for each lag tau, with
    B_ij = E[(x_{t+tau})_i (x_{t+tau})_j x_t x_t^T] and S = E[x_t x_{t+tau}^T].
    Every B grid comes from the products Q_t = x_t x_t^T, formed once.
    """
    f = series_flatten(xs, 1)
    _, p, rho = f.shape
    rows, cols, expand = _upper_columns(p)
    qu = _q_products(f, lags)[:, rows * p + cols]
    out = np.empty((len(lags), p, p, p, p))
    for k, tau in enumerate(lags):
        out[k] = (_q_grid(qu, tau, rho, expand).reshape(p, p, p, p)
                  - _pair_term(mode_autocov(f, 1, tau)))
        out[k, range(p), range(p)] -= np.eye(p)
    return out.reshape(-1, p, p)


def c_tau_grid(xs: np.ndarray, tau: int) -> np.ndarray:
    """All vector gJADE matrices for a lag; shape (p, p, p, p) indexed [i-1, j-1].

    The one-lag case of :func:`c_grids`.
    """
    out = c_grids(xs, (tau,))
    p = out.shape[1]
    return out.reshape(p, p, p, p)


def mode_c_grids(xs: np.ndarray, mode: int, lags) -> np.ndarray:
    """All mode gJADE matrices for a lag set; shape (K, p_m, p_m), lag first, then i, j fastest.

    C^m_ij = B_ij(0, tau, tau, 0) + B_ij(0, tau, 0, tau) - B_ij(tau, tau, 0, 0)
    - S_0 (E_ij + E_ji + I) S_0^T for each lag tau, with B the grids of
    :func:`mode_b_lags_grid` and S_0 the mode covariance.  All three B grids
    come from the products A_t = X_t X_{t+tau}^T and Q_t = X_t X_t^T, and Q
    is formed once for all lags.
    """
    f = series_flatten(xs, mode)
    t, p, rho = f.shape
    rows, cols, expand = _upper_columns(p)
    q = _q_products(f, lags)
    qu = q[:, rows * p + cols]
    s0 = q.sum(axis=0).reshape(p, p) / (t * rho)
    s0_pair, s0_outer = _pair_term(s0), s0 @ s0.T
    out = np.empty((len(lags), p, p, p, p))
    for k, tau in enumerate(lags):
        n = t - tau
        a = q if tau == 0 else _lag_products(f, 0, tau, n)  # A_t at lag 0 is Q_t
        a3 = a.reshape(n, p, p)
        a_sum = a3[:, rows, cols] + a3[:, cols, rows]  # columns i <= j of A_t + A_t^T
        b = (a.T @ a_sum / (n * rho))[:, expand] - _q_grid(qu, tau, rho, expand)
        out[k] = b.reshape(p, p, p, p) - s0_pair - s0_outer
    return out.reshape(-1, p, p)


def mode_c_grid(xs: np.ndarray, mode: int, tau: int) -> np.ndarray:
    """All mode gJADE matrices for a lag; shape (p_m, p_m, p_m, p_m) indexed [i-1, j-1].

    The one-lag case of :func:`mode_c_grids`.
    """
    out = mode_c_grids(xs, mode, (tau,))
    p = out.shape[1]
    return out.reshape(p, p, p, p)

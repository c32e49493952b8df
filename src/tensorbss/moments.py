"""Lagged moment sets of a mode's flattening: the four builders the fits call.

Each builder takes a mode's flattening f of shape (T, p_m, rho_m), the
frames X_t = f[t] (`tensor.series_flatten`), and a lag set, and returns
that mode's (K, p_m, p_m) matrix set: lag first, and a gJADE grid's
matrices in (i, j) order, j fastest.  A vector series of shape (T, p) is
the one-mode case with rho_1 = 1, where the sets are the vector
SOBI/gFOBI/gJADE moments.

All functionals are finite-sample estimators: the expectation is the
average over the valid time range, dividing by the number of summands,
T - tau, and they carry the 1/rho_m factor.  Inputs are assumed
pre-centered; no re-centering happens here.  Every gJADE grid is built
from the lag products X_{t+a} X_{t+b}^T: `c_grids` and `mode_c_grids` form
Q_t = X_t X_t^T once for all their lags, and take each lag's GEMMs over the
p(p+1)/2 entries i <= j of its symmetric side before expanding them to the
full grid.

A lag product set is one kernel call per lag, chosen from the frame shape
alone.  Small frames, p_m^2 rho_m <= `EINSUM_FRAME_MAX`, take one einsum
over a time-last (p_m, rho_m, T) copy of f, made once per builder call,
so each of its p_m^2 rho_m multiply-adds runs along time; a batched matmul
would spend more on dispatching each tiny product than on its arithmetic.
Larger frames take the batched matmul.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mode_autocov",
    "mode_b_tau",
    "mode_c_grids",
    "c_grids",
]


def _check_lags(lags, t: int) -> None:
    for tau in lags:
        if not 0 <= tau < t:
            raise ValueError(f"lag {tau} out of range for series of length {t}")


# Largest p^2 rho, the multiply-adds of one frame product, whose lag products
# take the einsum kernel.  One lag's products of (p, rho) frames at T = 2000
# on one BLAS thread, einsum vs batched matmul: (3, 4) 0.04 vs 0.23 ms,
# (12, 1) 0.25 vs 0.55 ms; at 256, (8, 4) 0.25 vs 0.25 ms; above it, (6, 8)
# 0.24 vs 0.23 ms, (3, 80) 0.78 vs 0.28 ms, (10, 24) 2.4 vs 1.0 ms.  rho = 1
# frames keep einsum ahead past 256, (24, 1) 1.2 vs 2.2 ms, which one bound
# on p^2 rho gives up.
EINSUM_FRAME_MAX = 256


def _einsum_side(f: np.ndarray) -> bool:
    _, p, rho = f.shape
    return p * p * rho <= EINSUM_FRAME_MAX


def _time_last(f: np.ndarray) -> np.ndarray:
    """f as `_lag_products` reads it fastest: for small frames a (T, p, rho)
    view of a contiguous time-last copy, else f itself."""
    return np.ascontiguousarray(f.transpose(1, 2, 0)).transpose(2, 0, 1) if _einsum_side(f) else f


def _lag_products(f: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """F_{t+a} F_{t+b}^T for t < n, each flattened; shape (n, p * p).

    Small frames give a transposed view of a (p * p, n) array (einsum over
    time, fast on a `_time_last` f); larger ones a C-ordered array (matmul).
    """
    _, p, _ = f.shape
    if _einsum_side(f):
        g = f.transpose(1, 2, 0)
        return np.einsum("art,crt->act", g[:, :, a:a + n], g[:, :, b:b + n]).reshape(p * p, n).T
    return np.matmul(f[a:a + n], f[b:b + n].swapaxes(1, 2)).reshape(n, -1)


def mode_autocov(f: np.ndarray, lags) -> np.ndarray:
    """Mode lagged covariances (1/rho_m) E[X_t X_{t+tau}^T], one per lag; shape (K, p_m, p_m)."""
    t, p, rho = f.shape
    _check_lags(lags, t)
    # g[:, s rho + r] = f[s, :, r], so the frames t < T - tau and t >= tau are two column runs
    g = np.ascontiguousarray(f.transpose(1, 0, 2)).reshape(p, t * rho)
    return np.stack([g[:, :(t - tau) * rho] @ g[:, tau * rho:].T / ((t - tau) * rho)
                     for tau in lags])


def mode_b_tau(f: np.ndarray, lags) -> np.ndarray:
    """Mode lagged fourth moments (1/rho_m) E[X_t X_{t+tau}^T X_{t+tau} X_t^T], one per lag.

    For rho_m > 1 each lag is one Gram of the products H_t = X_{t+tau} X_t^T,
    taken from one time-last copy of f when the frames are small.
    """
    t, p, rho = f.shape
    _check_lags(lags, t)
    out = np.empty((len(lags), p, p))
    if rho == 1:  # a vector series: H_t^T H_t = |x_{t+tau}|^2 x_t x_t^T, a weighted Gram
        x = f[:, :, 0]
        norms = np.square(x).sum(axis=1)
        for k, tau in enumerate(lags):
            out[k] = (x[:t - tau].T * norms[tau:]) @ x[:t - tau] / (t - tau)
        return out
    g = _time_last(f)
    for k, tau in enumerate(lags):
        n = t - tau
        # H_t stacked row-wise (a copy of the einsum kernel's time-last layout),
        # so h^T h = sum_t H_t^T H_t
        h = _lag_products(g, tau, 0, n).reshape(n * p, p)
        out[k] = h.T @ h / (n * rho)
    return out


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


def _q_grid(qu: np.ndarray, tau: int, rho: int, expand: np.ndarray) -> np.ndarray:
    """(1/(n rho)) sum_{t<n} Q_{t+tau}[i, j] Q_t[k, l], n = T - tau, as a
    (p * p, p * p) array, from the columns i <= j of Q (`_upper_columns`)."""
    n = len(qu) - tau
    return (qu[tau:].T @ qu[:n] / (n * rho))[np.ix_(expand, expand)]


def c_grids(f: np.ndarray, lags) -> np.ndarray:
    """Vector gJADE matrices C_ij for a lag set; shape (K p^2, p, p), lag first, then i, j fastest.

    C_ij = B_ij - S (E_ij + E_ji) S^T - delta_ij I for each lag tau, with
    B_ij = E[(x_{t+tau})_i (x_{t+tau})_j x_t x_t^T] and S = E[x_t x_{t+tau}^T].
    Every B grid comes from the products Q_t = x_t x_t^T, formed once, by
    the einsum kernel when p^2 <= `EINSUM_FRAME_MAX`.
    """
    t, p, rho = f.shape
    _check_lags(lags, t)
    rows, cols, expand = _upper_columns(p)
    qu = _lag_products(_time_last(f), 0, 0, t)[:, rows * p + cols]
    out = np.empty((len(lags), p, p, p, p))
    for k, (tau, s) in enumerate(zip(lags, mode_autocov(f, lags))):
        out[k] = _q_grid(qu, tau, rho, expand).reshape(p, p, p, p) - _pair_term(s)
        out[k, range(p), range(p)] -= np.eye(p)
    return out.reshape(-1, p, p)


def mode_c_grids(f: np.ndarray, lags) -> np.ndarray:
    """Mode gJADE matrices C^m_ij for a lag set; shape (K p^2, p, p), lag first, then i, j fastest.

    C^m_ij = B_ij(0, tau, tau, 0) + B_ij(0, tau, 0, tau) - B_ij(tau, tau, 0, 0)
    - S_0 (E_ij + E_ji + I) S_0^T for each lag tau, with S_0 the mode
    covariance and B_ij the mode joint lagged fourth moment
    B_ij(a, b, c, d) = (1/rho_m) E[(e_i^T X_{t+a} X_{t+b}^T e_j) X_{t+c} X_{t+d}^T].
    All three B grids come from the products A_t = X_t X_{t+tau}^T and
    Q_t = X_t X_t^T, and Q is formed once for all lags; for small frames all
    of them come from one time-last copy of f.
    """
    t, p, rho = f.shape
    _check_lags(lags, t)
    rows, cols, expand = _upper_columns(p)
    g = _time_last(f)
    q = _lag_products(g, 0, 0, t)
    qu = q[:, rows * p + cols]
    s0 = q.sum(axis=0).reshape(p, p) / (t * rho)
    s0_pair, s0_outer = _pair_term(s0), s0 @ s0.T
    out = np.empty((len(lags), p, p, p, p))
    for k, tau in enumerate(lags):
        n = t - tau
        a = q if tau == 0 else _lag_products(g, 0, tau, n)  # A_t at lag 0 is Q_t
        a3 = a.reshape(n, p, p)
        a_sum = a3[:, rows, cols] + a3[:, cols, rows]  # columns i <= j of A_t + A_t^T
        b = (a.T @ a_sum / (n * rho))[:, expand] - _q_grid(qu, tau, rho, expand)
        out[k] = b.reshape(p, p, p, p) - s0_pair - s0_outer
    return out.reshape(-1, p, p)

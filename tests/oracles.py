"""Independent brute-force oracles used to freeze expected test values.

Everything here is written as plain index loops over the defining sums,
deliberately sharing no code with the package internals.
"""

from itertools import permutations, product

import numpy as np


def naive_m_flatten(x, mode):
    """Enumerate m-mode fibers directly; columns with smaller modes fastest."""
    x = np.asarray(x, dtype=float)
    dims = x.shape
    ax = mode - 1
    rest = [d for k, d in enumerate(dims) if k != ax]
    cols = []
    # smallest remaining mode varies fastest -> iterate reversed in product
    for combo in product(*[range(d) for d in reversed(rest)]):
        combo = combo[::-1]
        idx = list(combo[:ax]) + [slice(None)] + list(combo[ax:])
        cols.append(x[tuple(idx)])
    return np.array(cols).T


def naive_vectorize(x):
    x = np.asarray(x, dtype=float)
    out = []
    for combo in product(*[range(d) for d in reversed(x.shape)]):
        out.append(x[combo[::-1]])
    return np.array(out)


def naive_sigma_tau(xs, tau):
    t, p = xs.shape
    n = t - tau
    out = np.zeros((p, p))
    for k in range(n):
        out += np.outer(xs[k], xs[k + tau])
    return out / n


def naive_b_tau(xs, tau):
    t, p = xs.shape
    n = t - tau
    out = np.zeros((p, p))
    for k in range(n):
        out += np.outer(xs[k], xs[k + tau]) @ np.outer(xs[k + tau], xs[k])
    return out / n


def naive_b_tau_ij(xs, tau, i, j):
    t, p = xs.shape
    n = t - tau
    out = np.zeros((p, p))
    for k in range(n):
        for a in range(p):
            for b in range(p):
                out[a, b] += xs[k + tau, i - 1] * xs[k + tau, j - 1] * xs[k, a] * xs[k, b]
    return out / n


def naive_c_tau_ij(xs, tau, i, j):
    p = xs.shape[1]
    e = np.zeros((p, p))
    e[i - 1, j - 1] += 1
    e[j - 1, i - 1] += 1
    s = naive_sigma_tau(xs, tau)
    c = naive_b_tau_ij(xs, tau, i, j) - s @ e @ s.T
    if i == j:
        c -= np.eye(p)
    return c


def naive_mode_autocov(xs, mode, tau):
    t = xs.shape[0]
    n = t - tau
    f = [naive_m_flatten(xs[k], mode) for k in range(t)]
    p, rho = f[0].shape
    out = np.zeros((p, p))
    for k in range(n):
        out += f[k] @ f[k + tau].T
    return out / (n * rho)


def naive_mode_b_tau(xs, mode, tau):
    t = xs.shape[0]
    n = t - tau
    f = [naive_m_flatten(xs[k], mode) for k in range(t)]
    p, rho = f[0].shape
    out = np.zeros((p, p))
    for k in range(n):
        out += f[k] @ f[k + tau].T @ f[k + tau] @ f[k].T
    return out / (n * rho)


def naive_mode_b_lags(xs, mode, taus, i, j):
    t1, t2, t3, t4 = taus
    t = xs.shape[0]
    n = t - max(taus)
    f = [naive_m_flatten(xs[k], mode) for k in range(t)]
    p, rho = f[0].shape
    out = np.zeros((p, p))
    for k in range(n):
        scalar = 0.0
        for col in range(rho):
            scalar += f[k + t1][i - 1, col] * f[k + t2][j - 1, col]
        out += scalar * (f[k + t3] @ f[k + t4].T)
    return out / (n * rho)


def naive_mode_c_tau_ij(xs, mode, tau, i, j):
    s0 = naive_mode_autocov(xs, mode, 0)
    p = s0.shape[0]
    e = np.zeros((p, p))
    e[i - 1, j - 1] += 1
    e[j - 1, i - 1] += 1
    return (naive_mode_b_lags(xs, mode, (0, tau, tau, 0), i, j)
            + naive_mode_b_lags(xs, mode, (0, tau, 0, tau), i, j)
            - naive_mode_b_lags(xs, mode, (tau, tau, 0, 0), i, j)
            - s0 @ (e + np.eye(p)) @ s0.T)


def diag_objective(ms, u):
    """Sum over the set of the squared diagonals of U^T M U."""
    total = 0.0
    for m in ms:
        d = np.diag(u.T @ m @ u)
        total += float(d @ d)
    return total


def brute_mdi(gamma_hat, omega):
    """MDI by exhaustive search over permutations with per-row optimal scale."""
    g = np.asarray(gamma_hat) @ np.asarray(omega)
    p = g.shape[0]
    best = -np.inf
    for perm in permutations(range(p)):
        s = 0.0
        for col, row in enumerate(perm):
            s += g[row, col] ** 2 / (g[row] @ g[row])
        best = max(best, s)
    return np.sqrt(max(p - best, 0.0) / (p - 1))


def pj_distance(a, b):
    """min over P, J of ||a - PJb|| (rows of b permuted and sign-flipped)."""
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = a.shape[0]
    # cost of assigning row k of b to row i of a, with the best sign
    cost = np.zeros((p, p))
    for i in range(p):
        for k in range(p):
            cost[i, k] = min(np.sum((a[i] - b[k]) ** 2), np.sum((a[i] + b[k]) ** 2))
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum()))


def match_components_up_to_pj(c1, c2):
    """Greatest residual after matching columns of c2 to c1 up to sign."""
    from scipy.optimize import linear_sum_assignment

    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    k = c1.shape[1]
    cost = np.zeros((k, k))
    for i in range(k):
        d1 = np.sum((c1[:, i, None] - c2) ** 2, axis=0)
        d2 = np.sum((c1[:, i, None] + c2) ** 2, axis=0)
        cost[i] = np.minimum(d1, d2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].max()))


def naive_jacobi(ms, tol, max_sweeps):
    """Textbook cyclic Jacobi joint diagonalization on full matrices.

    Each pair (i, j) takes the closed-form Givens angle of the 2x2 problem
    over the symmetric parts S_k, then replaces every S_k by G^T S_k G and U
    by U G with the explicit p x p rotation G.  Returns (U, sweeps,
    converged), U ordered by descending diagonal of U^T S_1 U and each column
    signed so that its largest-magnitude entry is positive.
    """
    ms = np.asarray(ms, dtype=float)
    ss = 0.5 * (ms + ms.transpose(0, 2, 1))
    p = ss.shape[1]
    u = np.eye(p)
    sweeps, converged = 0, p < 2
    while not converged and sweeps < max_sweeps:
        sweeps += 1
        largest = 0.0
        for i in range(p - 1):
            for j in range(i + 1, p):
                d = ss[:, i, i] - ss[:, j, j]
                o = ss[:, i, j] + ss[:, j, i]
                ton = d @ d - o @ o
                toff = 2.0 * (d @ o)
                theta = 0.5 * np.arctan2(toff, ton + np.hypot(ton, toff))
                largest = max(largest, abs(theta))
                if abs(theta) <= tol:
                    continue
                g = np.eye(p)
                g[i, i] = g[j, j] = np.cos(theta)
                g[j, i] = np.sin(theta)
                g[i, j] = -np.sin(theta)
                ss = g.T @ ss @ g
                u = u @ g
        converged = largest <= tol
    u = u[:, np.argsort(-np.diag(ss[0]), kind="stable")]
    for c in range(p):
        if u[np.argmax(np.abs(u[:, c])), c] < 0:
            u[:, c] = -u[:, c]
    return u, sweeps, converged

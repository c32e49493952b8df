"""Performance metrics: minimum distance index, Kronecker composition,
signal matching by correlation, and kurtosis-based component ranking."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.optimize import linear_sum_assignment

from .tensor import series_components

__all__ = ["MdiValue", "kron_unmixing", "mdi", "max_abs_correlations", "kurtosis_rank"]


@dataclass
class MdiValue:
    """Minimum distance index with the optimal row assignment."""

    value: float
    assignment: np.ndarray  # assignment[k] = row of gain matrix matched to column k
    row_scores: np.ndarray  # normalized squared gains picked by the assignment


def kron_unmixing(gammas) -> np.ndarray:
    """Kronecker product Gamma^r kron ... kron Gamma^1 (reversed mode order).

    Matches the linear layout of vectorize(): the result acts on vectorized
    frames exactly as the chained mode products do on tensors.
    """
    mats = [np.asarray(g, dtype=float) for g in gammas]
    for g in mats:
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("per-mode unmixers must be square")
    return reduce(np.kron, reversed(mats))


def mdi(gamma_hat: np.ndarray, omega: np.ndarray) -> MdiValue:
    """Minimum distance index between an estimated unmixer and a mixing matrix.

    MDI = (1/sqrt(p-1)) inf_{C in PJD} ||C Gamma_hat Omega - I||.  The
    infimum is exact: with per-row optimal scaling folded in analytically,
    the remaining permutation problem is a linear assignment over the
    normalized squared gains g_ij^2 / ||g_i.||^2.
    """
    g = np.asarray(gamma_hat, dtype=float) @ np.asarray(omega, dtype=float)
    p = g.shape[0]
    if g.shape != (p, p) or p < 2:
        raise ValueError("MDI needs square matrices of size >= 2")
    row_max = np.abs(g).max(axis=1)
    if np.any(row_max == 0):
        raise ValueError("gain matrix has a zero row; MDI undefined")
    g = g / row_max[:, None]  # MDI is scale-free; this keeps g * g finite and nonzero
    scores = (g * g) / np.einsum("ij,ij->i", g, g)[:, None]
    rows, cols = linear_sum_assignment(-scores)
    assignment = np.empty(p, dtype=int)
    assignment[cols] = rows
    s_star = scores[rows, cols].sum()
    value = np.sqrt(max(p - s_star, 0.0) / (p - 1))
    return MdiValue(value=float(value), assignment=assignment,
                    row_scores=scores[assignment, np.arange(p)])


def max_abs_correlations(recovered: np.ndarray, targets) -> list:
    """For each target series, the largest |Pearson correlation| over components.

    `recovered` is a tensor series (components taken in linear-layout order)
    or a (T, k) component matrix.  Returns a list of (max |corr|, component
    multi-index) pairs; zero-variance components are skipped, and a
    constant target raises ValueError.
    """
    comps = np.asarray(recovered, dtype=float)
    dims = comps.shape[1:]
    if comps.ndim > 2:
        comps = series_components(comps)
    t, k = comps.shape
    sd = comps.std(axis=0)
    ok = sd > 0
    if not np.all(ok):
        import warnings

        warnings.warn(f"skipping {int((~ok).sum())} zero-variance component(s)")
    cc = (comps - comps.mean(axis=0)) / np.where(ok, sd, 1.0)
    out = []
    for i, target in enumerate(targets, start=1):
        target = np.asarray(target, dtype=float)
        if target.shape[0] != t:
            raise ValueError("target length does not match the series")
        if target.min() == target.max():
            raise ValueError(f"target {i} is constant, so its correlation is undefined")
        tc = (target - target.mean()) / target.std()
        corr = np.abs(cc.T @ tc) / t
        corr[~ok] = -np.inf
        best = int(np.argmax(corr))
        idx = _component_index(best, dims)
        out.append((float(corr[best]), idx))
    return out


def kurtosis_rank(recovered: np.ndarray) -> list:
    """Components ranked by descending sample excess kurtosis (m4/m2^2 - 3).

    Returns a list of (excess kurtosis, component multi-index) pairs;
    zero-variance components are excluded.
    """
    comps = np.asarray(recovered, dtype=float)
    dims = comps.shape[1:]
    if comps.ndim > 2:
        comps = series_components(comps)
    if comps.shape[0] < 4:
        raise ValueError("kurtosis needs at least 4 observations")
    c = comps - comps.mean(axis=0)
    m2 = np.mean(c * c, axis=0)
    m4 = np.mean(c ** 4, axis=0)
    entries = []
    for k in range(comps.shape[1]):
        if m2[k] == 0:
            continue
        entries.append((float(m4[k] / m2[k] ** 2 - 3.0), _component_index(k, dims)))
    entries.sort(key=lambda e: -e[0])
    return entries


def _component_index(k: int, dims) -> tuple:
    if len(dims) <= 1:
        return (k + 1,)
    return tuple(int(i) + 1 for i in np.unravel_index(k, dims, order="F"))

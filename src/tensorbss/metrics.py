"""Performance metrics: minimum distance index, Kronecker composition,
signal matching by correlation, and kurtosis-based component ranking."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.optimize import linear_sum_assignment

from .tensor import series_components

__all__ = ["MdiValue", "kron_unmixing", "mdi", "mode_mdi", "max_abs_correlations",
           "kurtosis_rank"]


@dataclass
class MdiValue:
    """Minimum distance index with the optimal row assignment."""

    value: float
    assignment: np.ndarray  # assignment[k] = row of gain matrix matched to column k


def kron_unmixing(gammas) -> np.ndarray:
    """Kronecker product Gamma^r kron ... kron Gamma^1 (reversed mode order).

    Matches the linear layout of vectorize(): the result acts on vectorized
    frames exactly as the chained mode products do on tensors.
    """
    mats = [np.asarray(g, dtype=float) for g in gammas]
    if not mats:
        raise ValueError("need at least one per-mode matrix")
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
    gamma_hat, omega = np.asarray(gamma_hat, dtype=float), np.asarray(omega, dtype=float)
    for name, a in (("gamma_hat", gamma_hat), ("omega", omega)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name}: matrix contains NaN or infinite values")
    g = gamma_hat @ omega
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
    return MdiValue(value=float(value), assignment=assignment)


def mode_mdi(gammas, mats) -> MdiValue:
    """MDI of fitted unmixers against per-mode mixing matrices.

    `gammas` holds one unmixer per mode, or one block acting on the
    vectorized frames (a vector method's fit).  Each matrix is first
    multiplied by the power of two that brings its largest |entry| into
    [0.5, 1): that is exact, and MDI is scale-free per row, so the score is
    that of the plain Kronecker products while those can no longer
    overflow or underflow.
    """
    sizes = [[len(a) for a in ms] for ms in (gammas, mats)]
    cells = int(np.prod(sizes[1]))
    if sizes[0] not in (sizes[1], [cells]):
        raise ValueError(f"unmixer sizes {sizes[0]} do not match the mixing's per-mode "
                         f"sizes {sizes[1]} (or one block of size {cells})")
    gammas, mats = ([np.ldexp(a, -np.frexp(np.abs(a).max(initial=0.0))[1]) for a in ms]
                    for ms in (gammas, mats))
    return mdi(kron_unmixing(gammas), kron_unmixing(mats))


def max_abs_correlations(recovered: np.ndarray, targets) -> list:
    """For each target series, the largest |Pearson correlation| over components.

    `recovered` is a tensor series (components taken in linear-layout order)
    or a (T, k) component matrix.  Returns a list of (max |corr|, component
    multi-index) pairs; constant components are skipped with a warning, and
    a constant target raises ValueError.
    """
    comps, dims, constant = _components(recovered)
    cc = (comps - comps.mean(axis=0)) / np.where(constant, 1.0, comps.std(axis=0))
    out = []
    for i, target in enumerate(targets, start=1):
        target = np.asarray(target, dtype=float)
        if target.shape[0] != len(comps):
            raise ValueError("target length does not match the series")
        if target.min() == target.max():
            raise ValueError(f"target {i} is constant, so its correlation is undefined")
        tc = (target - target.mean()) / target.std()
        corr = np.abs(cc.T @ tc) / len(comps)
        corr[constant] = -np.inf
        best = int(np.argmax(corr))
        out.append((float(corr[best]), _component_index(best, dims)))
    return out


def kurtosis_rank(recovered: np.ndarray) -> list:
    """Components ranked by descending sample excess kurtosis (m4/m2^2 - 3).

    Returns a list of (excess kurtosis, component multi-index) pairs;
    constant components are skipped with a warning.
    """
    if np.shape(recovered)[0] < 4:
        raise ValueError("kurtosis needs at least 4 observations")
    comps, dims, constant = _components(recovered)
    c = comps - comps.mean(axis=0)
    m2 = np.mean(c * c, axis=0)
    m4 = np.mean(c ** 4, axis=0)
    entries = [(float(m4[k] / m2[k] ** 2 - 3.0), _component_index(k, dims))
               for k in range(comps.shape[1]) if not constant[k]]
    entries.sort(key=lambda e: -e[0])
    return entries


def _components(recovered: np.ndarray) -> tuple:
    """The (T, k) components, frame dims and mask of constant (min == max) ones."""
    dims = np.shape(recovered)[1:]
    comps = series_components(recovered)
    constant = comps.min(axis=0) == comps.max(axis=0)
    if constant.any():
        warnings.warn(f"skipping {int(constant.sum())} constant component(s)")
    return comps, dims, constant


def _component_index(k: int, dims) -> tuple:
    if len(dims) <= 1:
        return (k + 1,)
    return tuple(int(i) + 1 for i in np.unravel_index(k, dims, order="F"))

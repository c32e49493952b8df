"""Independent checks of tensorbss outputs, computed with plain numpy.

Nothing here calls tensorbss: every expected value is recomputed from the
input series and the fitted unmixers, so a wrong fit cannot pass by
agreeing with itself.  Each check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import numpy as np

WHITEN_TOL = 1e-8  # max |Gamma_m S_m Gamma_m^T - I|
ORTHO_TOL = 1e-10  # max |U^T U - I|; U is a product of Givens rotations
RECOVERED_RTOL = 1e-10  # relative to the largest entry of the expected series
KURTOSIS_RTOL = 1e-5  # `rank` prints 6 significant digits


def vectorized(xs: np.ndarray) -> np.ndarray:
    """Frames as rows in linear layout (first index fastest), shape (T, prod p)."""
    return xs.T.reshape(-1, xs.shape[0]).T


def mode_covariances(xc: np.ndarray) -> list:
    """Mean outer product of all m-mode vectors, one matrix per mode.

    For a (T, p) series this is the covariance of the rows.
    """
    covs = []
    for ax in range(1, xc.ndim):
        f = np.moveaxis(xc, ax, 0).reshape(xc.shape[ax], -1)
        covs.append(f @ f.T / f.shape[1])
    return covs


def through_unmixers(xc: np.ndarray, gammas) -> np.ndarray:
    """The series taken through the chained mode products with each unmixer."""
    out = xc
    for ax, g in enumerate(gammas, start=1):
        out = np.moveaxis(np.tensordot(g, out, axes=(1, ax)), 0, ax)
    return out


def fit_problems(xs: np.ndarray, gammas, recovered: np.ndarray, rotations=None) -> list:
    """Check one fit against its input.

    `gammas` holds one unmixer per mode; a single unmixer for a tensor
    series means a vector method on the vectorized frames.  `recovered`
    is compared in the fit's own shape, or flat when it has two axes.
    """
    xc = xs - xs.mean(axis=0)
    if len(gammas) == 1 and xc.ndim > 2:
        xc = vectorized(xc)
    problems = []
    if len(gammas) != xc.ndim - 1:
        return [f"{len(gammas)} unmixers for a series with {xc.ndim - 1} modes"]
    for m, (g, s) in enumerate(zip(gammas, mode_covariances(xc)), start=1):
        dev = np.abs(g @ s @ g.T - np.eye(len(g))).max()
        if not dev <= WHITEN_TOL:
            problems.append(f"mode {m}: Gamma S Gamma^T deviates from I by {dev:.3g}")
    expected = through_unmixers(xc, gammas)
    if recovered.ndim == 2 and expected.ndim > 2:
        expected = vectorized(expected)
    if recovered.shape != expected.shape:
        problems.append(f"recovered shape {recovered.shape} != {expected.shape}")
    else:
        dev = np.abs(recovered - expected).max() / max(1.0, np.abs(expected).max())
        if not dev <= RECOVERED_RTOL:
            problems.append(f"recovered series deviates from the unmixed input by {dev:.3g}")
    for m, u in enumerate(rotations or [], start=1):
        dev = np.abs(u.T @ u - np.eye(len(u))).max()
        if not dev <= ORTHO_TOL:
            problems.append(f"mode {m}: rotation is not orthogonal ({dev:.3g})")
    return problems


def mdi_problems(value) -> list:
    if not 0.0 <= value <= 1.0:
        return [f"MDI {value!r} outside [0, 1]"]
    return []


def excess_kurtosis(comps: np.ndarray) -> np.ndarray:
    c = comps - comps.mean(axis=0)
    m2 = np.mean(c * c, axis=0)
    return np.mean(c ** 4, axis=0) / m2 ** 2 - 3.0


def rank_problems(table: str, comps: np.ndarray, dims) -> list:
    """Check the `rank` table against the excess kurtosis of `comps`.

    `comps` holds the recovered components in linear layout; the table
    must list every component once, in descending order of kurtosis,
    with the value printed to its 6 significant digits.
    """
    lines = table.strip().splitlines()
    if not lines or lines[0] != "rank,component,excess_kurtosis":
        return [f"rank table header is {lines[:1]!r}"]
    kurt = excess_kurtosis(comps)
    strides = np.cumprod((1,) + tuple(dims[:-1]))
    seen = []
    problems = []
    for pos, line in enumerate(lines[1:], start=1):
        rank, comp, value = line.split(",")
        k = int(np.dot([int(i) - 1 for i in comp.split("x")], strides))
        seen.append(k)
        if int(rank) != pos:
            problems.append(f"row {pos} is labelled rank {rank}")
        if abs(float(value) - kurt[k]) > KURTOSIS_RTOL * max(1.0, abs(kurt[k])):
            problems.append(f"component {comp}: kurtosis {value} != {kurt[k]:.6g}")
    if sorted(seen) != list(range(len(kurt))):
        problems.append("rank table does not list every component exactly once")
    elif np.any(np.diff(kurt[seen]) > 1e-9 * np.abs(kurt).max()):
        problems.append("rank table is not in descending order of kurtosis")
    return problems

"""Dense tensor primitives: flattening, mode products, series I/O.

Conventions used throughout the package:

* A tensor of order r is a numpy array of shape (p_1, ..., p_r), real,
  double precision.
* A tensor series is a numpy array of shape (T, p_1, ..., p_r); axis 0 is
  time.  A vector series is the special case r = 1, shape (T, p).
* Modes are 1-based (m = 1, ..., r), matching the usual multilinear
  notation.
* The linear layout used by :func:`vectorize` and the series file format
  puts the first index fastest (Fortran order), so that
  vec(X x_1 A_1 ... x_r A_r) = (A_r kron ... kron A_1) vec(X).
* The m-flattening collects the m-mode vectors as columns, the column
  index enumerating the remaining indices with the smallest-numbered
  remaining mode varying fastest.
* :func:`m_flatten`, :func:`mode_product`, :func:`vectorize` and :func:`unvectorize`
  are the T = 1 cases of :func:`series_flatten`, :func:`series_mode_product`,
  :func:`series_components` and :func:`series_from_components`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "m_flatten",
    "m_unflatten",
    "mode_product",
    "vectorize",
    "unvectorize",
    "series_flatten",
    "series_mode_product",
    "series_components",
    "series_from_components",
    "series_multilinear_product",
    "write_series",
    "read_series",
]


def _check_mode(mode: int, order: int) -> int:
    if not 1 <= mode <= order:
        raise ValueError(f"mode {mode} out of range for order-{order} tensor")
    return mode - 1


def m_flatten(x: np.ndarray, mode: int) -> np.ndarray:
    """Return the m-flattening, a (p_m, rho_m) matrix of all m-mode vectors."""
    return series_flatten(np.asarray(x, dtype=float)[None], mode)[0]


def m_unflatten(mat: np.ndarray, mode: int, dims) -> np.ndarray:
    """Inverse of :func:`m_flatten` for the given dimension vector."""
    dims = tuple(int(d) for d in dims)
    ax = _check_mode(mode, len(dims))
    rest = dims[:ax] + dims[ax + 1:]
    if np.shape(mat) != (dims[ax], int(np.prod(rest))):
        raise ValueError(
            f"matrix shape {np.shape(mat)} inconsistent with dims {dims}, mode {mode}"
        )
    return np.moveaxis(series_from_components(mat, rest), 0, ax)


def mode_product(x: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """Apply the matrix `a` to every m-mode vector of `x`."""
    return series_mode_product(np.asarray(x, dtype=float)[None], a, mode)[0]


def vectorize(x: np.ndarray) -> np.ndarray:
    """Linearize a tensor with the first index fastest."""
    return series_components(np.asarray(x, dtype=float)[None])[0]


def unvectorize(v: np.ndarray, dims) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    return series_from_components(np.reshape(v, (1, -1)), dims)[0]


def series_flatten(xs: np.ndarray, mode: int) -> np.ndarray:
    """m-flatten every frame of a series; returns shape (T, p_m, rho_m)."""
    xs = np.asarray(xs, dtype=float)
    ax = _check_mode(mode, xs.ndim - 1) + 1
    xt = np.moveaxis(xs, ax, 1)
    # reversing the trailing axes makes the C-order reshape equal to a
    # per-frame F-order flattening of the non-m indices
    rest = tuple(range(xt.ndim - 1, 1, -1))
    xt = xt.transpose((0, 1) + rest)
    return xt.reshape(xs.shape[0], xs.shape[ax], -1)


def series_mode_product(xs: np.ndarray, a: np.ndarray, mode: int) -> np.ndarray:
    """Apply the matrix `a` to every m-mode vector of every frame of a series."""
    xs = np.asarray(xs, dtype=float)
    a = np.asarray(a, dtype=float)
    ax = _check_mode(mode, xs.ndim - 1) + 1
    if a.ndim != 2 or a.shape[1] != xs.shape[ax]:
        raise ValueError(
            f"matrix of shape {a.shape} cannot act on mode {mode} of size {xs.shape[ax]}"
        )
    xt = np.tensordot(xs, a, axes=(ax, 1))
    return np.moveaxis(xt, -1, ax)


def series_components(xs: np.ndarray) -> np.ndarray:
    """View a series as a (T, prod p_m) matrix of scalar component series.

    Columns follow the linear layout of :func:`vectorize`, so column k
    corresponds to the multi-index np.unravel_index(k, dims, order='F').
    """
    xs = np.asarray(xs, dtype=float)
    t = xs.shape[0]
    rest = tuple(range(xs.ndim - 1, 0, -1))
    return xs.transpose((0,) + rest).reshape(t, -1)


def series_from_components(flat: np.ndarray, dims) -> np.ndarray:
    """Inverse of :func:`series_components`; returns a C-contiguous (T, *dims) series."""
    flat = np.asarray(flat, dtype=float)
    dims = tuple(int(d) for d in dims)
    if flat.ndim != 2 or flat.shape[1] != int(np.prod(dims)):
        raise ValueError(f"component matrix of shape {flat.shape} cannot fill dims {dims}")
    xt = flat.reshape(flat.shape[:1] + dims[::-1])
    return np.ascontiguousarray(xt.transpose(0, *range(len(dims), 0, -1)))


def series_multilinear_product(xs: np.ndarray, mats) -> np.ndarray:
    """The chained mode products X x_1 A_1 ... x_k A_k of every frame, A_m = mats[m-1]."""
    for m, a in enumerate(mats, start=1):
        xs = series_mode_product(xs, a, m)
    return xs


def write_series(path, xs: np.ndarray) -> None:
    """Write a tensor series in the plain-text format.

    Header line ``dims=p1,...,pr;T=<T>`` followed by T lines, each holding
    prod(p_m) values in the linear layout, at 17 significant digits.
    """
    xs = np.asarray(xs, dtype=float)
    dims = xs.shape[1:]
    flat = series_components(xs)
    with open(path, "w") as fh:
        fh.write(f"dims={','.join(str(d) for d in dims)};T={xs.shape[0]}\n")
        np.savetxt(fh, flat, fmt="%.17g")


def read_series(path) -> np.ndarray:
    """Read a tensor series written by :func:`write_series`; NaN or Inf is rejected."""
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            dims_part, t_part = header.split(";")
            dims = tuple(int(d) for d in dims_part.removeprefix("dims=").split(","))
            t = int(t_part.removeprefix("T="))
        except Exception as exc:
            raise ValueError(f"malformed series header: {header!r}") from exc
        if t < 1 or min(dims) < 1:
            raise ValueError(f"series header {header!r} needs T >= 1 and every dim >= 1")
        try:
            flat = np.loadtxt(fh, ndmin=2)
        except ValueError as exc:  # a body value that is not a number
            raise ValueError(f"{path}: {exc}") from exc
    if flat.shape != (t, int(np.prod(dims))):
        raise ValueError(
            f"series body shape {flat.shape} does not match header dims={dims}, T={t}"
        )
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: series body contains NaN or infinite values")
    return series_from_components(flat, dims)

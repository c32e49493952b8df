"""Whitening plus joint diagonalization: the ten unmixing estimators.

Vector methods: SOBI, gFOBI, gJADE and the lag-{0} special cases FOBI, JADE.
Tensor methods: TSOBI, TgFOBI, TgJADE and TFOBI, TJADE.

`unmix` is the one entry point; a vector method sees the vectorized
frames, a (T, p) series, which is the one-mode series whose mode
functionals (`moments`, with rho = 1) are the vector moments.  The fit
centers, standardizes every mode simultaneously (`whiten`), builds each
mode's matrix set from that standardized series with the method's entry
in `METHOD_NAMES` (vector gjade places its lags differently from tgjade),
diagonalizes each mode, and forms Gamma^m = U_m^T (Sigma_0^m)^{-1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import moments
from .linalg import RankDeficiencyError, joint_diagonalize
from .tensor import series_components, series_mode_product

__all__ = [
    "METHOD_NAMES",
    "UnmixingResult",
    "method_lags",
    "whiten",
    "unmix",
    "apply_unmixing",
]

DEFAULT_SOBI_LAGS = tuple(range(1, 13))
DEFAULT_G_LAGS = tuple(range(0, 13))

# The matrix, or (p, p, p, p) grid of matrices, that lag tau contributes on
# mode m of the standardized series; the lambdas look the functions up at
# call time, so a wrapper set on `moments` sees every call.
_SOBI = lambda ys, m, tau: moments.mode_autocov(ys, m, tau)  # noqa: E731
_GFOBI = lambda ys, m, tau: moments.mode_b_tau(ys, m, tau)  # noqa: E731
_GJADE = lambda ys, m, tau: moments.mode_c_grid(ys, m, tau)  # noqa: E731
_VECTOR_GJADE = lambda ys, m, tau: moments.c_tau_grid(ys, tau)  # noqa: E731

# method name -> (lag matrices, tensor path?, default lags)
METHOD_NAMES = {
    "sobi": (_SOBI, False, DEFAULT_SOBI_LAGS),
    "gfobi": (_GFOBI, False, DEFAULT_G_LAGS),
    "gjade": (_VECTOR_GJADE, False, DEFAULT_G_LAGS),
    "fobi": (_GFOBI, False, (0,)),
    "jade": (_VECTOR_GJADE, False, (0,)),
    "tsobi": (_SOBI, True, DEFAULT_SOBI_LAGS),
    "tgfobi": (_GFOBI, True, DEFAULT_G_LAGS),
    "tgjade": (_GJADE, True, DEFAULT_G_LAGS),
    "tfobi": (_GFOBI, True, (0,)),
    "tjade": (_GJADE, True, (0,)),
}


def method_lags(name: str, lags=None) -> tuple:
    """The sorted lag set that method `name` fits with: its default, or `lags`.

    Lags are non-negative integers (numpy integers too).  A method whose
    default set is {0} takes only {0}; one whose default has no 0 takes no 0.
    """
    if name not in METHOD_NAMES:
        raise ValueError(f"unknown method {name!r}; expected one of {sorted(METHOD_NAMES)}")
    default = METHOD_NAMES[name][2]
    if lags is None:
        return default
    if isinstance(lags, (str, bytes)) or not np.iterable(lags):
        raise ValueError(f"lag set must be a collection of integers, got {lags!r}")
    lags = tuple(lags)
    bad = [v for v in lags if not isinstance(v, (int, np.integer))]
    if bad:
        raise ValueError(f"lags must be integers, got {bad[0]!r}")
    lags = tuple(sorted({int(v) for v in lags}))
    if not lags or lags[0] < 0:
        raise ValueError("lag set must be a non-empty set of non-negative integers")
    if default == (0,) and lags != (0,):
        raise ValueError(f"{name} is defined by the lag set {{0}}")
    if default[0] > 0 and lags[0] == 0:
        raise ValueError(f"{name} uses lags >= 1")
    return lags


@dataclass
class UnmixingResult:
    """Per-mode unmixers and the recovered series for one fitted method."""

    mode_unmixers: list  # Gamma^m = U_m^T W_m, one per mode
    rotations: list  # U_m
    whiteners: list  # W_m = (Sigma_0^m)^{-1/2}
    mean: np.ndarray  # training temporal mean frame
    recovered: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def whiten(xs: np.ndarray):
    """Standardize a centered series from every mode simultaneously.

    Returns (whitened series, [W_m = (Sigma_0^m)^{-1/2}]).  Each W_m comes
    from the input series itself, not from its covariance: with A the
    (T rho_m, p_m) matrix of all m-mode vectors, R from the QR of A and
    R = U S V^T, W_m = V diag(sqrt(T rho_m) / s) V^T.  A mode is rank
    deficient when s_min <= max(T rho_m, p_m) eps s_max, the rule of
    `numpy.linalg.matrix_rank`.  A (T, p) series has one mode.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim < 2:
        raise ValueError("whitening expects a series of shape (T, p_1, ..., p_r)")
    whiteners = []
    for m in range(1, xs.ndim):
        a = np.moveaxis(xs, m, -1).reshape(-1, xs.shape[m])
        _, s, vt = np.linalg.svd(np.linalg.qr(a, mode="r"))
        s_min = s[-1] if s.size == a.shape[1] else 0.0  # fewer m-mode vectors than p_m
        if not s_min > max(a.shape) * np.finfo(float).eps * s[0]:
            ratio = s_min / s[0] if s[0] > 0 else 0.0
            raise RankDeficiencyError(
                f"mode {m}: series is numerically rank deficient: "
                f"min/max singular value ratio {ratio:.3e}")
        w = (vt.T * (np.sqrt(a.shape[0]) / s)) @ vt
        whiteners.append(0.5 * (w + w.T))
    ys = xs
    for m, w in enumerate(whiteners, start=1):
        ys = series_mode_product(ys, w, m)
    return ys, whiteners


def unmix(xs: np.ndarray, method: str, lags=None, tol: float = 1e-12) -> UnmixingResult:
    """Fit one of the ten methods by name over its lag set (`method_lags`).

    Centers, standardizes every mode (`whiten`), jointly diagonalizes each
    mode's lag matrices to tolerance `tol` and assembles Gamma^m = U_m^T W_m.
    Vector methods applied to tensor input operate on the vectorized frames.
    """
    lags = method_lags(method, lags)
    lag_matrices, tensor_path, _ = METHOD_NAMES[method]
    xs = np.asarray(xs, dtype=float)
    if xs.ndim < 2:
        raise ValueError("expected a series of shape (T, p_1, ..., p_r)")
    if not tensor_path:
        xs = series_components(xs)
    if xs.shape[0] <= lags[-1]:
        raise ValueError("series shorter than the largest lag")
    if not np.isfinite(xs).all():
        raise ValueError("series contains NaN or infinite values")
    mean = xs.mean(axis=0)
    ys, whiteners = whiten(xs - mean)
    rotations, gammas, diag_info = [], [], []
    recovered = ys
    for m, w in enumerate(whiteners, start=1):
        p = ys.shape[m]
        # one (K, p, p) set; a grid's matrices go in (i, j) order, j fastest
        mats = np.concatenate([np.reshape(lag_matrices(ys, m, tau), (-1, p, p)) for tau in lags])
        res = joint_diagonalize(mats, tol=tol)
        rotations.append(res.rotation)
        gammas.append(res.rotation.T @ w)
        diag_info.append({"objective": res.objective, "sweeps_used": res.sweeps_used,
                          "converged": res.converged})
        recovered = series_mode_product(recovered, res.rotation.T, m)
    return UnmixingResult(
        mode_unmixers=gammas,
        rotations=rotations,
        whiteners=whiteners,
        mean=mean,
        recovered=recovered,
        diagnostics={"joint_diag": diag_info},
    )


def apply_unmixing(xs: np.ndarray, result: UnmixingResult) -> np.ndarray:
    """Apply a fitted unmixing to a series of the same frame shape.

    A vector method's fit on tensor input takes the series' vectorized frames.
    """
    xs = np.asarray(xs, dtype=float)
    if result.mean.ndim == 1 and xs.ndim > 2 and np.prod(xs.shape[1:]) == result.mean.size:
        xs = series_components(xs)
    if xs.shape[1:] != result.mean.shape:
        raise ValueError(
            f"frame shape {xs.shape[1:]} does not match fitted shape {result.mean.shape}"
        )
    out = xs - result.mean
    for m, gamma in enumerate(result.mode_unmixers, start=1):
        out = series_mode_product(out, gamma, m)
    return out


"""Whitening plus joint diagonalization: the ten unmixing estimators.

Vector methods: SOBI, gFOBI, gJADE and the lag-{0} special cases FOBI, JADE.
Tensor methods: TSOBI, TgFOBI, TgJADE and TFOBI, TJADE.

`unmix` is the one entry point; a vector method sees the vectorized
frames, a (T, p) series, which is the one-mode series whose mode
functionals (`moments`, with rho = 1) are the vector moments.  The fit
centers, standardizes every mode simultaneously (`whiten`), builds each
mode's matrix set from that standardized series (`_LAG_MATRICES`, keyed
by family; vector gjade places its lags differently from tgjade and has
its own entry), diagonalizes each mode, and forms
Gamma^m = U_m^T (Sigma_0^m)^{-1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import moments
from .linalg import RankDeficiencyError, joint_diagonalize
from .tensor import series_components, series_mode_product

__all__ = [
    "METHOD_NAMES",
    "MethodConfig",
    "UnmixingResult",
    "method_config",
    "whiten",
    "unmix",
    "apply_unmixing",
]

DEFAULT_SOBI_LAGS = tuple(range(1, 13))
DEFAULT_G_LAGS = tuple(range(0, 13))

# method name -> (family, tensor path?, default lags)
METHOD_NAMES = {
    "sobi": ("sobi", False, DEFAULT_SOBI_LAGS),
    "gfobi": ("gfobi", False, DEFAULT_G_LAGS),
    "gjade": ("gjade", False, DEFAULT_G_LAGS),
    "fobi": ("gfobi", False, (0,)),
    "jade": ("gjade", False, (0,)),
    "tsobi": ("sobi", True, DEFAULT_SOBI_LAGS),
    "tgfobi": ("gfobi", True, DEFAULT_G_LAGS),
    "tgjade": ("gjade", True, DEFAULT_G_LAGS),
    "tfobi": ("gfobi", True, (0,)),
    "tjade": ("gjade", True, (0,)),
}


@dataclass
class MethodConfig:
    """Which moment family to diagonalize and over which lags."""

    family: str  # sobi | gfobi | gjade
    lags: tuple
    tol: float = 1e-12

    def __post_init__(self):
        if self.family not in ("sobi", "gfobi", "gjade"):
            raise ValueError(f"unknown method family {self.family!r}")
        lags = tuple(sorted(set(int(v) for v in self.lags)))
        if not lags or any(v < 0 for v in lags):
            raise ValueError("lag set must be a non-empty set of non-negative integers")
        if self.family == "sobi" and 0 in lags:
            raise ValueError("the sobi family uses lags >= 1")
        self.lags = lags


def method_config(name: str, lags=None, **kwargs) -> tuple[MethodConfig, bool]:
    """Resolve one of the ten method names to (config, uses tensor path)."""
    key = name.lower()
    if key not in METHOD_NAMES:
        raise ValueError(f"unknown method {name!r}; expected one of {sorted(METHOD_NAMES)}")
    family, tensor_path, default_lags = METHOD_NAMES[key]
    if lags is None:
        lags = default_lags
    elif key in ("fobi", "jade", "tfobi", "tjade") and tuple(lags) != (0,):
        raise ValueError(f"{name} is defined by the lag set {{0}}")
    return MethodConfig(family=family, lags=tuple(lags), **kwargs), tensor_path


@dataclass
class UnmixingResult:
    """Per-mode unmixers and the recovered series for one fitted method."""

    mode_unmixers: list  # Gamma^m = U_m^T W_m, one per mode
    rotations: list  # U_m
    whiteners: list  # W_m = (Sigma_0^m)^{-1/2}
    mean: np.ndarray  # training temporal mean frame
    recovered: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# family -> the matrix, or (p, p, p, p) grid of matrices, that lag tau
# contributes on mode m of the standardized series; the lambdas look the
# functions up at call time, so a wrapper set on `moments` sees every call
_LAG_MATRICES = {
    "sobi": lambda ys, m, tau: moments.mode_autocov(ys, m, tau, symmetrize=True),
    "gfobi": lambda ys, m, tau: moments.mode_b_tau(ys, m, tau),
    "gjade": lambda ys, m, tau: moments.mode_c_grid(ys, m, tau),
    "vector gjade": lambda ys, m, tau: moments.c_tau_grid(ys, tau),
}


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


def _fit(xs: np.ndarray, cfg: MethodConfig, lag_matrices) -> UnmixingResult:
    """The one fit: center, standardize, diagonalize each mode, assemble Gamma^m."""
    if xs.shape[0] <= max(cfg.lags):
        raise ValueError("series shorter than the largest lag")
    if not np.isfinite(xs).all():
        raise ValueError("series contains NaN or infinite values")
    mean = xs.mean(axis=0)
    ys, whiteners = whiten(xs - mean)
    rotations, gammas, diag_info = [], [], []
    recovered = ys
    for m, w in enumerate(whiteners, start=1):
        p = ys.shape[m]
        # a grid's matrices go in (i, j) order, j fastest
        mats = [a for tau in cfg.lags for a in np.reshape(lag_matrices(ys, m, tau), (-1, p, p))]
        res = joint_diagonalize(mats, tol=cfg.tol)
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


def unmix(xs: np.ndarray, method: str, lags=None, **kwargs) -> UnmixingResult:
    """Fit one of the ten methods by name.

    Vector methods applied to tensor input operate on the vectorized frames.
    """
    cfg, tensor_path = method_config(method, lags, **kwargs)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim < 2:
        raise ValueError("expected a series of shape (T, p_1, ..., p_r)")
    if not tensor_path:
        xs = series_components(xs)
    vector_gjade = (cfg.family, tensor_path) == ("gjade", False)
    return _fit(xs, cfg, _LAG_MATRICES["vector gjade" if vector_gjade else cfg.family])


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


"""Whitening plus joint diagonalization: the ten unmixing estimators.

Vector methods: SOBI, gFOBI, gJADE and the lag-{0} special cases FOBI, JADE.
Tensor methods: TSOBI, TgFOBI, TgJADE and TFOBI, TJADE.

`unmix` is the one entry point; a vector method sees the vectorized
frames, a (T, p) series, which is the one-mode series whose mode moment
sets (`moments`, with rho = 1) are the vector moments.  The fit centers,
standardizes every mode simultaneously (`whiten`), flattens each mode
once, builds that mode's matrix set with the `moments` builder its
`METHOD_NAMES` entry names (vector gjade, `c_grids`, places its lags
differently from tgjade's `mode_c_grids`), diagonalizes each mode, and
forms Gamma^m = U_m^T (Sigma_0^m)^{-1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import moments
from .linalg import RankDeficiencyError, joint_diagonalize
from .tensor import series_components, series_flatten, series_multilinear_product

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
STALL_GAIN = 1e-8  # relative objective gain per sweep below which a fit has stalled

# method name -> (the `moments` builder of a mode's (K, p, p) matrix set,
# tensor path?, default lags).  `unmix` looks the builder up on `moments` at
# call time, so a wrapper set on `moments` sees every call.
METHOD_NAMES = {
    "sobi": ("mode_autocov", False, DEFAULT_SOBI_LAGS),
    "gfobi": ("mode_b_tau", False, DEFAULT_G_LAGS),
    "gjade": ("c_grids", False, DEFAULT_G_LAGS),
    "fobi": ("mode_b_tau", False, (0,)),
    "jade": ("c_grids", False, (0,)),
    "tsobi": ("mode_autocov", True, DEFAULT_SOBI_LAGS),
    "tgfobi": ("mode_b_tau", True, DEFAULT_G_LAGS),
    "tgjade": ("mode_c_grids", True, DEFAULT_G_LAGS),
    "tfobi": ("mode_b_tau", True, (0,)),
    "tjade": ("mode_c_grids", True, (0,)),
}


def method_lags(name: str, lags=None) -> tuple:
    """The sorted lag set that method `name` fits with: its default, or `lags`.

    Lags are non-negative integers (numpy integers too, bools not).  A
    method whose default set is {0} takes only {0}; one whose default has
    no 0 takes no 0.
    """
    if name not in METHOD_NAMES:
        raise ValueError(f"unknown method {name!r}; expected one of {sorted(METHOD_NAMES)}")
    default = METHOD_NAMES[name][2]
    if lags is None:
        return default
    if isinstance(lags, (str, bytes)) or not np.iterable(lags):
        raise ValueError(f"lag set must be a collection of integers, got {lags!r}")
    lags = tuple(lags)
    bad = [v for v in lags if not isinstance(v, (int, np.integer)) or isinstance(v, bool)]
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
    rotations: list  # U_m, so the whitener is W_m = U_m Gamma^m
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
    return series_multilinear_product(xs, whiteners), whiteners


def unmix(xs: np.ndarray, method: str, lags=None) -> UnmixingResult:
    """Fit one of the ten methods by name over its lag set (`method_lags`).

    Centers, standardizes every mode (`whiten`), jointly diagonalizes each
    mode's lag matrices (`joint_diagonalize`) and assembles Gamma^m = U_m^T W_m.
    Vector methods applied to tensor input operate on the vectorized frames.
    `diagnostics["stage_s"]` holds the seconds spent in each stage (`whiten`,
    `moments`, `joint_diag`, `assemble`), summed over modes.  Per mode,
    `diagnostics["joint_diag"]` holds the diagonalizer's objective, sweeps,
    convergence flag, matrix counts and `stall_sweep`, the first sweep whose
    relative objective gain fell below `STALL_GAIN` (None when none did).
    """
    lags = method_lags(method, lags)
    builder, tensor_path, _ = METHOD_NAMES[method]
    xs = np.asarray(xs, dtype=float)
    if xs.ndim < 2:
        raise ValueError("expected a series of shape (T, p_1, ..., p_r)")
    if not tensor_path:
        xs = series_components(xs)
    if xs.shape[0] <= lags[-1]:
        raise ValueError(f"series shorter than the largest lag: "
                         f"T={xs.shape[0]}, largest lag {lags[-1]}")
    if not np.isfinite(xs).all():
        raise ValueError("series contains NaN or infinite values")
    stage_s = dict.fromkeys(("whiten", "moments", "joint_diag", "assemble"), 0.0)
    t0 = perf_counter()
    mean = xs.mean(axis=0)
    ys, whiteners = whiten(xs - mean)
    t1 = perf_counter()
    stage_s["whiten"] = t1 - t0
    rotations, gammas, diag_info = [], [], []
    for m, w in enumerate(whiteners, start=1):
        mats = getattr(moments, builder)(series_flatten(ys, m), lags)
        t2 = perf_counter()
        res = joint_diagonalize(mats)
        t3 = perf_counter()
        rotations.append(res.rotation)
        gammas.append(res.rotation.T @ w)
        diag_info.append({"objective": res.objective, "sweeps_used": res.sweeps_used,
                          "converged": res.converged, "matrices": len(mats),
                          "matrices_diagonalized": res.matrices_diagonalized,
                          "stall_sweep": _stall_sweep(res.objective_trace)})
        t4 = perf_counter()
        stage_s["moments"] += t2 - t1
        stage_s["joint_diag"] += t3 - t2
        stage_s["assemble"] += t4 - t3
        t1 = t4
    recovered = series_multilinear_product(ys, [u.T for u in rotations])
    stage_s["assemble"] += perf_counter() - t1
    return UnmixingResult(
        mode_unmixers=gammas,
        rotations=rotations,
        mean=mean,
        recovered=recovered,
        diagnostics={"joint_diag": diag_info, "stage_s": stage_s},
    )


def _stall_sweep(trace: list):
    # the first sweep s with trace[s] - trace[s - 1] < STALL_GAIN * trace[s - 1]
    return next((s for s in range(1, len(trace))
                 if trace[s] - trace[s - 1] < STALL_GAIN * trace[s - 1]), None)


def apply_unmixing(xs: np.ndarray, result: UnmixingResult) -> np.ndarray:
    """Apply a fitted unmixing to a series of the same frame shape.

    A vector method's fit on tensor input takes the series' vectorized frames.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError("xs: series contains NaN or infinite values")
    if result.mean.ndim == 1 and xs.ndim > 2 and np.prod(xs.shape[1:]) == result.mean.size:
        xs = series_components(xs)
    if xs.shape[1:] != result.mean.shape:
        raise ValueError(
            f"frame shape {xs.shape[1:]} does not match fitted shape {result.mean.shape}"
        )
    return series_multilinear_product(xs - result.mean, result.mode_unmixers)


"""Latent-series generators, mixing-matrix samplers and the two benchmark settings.

The ARMA setting and the SV (stochastic volatility / GARCH) setting each
define 12 mutually independent scalar component series that fill a
3 x 2 x 2 latent tensor cell-by-cell in the linear layout order (first
index fastest).  The setting names, mixing kinds and default shape live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .tensor import _is_int, series_from_components, series_multilinear_product

__all__ = [
    "ArmaSpec",
    "GarchSpec",
    "SvSpec",
    "gen_arma",
    "gen_garch",
    "gen_sv",
    "gen_latent_setting",
    "gen_mixing",
    "mix",
    "arma_setting_specs",
    "sv_setting_specs",
    "setting_specs",
    "SETTINGS",
    "MIXING_KINDS",
    "DEFAULT_DIMS",
]

BURN_IN = 1000
MAX_MIXING_COND = 1e6
MIXING_KINDS = ("gaussian", "haar")
DEFAULT_DIMS = (3, 2, 2)


@dataclass
class ArmaSpec:
    """ARMA(p, q) driven by standard normal innovations.

    Empty coefficient vectors give i.i.d. noise.  `random_ma_order = q`
    replaces `theta` with q MA coefficients drawn fresh from U(-1, 1) at
    generation time.  The AR part must be stationary: every root of
    z^p - phi_1 z^(p-1) - ... - phi_p lies inside the unit circle.
    """

    phi: tuple = ()
    theta: tuple = ()
    random_ma_order: int | None = None

    def __post_init__(self):
        modulus = np.abs(np.roots(np.r_[1.0, -np.asarray(self.phi, dtype=float)]))
        if modulus.size and not modulus.max() < 1:
            raise ValueError(f"ARMA stationarity requires every AR root inside the unit "
                             f"circle, but phi={tuple(self.phi)} has one of modulus "
                             f"{modulus.max():.6g}")


@dataclass
class GarchSpec:
    """GARCH(len(alpha), len(beta)); intercept set for unit unconditional variance."""

    alpha: tuple = ()
    beta: tuple = ()

    def __post_init__(self):
        if sum(self.alpha) + sum(self.beta) >= 1:
            raise ValueError("GARCH stationarity requires sum(alpha) + sum(beta) < 1")
        if any(c < 0 for c in (*self.alpha, *self.beta)):
            raise ValueError("GARCH coefficients must be non-negative")


@dataclass
class SvSpec:
    """Stochastic volatility with latent log-variance AR(1) and t innovations."""

    mu: float
    phi: float
    sigma: float
    nu: float = np.inf  # inf means Gaussian innovations

    def __post_init__(self):
        if not abs(self.phi) < 1:
            raise ValueError("latent AR parameter must satisfy |phi| < 1")
        if self.sigma <= 0:
            raise ValueError("latent volatility must be positive")
        if not (self.nu > 2 or np.isinf(self.nu)):
            raise ValueError("innovation degrees of freedom must exceed 2 (or be inf)")


def _draw_count(t: int) -> int:
    """The number of values a generator draws for a length-T series: T plus the burn-in."""
    if t < 1:
        raise ValueError("series length must be positive")
    return t + BURN_IN


def _standardize(path: np.ndarray, model: str, center: bool) -> np.ndarray:
    """Drop the burn-in, reject a non-finite path and scale it to unit variance."""
    x = path[BURN_IN:]
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{model} recursion diverged: the generated path is not finite")
    try:
        with np.errstate(over="raise"):
            if center:
                x = x - x.mean()
            sd = x.std()
    except FloatingPointError:
        raise ValueError(f"{model} path too large to standardize: its mean or "
                         f"variance overflows") from None
    if sd == 0:
        raise ValueError("degenerate (constant) generated series")
    return x / sd


def gen_arma(spec: ArmaSpec, t: int, rng: np.random.Generator) -> np.ndarray:
    """Generate a length-T ARMA series, burn-in discarded, zero mean unit variance."""
    n = _draw_count(t)
    theta = np.asarray(spec.theta, dtype=float)
    if spec.random_ma_order is not None:
        theta = rng.uniform(-1.0, 1.0, spec.random_ma_order)
    phi = np.asarray(spec.phi, dtype=float)
    x = lfilter(np.r_[1.0, theta], np.r_[1.0, -phi], rng.standard_normal(n))
    return _standardize(x, "ARMA", center=True)


def gen_garch(spec: GarchSpec, t: int, rng: np.random.Generator) -> np.ndarray:
    """Generate a GARCH series with unit unconditional variance, then rescale."""
    n = _draw_count(t)
    alpha = [float(a) for a in spec.alpha]
    beta = [float(b) for b in spec.beta]
    omega = float(1.0 - np.sum(alpha) - np.sum(beta))
    # squared values and variances, newest last; the pre-sample sits at the
    # unconditional variance
    y2 = [1.0] * len(alpha)
    s2 = [1.0] * len(beta)
    y = []
    for e in rng.standard_normal(n).tolist():
        var = omega
        for i, a in enumerate(alpha):
            var += a * y2[-1 - i]
        for i, b in enumerate(beta):
            var += b * s2[-1 - i]
        yk = math.sqrt(var) * e
        y.append(yk)
        y2.append(yk * yk)
        s2.append(var)
    return _standardize(np.array(y), "GARCH", center=False)


def gen_sv(spec: SvSpec, t: int, rng: np.random.Generator) -> np.ndarray:
    """Generate a stochastic volatility series, burn-in discarded, unit variance."""
    n = _draw_count(t)
    eta = rng.standard_normal(n)
    h0 = spec.mu + spec.sigma / np.sqrt(1.0 - spec.phi ** 2) * rng.standard_normal()
    # h_t - mu follows AR(1) with coefficient phi and innovations sigma*eta
    dev = lfilter([1.0], [1.0, -spec.phi], spec.sigma * eta,
                  zi=[spec.phi * (h0 - spec.mu)])[0]
    if np.isinf(spec.nu):
        innov = rng.standard_normal(n)
    else:
        # standardized t innovations: unit variance for nu > 2
        innov = rng.standard_t(spec.nu, n) * np.sqrt((spec.nu - 2.0) / spec.nu)
    return _standardize(np.exp(0.5 * (spec.mu + dev)) * innov, "SV", center=False)


def arma_setting_specs() -> list:
    """The 12 ARMA-setting component models, in cell order."""
    return [
        ArmaSpec(phi=(0.9,)),
        ArmaSpec(phi=(-0.9,)),
        ArmaSpec(theta=(0.5, -0.5)),
        ArmaSpec(phi=(-0.5, -0.3)),
        ArmaSpec(phi=(0.5, -0.3, 0.1, -0.1), theta=(0.7, -0.3)),
        ArmaSpec(phi=(-0.7, 0.1), theta=(0.9, 0.3, 0.1, -0.1)),
        ArmaSpec(random_ma_order=5),
        ArmaSpec(random_ma_order=10),
        ArmaSpec(random_ma_order=20),
        ArmaSpec(random_ma_order=30),
        ArmaSpec(random_ma_order=40),
        ArmaSpec(random_ma_order=50),
    ]


def sv_setting_specs() -> list:
    """The 12 SV-setting component models (6 SV, 6 GARCH), in cell order."""
    return [
        SvSpec(-10.0, 0.98, 0.2, np.inf),
        SvSpec(-5.0, -0.98, 0.2, 10.0),
        SvSpec(-10.0, 0.7, 0.7, np.inf),
        SvSpec(-5.0, -0.70, 0.7, 10.0),
        SvSpec(-9.0, 0.20, 0.01, np.inf),
        SvSpec(-9.0, -0.20, 0.01, 10.0),
        GarchSpec(alpha=(0.7,)),
        GarchSpec(alpha=(0.2,), beta=(0.2,)),
        GarchSpec(alpha=(0.1,), beta=(0.8,)),
        GarchSpec(alpha=(0.20, 0.10, 0.05, 0.01)),
        GarchSpec(alpha=(0.05, 0.03, 0.01), beta=(0.5,)),
        GarchSpec(alpha=(0.20, 0.14, 0.12, 0.10, 0.05, 0.05, 0.04, 0.03, 0.02, 0.01)),
    ]


SETTINGS = {"arma": arma_setting_specs, "sv": sv_setting_specs}

# spec type -> its generator's name, looked up at call time so a wrapper sees every call
_GENERATORS = {ArmaSpec: "gen_arma", GarchSpec: "gen_garch", SvSpec: "gen_sv"}


def _frame_dims(dims) -> tuple:
    """`dims` as a tuple of ints, checked to be integers (numpy's too, bools not) >= 1."""
    dims = tuple(dims)
    if not all(_is_int(d) for d in dims):
        raise ValueError(f"dims {dims}: every size must be an integer")
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"dims {dims}: every size must be >= 1")
    return dims


def setting_specs(setting: str, dims=DEFAULT_DIMS) -> list:
    """The component models of a known `setting`, checked to fill `dims` one per cell."""
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; expected one of {sorted(SETTINGS)}")
    dims = _frame_dims(dims)
    specs = SETTINGS[setting]()
    if int(np.prod(dims)) != len(specs):
        raise ValueError(f"dims {dims} hold {int(np.prod(dims))} cells, "
                         f"setting defines {len(specs)} component models")
    return specs


def gen_latent_setting(setting: str, t: int, rng: np.random.Generator,
                       dims=DEFAULT_DIMS) -> np.ndarray:
    """Generate the latent tensor series for one of the benchmark settings.

    The component models fill the tensor cells in linear-layout order
    (first index fastest); returns shape (T, *dims).
    """
    specs = setting_specs(setting, dims)
    comps = np.column_stack([globals()[_GENERATORS[type(s)]](s, t, rng) for s in specs])
    return series_from_components(comps, dims)


def gen_mixing(dims, kind: str, rng: np.random.Generator) -> list:
    """Sample one square mixing matrix per mode.

    kind 'gaussian': i.i.d. standard normal entries, resampled while the
    condition number exceeds 1e6.  kind 'haar': Haar-uniform orthogonal
    matrices via QR with the R-diagonal sign correction.
    """
    if kind not in MIXING_KINDS:
        raise ValueError(f"unknown mixing kind {kind!r}; "
                         f"expected {' or '.join(map(repr, MIXING_KINDS))}")
    mats = []
    for p in _frame_dims(dims):
        if kind == "gaussian":
            a = rng.standard_normal((p, p))
            while np.linalg.cond(a) > MAX_MIXING_COND:
                a = rng.standard_normal((p, p))
        else:
            q, r = np.linalg.qr(rng.standard_normal((p, p)))
            signs = np.sign(np.diag(r))
            signs[signs == 0] = 1.0
            a = q * signs
        mats.append(a)
    return mats


def mix(zs: np.ndarray, mats) -> np.ndarray:
    """Apply the chained mode products Z x_1 A_1 ... x_r A_r frame-wise."""
    if len(mats) != np.ndim(zs) - 1:
        raise ValueError(f"got {len(mats)} mixing matrices for order-{np.ndim(zs) - 1} series")
    return series_multilinear_product(zs, mats)

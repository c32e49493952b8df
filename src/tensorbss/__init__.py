"""Blind source separation for tensor-valued time series.

Implements TSOBI, TgFOBI and TgJADE together with their vector
counterparts (SOBI, gFOBI, gJADE) and the lag-{0} i.i.d. special cases
(FOBI, JADE, TFOBI, TJADE), plus the simulation settings and minimum
distance index used to benchmark them.
"""

__version__ = "0.1.0"

from .bss import (  # noqa: F401
    METHOD_NAMES,
    UnmixingResult,
    apply_unmixing,
    method_lags,
    unmix,
    whiten,
)
from .linalg import (  # noqa: F401
    JointDiagResult,
    RankDeficiencyError,
    joint_diagonalize,
)
from .metrics import (  # noqa: F401
    MdiValue,
    kron_unmixing,
    kurtosis_rank,
    max_abs_correlations,
    mdi,
    mode_mdi,
)
from .simgen import gen_latent_setting, gen_mixing, mix  # noqa: F401
from .tensor import (  # noqa: F401
    m_flatten,
    m_unflatten,
    mode_product,
    read_series,
    unvectorize,
    vectorize,
    write_series,
)

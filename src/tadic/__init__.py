"""T-adic L-functions of Z_p-towers over the affine line and the torus.

Two independent computations of the same L-series: a Dwork operator
trace formula (splitting function, nuclear matrices, Fredholm
determinants) and a point-enumeration oracle; plus Newton polygon and
slope-structure analysis of the resulting characteristic series.
"""

from .errors import (
    BudgetError,
    CertificateError,
    PrecisionError,
    TadicError,
    UsageError,
)
from .pipeline import (
    run_compare,
    run_selfcheck,
    run_slopes,
    run_trace_formula,
)
from .pointcount import oracle_lfun
from .profile import PrecisionProfile
from .series import pi_from_T
from .splitting import TowerInput, build_Ef
from .xseries import Geometry

__all__ = [
    "BudgetError",
    "CertificateError",
    "Geometry",
    "PrecisionError",
    "PrecisionProfile",
    "TadicError",
    "TowerInput",
    "UsageError",
    "build_Ef",
    "oracle_lfun",
    "pi_from_T",
    "run_compare",
    "run_selfcheck",
    "run_slopes",
    "run_trace_formula",
]

__version__ = "0.1.0"

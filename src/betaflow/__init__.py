"""Completely integrable gradient flow on the three-parameter bivariate
beta manifold: exact and elementary closed-form metrics, the flow and its
dual-space linearization, conserved quantities with canonical structure, a
Lax pair, and degeneracy analysis of the closed-form metric.
"""

from .errors import (
    BetaflowError,
    DegenerateEtaError,
    DomainError,
    EmptyTrajectoryError,
    NegativeRatioError,
    NoConvergenceError,
    SingularMatrixError,
    StepFailureError,
    UnknownSuiteError,
)
from .exact import EXACT_MODEL, ExactModel
from .flow import DET_GUARD, Trajectory, eta_closed, integrate, invert_eta, rhs
from .integrability import (
    POISSON4,
    CanonicalState,
    LaxPair,
    hamilton_rhs,
    hamiltonian,
    lax_pair,
    lax_residual,
    poisson_bracket,
    to_canonical,
)
from .manifold import DomainClass, DomainLabel, Metric3, as_point, det3, invert3
from .scan import FlaggedCell, Region, scan_degeneracy
from .specfun import digamma, log_gamma, trigamma
from .stirling import STIRLING_MODEL, StirlingModel
from .suites import SUITE_NAMES, CheckRecord, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BetaflowError",
    "CanonicalState",
    "CheckRecord",
    "DET_GUARD",
    "DegenerateEtaError",
    "DomainClass",
    "DomainError",
    "DomainLabel",
    "EXACT_MODEL",
    "EmptyTrajectoryError",
    "ExactModel",
    "FlaggedCell",
    "LaxPair",
    "Metric3",
    "NegativeRatioError",
    "NoConvergenceError",
    "POISSON4",
    "Region",
    "STIRLING_MODEL",
    "SUITE_NAMES",
    "SingularMatrixError",
    "StepFailureError",
    "StirlingModel",
    "SuiteReport",
    "Trajectory",
    "UnknownSuiteError",
    "as_point",
    "det3",
    "digamma",
    "eta_closed",
    "hamilton_rhs",
    "hamiltonian",
    "integrate",
    "invert3",
    "invert_eta",
    "lax_pair",
    "lax_residual",
    "log_gamma",
    "poisson_bracket",
    "rhs",
    "run_suite",
    "scan_degeneracy",
    "to_canonical",
    "trigamma",
    "__version__",
]

"""Otsuki tori: minimal SO(2)-invariant tori in the 3-sphere.

Construction from the rational rotation label, the induced Laplace-Beltrami
spectra via a family of periodic Sturm-Liouville problems, and numerical
verification that the metric is extremal for the eigenvalue functional at
index 2p - 1.

The spectral names are resolved on first access, so ``import otsuki`` and
the geometry alone do not load scipy.
"""

from .geometry import (
    AmbientPoint,
    ClosureFailure,
    DomainError,
    GeodesicProfile,
    OrbitMetric,
    OtsukiTorus,
    OutOfRange,
    RotationNumber,
    arc_length_quarter,
    build_torus,
    clifford_torus,
    embed,
    induced_metric_at,
    omega,
    period,
    solve_turning_value,
    trace_geodesic,
)
from .numerics import (
    InvalidInterval,
    MaxItersExceeded,
    NoBracket,
    NonConvergence,
    find_root_monotone,
    integrate_singular,
)

_SPECTRAL = (
    "AmbiguousCount",
    "GridTooCoarse",
    "SLProblem",
    "SLSpectrum",
    "SolverFailure",
    "VerificationReport",
    "assemble",
    "count_below",
    "eigen_low",
    "known_eigenfunction_residuals",
    "lambda0_monotone_check",
)

__all__ = [
    "AmbientPoint", "ClosureFailure", "DomainError", "GeodesicProfile",
    "OrbitMetric", "OtsukiTorus", "OutOfRange", "RotationNumber",
    "arc_length_quarter", "build_torus", "clifford_torus", "embed",
    "induced_metric_at", "omega", "period", "solve_turning_value",
    "trace_geodesic",
    "InvalidInterval", "MaxItersExceeded", "NoBracket", "NonConvergence",
    "find_root_monotone", "integrate_singular",
    *_SPECTRAL,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """The spectral exports, imported (with scipy) on first access."""
    if name in _SPECTRAL:
        from . import spectral
        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

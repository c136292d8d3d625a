"""Construction of Otsuki tori from their rational rotation label.

An Otsuki torus is the preimage in the 3-sphere of a closed geodesic of the
reduced orbit-space metric

    4 pi^2 sin(phi)^2 (dphi^2 + cos(phi)^2 dtheta^2)

on the open half-sphere 0 < phi <= pi/2.  A geodesic that turns at
``phi = a`` advances in theta by ``omega(a)`` between a minimum and the next
maximum of phi, and closes exactly when that advance is a rational multiple
``(p/q) pi``.  This module solves the closure condition, traces the closed
geodesic, and packages the derived quantities: the period ``t0`` (the
geodesic length), the torus area (equal to ``t0``), the spectral functional
value ``2 t0``, and an embedding sampler into the unit sphere in R^4.

One period of the closed geodesic consists of ``2q`` congruent arcs between
``phi = a`` and ``phi = pi/2 - a``, each the time reflection of the one
before it.  Only the first arc is integrated; the period is assembled from
it by symmetry, and the samples are interpolated by a piecewise-quintic
Hermite polynomial whose Bernstein coefficients are written in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import gcd, pi
from typing import Optional

import numpy as np
from scipy.interpolate import BPoly

from .numerics import (
    NoBracket,
    OdeSpec,
    QuadratureSpec,
    RootSpec,
    find_root_monotone,
    integrate_ode,
    integrate_singular,
)

__all__ = [
    "DomainError", "ClosureFailure", "OutOfRange",
    "RotationNumber", "OrbitMetric", "GeodesicProfile", "OtsukiTorus",
    "AmbientPoint", "CLIFFORD_TURNING_VALUE",
    "clairaut_momentum", "turning_layer_scale", "omega",
    "solve_turning_value", "arc_length_quarter", "period", "trace_geodesic",
    "build_torus", "clifford_torus", "embed", "embedding_grid",
    "induced_metric_at", "default_sample_count",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class ClosureFailure(RuntimeError):
    """Traced geodesic failed to close within tolerance; inputs inconsistent."""


class OutOfRange(ValueError):
    """Surface coordinates outside the fundamental domain."""


#: Turning value of the exceptional constant-phi solution (a Clifford torus).
CLIFFORD_TURNING_VALUE = pi / 4

# Geodesics turning closer to pi/4 than this are rejected: the closure
# condition becomes numerically degenerate as the two turning circles merge.
_NEAR_CLIFFORD_GAP = 1e-6


class OrbitMetric:
    """Coefficients of the reduced metric E(phi) dphi^2 + G(phi) dtheta^2."""

    @staticmethod
    def E(phi):
        return 4.0 * pi ** 2 * np.sin(phi) ** 2

    @staticmethod
    def G(phi):
        return 4.0 * pi ** 2 * np.sin(phi) ** 2 * np.cos(phi) ** 2

    @staticmethod
    def E_prime(phi):
        return 4.0 * pi ** 2 * np.sin(2.0 * phi)

    @staticmethod
    def G_prime(phi):
        return 2.0 * pi ** 2 * np.sin(4.0 * phi)


def clairaut_momentum(a: float) -> float:
    """Conserved angular momentum G(phi) dtheta/dt of a geodesic turning at phi = a."""
    return 2.0 * pi * math.sin(a) * math.cos(a)


def turning_layer_scale(a: float) -> float:
    """Arc-length width of the layer in which the geodesic turns at phi = a.

    Near a turning point phi(t) = a + phidd t^2 / 2; the layer width is the
    time for phi to change by order a.  It shrinks like a^2 for small a, so
    thin tori need proportionally denser sampling and spectral grids.
    """
    if abs(a - CLIFFORD_TURNING_VALUE) <= 1e-12:
        return math.inf  # constant solution, no turning layer
    phidd = (math.sin(4.0 * a) / (4.0 * math.sin(a) ** 2)
             / (pi ** 2 * math.sin(2.0 * a) ** 2))
    return math.sqrt(2.0 * a / phidd)


@dataclass(frozen=True)
class RotationNumber:
    """Rational label p/q of an Otsuki torus, with 1/2 < p/q < sqrt(2)/2.

    The window checks are exact integer comparisons, so boundary rationals
    are rejected without floating-point ambiguity.
    """

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise ValueError("p and q must be integers")
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be positive")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not in lowest terms")
        if not self.q < 2 * self.p:
            raise ValueError(f"{self.p}/{self.q} <= 1/2: no torus with this label")
        if not 2 * self.p * self.p < self.q * self.q:
            raise ValueError(f"{self.p}/{self.q} >= sqrt(2)/2: no torus with this label")

    @property
    def value(self) -> float:
        return self.p / self.q

    @property
    def closure_angle(self) -> float:
        """Required theta-advance per min-to-max arc, (p/q) pi."""
        return pi * self.p / self.q


@dataclass
class GeodesicProfile:
    """One period of the closed geodesic, sampled uniformly in arc length.

    Arrays hold ``n_samples + 1`` rows; the last row is the period closure
    at ``t = t0``.  Continuous queries go through a piecewise-quintic
    Hermite interpolant built from the sampled values together with the
    first and second derivatives supplied by the geodesic equations, which
    keeps interpolation error far below the integrator tolerance even
    inside the thin turning layers of small-``a`` tori.  Its Bernstein
    coefficients are computed in closed form (:func:`_quintic_hermite`).

    The period is assembled from one traced arc of length
    ``L = t0 / arcs_per_period`` (see :func:`trace_geodesic`), so the
    closure errors are measured at the arc end, where the copies join:
    ``closure_phi_error`` is ``max(|phi(L) - (pi/2 - a)|, |dphi/dt(L)|)``
    and ``closure_theta_error`` is ``|theta(t0) - 2 pi p|`` with
    ``theta(t0) = arcs_per_period * theta(L)``.
    """

    rotation: Optional[RotationNumber]
    a: float
    c: float
    t0: float
    t: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    phi_dot: np.ndarray
    theta_dot: np.ndarray
    arcs_per_period: int
    speed_error: float
    momentum_error: float
    closure_phi_error: float
    closure_theta_error: float
    _phi_ip: BPoly = field(init=False, repr=False)
    _theta_ip: BPoly = field(init=False, repr=False)

    def __post_init__(self):
        phi_dd, theta_dd = _geodesic_accelerations(self.phi, self.phi_dot, self.theta_dot)
        self._phi_ip = _quintic_hermite(self.t, self.phi, self.phi_dot, phi_dd)
        self._theta_ip = _quintic_hermite(self.t, self.theta, self.theta_dot, theta_dd)

    @property
    def n_samples(self) -> int:
        return self.t.size - 1

    @property
    def theta_winding(self) -> int:
        """Full turns of theta per period (p for a torus, 1 for the Clifford circle)."""
        return self.rotation.p if self.rotation is not None else 1

    def phi_at(self, t):
        """phi along the geodesic, periodically extended."""
        return self._phi_ip(np.mod(t, self.t0))

    def theta_at(self, t):
        """theta along the geodesic; increases by 2 pi p every period."""
        t = np.asarray(t, dtype=float)
        wraps = np.floor_divide(t, self.t0)
        val = self._theta_ip(t - wraps * self.t0) + 2.0 * pi * self.theta_winding * wraps
        return val if val.ndim else float(val)


@dataclass
class OtsukiTorus:
    """A built torus: geodesic profile plus the derived spectral quantities."""

    profile: GeodesicProfile
    area: float
    lambda_value: float
    eigenvalue_index: int

    @property
    def rotation(self) -> Optional[RotationNumber]:
        return self.profile.rotation

    @property
    def t0(self) -> float:
        return self.profile.t0


@dataclass(frozen=True)
class AmbientPoint:
    """Point on the unit sphere in R^4."""

    x: float
    y: float
    z: float
    t: float

    def __post_init__(self):
        norm_sq = self.x ** 2 + self.y ** 2 + self.z ** 2 + self.t ** 2
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"not on the unit sphere: |v|^2 - 1 = {norm_sq - 1.0:.3e}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.t])


# --------------------------------------------------------------------------
# the closure condition
# --------------------------------------------------------------------------

def omega(a: float, quad_spec: QuadratureSpec | None = None) -> float:
    """Theta-advance between a minimum phi = a and the next maximum pi/2 - a.

    Evaluates the turning-angle integral

        integral_a^{pi/2-a}  sin(2a) dphi /
            (cos(phi) sqrt(sin(2(phi - a)) sin(2(pi/2 - a - phi))))

    whose integrand diverges like an inverse square root at both limits; the
    product form under the root isolates each singular factor as a function
    of the distance to its endpoint, which the quadrature supplies in full
    precision.  Strictly increasing in ``a``, with range (pi/2, sqrt(2) pi/2].
    For ``a = pi/4`` (empty interval) the exact limit sqrt(2) pi / 2 is
    returned.
    """
    if not 0.0 < a <= CLIFFORD_TURNING_VALUE + 1e-12:
        raise DomainError(f"turning value must lie in (0, pi/4], got {a!r}")
    if a >= CLIFFORD_TURNING_VALUE - 1e-12:
        return math.sqrt(2.0) * pi / 2.0
    sin_2a = math.sin(2.0 * a)

    def integrand(phi, d_lo, d_hi):
        return sin_2a / (np.cos(phi) * np.sqrt(np.sin(2.0 * d_lo) * np.sin(2.0 * d_hi)))

    return integrate_singular(integrand, a, pi / 2.0 - a,
                              quad_spec or QuadratureSpec())


def arc_length_quarter(a: float, quad_spec: QuadratureSpec | None = None) -> float:
    """Length of one monotone arc of phi from a to pi/2 - a.

    Integrates dt/dphi = sqrt(E G / (G - c^2)) with c the Clairaut momentum
    of the turning value; the same inverse-square-root endpoint behaviour as
    :func:`omega`.  One full period of the closed geodesic consists of 2q
    such arcs.
    """
    if not 0.0 < a < CLIFFORD_TURNING_VALUE:
        raise DomainError(f"turning value must lie in (0, pi/4), got {a!r}")

    def integrand(phi, d_lo, d_hi):
        return (2.0 * pi * np.sin(phi) * np.sin(2.0 * phi)
                / np.sqrt(np.sin(2.0 * d_lo) * np.sin(2.0 * d_hi)))

    return integrate_singular(integrand, a, pi / 2.0 - a,
                              quad_spec or QuadratureSpec())


def period(a: float, q: int, quad_spec: QuadratureSpec | None = None) -> float:
    """Geodesic period t0 = 2 q L(a) from the quadrature arc length."""
    if q < 1:
        raise DomainError("q must be a positive integer")
    return 2.0 * q * arc_length_quarter(a, quad_spec)


def solve_turning_value(rotation: RotationNumber,
                        root_spec: RootSpec | None = None,
                        quad_spec: QuadratureSpec | None = None) -> float:
    """Unique turning value a with omega(a) = (p/q) pi.

    Existence and uniqueness follow from strict monotonicity of omega and
    the window constraint on the rotation number.  The initial bracket is
    [a_lo, pi/4] where a_lo starts at 0.01 and halves until omega(a_lo)
    undershoots the target; omega(pi/4) always overshoots it strictly.
    """
    target = rotation.closure_angle
    lo = 0.01
    for _ in range(200):
        if omega(lo, quad_spec) < target:
            break
        lo *= 0.5
    else:  # pragma: no cover - unreachable for a valid rotation number
        raise NoBracket("could not undershoot the closure angle near a = 0")
    root = find_root_monotone(lambda x: omega(x, quad_spec) - target,
                              lo, CLIFFORD_TURNING_VALUE,
                              root_spec or RootSpec())
    if root > CLIFFORD_TURNING_VALUE - _NEAR_CLIFFORD_GAP:
        raise DomainError(
            f"turning value {root!r} is within {_NEAR_CLIFFORD_GAP} of pi/4: "
            "the closure condition is numerically degenerate this close to "
            "the constant solution")
    return root


# --------------------------------------------------------------------------
# tracing the geodesic
# --------------------------------------------------------------------------

def _geodesic_accelerations(phi, phi_dot, theta_dot):
    """Second derivatives of (phi, theta) from the geodesic equations."""
    s = np.sin(phi)
    phi_dd = (-(np.cos(phi) / s) * phi_dot ** 2
              + (np.sin(4.0 * phi) / (4.0 * s * s)) * theta_dot ** 2)
    theta_dd = -4.0 * (np.cos(2.0 * phi) / np.sin(2.0 * phi)) * phi_dot * theta_dot
    return phi_dd, theta_dd


def _quintic_hermite(t, f, df, ddf) -> BPoly:
    """Piecewise quintic matching f, f' and f'' at every knot of ``t``.

    On a knot interval of width h the Bernstein coefficients follow from the
    end derivatives of the Bernstein basis: c0 = f0, c1 = f0 + h f0'/5,
    c2 = f0 + 2h f0'/5 + h^2 f0''/20, and the mirror images at the right end.
    """
    h = np.diff(t)
    h2 = h * h / 20.0
    d0 = h * df[:-1] / 5.0
    d1 = h * df[1:] / 5.0
    f0, f1 = f[:-1], f[1:]
    c = np.stack([f0, f0 + d0, f0 + 2.0 * d0 + h2 * ddf[:-1],
                  f1 - 2.0 * d1 + h2 * ddf[1:], f1 - d1, f1])
    return BPoly(c, t)


def _geodesic_rhs(t, y):
    phi, phi_dot, _theta, theta_dot = y
    phi_dd, theta_dd = _geodesic_accelerations(phi, phi_dot, theta_dot)
    return (phi_dot, phi_dd, theta_dot, theta_dd)


def default_sample_count(a: float, q: int, t0: float) -> int:
    """Sampling density that resolves both the oscillation and the turning layer.

    At least 512 samples per arc pair and 8 samples per turning-layer width;
    the latter is what keeps the spectral coefficients of thin tori accurate.
    """
    base = max(4096, 512 * q)
    layer = turning_layer_scale(a)
    if math.isfinite(layer):
        base = max(base, int(math.ceil(8.0 * t0 / layer)))
    return base


def trace_geodesic(a: float, rotation: Optional[RotationNumber],
                   n_samples: int | None = None,
                   ode_spec: OdeSpec | None = None,
                   quad_spec: QuadratureSpec | None = None) -> GeodesicProfile:
    """Trace the closed geodesic turning at phi = a over one full period.

    The second-order geodesic system is integrated (it is regular at the
    turning points, unlike the first-order quadrature form) over a single
    arc from the minimum phi = a.  The arc end ``L`` is located as the time
    at which theta completes its ``(p/q) pi`` advance, and the period is
    ``t0 = 2 q L``.  The other ``2q - 1`` arcs are copies of the first: on
    arc ``k`` (``k = 0 .. 2q - 1``) even arcs run forward from
    ``u = t - k L`` and odd arcs backward from ``u = (k + 1) L - t``, with
    dphi/dt negated and theta shifted by whole arc advances.  The uniform
    arc-length samples are filled from the one arc this way.

    The conserved speed and Clairaut momentum are validated on the samples;
    closure is measured at the joins, where phi must reach its maximum
    ``pi/2 - a`` with dphi/dt = 0, and in theta (see
    :class:`GeodesicProfile`).

    ``a = pi/4`` is accepted with ``rotation=None`` and yields the constant
    solution, a Clifford circle of length 2 pi^2 that closes after a single
    theta revolution; it takes the same path as a two-arc period.

    Raises
    ------
    ClosureFailure
        If the traced geodesic misses closure by more than 1e-6 in phi or
        theta, which signals a turning value inconsistent with the rotation
        number or too-loose tolerances.
    """
    clifford = abs(a - CLIFFORD_TURNING_VALUE) <= 1e-12
    if clifford:
        if rotation is not None:
            raise DomainError("the constant solution a = pi/4 carries no rotation label")
        p_eff, q_eff = 1, 1
        t0_estimate = 2.0 * pi ** 2
    else:
        if rotation is None:
            raise DomainError("a rotation number is required for a < pi/4")
        if not 0.0 < a < CLIFFORD_TURNING_VALUE - _NEAR_CLIFFORD_GAP:
            raise DomainError(
                f"turning value {a!r} outside (0, pi/4 - {_NEAR_CLIFFORD_GAP})")
        p_eff, q_eff = rotation.p, rotation.q
        t0_estimate = period(a, q_eff, quad_spec)

    if n_samples is None:
        n_samples = default_sample_count(a, q_eff, t0_estimate)
    if n_samples < 16 * q_eff:
        raise DomainError(f"n_samples must be at least 16 q = {16 * q_eff}")

    c = clairaut_momentum(a)
    y0 = (a, 0.0, 0.0, c / OrbitMetric.G(a))
    arcs = 2 * q_eff
    L_estimate = t0_estimate / arcs
    arc = integrate_ode(_geodesic_rhs, y0, (0.0, 1.02 * L_estimate),
                        ode_spec or OdeSpec())
    theta_target = 2.0 * pi * p_eff
    try:
        L = find_root_monotone(lambda t: float(arc(t)[2]) - theta_target / arcs,
                               0.98 * L_estimate, 1.02 * L_estimate,
                               RootSpec(abs_tol_x=1e-12))
    except NoBracket as exc:
        raise ClosureFailure(
            "theta did not complete its arc advance within 2% of the "
            f"quadrature arc length ({exc})") from exc
    t0 = arcs * L
    phi_L, phi_dot_L, theta_L, _ = arc(L)

    ts = np.linspace(0.0, t0, n_samples + 1)
    k = np.minimum(np.floor(ts / L), arcs - 1)
    odd = k % 2 == 1
    phi, phi_dot, theta_u, theta_dot = arc(np.where(odd, (k + 1) * L - ts, ts - k * L))
    phi_dot = np.where(odd, -phi_dot, phi_dot)
    theta = np.where(odd, (k + 1) * theta_L - theta_u, k * theta_L + theta_u)

    E = OrbitMetric.E(phi)
    G = OrbitMetric.G(phi)
    speed_error = float(np.max(np.abs(E * phi_dot ** 2 + G * theta_dot ** 2 - 1.0)))
    momentum_error = float(np.max(np.abs(G * theta_dot - c)))
    closure_phi = max(abs(float(phi_L) - (pi / 2.0 - a)), abs(float(phi_dot_L)))
    closure_theta = abs(float(theta[-1]) - theta_target)
    if closure_phi > 1e-6 or closure_theta > 1e-6:
        raise ClosureFailure(
            f"geodesic failed to close: |phi(L) - (pi/2 - a)| or |phi'(L)| = "
            f"{closure_phi:.3e}, |theta(t0) - 2 pi p| = {closure_theta:.3e}")

    return GeodesicProfile(
        rotation=rotation, a=a, c=c, t0=t0,
        t=ts, phi=phi, theta=theta, phi_dot=phi_dot, theta_dot=theta_dot,
        arcs_per_period=arcs,
        speed_error=speed_error, momentum_error=momentum_error,
        closure_phi_error=closure_phi, closure_theta_error=closure_theta)


def build_torus(rotation: RotationNumber,
                n_samples: int | None = None,
                quad_spec: QuadratureSpec | None = None,
                root_spec: RootSpec | None = None,
                ode_spec: OdeSpec | None = None) -> OtsukiTorus:
    """Construct the Otsuki torus labeled by ``rotation``.

    Solves the closure condition for the turning value, traces the closed
    geodesic, and cross-checks the ODE-measured period against the
    quadrature arc length to 1e-6 relative before deriving the area and the
    functional value ``2 t0`` attached to eigenvalue index ``2p - 1``.
    """
    a = solve_turning_value(rotation, root_spec, quad_spec)
    profile = trace_geodesic(a, rotation, n_samples, ode_spec, quad_spec)
    t0_quadrature = period(a, rotation.q, quad_spec)
    drift = abs(profile.t0 - t0_quadrature) / t0_quadrature
    if drift > 1e-6:
        raise ClosureFailure(
            f"period mismatch: quadrature {t0_quadrature!r} vs traced "
            f"{profile.t0!r} ({drift:.3e} relative)")
    return OtsukiTorus(profile=profile, area=profile.t0,
                       lambda_value=2.0 * profile.t0,
                       eigenvalue_index=2 * rotation.p - 1)


def clifford_torus(n_samples: int = 4096,
                   ode_spec: OdeSpec | None = None) -> OtsukiTorus:
    """The constant-phi = pi/4 solution, as a closed-form test fixture.

    Every derived quantity is known exactly: t0 = 2 pi^2, area 2 pi^2,
    functional value 4 pi^2, and constant spectral coefficients.  The
    spectral anchor sits at eigenvalue index 1.
    """
    profile = trace_geodesic(CLIFFORD_TURNING_VALUE, None, n_samples, ode_spec)
    return OtsukiTorus(profile=profile, area=profile.t0,
                       lambda_value=2.0 * profile.t0, eigenvalue_index=1)


# --------------------------------------------------------------------------
# embedding and induced metric
# --------------------------------------------------------------------------

def embed(torus: OtsukiTorus, alpha: float, t: float) -> AmbientPoint:
    """Ambient coordinates of the surface point (alpha, t).

    The orbit coordinate alpha runs over [0, 2 pi), the arc-length
    coordinate t over [0, t0).
    """
    if not 0.0 <= alpha < 2.0 * pi:
        raise OutOfRange(f"alpha must lie in [0, 2 pi), got {alpha!r}")
    if not 0.0 <= t < torus.t0:
        raise OutOfRange(f"t must lie in [0, t0 = {torus.t0!r}), got {t!r}")
    phi = float(torus.profile.phi_at(t))
    theta = float(torus.profile.theta_at(t))
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    return AmbientPoint(x=math.cos(alpha) * sin_phi,
                        y=math.sin(alpha) * sin_phi,
                        z=cos_phi * math.cos(theta),
                        t=cos_phi * math.sin(theta))


def embedding_grid(torus: OtsukiTorus, alphas: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Vectorized :func:`embed` over an outer grid; returns (len(alphas), len(ts), 4)."""
    phi = torus.profile.phi_at(ts)
    theta = torus.profile.theta_at(ts)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    out = np.empty((alphas.size, ts.size, 4))
    out[:, :, 0] = np.cos(alphas)[:, None] * sin_phi[None, :]
    out[:, :, 1] = np.sin(alphas)[:, None] * sin_phi[None, :]
    out[:, :, 2] = (cos_phi * np.cos(theta))[None, :]
    out[:, :, 3] = (cos_phi * np.sin(theta))[None, :]
    return out


def induced_metric_at(torus: OtsukiTorus, t: float) -> tuple[float, float]:
    """Diagonal induced-metric coefficients (g_alpha_alpha, g_tt) at arc length t.

    The product of the two is identically 1/(4 pi^2), which makes the
    volume form d(alpha) dt / (2 pi) and the area equal to the period t0.
    """
    phi = torus.profile.phi_at(t)
    g_aa = float(np.sin(phi) ** 2)
    return g_aa, 1.0 / (4.0 * pi ** 2 * g_aa)

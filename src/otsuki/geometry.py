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

The geodesic is not integrated.  In the turning phase ``u``, defined by
``phi = pi/4 - h cos u`` with ``h = pi/4 - a``, phi is exact and both
``dt/du`` and ``dtheta/du`` are analytic and ``2 pi``-periodic (see
:func:`phase_metric`).  One ``u``-cycle covers two arcs, from ``phi = a``
to ``pi/2 - a`` and back, and a period is ``q`` cycles.  Term-by-term
integration of the Fourier series of the two rates gives ``t(u)`` and
``theta(u)``, and the period and theta's closure; ``u(t)`` and
``theta(t)`` are then piecewise-quintic Hermite interpolants on the knots
``t(u_m)`` of a uniform ``u`` grid, built only when a value along the
geodesic is first asked for (see :class:`_PhaseCycle`).  The spectral
problems are posed in ``u`` too, on ``phi`` and ``J = dt/du`` from
:func:`phase_metric`, and read no interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import gcd, pi
from typing import Optional

import numpy as np

from .numerics import NoBracket, find_root_monotone, integrate_singular

__all__ = [
    "DomainError", "ClosureFailure",
    "RotationNumber", "OrbitMetric", "GeodesicProfile", "OtsukiTorus",
    "CLIFFORD_TURNING_VALUE",
    "clairaut_momentum", "phase_metric", "omega",
    "solve_turning_value", "arc_length_quarter", "period", "trace_geodesic",
    "build_torus", "clifford_torus", "embedding_grid", "default_sample_count",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class ClosureFailure(RuntimeError):
    """Traced geodesic failed to close within tolerance; inputs inconsistent."""


#: Turning value of the exceptional constant-phi solution (a Clifford torus).
CLIFFORD_TURNING_VALUE = pi / 4

# Geodesics turning closer to pi/4 than this are rejected: the closure
# condition becomes numerically degenerate as the two turning circles merge.
_NEAR_CLIFFORD_GAP = 1e-6

# Most geodesic samples a profile may declare: at 2**22 the five sample
# arrays, once read, take about 170 MB (the interpolant has a fixed size).
# A larger count is refused at trace time, though nothing is allocated until
# the samples are read.  The default count (default_sample_count) reaches it
# only for q > 8192.
_MAX_SAMPLES = 2 ** 22

# Nodes per u-cycle of the Fourier series of dt/du and dtheta/du, at first
# and at most.  Their coefficients decay geometrically, more slowly for
# thinner tori, dtheta/du the slowest (it peaks at u = pi, where cos phi
# falls to about a); the nodes double until its last 8 coefficients are
# within 1e-13 of its mean.  The five benchmark tori stop at 256 (tails
# 2e-16 or below), 10/19 and 16/31 at 512, 48/95 and 50/99 at 1024.
_SERIES_NODES = 256
_MAX_SERIES_NODES = 2 ** 14

# Knots per u-cycle of the quintic interpolants of u(t) and theta(t).
_KNOTS = 2048


class OrbitMetric:
    """Coefficients of the reduced metric E(phi) dphi^2 + G(phi) dtheta^2."""

    @staticmethod
    def E(phi):
        return 4.0 * pi ** 2 * np.sin(phi) ** 2

    @staticmethod
    def G(phi):
        return 4.0 * pi ** 2 * np.sin(phi) ** 2 * np.cos(phi) ** 2


def clairaut_momentum(a: float) -> float:
    """Conserved angular momentum G(phi) dtheta/dt of a geodesic turning at phi = a."""
    return 2.0 * pi * math.sin(a) * math.cos(a)


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
    def closure_angle(self) -> float:
        """Required theta-advance per min-to-max arc, (p/q) pi."""
        return pi * self.p / self.q


@dataclass
class GeodesicProfile:
    """One period of the closed geodesic, with uniform arc-length samples.

    The continuous queries ``phi_at`` and ``theta_at`` and the samples all
    come from the phase interpolant of ``cycle`` (:class:`_PhaseCycle`),
    which is built on their first read.  The sample arrays ``t``, ``phi``,
    ``theta``, ``phi_dot`` and ``theta_dot`` hold ``n_samples + 1`` rows,
    the last one the period closure at ``t = t0``; they are evaluated on
    first read and then kept, so a profile whose samples are not read (as
    by :func:`build_torus` and the spectral problems) allocates none of
    them, nor the interpolant.  ``speed_error`` and ``momentum_error``,
    also computed on first read, measure the samples against the first
    integrals of the geodesic.  ``closure_theta_error`` is
    ``|theta(t0) - 2 pi p|`` from the phase series, ``advance t0 / period``
    for ``theta(t0)``.  ``closure_phi_error`` is
    ``max(|phi(L) - (pi/2 - a)|, |dphi/dt(L)|)`` on the interpolant at the
    end ``L = t0 / arcs_per_period`` of the first arc; reading it builds
    the interpolant, which measures it then.
    """

    rotation: Optional[RotationNumber]
    a: float
    c: float
    t0: float
    n_samples: int
    arcs_per_period: int
    closure_theta_error: float
    cycle: _PhaseCycle = field(repr=False)

    closure_phi_error = property(lambda self: self.cycle._interpolant[2],
                                 doc="phi's closure error at the end of the first arc.")

    @cached_property
    def _samples(self) -> tuple[np.ndarray, ...]:
        """t, phi, theta, dphi/dt and dtheta/dt at the uniform arc lengths."""
        t = np.linspace(0.0, self.t0, self.n_samples + 1)
        return (t, *self.cycle.state(t))

    t = property(lambda self: self._samples[0], doc="Arc lengths j t0 / n_samples.")
    phi = property(lambda self: self._samples[1], doc="phi at the samples.")
    theta = property(lambda self: self._samples[2], doc="theta at the samples.")
    phi_dot = property(lambda self: self._samples[3], doc="dphi/dt at the samples.")
    theta_dot = property(lambda self: self._samples[4], doc="dtheta/dt at the samples.")

    @cached_property
    def speed_error(self) -> float:
        """Largest ``|E phi_dot^2 + G theta_dot^2 - 1|`` over the samples."""
        E, G = OrbitMetric.E(self.phi), OrbitMetric.G(self.phi)
        return float(np.max(np.abs(E * self.phi_dot ** 2 + G * self.theta_dot ** 2 - 1.0)))

    @cached_property
    def momentum_error(self) -> float:
        """Largest ``|G theta_dot - c|`` over the samples."""
        return float(np.max(np.abs(OrbitMetric.G(self.phi) * self.theta_dot - self.c)))

    @property
    def theta_winding(self) -> int:
        """Full turns of theta per period (p for a torus, 1 for the Clifford circle)."""
        return self.rotation.p if self.rotation is not None else 1

    def phi_at(self, t):
        """phi along the geodesic, periodically extended; a float for scalar t."""
        return _scalar_or_array(self.cycle.phi(t))

    def theta_at(self, t):
        """theta along the geodesic, increasing by 2 pi p every period; a float for scalar t."""
        return _scalar_or_array(self.cycle.theta(t))


def _scalar_or_array(values: np.ndarray):
    return values if values.ndim else float(values)


@dataclass
class OtsukiTorus:
    """A built torus: its geodesic profile, and the quantities derived from it.

    ``area = t0``, as the induced volume form is ``d(alpha) dt / (2 pi)``;
    the spectral functional value is ``lambda_value = 2 t0``; and the
    eigenvalue it is attached to has ``eigenvalue_index = 2 w - 1``, w the
    theta winding (``2p - 1`` for the label p/q, 1 for the Clifford circle).
    """

    profile: GeodesicProfile

    rotation = property(lambda self: self.profile.rotation, doc="The label p/q; None for Clifford.")
    t0 = property(lambda self: self.profile.t0, doc="Period, the length of the geodesic.")
    area = property(lambda self: self.profile.t0, doc="Area, ``t0``.")
    lambda_value = property(lambda self: 2.0 * self.profile.t0, doc="Functional value ``2 t0``.")
    eigenvalue_index = property(lambda self: 2 * self.profile.theta_winding - 1,
                                doc="Index ``2 w - 1`` of the eigenvalue at 2.")


# --------------------------------------------------------------------------
# the closure condition
# --------------------------------------------------------------------------

def omega(a: float) -> float:
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

    return integrate_singular(integrand, a, pi / 2.0 - a)


def arc_length_quarter(a: float) -> float:
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

    return integrate_singular(integrand, a, pi / 2.0 - a)


def period(a: float, q: int) -> float:
    """Geodesic period t0 = 2 q L(a) from the quadrature arc length."""
    if q < 1:
        raise DomainError("q must be a positive integer")
    return 2.0 * q * arc_length_quarter(a)


def solve_turning_value(rotation: RotationNumber) -> float:
    """Unique turning value a with omega(a) = (p/q) pi.

    Existence and uniqueness follow from strict monotonicity of omega and
    the window constraint on the rotation number.  The initial bracket is
    [a_lo, pi/4] where a_lo starts at 0.01 and halves until omega(a_lo)
    undershoots the target; omega(pi/4) always overshoots it strictly.
    """
    target = rotation.closure_angle
    residual = cache(lambda x: omega(x) - target)  # shared: omega(a_lo) evaluated once
    lo = 0.01
    for _ in range(200):
        if residual(lo) < 0.0:
            break
        lo *= 0.5
    else:  # pragma: no cover - unreachable for a valid rotation number
        raise NoBracket("could not undershoot the closure angle near a = 0")
    root = find_root_monotone(residual, lo, CLIFFORD_TURNING_VALUE)
    if root > CLIFFORD_TURNING_VALUE - _NEAR_CLIFFORD_GAP:
        raise DomainError(
            f"turning value {root!r} is within {_NEAR_CLIFFORD_GAP} of pi/4: "
            "the closure condition is numerically degenerate this close to "
            "the constant solution")
    return root


# --------------------------------------------------------------------------
# tracing the geodesic
# --------------------------------------------------------------------------

def phase_metric(a: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi and ``J = dt/du`` of the geodesic turning at phi = a, at phase u.

    With ``phi = pi/4 - h cos u``, ``h = pi/4 - a`` and ``S(x) = sin x / x``::

        J = dt/du = 2 pi sin(phi)^2 cos(phi) / R
        R         = sqrt(S(4h sin(u/2)^2) S(4h cos(u/2)^2))

    J is the integrand of :func:`arc_length_quarter` after the substitution
    phi -> u, which cancels its endpoint singularities: J is analytic and
    ``2 pi``-periodic (``R > 0`` because ``4h < pi``), and even in u, as is
    phi.  Along the geodesic ``dtheta/dt = c / G(phi)`` (Clairaut), so
    ``dtheta/du = c J / G(phi)``, the integrand of :func:`omega`.  ``h = 0``
    gives the Clifford circle.
    """
    return _phase_metric_trig(a, u)[:2]


def _phase_metric_trig(a: float, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`phase_metric`, with the ``sin(phi)`` and ``cos(phi)`` it evaluates: phi, J, sin phi, cos phi."""
    h = CLIFFORD_TURNING_VALUE - a
    phi = CLIFFORD_TURNING_VALUE - h * np.cos(u)
    # np.sinc(x) = sin(pi x) / (pi x)
    R = np.sqrt(np.sinc((4.0 * h / pi) * np.sin(0.5 * u) ** 2)
                * np.sinc((4.0 * h / pi) * np.cos(0.5 * u) ** 2))
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    return phi, 2.0 * pi * sin_phi ** 2 * cos_phi / R, sin_phi, cos_phi


def _phase_series(a: float) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients ``c`` of ``J = dt/du`` and ``dtheta/du`` over a u-cycle, and of their integrals.

    Rows of ``f(u) = sum_k c_k e^{iku}`` (:func:`phase_metric`), the
    Nyquist term dropped, and ``integral_k = c_k / (ik)`` (0 for k = 0).
    The series has as many nodes as its tail needs (see ``_SERIES_NODES``);
    raises :class:`ClosureFailure` if ``_MAX_SERIES_NODES`` are not enough.
    """
    K = _SERIES_NODES
    c_momentum = clairaut_momentum(a)
    while True:
        phi, J = phase_metric(a, (2.0 * pi / K) * np.arange(K))
        c = np.fft.rfft(np.array([J, c_momentum * J / OrbitMetric.G(phi)]))[:, :K // 2] / K
        tail = float(np.max(np.abs(c[1, -8:])) / c[1, 0].real)
        if tail <= 1e-13:
            break
        if K == _MAX_SERIES_NODES:
            raise ClosureFailure(f"the phase series of dtheta/du at a = {a!r} has a "
                                 f"tail of {tail:.3e} at {K} nodes")
        K *= 2
    integral = np.zeros_like(c)
    integral[:, 1:] = c[:, 1:] / (1j * np.arange(1, K // 2))
    return c, integral


def _phase_knot_table(a: float, series: tuple[np.ndarray, np.ndarray] | None = None):
    """Knots ``tau_m = t(u_m)`` of one u-cycle, u(t), theta(t) with two t-derivatives there, and theta's series.

    The phase series (:func:`_phase_series`, or ``series`` if given),
    summed by a zero-padded inverse FFT, gives ``t(u)``, ``theta(u)``,
    ``J``, ``dtheta/du`` and their u-derivatives at ``_KNOTS + 1`` uniform
    ``u_m``; then ``du/dt = 1/J``, ``d2u/dt2 = -J'/J^3``, and likewise for
    theta by the chain rule.  Last comes ``(slope, b)`` with
    ``theta(u) = slope u + 2 Re sum_k b_k (e^{iku} - 1)``.
    """
    c, integral = _phase_series(a) if series is None else series
    M = _KNOTS
    ik = 1j * np.arange(c.shape[1])
    table = np.fft.irfft(np.concatenate([integral, c, ik * c]) * M, n=M)
    table = table[:, np.r_[0:M, 0]]  # close the cycle at u = 2 pi
    u = (2.0 * pi / M) * np.arange(M + 1)
    t_of_u, theta_of_u = c[:, :1].real * u + table[:2] - table[:2, :1]
    J, theta_u, J_u, theta_uu = table[2:]
    inv_J = 1.0 / J
    return (t_of_u, np.stack([u, theta_of_u]), np.stack([inv_J, theta_u * inv_J]),
            np.stack([-J_u, theta_uu * J - theta_u * J_u]) * inv_J ** 3,
            (float(c[1, 0].real), integral[1]))


def _quintic_power(knots, f, df, ddf) -> np.ndarray:
    """Coefficients ``a_k[m]`` of the piecewise quintic matching f, f', f'' at the knots.

    On interval m it is ``sum_k a_k[m] s^k``, s the offset from ``knots[m]``:
    ``a_0..a_2`` are the left-end Taylor terms, and ``a_3..a_5`` solve the
    3x3 system for the Taylor misfits ``d_j`` at the right end, in closed form.
    """
    w = np.diff(knots)
    a0, a1, a2 = f[..., :-1], df[..., :-1], 0.5 * ddf[..., :-1]
    d0 = f[..., 1:] - (a0 + w * (a1 + w * a2))
    d1 = (df[..., 1:] - (a1 + 2.0 * w * a2)) * w
    d2 = (ddf[..., 1:] - 2.0 * a2) * w * w
    return np.stack([a0, a1, a2,
                     (10.0 * d0 - 4.0 * d1 + 0.5 * d2) / w ** 3,
                     (-15.0 * d0 + 7.0 * d1 - d2) / w ** 4,
                     (6.0 * d0 - 3.0 * d1 + 0.5 * d2) / w ** 5], axis=-2)


def _horner(knots: np.ndarray, coef: np.ndarray, s, slope: bool):
    """The piecewise quintic ``coef`` (:func:`_quintic_power`) at s, and its slope if asked (else 0)."""
    i = np.clip(np.searchsorted(knots, s, side="right") - 1, 0, _KNOTS - 1)
    s = s - knots[i]
    value, derivative = coef[5][i], 0.0
    for k in range(4, -1, -1):
        if slope:
            derivative = derivative * s + value
        value = value * s + coef[k][i]
    return value, derivative


class _PhaseCycle:
    """u(t) and theta(t) of the geodesic: one u-cycle, extended to all t.

    Built from the phase series alone (:func:`_phase_series`).  A cycle
    (two arcs) lasts ``period = 2 pi J_0`` in t and advances theta by
    ``advance = 2 pi (dtheta/du)_0``: ``2 L`` and ``2 omega(a)`` as
    trapezoid sums.  u(t) and theta(t) are quintic Hermite interpolants on
    the knots of :func:`_phase_knot_table` in power form, evaluated by
    Horner's rule; they are built on their first read (``_interpolant``),
    and phi's closure is checked there, at ``arc_end``.
    """

    def __init__(self, a: float):
        self.a, self.h = a, CLIFFORD_TURNING_VALUE - a
        self._series = c, integral = _phase_series(a)
        self._theta_series = (float(c[1, 0].real), integral[1])
        # the knot table's last abscissa, u = 2 pi, where t and theta close the cycle
        self.period, self.advance = (float(x) for x in c[:, 0].real * ((2.0 * pi / _KNOTS) * _KNOTS))
        # the end of the first arc (u = pi); trace_geodesic sets that of the geodesic
        self.arc_end = 0.5 * self.period

    @cached_property
    def _interpolant(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The knots, the coefficients of u(t) and theta(t) by row, and phi's closure error.

        The error is ``max(|phi - (pi/2 - a)|, |dphi/dt|)`` on the
        interpolant at ``arc_end``, where phi must reach its maximum with
        dphi/dt = 0.  On the series this is an identity, so only a broken
        interpolant misses it: :class:`ClosureFailure` above 1e-6, before
        any value is returned.
        """
        knots, f, df, ddf, _ = _phase_knot_table(self.a, self._series)
        coef = _quintic_power(knots, f, df, ddf)
        u, u_dot = _horner(knots, coef[0], self.arc_end, slope=True)
        error = max(abs(float(CLIFFORD_TURNING_VALUE - self.h * np.cos(u)) - (pi / 2.0 - self.a)),
                    abs(float(self.h * np.sin(u) * u_dot)))
        if error > 1e-6:
            raise ClosureFailure(f"geodesic failed to close: |phi(L) - (pi/2 - a)| or "
                                 f"|phi'(L)| = {error:.3e}")
        return knots, coef, error

    def theta_on_grid(self, du: float, n: int) -> np.ndarray:
        """theta at ``u_j = j du``, j < n, on whole u-cycles ``n du = 2 pi m`` (any grid without waves).

        There ``e^{iku_j} = e^{2 pi i (mk mod n) j / n}``: one inverse FFT of b_k placed at mk mod n.
        """
        slope, b = self._theta_series
        index = (round(n * du / (2.0 * pi)) * np.arange(b.size)) % n
        spread = np.zeros(n, dtype=complex)
        np.add.at(spread, index, b)
        waves = np.fft.ifft(spread, norm="forward").real  # Re sum_k b_k e^{iku_j}
        return slope * du * np.arange(n) + 2.0 * (waves - b.real.sum())

    def _evaluate(self, row: int, s, slope: bool = False):
        """u (row 0) or theta (row 1) at offsets s in ``[0, period)`` into a cycle.

        With ``slope`` the t-derivative is returned as well.
        """
        knots, coef, _ = self._interpolant
        return _horner(knots, coef[row], s, slope)

    def phi(self, t):
        """phi at arc length t."""
        u, _ = self._evaluate(0, np.mod(t, self.period))
        return CLIFFORD_TURNING_VALUE - self.h * np.cos(u)

    def theta(self, t):
        """theta at arc length t."""
        wraps, s = np.divmod(t, self.period)
        theta, _ = self._evaluate(1, s)
        return theta + wraps * self.advance

    def state(self, t):
        """phi, theta, dphi/dt and dtheta/dt at arc length t."""
        wraps, s = np.divmod(t, self.period)
        u, u_dot = self._evaluate(0, s, slope=True)
        theta, theta_dot = self._evaluate(1, s, slope=True)
        return (CLIFFORD_TURNING_VALUE - self.h * np.cos(u), theta + wraps * self.advance,
                self.h * np.sin(u) * u_dot, theta_dot)


def default_sample_count(q: int) -> int:
    """Default geodesic samples per period: 512 per arc pair, at least 4096."""
    return max(4096, 512 * q)


def trace_geodesic(a: float, rotation: Optional[RotationNumber],
                   n_samples: int | None = None) -> GeodesicProfile:
    """The closed geodesic turning at phi = a, over one full period.

    Nothing is integrated step by step: the phase cycle
    (:class:`_PhaseCycle`) gives u(t) and theta(t) in closed form up to
    its series and knots.  A period is ``q`` of its cycles, so
    ``t0 = q * 2 pi J_0``.  Only the series is computed here.  The sample
    count is decided and checked here, but the interpolant, the uniform
    arc-length samples, and the speed and Clairaut momentum errors
    recorded on them, are evaluated only when first read (see
    :class:`GeodesicProfile`); nothing checks the two errors against a
    tolerance.  theta's closure at ``t0`` is measured here from the
    series; phi's, at the end of the first arc, where phi must reach its
    maximum ``pi/2 - a`` with dphi/dt = 0, when the interpolant is built.

    ``a = pi/4`` is accepted with ``rotation=None`` and yields the constant
    solution, a Clifford circle of length 2 pi^2 that closes after a single
    theta revolution.  It runs through the same formulas with ``h = 0``;
    only its period ``t0 = 2 pi^2`` is set explicitly, as no whole number
    of u-cycles closes it.

    Raises
    ------
    DomainError
        If the sample count, given or by :func:`default_sample_count`, is
        below ``16 q`` or above ``2**22``; the thin tori that need more
        are refused, although no sample is evaluated here.
    ClosureFailure
        If theta misses its closure ``2 pi p`` by more than 1e-6, which
        signals a turning value inconsistent with the rotation number.
        The interpolant raises it, on its first build, if phi misses its
        closure by more than 1e-6.
    """
    clifford = abs(a - CLIFFORD_TURNING_VALUE) <= 1e-12
    if clifford:
        if rotation is not None:
            raise DomainError("the constant solution a = pi/4 carries no rotation label")
        p_eff, q_eff = 1, 1
    else:
        if rotation is None:
            raise DomainError("a rotation number is required for a < pi/4")
        if not 0.0 < a < CLIFFORD_TURNING_VALUE - _NEAR_CLIFFORD_GAP:
            raise DomainError(
                f"turning value {a!r} outside (0, pi/4 - {_NEAR_CLIFFORD_GAP})")
        p_eff, q_eff = rotation.p, rotation.q

    cycle = _PhaseCycle(a)
    t0 = 2.0 * pi ** 2 if clifford else q_eff * cycle.period
    if n_samples is None:
        n_samples = default_sample_count(q_eff)
    if n_samples < 16 * q_eff:
        raise DomainError(f"n_samples must be at least 16 q = {16 * q_eff}")
    if n_samples > _MAX_SAMPLES:
        raise DomainError(f"the geodesic needs {n_samples} samples, more than "
                          f"the limit of {_MAX_SAMPLES}")

    arcs = 2 * q_eff
    cycle.arc_end = t0 / arcs  # where the interpolant checks phi's closure when first built
    closure_theta = abs(cycle.advance * t0 / cycle.period - 2.0 * pi * p_eff)
    if closure_theta > 1e-6:
        raise ClosureFailure(
            f"geodesic failed to close: |theta(t0) - 2 pi p| = {closure_theta:.3e}")

    return GeodesicProfile(
        rotation=rotation, a=a, c=clairaut_momentum(a), t0=t0, n_samples=n_samples,
        arcs_per_period=arcs, closure_theta_error=closure_theta, cycle=cycle)


def build_torus(rotation: RotationNumber, n_samples: int | None = None) -> OtsukiTorus:
    """Construct the Otsuki torus labeled by ``rotation``.

    Solves the closure condition for the turning value, builds the closed
    geodesic from its phase series (the interpolant waits for its first
    read), and cross-checks its period (a trapezoid sum in the phase u)
    against the quadrature arc length (tanh-sinh in phi) to 1e-6 relative
    before deriving the area and the functional value ``2 t0`` attached to
    eigenvalue index ``2p - 1``.
    """
    a = solve_turning_value(rotation)
    profile = trace_geodesic(a, rotation, n_samples)
    t0_quadrature = period(a, rotation.q)
    drift = abs(profile.t0 - t0_quadrature) / t0_quadrature
    if drift > 1e-6:
        raise ClosureFailure(
            f"period mismatch: quadrature {t0_quadrature!r} vs traced "
            f"{profile.t0!r} ({drift:.3e} relative)")
    return OtsukiTorus(profile)


def clifford_torus() -> OtsukiTorus:
    """The constant-phi = pi/4 solution, as a closed-form test fixture.

    Every derived quantity is known exactly: t0 = 2 pi^2, area 2 pi^2,
    functional value 4 pi^2, and constant spectral coefficients.  The
    spectral anchor sits at eigenvalue index 1.  The geodesic declares the
    default 4096 samples, evaluated on first read like any profile's.
    """
    profile = trace_geodesic(CLIFFORD_TURNING_VALUE, None)
    return OtsukiTorus(profile)


# --------------------------------------------------------------------------
# embedding
# --------------------------------------------------------------------------

def embedding_grid(torus: OtsukiTorus, alphas: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Ambient coordinates over the outer grid alphas x ts; returns (len(alphas), len(ts), 4)."""
    phi = torus.profile.phi_at(ts)
    theta = torus.profile.theta_at(ts)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    out = np.empty((alphas.size, ts.size, 4))
    out[:, :, 0] = np.cos(alphas)[:, None] * sin_phi[None, :]
    out[:, :, 1] = np.sin(alphas)[:, None] * sin_phi[None, :]
    out[:, :, 2] = (cos_phi * np.cos(theta))[None, :]
    out[:, :, 3] = (cos_phi * np.sin(theta))[None, :]
    return out

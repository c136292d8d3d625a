"""Deterministic numerical kernels.

Two reusable building blocks, each a pure function of its inputs:

* :func:`integrate_singular` -- double-exponential (tanh-sinh) quadrature
  that converges geometrically for integrands with algebraic endpoint
  singularities up to ``(x - a)**-0.5`` and ``(b - x)**-0.5``; integrands
  take ``f(x, dist_lo, dist_hi)`` and must be elementwise, since one call
  receives the midpoint and both sides of levels 0-5 together.
* :func:`find_root_monotone` -- safeguarded bracketing root finder
  (bisection refined by inverse quadratic / secant interpolation).

Everything runs in IEEE double precision.  Each kernel has one fixed
accuracy setting, a tolerance and a budget held in module constants.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np


class InvalidInterval(ValueError):
    """Integration interval is empty or reversed."""


class NonConvergence(RuntimeError):
    """Level-to-level quadrature estimates failed to settle within tolerance."""


class NoBracket(ValueError):
    """Root finder was called without a sign change on the interval."""


class MaxItersExceeded(RuntimeError):
    """Root finder exhausted its iteration budget."""


# --------------------------------------------------------------------------
# tanh-sinh quadrature
# --------------------------------------------------------------------------

# Two successive levels must agree to this relative tolerance, within at
# most this many levels.
_QUAD_REL_TOL = 1e-12
_QUAD_MAX_LEVELS = 12

# Beyond |u| = 4 the transformed weights are ~1e-36 even against an
# inverse-square-root singularity, far below double-precision relevance.
_U_MAX = 4.0


def _tanh_sinh_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, weight) of the new positive abscissas of one trapezoidal refinement.

    sigma = 1 - tanh((pi/2) sinh u) is the node's distance to the interval
    endpoint in [-1, 1] coordinates, kept in this form so callers never
    suffer cancellation next to a singularity.
    """
    h = 0.5 ** level
    if level == 0:
        u = np.arange(h, _U_MAX + 0.5 * h, h)
    else:
        u = np.arange(h, _U_MAX + 0.5 * h, 2.0 * h)
    z = 0.5 * math.pi * np.sinh(u)
    sigma = 2.0 / (1.0 + np.exp(2.0 * z))
    weight = 0.5 * math.pi * np.cosh(u) / np.cosh(z) ** 2
    return sigma, weight


# The nodes of every level, built once at import.
_NODES = [_tanh_sinh_nodes(level) for level in range(_QUAD_MAX_LEVELS)]


def _node_block(levels, midpoints: int):
    """Nodes of one integrand call: ``midpoints`` (0 or 1), then both sides of ``levels``.

    Node i is ``x = (a, mid, b)[side[i]] + half * step[i]``, ``d_lo = half * s_lo[i]``,
    ``d_hi = half * s_hi[i]``: bit for bit the arithmetic of one call per level.
    """
    sigma = np.concatenate([_NODES[level][0] for level in levels])
    n, far, one = len(sigma), 2.0 - sigma, np.ones(midpoints)
    cuts = midpoints + np.cumsum([0] + [len(_NODES[level][0]) for level in levels])
    sums = [(_NODES[level][1], slice(i, j), slice(i + n, j + n))
            for level, i, j in zip(levels, cuts, cuts[1:])]
    return (np.repeat([1, 0, 2], [midpoints, n, n]), np.concatenate((0.0 * one, sigma, -sigma)),
            np.concatenate((one, sigma, far)), np.concatenate((one, far, sigma)), midpoints, sums)


# The first call takes the midpoint and both sides of levels 0-5, 257 nodes, by which
# every closure-solve quadrature settles.  Each deeper level is a call of its own, laid out
# when reached: held from import, those tables would take 0.5 MB few quadratures read.
_FIRST_BLOCK = _node_block(range(6), 1)


def integrate_singular(f: Callable, a: float, b: float) -> float:
    """Integrate ``f`` over ``(a, b)`` by adaptive tanh-sinh quadrature.

    Parameters
    ----------
    f : callable
        Elementwise integrand, always called as ``f(x, dist_lo, dist_hi)``:
        the extra arrays give the distance of each node to ``a`` and to
        ``b`` in full relative precision.  Use them whenever the singular
        factor involves a difference against an endpoint (for example
        ``1/sqrt(x - a)`` with ``a != 0``); plain ``x - a`` in user code
        loses the digits that the doubly-exponential nodes deliberately
        place within an ulp of ``a``.  An integrand of ``x`` alone is
        passed as ``lambda x, d_lo, d_hi: g(x)``.  The first call receives
        the midpoint and both sides of levels 0-5 together.
    a, b : float
        Integration limits, ``a < b``.  Endpoint singularities no worse
        than an inverse square root are handled.

    Returns
    -------
    float
        The integral, once two successive trapezoidal refinements agree to
        ``_QUAD_REL_TOL`` (1e-12).

    Raises
    ------
    InvalidInterval
        If ``a >= b``.
    NonConvergence
        If the level-to-level estimate has not settled within
        ``_QUAD_MAX_LEVELS`` (12) refinements.
    """
    if not a < b:
        raise InvalidInterval(f"need a < b, got a={a!r}, b={b!r}")
    half = 0.5 * (b - a)
    ends = np.array([a, 0.5 * (a + b), b])

    def level_terms():
        """0.5 pi f(mid), then the weighted node sum of each level in turn."""
        deeper = (_node_block([level], 0) for level in range(6, _QUAD_MAX_LEVELS))
        for side, step, s_lo, s_hi, midpoints, sums in itertools.chain([_FIRST_BLOCK], deeper):
            values = np.asarray(f(ends[side] + half * step, half * s_lo, half * s_hi), float)
            for value in values[:midpoints]:
                yield 0.5 * math.pi * float(value)
            for weight, lower, upper in sums:
                yield float(np.dot(weight, values[lower] + values[upper]))

    terms = level_terms()
    raw_sum = next(terms)
    previous = None
    for level, term in zip(range(_QUAD_MAX_LEVELS), terms):
        raw_sum += term
        h = 0.5 ** level
        estimate = h * half * raw_sum
        if previous is not None and level >= 2:
            scale = max(abs(estimate), abs(previous), np.finfo(float).tiny)
            if abs(estimate - previous) <= _QUAD_REL_TOL * scale:
                return estimate
        previous = estimate
    raise NonConvergence(
        f"tanh-sinh estimate still moving after {_QUAD_MAX_LEVELS} levels "
        f"(last change {abs(estimate - previous):.3e})")


# --------------------------------------------------------------------------
# bracketed root finding
# --------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)

# Terminal bracket width and iteration budget of find_root_monotone.
_ROOT_ABS_TOL = 1e-13
_ROOT_MAX_ITERS = 200


def find_root_monotone(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Locate the root of a continuous function bracketed by ``[lo, hi]``.

    Bisection refined by inverse quadratic / secant interpolation with
    bracket safeguarding (Brent's scheme); the iterate never leaves the
    initial interval and the terminal bracket width is at most
    ``_ROOT_ABS_TOL`` (1e-13, plus an unavoidable few-ulp floor).

    Raises
    ------
    NoBracket
        If ``f(lo)`` and ``f(hi)`` do not have opposite signs.
    MaxItersExceeded
        If the bracket has not collapsed after ``_ROOT_MAX_ITERS`` (200) steps.
    """
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoBracket(f"f({lo!r})={fa!r} and f({hi!r})={fb!r} have the same sign")

    c, fc = a, fa
    e = d = b - a
    for _ in range(_ROOT_MAX_ITERS):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * _ROOT_ABS_TOL + 2.0 * _EPS * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            e = d = m  # interpolation is not trustworthy; bisect
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        else:
            b += tol if m > 0 else -tol
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            e = d = b - a
    raise MaxItersExceeded(f"no convergence within {_ROOT_MAX_ITERS} iterations")

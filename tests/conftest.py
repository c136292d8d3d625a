import math

import numpy as np
import pytest

from otsuki import geometry, numerics
from otsuki.numerics import InvalidInterval, NonConvergence

# rotation -> (reference turning value, eigenvalue index, reference functional value)
REFERENCE = {
    (2, 3): (0.3379, 3, 79.91),
    (3, 5): (0.1273, 5, 127.7),
    (4, 7): (0.07526, 7, 177.2),
    (5, 8): (0.1874, 9, 206.7),
    (5, 9): (0.05220, 9, 227.1),
}


def level_by_level_quadrature(f, a, b):
    """Tanh-sinh quadrature with one integrand call per side and level.

    The loop of ``integrate_singular`` before its first call took the
    midpoint and levels 0-5 together; the fused rule must match it bit
    for bit.
    """
    if not a < b:
        raise InvalidInterval(f"need a < b, got a={a!r}, b={b!r}")
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def evaluate(x, d_lo, d_hi):
        return np.asarray(f(x, d_lo, d_hi), dtype=float)

    half_arr = np.array([half])
    raw_sum = 0.5 * math.pi * float(evaluate(np.array([mid]), half_arr, half_arr)[0])
    estimate = raw_sum * half  # h = 1 at level 0
    previous = None
    for level in range(numerics._QUAD_MAX_LEVELS):
        sigma, weight = numerics._NODES[level]
        d = half * sigma
        d_far = half * (2.0 - sigma)
        lower = evaluate(a + d, d, d_far)
        upper = evaluate(b - d, d_far, d)
        raw_sum += float(np.dot(weight, lower + upper))
        h = 0.5 ** level
        estimate = h * half * raw_sum
        if previous is not None and level >= 2:
            scale = max(abs(estimate), abs(previous), np.finfo(float).tiny)
            if abs(estimate - previous) <= numerics._QUAD_REL_TOL * scale:
                return estimate
        previous = estimate
    raise NonConvergence(
        f"tanh-sinh estimate still moving after {numerics._QUAD_MAX_LEVELS} levels "
        f"(last change {abs(estimate - previous):.3e})")


def count_interpolant_builds(monkeypatch) -> list:
    """A list that grows by one entry at each ``geometry._quintic_power`` call: one per interpolant built."""
    built = []
    quintic = geometry._quintic_power
    monkeypatch.setattr(geometry, "_quintic_power", lambda *args: built.append(1) or quintic(*args))
    return built


@pytest.fixture(scope="session")
def torus_23():
    return geometry.build_torus(geometry.RotationNumber(2, 3))


@pytest.fixture(scope="session")
def tori(torus_23):
    """All five benchmark tori, keyed by (p, q)."""
    out = {(2, 3): torus_23}
    for p, q in REFERENCE:
        if (p, q) not in out:
            out[(p, q)] = geometry.build_torus(geometry.RotationNumber(p, q))
    return out


@pytest.fixture(scope="session")
def clifford():
    return geometry.clifford_torus()

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from otsuki import geometry, numerics
from otsuki.numerics import (
    InvalidInterval,
    MaxItersExceeded,
    NoBracket,
    NonConvergence,
    find_root_monotone,
    integrate_singular,
)

from conftest import level_by_level_quadrature


class TestIntegrateSingular:
    def test_inverse_sqrt(self):
        value = integrate_singular(lambda x, d_lo, d_hi: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert abs(value - 2.0) <= 1e-12

    def test_sin(self):
        value = integrate_singular(lambda x, d_lo, d_hi: np.sin(x), 0.0, math.pi)
        assert abs(value - 2.0) <= 1e-12

    def test_both_endpoints_singular(self):
        # distance-aware integrand: 1 / sqrt(x (1 - x)) without cancellation
        value = integrate_singular(lambda x, d_lo, d_hi: 1.0 / np.sqrt(d_lo * d_hi),
                                   0.0, 1.0)
        assert abs(value - math.pi) <= 1e-12

    def test_singular_with_shifted_endpoint(self):
        # the endpoint distance d_lo keeps full precision when a != 0
        a, b = 0.3, 1.7
        value = integrate_singular(lambda x, d_lo, d_hi: 1.0 / np.sqrt(d_lo), a, b)
        assert abs(value - 2.0 * math.sqrt(b - a)) <= 1e-12 * 2.0 * math.sqrt(b - a)

    @pytest.mark.parametrize("degree", range(9))
    def test_polynomial_exactness(self, degree):
        poly = Polynomial(np.arange(1.0, degree + 2.0))
        exact = poly.integ()(2.0) - poly.integ()(-1.0)
        value = integrate_singular(lambda x, d_lo, d_hi: poly(x), -1.0, 2.0)
        assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_additivity_for_smooth_integrand(self):
        f = lambda x, d_lo, d_hi: np.exp(x)
        left = integrate_singular(f, 0.0, 0.7)
        right = integrate_singular(f, 0.7, 2.0)
        whole = integrate_singular(f, 0.0, 2.0)
        assert abs(left + right - whole) <= 10.0 * numerics._QUAD_REL_TOL * abs(whole)

    def test_tiny_interval(self):
        # omega evaluation close to the constant solution integrates over
        # intervals this small
        width = 1e-8
        value = integrate_singular(lambda x, d_lo, d_hi: 1.0 / np.sqrt(x), 0.0, width)
        exact = 2.0 * math.sqrt(width)
        assert abs(value - exact) <= 1e-12 * exact

    def test_invalid_interval(self):
        with pytest.raises(InvalidInterval):
            integrate_singular(lambda x, d_lo, d_hi: np.sin(x), 1.0, 1.0)
        with pytest.raises(InvalidInterval):
            integrate_singular(lambda x, d_lo, d_hi: np.sin(x), 2.0, 1.0)

    def test_nonconvergence_on_exhausted_levels(self, monkeypatch):
        monkeypatch.setattr(numerics, "_QUAD_MAX_LEVELS", 3)
        with pytest.raises(NonConvergence):
            integrate_singular(lambda x, d_lo, d_hi: 1.0 / np.sqrt(d_lo * d_hi),
                               0.0, 1.0)


def _counted(f, calls):
    def integrand(x, d_lo, d_hi):
        calls.append(np.size(x))
        return f(x, d_lo, d_hi)
    return integrand


def _closure_integrand(quantity, a, monkeypatch):
    """The integrand and limits that ``geometry.omega`` or ``arc_length_quarter`` hands over."""
    seen = []

    def capture(f, lo, hi):
        seen.append((f, lo, hi))
        return 0.0

    monkeypatch.setattr(geometry, "integrate_singular", capture)
    quantity(a)
    monkeypatch.undo()
    return seen[0]


class TestOneCallPerBlock:
    """The fused rule gives the level-by-level rule's bits with far fewer integrand calls."""

    @pytest.mark.parametrize("quantity", [geometry.omega, geometry.arc_length_quarter])
    @pytest.mark.parametrize("a", [1e-3, 0.0753, 0.3379, 0.7])
    def test_closure_integrands(self, quantity, a, monkeypatch):
        f, lo, hi = _closure_integrand(quantity, a, monkeypatch)
        reference_calls, calls = [], []
        expected = level_by_level_quadrature(_counted(f, reference_calls), lo, hi)
        assert integrate_singular(_counted(f, calls), lo, hi) == expected
        assert len(reference_calls) <= 1 + 2 * 6
        assert calls == [257]

    @pytest.mark.parametrize("f,lo,hi", [
        (lambda x, d_lo, d_hi: 1.0 / (1.0 + 400.0 * x * x), -1.0, 1.0),
        (lambda x, d_lo, d_hi: np.exp(-2000.0 * (x - 0.3) ** 2), 0.0, 1.0),
    ], ids=["runge", "gaussian"])
    def test_integrands_past_the_first_call(self, f, lo, hi):
        reference_calls, calls = [], []
        expected = level_by_level_quadrature(_counted(f, reference_calls), lo, hi)
        levels = (len(reference_calls) - 1) // 2
        assert levels > 6
        assert integrate_singular(_counted(f, calls), lo, hi) == expected
        assert len(calls) == 1 + (levels - 6)
        assert sum(calls) == sum(reference_calls)


class TestFindRootMonotone:
    def test_linear(self):
        assert abs(find_root_monotone(lambda x: x - 1.0, 0.0, 2.0) - 1.0) <= 1e-13

    def test_cos(self):
        root = find_root_monotone(math.cos, 1.0, 2.0)
        assert abs(root - math.pi / 2.0) <= 1e-13

    @pytest.mark.parametrize("tol", [numerics._ROOT_ABS_TOL])
    def test_tolerance_is_respected(self, tol):
        root = find_root_monotone(math.cos, 1.0, 2.0)
        assert abs(root - math.pi / 2.0) <= tol

    def test_stays_inside_bracket(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.tan(x - 1.234)  # steep; tempts interpolation to overshoot

        find_root_monotone(f, 0.5, 1.5)
        assert min(seen) >= 0.5 and max(seen) <= 1.5

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            find_root_monotone(lambda x: x * x + 1.0, 0.0, 1.0)

    def test_endpoint_root_returned_directly(self):
        assert find_root_monotone(lambda x: x, 0.0, 1.0) == 0.0

    def test_max_iters(self, monkeypatch):
        monkeypatch.setattr(numerics, "_ROOT_MAX_ITERS", 3)
        with pytest.raises(MaxItersExceeded):
            find_root_monotone(math.cos, 1.0, 2.0)

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from otsuki.numerics import (
    InvalidInterval,
    MaxItersExceeded,
    NoBracket,
    NonConvergence,
    OdeSpec,
    QuadratureSpec,
    RootSpec,
    StepUnderflow,
    find_root_monotone,
    integrate_ode,
    integrate_singular,
)


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
        spec = QuadratureSpec()
        f = lambda x, d_lo, d_hi: np.exp(x)
        left = integrate_singular(f, 0.0, 0.7, spec)
        right = integrate_singular(f, 0.7, 2.0, spec)
        whole = integrate_singular(f, 0.0, 2.0, spec)
        assert abs(left + right - whole) <= 10.0 * spec.target_rel_tol * abs(whole)

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

    def test_nonconvergence_on_exhausted_levels(self):
        spec = QuadratureSpec(target_rel_tol=1e-12, max_levels=3)
        with pytest.raises(NonConvergence):
            integrate_singular(lambda x, d_lo, d_hi: 1.0 / np.sqrt(d_lo * d_hi),
                               0.0, 1.0, spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(target_rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_levels=0)


class TestFindRootMonotone:
    def test_linear(self):
        assert abs(find_root_monotone(lambda x: x - 1.0, 0.0, 2.0) - 1.0) <= 1e-13

    def test_cos(self):
        root = find_root_monotone(math.cos, 1.0, 2.0)
        assert abs(root - math.pi / 2.0) <= 1e-13

    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
    def test_tolerance_is_respected(self, tol):
        root = find_root_monotone(math.cos, 1.0, 2.0, RootSpec(abs_tol_x=tol))
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

    def test_max_iters(self):
        with pytest.raises(MaxItersExceeded):
            find_root_monotone(math.cos, 1.0, 2.0,
                               RootSpec(abs_tol_x=1e-13, max_iters=3))


class TestIntegrateOde:
    def test_exponential(self):
        trajectory = integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0))
        assert abs(trajectory(1.0)[0] - math.e) <= 1e-9

    def test_dense_output_mid_span(self):
        trajectory = integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0))
        for t in (0.1, 0.37, 0.5, 0.93):
            assert abs(trajectory(t)[0] - math.exp(t)) <= 1e-9

    def test_harmonic_oscillator_returns(self):
        rhs = lambda t, y: (y[1], -y[0])
        trajectory = integrate_ode(rhs, [1.0, 0.0], (0.0, 2.0 * math.pi))
        final = trajectory(2.0 * math.pi)
        assert abs(final[0] - 1.0) <= 1e-8
        assert abs(final[1]) <= 1e-8

    def test_energy_drift_below_100x_rel_tol(self):
        spec = OdeSpec()
        rhs = lambda t, y: (y[1], -y[0])
        trajectory = integrate_ode(rhs, [1.0, 0.0], (0.0, 2.0 * math.pi), spec)
        ts = np.linspace(0.0, 2.0 * math.pi, 257)
        y = trajectory(ts)
        energy = y[0] ** 2 + y[1] ** 2
        assert np.max(np.abs(energy - 1.0)) < 100.0 * spec.rel_tol

    def test_constant_turning_value_stays_put(self):
        # the constant-phi = pi/4 solution of the orbit-space geodesic system
        from otsuki.geometry import OrbitMetric, clairaut_momentum

        a = math.pi / 4.0
        c = clairaut_momentum(a)

        def rhs(t, y):
            phi, phi_dot, theta, theta_dot = y
            s = math.sin(phi)
            phi_dd = (-(math.cos(phi) / s) * phi_dot ** 2
                      + (math.sin(4.0 * phi) / (4.0 * s * s)) * theta_dot ** 2)
            theta_dd = (-4.0 * (math.cos(2.0 * phi) / math.sin(2.0 * phi))
                        * phi_dot * theta_dot)
            return (phi_dot, phi_dd, theta_dot, theta_dd)

        trajectory = integrate_ode(rhs, [a, 0.0, 0.0, c / OrbitMetric.G(a)],
                                   (0.0, 2.0 * math.pi ** 2))
        ts = np.linspace(0.0, 2.0 * math.pi ** 2, 513)
        assert np.max(np.abs(trajectory(ts)[0] - a)) < 1e-9

    def test_invalid_span(self):
        with pytest.raises(InvalidInterval):
            integrate_ode(lambda t, y: y, [1.0], (1.0, 1.0))

    def test_step_underflow_on_blowup(self):
        with pytest.raises(StepUnderflow):
            integrate_ode(lambda t, y: y ** 2, [1.0], (0.0, 2.0))

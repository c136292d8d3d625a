import math
import time
import tracemalloc
from math import pi

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import BPoly

from otsuki import geometry
from otsuki.geometry import (
    DomainError,
    OrbitMetric,
    OutOfRange,
    RotationNumber,
    arc_length_quarter,
    build_torus,
    clairaut_momentum,
    embed,
    embedding_grid,
    induced_metric_at,
    omega,
    period,
    solve_turning_value,
    trace_geodesic,
)
from otsuki.numerics import find_root_monotone

from conftest import REFERENCE


def geodesic_rhs(t, y):
    """The second-order geodesic equations of the orbit metric, for RK45 references."""
    phi, phi_dot, theta, theta_dot = y
    E, G = OrbitMetric.E(phi), OrbitMetric.G(phi)
    phi_dd = (-OrbitMetric.E_prime(phi) / (2.0 * E) * phi_dot ** 2
              + OrbitMetric.G_prime(phi) / (2.0 * E) * theta_dot ** 2)
    theta_dd = -OrbitMetric.G_prime(phi) / G * phi_dot * theta_dot
    return (phi_dot, phi_dd, theta_dot, theta_dd)


def reference_trace(a, t_end, rtol, atol):
    """Dense RK45 solution from the minimum phi = a over [0, t_end]."""
    c = clairaut_momentum(a)
    solution = solve_ivp(geodesic_rhs, (0.0, t_end), [a, 0.0, 0.0, c / OrbitMetric.G(a)],
                         method="RK45", rtol=rtol, atol=atol, dense_output=True)
    assert solution.success
    return solution.sol


class TestRotationNumber:
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9), (7, 10)])
    def test_valid(self, p, q):
        r = RotationNumber(p, q)
        assert 0.5 < r.value < math.sqrt(2.0) / 2.0
        assert abs(r.closure_angle - pi * p / q) == 0.0

    @pytest.mark.parametrize("p,q", [
        (4, 6),    # not in lowest terms
        (1, 2),    # exactly 1/2
        (3, 4),    # above sqrt(2)/2
        (5, 7),    # above sqrt(2)/2
        (1, 1),
        (0, 1),
        (-2, 3),
        (2, -3),
    ])
    def test_invalid(self, p, q):
        with pytest.raises(ValueError):
            RotationNumber(p, q)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            RotationNumber(2.0, 3)

    def test_unreduced_fraction_never_aliases(self):
        # 4/6 must not silently behave as 2/3
        with pytest.raises(ValueError):
            RotationNumber(4, 6)


class TestOrbitMetric:
    def test_product_identity(self):
        phi = np.linspace(0.05, pi / 2 - 0.05, 101)
        np.testing.assert_allclose(OrbitMetric.G(phi),
                                   OrbitMetric.E(phi) * np.cos(phi) ** 2,
                                   rtol=1e-14)

    def test_g_monotone_on_half_intervals(self):
        rising = OrbitMetric.G(np.linspace(0.01, pi / 4, 64))
        falling = OrbitMetric.G(np.linspace(pi / 4, pi / 2 - 0.01, 64))
        assert np.all(np.diff(rising) > 0)
        assert np.all(np.diff(falling) < 0)

    def test_g_reflection_symmetric(self):
        phi = np.linspace(0.02, pi / 2 - 0.02, 57)
        np.testing.assert_allclose(OrbitMetric.G(phi), OrbitMetric.G(pi / 2 - phi),
                                   rtol=1e-12)

    def test_derivatives_match_finite_differences(self):
        phi = np.linspace(0.1, 1.4, 27)
        h = 1e-6
        np.testing.assert_allclose(OrbitMetric.E_prime(phi),
                                   (OrbitMetric.E(phi + h) - OrbitMetric.E(phi - h)) / (2 * h),
                                   rtol=1e-8)
        np.testing.assert_allclose(OrbitMetric.G_prime(phi),
                                   (OrbitMetric.G(phi + h) - OrbitMetric.G(phi - h)) / (2 * h),
                                   rtol=1e-7, atol=1e-4)


class TestOmega:
    def test_clifford_closed_form(self):
        assert abs(omega(pi / 4) - math.sqrt(2.0) * pi / 2.0) <= 1e-10

    def test_benchmark_turning_value_for_2_3(self):
        # a = 0.33787... pairs with a closure angle of 2 pi / 3
        assert abs(omega(0.33787) - 2.0 * pi / 3.0) <= 1e-4

    def test_small_a_limit(self):
        value = omega(1e-3)
        assert pi / 2.0 < value < pi / 2.0 + 0.05
        # shrinking a approaches the limiting advance pi/2 from above
        closer = omega(1e-4)
        assert pi / 2.0 < closer < value

    def test_strictly_increasing_on_grid(self):
        grid = np.linspace(0.01, pi / 4.0, 50)
        values = [omega(a) for a in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_range(self):
        for a in np.linspace(0.01, pi / 4.0, 25):
            value = omega(a)
            assert pi / 2.0 < value <= math.sqrt(2.0) * pi / 2.0 + 1e-12

    @pytest.mark.parametrize("bad", [0.0, -0.2, pi / 4 + 1e-6, 1.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            omega(bad)


class TestSolveTurningValue:
    @pytest.mark.parametrize("p,q", list(REFERENCE))
    def test_reference_turning_values(self, p, q):
        a_ref = REFERENCE[(p, q)][0]
        a = solve_turning_value(RotationNumber(p, q))
        assert abs(a - a_ref) <= 5e-4

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 8)])
    def test_round_trip(self, p, q):
        r = RotationNumber(p, q)
        a = solve_turning_value(r)
        assert abs(omega(a) - r.closure_angle) <= 1e-10

    def test_root_finder_example(self):
        root = find_root_monotone(lambda x: omega(x) - 2.0 * pi / 3.0, 0.01, pi / 4.0)
        assert abs(root - 0.33787) <= 2e-5

    def test_near_upper_window(self):
        a = solve_turning_value(RotationNumber(7, 10))
        assert 0.3379 < a < pi / 4.0


class TestArcLength:
    @pytest.mark.parametrize("bad", [0.0, pi / 4.0, 1.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            arc_length_quarter(bad)

    def test_against_ode_turning_time(self):
        # the quadrature arc length must match the time at which an
        # independently integrated geodesic reaches its first turning point
        a = 0.245
        L = arc_length_quarter(a)
        trajectory = reference_trace(a, 1.3 * L, rtol=1e-10, atol=1e-12)
        t_turn = find_root_monotone(lambda t: float(trajectory(t)[1]),
                                    0.5 * L, 1.3 * L)
        assert abs(t_turn - L) <= 1e-6

    @pytest.mark.parametrize("p,q,t0_ref,tol", [
        (2, 3, 39.955, 0.05),
        (3, 5, 63.85, 0.1),
        (4, 7, 88.6, 0.1),
        (5, 8, 103.35, 0.1),
    ])
    def test_period_reference_values(self, p, q, t0_ref, tol):
        a = solve_turning_value(RotationNumber(p, q))
        assert abs(period(a, q) - t0_ref) <= tol

    def test_period_requires_positive_q(self):
        with pytest.raises(DomainError):
            period(0.3, 0)


class TestTraceGeodesic:
    def test_clifford_fixture(self, clifford):
        profile = clifford.profile
        assert abs(profile.t0 - 2.0 * pi ** 2) <= 1e-8
        assert abs(clifford.lambda_value - 4.0 * pi ** 2) <= 1e-8
        assert np.max(np.abs(profile.phi - pi / 4.0)) <= 1e-9

    def test_clifford_rejects_rotation(self):
        with pytest.raises(DomainError):
            trace_geodesic(pi / 4.0, RotationNumber(2, 3))

    def test_rotation_required_away_from_clifford(self):
        with pytest.raises(DomainError):
            trace_geodesic(0.3, None)

    def test_sample_count_floor(self):
        with pytest.raises(DomainError):
            trace_geodesic(0.33787, RotationNumber(2, 3), n_samples=40)

    def test_thin_torus_refused_before_allocation(self):
        # a count above the cap is refused at trace time, before any sample
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"{2 ** 22 + 1} samples"):
            build_torus(RotationNumber(50, 99), n_samples=2 ** 22 + 1)
        assert time.perf_counter() - start < 10.0

    def test_thinnest_torus_up_to_q_100_builds(self):
        torus = build_torus(RotationNumber(50, 99))
        assert torus.profile.n_samples == 512 * 99
        assert torus.profile.closure_phi_error < 1e-6
        assert torus.profile.closure_theta_error < 1e-6

    def test_sample_limit_admits_10_19(self):
        # the 9728 samples are declared at trace time but evaluated on first read
        rotation = RotationNumber(10, 19)
        a = solve_turning_value(rotation)
        tracemalloc.start()
        try:
            profile = trace_geodesic(a, rotation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.n_samples == 9728
        assert peak < 1_000_000
        t = np.linspace(0.0, profile.t0, 9729)
        phi, _, phi_dot, theta_dot = profile.cycle.state(t)
        np.testing.assert_array_equal(profile.t, t)
        np.testing.assert_array_equal(profile.phi, phi)
        E, G = OrbitMetric.E(phi), OrbitMetric.G(phi)
        assert profile.speed_error == float(
            np.max(np.abs(E * phi_dot ** 2 + G * theta_dot ** 2 - 1.0)))

    def test_first_integrals(self, torus_23):
        profile = torus_23.profile
        assert profile.speed_error < 1e-7
        assert profile.momentum_error < 1e-7

    def test_closure(self, torus_23):
        profile = torus_23.profile
        assert profile.closure_phi_error < 1e-6
        assert profile.closure_theta_error < 1e-6
        assert abs(profile.phi_dot[-1] - profile.phi_dot[0]) < 1e-6

    def test_phi_stays_in_annulus(self, torus_23):
        profile = torus_23.profile
        assert profile.phi.min() >= profile.a - 1e-9
        assert profile.phi.max() <= pi / 2.0 - profile.a + 1e-9

    def test_extrema_counts(self, torus_23):
        # q minima and q maxima of phi per period (cyclic count; the exact
        # zero of phi_dot at t = 0 drops out and is covered by the wrap)
        profile = torus_23.profile
        sign = np.sign(profile.phi_dot[:-1])
        sign = sign[sign != 0]
        previous = np.roll(sign, 1)
        minima = int(np.sum((previous < 0) & (sign > 0)))
        maxima = int(np.sum((previous > 0) & (sign < 0)))
        assert minima == 3
        assert maxima == 3

    def test_theta_projections_change_sign_2p_times(self, torus_23):
        profile = torus_23.profile
        p = torus_23.rotation.p
        for f in (np.cos, np.sin):
            signs = np.sign(f(profile.theta[:-1]))
            signs = signs[signs != 0]
            assert int(np.sum(signs != np.roll(signs, 1))) == 2 * p

    def test_arc_reflection_symmetry(self, torus_23):
        # phi over a min-to-max arc mirrors the following max-to-min arc
        profile = torus_23.profile
        L = profile.t0 / profile.arcs_per_period
        s = np.linspace(0.0, 0.95 * L, 181)
        np.testing.assert_allclose(profile.phi_at(L + s), profile.phi_at(L - s),
                                   atol=1e-8)

    def test_q_fold_symmetry(self, torus_23):
        # advancing one min-to-min segment repeats phi and shifts theta by 2 pi p / q
        profile = torus_23.profile
        p, q = 2, 3
        segment = profile.t0 / q
        s = np.linspace(0.0, segment, 211)
        np.testing.assert_allclose(profile.phi_at(s + segment), profile.phi_at(s),
                                   atol=1e-8)
        np.testing.assert_allclose(profile.theta_at(s + segment),
                                   profile.theta_at(s) + 2.0 * pi * p / q,
                                   atol=1e-8)

    def test_scalar_queries_return_float(self, torus_23):
        profile = torus_23.profile
        for t in (0.0, 1.5, 2.5 * profile.t0):
            assert type(profile.phi_at(t)) is float
            assert type(profile.theta_at(t)) is float
        ts = np.array([0.0, 1.5])
        assert profile.phi_at(ts).shape == profile.theta_at(ts).shape == (2,)

    def test_default_sampling_is_resolution_aware(self, tori):
        # 512 samples per arc pair, at least 4096: no turning layer to resolve
        for (p, q), torus in tori.items():
            assert torus.profile.n_samples == max(4096, 512 * q)


class TestOneArcConstruction:
    @staticmethod
    def _full_period_trace(a, rotation):
        """Reference: the whole period in one RK45 run, t0 at theta = 2 pi p.

        The tolerances are tighter than the defaults: at the defaults the
        error accumulated over all 2q arcs reaches 1.5e-7 in theta on 5/9,
        more than the agreement asserted against it.
        """
        t0_estimate = period(a, rotation.q)
        trajectory = reference_trace(a, 1.02 * t0_estimate, rtol=1e-12, atol=1e-14)
        t0 = find_root_monotone(
            lambda t: float(trajectory(t)[2]) - 2.0 * pi * rotation.p,
            0.98 * t0_estimate, 1.02 * t0_estimate)
        return t0, trajectory

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9)])
    def test_matches_full_period_trace(self, tori, p, q):
        # the arc copies must reproduce a geodesic traced through all 2q arcs
        profile = tori[(p, q)].profile
        t0, trajectory = self._full_period_trace(profile.a, RotationNumber(p, q))
        assert abs(profile.t0 - t0) <= 1e-9 * t0
        ts = np.linspace(0.0, profile.t0, 4001)
        phi, _, theta, _ = trajectory(ts)
        np.testing.assert_allclose(profile.phi_at(ts), phi, rtol=0.0, atol=1e-7)
        np.testing.assert_allclose(profile.theta_at(ts), theta, rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9), (10, 19)])
    def test_profile_matches_tight_reference(self, tori, p, q):
        # one u-cycle (two arcs): over a whole period the reference's own
        # error reaches 1.4e-10 in theta on 5/9 at these tolerances
        profile = (tori.get((p, q)) or build_torus(RotationNumber(p, q))).profile
        span = profile.t0 / q
        trajectory = reference_trace(profile.a, span, rtol=1e-13, atol=1e-15)
        ts = np.linspace(0.0, span, 4001)
        phi, _, theta, _ = trajectory(ts)
        np.testing.assert_allclose(profile.phi_at(ts), phi, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(profile.theta_at(ts), theta, rtol=0.0, atol=1e-10)

    def test_closed_form_interpolant_matches_from_derivatives(self, torus_23):
        cycle = torus_23.profile.cycle
        knots, f, df, ddf, _ = geometry._phase_knot_table(torus_23.profile.a)
        ts = np.linspace(0.0, cycle.period, 100_000, endpoint=False)
        for row in (0, 1):
            looped = BPoly.from_derivatives(knots, np.column_stack([f[row], df[row], ddf[row]]))
            value, slope = cycle._evaluate(row, ts, slope=True)
            np.testing.assert_allclose(value, looped(ts), rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(slope, looped(ts, 1), rtol=1e-11, atol=0.0)
            value, slope = cycle._evaluate(row, knots[:-1], slope=True)
            np.testing.assert_allclose(value, f[row, :-1], rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(slope, df[row, :-1], rtol=1e-15, atol=0.0)


class TestBuildTorus:
    @pytest.mark.parametrize("p,q", list(REFERENCE))
    def test_reference_functional_values(self, tori, p, q):
        lam_ref = REFERENCE[(p, q)][2]
        torus = tori[(p, q)]
        assert abs(torus.lambda_value - lam_ref) <= 1e-3 * lam_ref
        assert torus.eigenvalue_index == REFERENCE[(p, q)][1]
        assert torus.area == torus.profile.t0
        assert torus.lambda_value == 2.0 * torus.area

    @pytest.mark.parametrize("p,q", list(REFERENCE))
    def test_quadrature_and_ode_periods_agree(self, tori, p, q):
        torus = tori[(p, q)]
        t0_quad = period(torus.profile.a, q)
        assert abs(torus.profile.t0 - t0_quad) <= 1e-6 * t0_quad

    def test_index_is_odd_and_at_least_3(self, tori):
        for torus in tori.values():
            assert torus.eigenvalue_index % 2 == 1
            assert torus.eigenvalue_index >= 3


class TestWindowEdges:
    def test_build_near_upper_window(self):
        # 7/10 sits close to sqrt(2)/2; the turning value lands past 0.5
        torus = geometry.build_torus(RotationNumber(7, 10))
        profile = torus.profile
        assert 0.5 < profile.a < pi / 4.0
        assert profile.speed_error < 1e-7
        assert profile.momentum_error < 1e-7
        assert torus.eigenvalue_index == 13

    def test_inconsistent_turning_value_fails_closure(self):
        # a turning value that belongs to no 2/3 geodesic cannot close
        with pytest.raises(geometry.ClosureFailure):
            trace_geodesic(0.2, RotationNumber(2, 3))


class TestPhaseSeries:
    def test_thin_tori_close_with_a_longer_series(self):
        # the theta rate of 48/95 has a tail of 1.4e-4 of its mean at 256
        # nodes, which left theta(t0) 1e-6 from 2 pi p
        for p, q in ((48, 95), (50, 99)):
            profile = trace_geodesic(solve_turning_value(RotationNumber(p, q)),
                                     RotationNumber(p, q), n_samples=4096)
            assert profile.closure_theta_error <= 1e-9, (p, q)

    def test_benchmark_tori_keep_the_first_series(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_SERIES_NODES", geometry._SERIES_NODES)
        for p, q in REFERENCE:
            geometry._phase_knot_table(solve_turning_value(RotationNumber(p, q)))

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9), (50, 99)])
    def test_theta_of_phase_matches_the_knot_table(self, p, q):
        # the direct sum of theta's series against its FFT sum at the knots,
        # and the closure theta(2 pi q) = 2 pi p
        a = solve_turning_value(RotationNumber(p, q))
        _, f, _, _, _ = geometry._phase_knot_table(a)
        cycle = geometry._PhaseCycle(a)
        np.testing.assert_allclose(cycle.theta_of_phase(f[0]), f[1], rtol=0.0, atol=1e-12)
        assert abs(cycle.theta_of_phase(2.0 * pi * q) - 2.0 * pi * p) <= 1e-9

    def test_phase_metric_against_the_arc_length_quadrature(self, torus_23):
        # the mean of J over a u-cycle is the cycle's length over 2 pi,
        # two arcs: 2 L(a) / (2 pi)
        a = torus_23.profile.a
        _, J = geometry.phase_metric(a, np.arange(256) * (2.0 * pi / 256))
        assert abs(J.mean() - arc_length_quarter(a) / pi) <= 1e-12 * J.mean()

    def test_node_cap_raises_closure_failure(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_SERIES_NODES", 512)
        with pytest.raises(geometry.ClosureFailure, match="tail"):
            geometry._phase_knot_table(solve_turning_value(RotationNumber(48, 95)))


class TestEmbedding:
    def test_initial_point(self, torus_23):
        a = torus_23.profile.a
        point = embed(torus_23, 0.0, 0.0)
        np.testing.assert_allclose(point.as_array(),
                                   [math.sin(a), 0.0, math.cos(a), 0.0], atol=1e-12)

    def test_quarter_orbit(self, torus_23):
        a = torus_23.profile.a
        point = embed(torus_23, pi / 2.0, 0.0)
        np.testing.assert_allclose(point.as_array(),
                                   [0.0, math.sin(a), math.cos(a), 0.0], atol=1e-12)

    def test_unit_norm_everywhere(self, torus_23):
        rng = np.random.default_rng(7)
        for alpha, frac in zip(rng.uniform(0, 2 * pi, 50), rng.uniform(0, 1, 50)):
            point = embed(torus_23, float(alpha), float(frac) * torus_23.t0 * 0.999)
            assert abs(np.sum(point.as_array() ** 2) - 1.0) <= 1e-9

    def test_out_of_range(self, torus_23):
        with pytest.raises(OutOfRange):
            embed(torus_23, 2.0 * pi, 0.0)
        with pytest.raises(OutOfRange):
            embed(torus_23, 0.0, torus_23.t0)
        with pytest.raises(OutOfRange):
            embed(torus_23, -0.1, 0.0)

    def test_grid_matches_pointwise(self, torus_23):
        alphas = np.array([0.0, 1.0, 4.0])
        ts = np.array([0.0, 0.3 * torus_23.t0, 0.8 * torus_23.t0])
        grid = embedding_grid(torus_23, alphas, ts)
        for i, alpha in enumerate(alphas):
            for j, t in enumerate(ts):
                np.testing.assert_allclose(
                    grid[i, j], embed(torus_23, float(alpha), float(t)).as_array(),
                    atol=1e-12)

    def test_projection_pole_never_hit(self, tori):
        for torus in tori.values():
            profile = torus.profile
            w_max = np.max(np.abs(np.cos(profile.phi) * np.sin(profile.theta)))
            assert w_max < 1.0 - 1e-6


class TestInducedMetric:
    def test_product_identity(self, torus_23):
        for t in np.linspace(0.0, torus_23.t0, 37):
            g_aa, g_tt = induced_metric_at(torus_23, float(t))
            assert abs(g_aa * g_tt - 1.0 / (4.0 * pi ** 2)) <= 1e-12

    def test_clifford_constant(self, clifford):
        g_aa, _ = induced_metric_at(clifford, 1.2345)
        assert abs(g_aa - 0.5) <= 1e-9

    def test_area_from_volume_form(self, torus_23):
        # integral of sqrt(g_aa g_tt) over the fundamental domain equals t0
        ts = (np.arange(400) + 0.5) * (torus_23.t0 / 400)
        density = [math.sqrt(np.prod(induced_metric_at(torus_23, float(t)))) for t in ts]
        integral = 2.0 * pi * float(np.mean(density)) * torus_23.t0
        assert abs(integral - torus_23.t0) <= 1e-9 * torus_23.t0

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
    RotationNumber,
    arc_length_quarter,
    build_torus,
    clairaut_momentum,
    embedding_grid,
    omega,
    period,
    solve_turning_value,
    trace_geodesic,
)
from otsuki.numerics import find_root_monotone

from conftest import REFERENCE, count_interpolant_builds, level_by_level_quadrature


def E_prime(phi):
    """dE/dphi of the orbit metric, in closed form."""
    return 4.0 * pi ** 2 * np.sin(2.0 * phi)


def G_prime(phi):
    """dG/dphi of the orbit metric, in closed form."""
    return 2.0 * pi ** 2 * np.sin(4.0 * phi)


def geodesic_rhs(t, y):
    """The second-order geodesic equations of the orbit metric, for RK45 references."""
    phi, phi_dot, theta, theta_dot = y
    E, G = OrbitMetric.E(phi), OrbitMetric.G(phi)
    phi_dd = (-E_prime(phi) / (2.0 * E) * phi_dot ** 2
              + G_prime(phi) / (2.0 * E) * theta_dot ** 2)
    theta_dd = -G_prime(phi) / G * phi_dot * theta_dot
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
        assert 0.5 < r.closure_angle / pi < math.sqrt(2.0) / 2.0
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
        np.testing.assert_allclose(E_prime(phi),
                                   (OrbitMetric.E(phi + h) - OrbitMetric.E(phi - h)) / (2 * h),
                                   rtol=1e-8)
        np.testing.assert_allclose(G_prime(phi),
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

    def test_closure_bits_of_every_label_up_to_q_100(self, monkeypatch):
        # The quadrature's one call per block must not move a turning value
        # or a period by a single bit against the level-by-level rule.
        labels = [(p, q) for q in range(2, 101) for p in range(1, q)
                  if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]
        assert len(labels) == 630

        def closure(p, q):
            a = solve_turning_value(RotationNumber(p, q))
            return a, period(a, q)

        fused = [closure(p, q) for p, q in labels]
        monkeypatch.setattr(geometry, "integrate_singular", level_by_level_quadrature)
        assert [closure(p, q) for p, q in labels] == fused

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9), (50, 99), (7, 10)])
    def test_omega_evaluated_once_per_argument(self, monkeypatch, p, q):
        # the bracket search and the root finder share one memoized residual
        # that looks omega up at call time, so a hook on geometry.omega sees each call
        seen = []
        monkeypatch.setattr(geometry, "omega", lambda a: seen.append(a) or omega(a))
        a = solve_turning_value(RotationNumber(p, q))
        assert len(seen) == len(set(seen)) > 2
        # and the root is that of the plain residual, evaluated afresh at each point
        target, lo = RotationNumber(p, q).closure_angle, 0.01
        while omega(lo) >= target:
            lo *= 0.5
        assert a == find_root_monotone(lambda x: omega(x) - target, lo, pi / 4.0)


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
        phi, _, phi_dot, theta_dot = profile._state(t)
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
        profile = torus_23.profile
        knots, f, df, ddf = geometry._phase_knot_table(geometry._phase_series(profile.a))
        _, coef, _ = profile._interpolant
        ts = np.linspace(0.0, profile.cycle_period, 100_000, endpoint=False)
        for row in (0, 1):
            looped = BPoly.from_derivatives(knots, np.column_stack([f[row], df[row], ddf[row]]))
            value, slope = geometry._horner(knots, coef[row], ts, slope=True)
            np.testing.assert_allclose(value, looped(ts), rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(slope, looped(ts, 1), rtol=1e-11, atol=0.0)
            value, slope = geometry._horner(knots, coef[row], knots[:-1], slope=True)
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
        # a turning value that belongs to no 2/3 geodesic cannot close; the
        # series shows it at trace time
        with pytest.raises(geometry.ClosureFailure, match="theta"):
            trace_geodesic(0.2, RotationNumber(2, 3))


class TestLazyInterpolant:
    """The trace computes the phase series only; the interpolant is built on its first read."""

    def test_first_read_builds_the_interpolant_once(self, monkeypatch):
        built = count_interpolant_builds(monkeypatch)
        torus = build_torus(RotationNumber(2, 3))
        profile = torus.profile
        assert built == []
        first = profile.phi_at(1.0)
        assert len(built) == 1
        # later reads, of every kind, reuse it
        profile.phi, profile.theta_at(profile.t0), profile.closure_phi_error
        embedding_grid(torus, np.zeros(2), np.linspace(0.0, torus.t0, 5))
        assert profile.phi_at(1.0) == first and len(built) == 1
        # the samples, read first, build it too
        build_torus(RotationNumber(3, 5)).profile.phi
        assert len(built) == 2

    def test_perturbed_half_cycle_knot_fails_on_first_read(self, monkeypatch):
        # u at the knot u = pi, the end of the first arc, moved by 1e-2: the
        # series (and so the trace) is sound, the interpolant is not
        table = geometry._phase_knot_table

        def perturbed(series):
            knots, f, df, ddf = table(series)
            f = f.copy()
            f[0, geometry._KNOTS // 2] += 1e-2
            return knots, f, df, ddf

        monkeypatch.setattr(geometry, "_phase_knot_table", perturbed)
        profile = build_torus(RotationNumber(2, 3)).profile
        for read in (lambda: profile.phi_at(0.0), lambda: profile.theta,
                     lambda: profile._state(0.0), lambda: profile.closure_phi_error):
            with pytest.raises(geometry.ClosureFailure, match="phi"):
                read()

    def test_phi_closure_keeps_its_definition(self, tori, clifford):
        # phi and dphi/dt on the interpolant at the end t0 / (2 q) of the first arc
        for torus in [*tori.values(), clifford]:
            profile = torus.profile
            phi, _, phi_dot, _ = profile._state(profile.t0 / profile.arcs_per_period)
            assert profile.closure_phi_error == max(abs(float(phi) - (pi / 2.0 - profile.a)),
                                                    abs(float(phi_dot)))

    def test_theta_closure_from_the_series(self, tori, clifford):
        # advance t0 / period against theta(t0) on the interpolant: the same to rounding
        for torus in [*tori.values(), clifford]:
            profile = torus.profile
            theta = float(profile.theta_at(profile.t0))
            assert abs(profile.closure_theta_error
                       - abs(theta - 2.0 * pi * profile.theta_winding)) <= 1e-12


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
            a = solve_turning_value(RotationNumber(p, q))
            geometry._phase_knot_table(geometry._phase_series(a))

    @pytest.mark.parametrize("p,q", [(2, 3), (5, 9), (50, 99)])
    def test_theta_of_phase_matches_the_knot_table(self, p, q):
        # the direct sum of theta's series against its FFT sum at the knots,
        # and the closure theta(2 pi q) = 2 pi p; then the grid evaluator
        # against the direct sum, at the knots and over the q cycles of a
        # period at 256 rows a cycle, twice the resolving grid
        rotation = RotationNumber(p, q)
        profile = trace_geodesic(solve_turning_value(rotation), rotation)
        _, f, _, _ = geometry._phase_knot_table(profile._series)
        np.testing.assert_allclose(theta_of_phase(profile, f[0]), f[1], rtol=0.0, atol=1e-12)
        assert abs(theta_of_phase(profile, 2.0 * pi * q) - 2.0 * pi * p) <= 1e-9
        knots = geometry._KNOTS
        np.testing.assert_allclose(profile.theta_on_grid(2.0 * pi / knots, knots), f[1, :-1],
                                   rtol=0.0, atol=1e-12)
        n = 2 * max(2048, 1 << (256 * q - 1).bit_length())
        du = 2.0 * pi * q / n
        np.testing.assert_allclose(profile.theta_on_grid(du, n),
                                   theta_of_phase(profile, du * np.arange(n)),
                                   rtol=0.0, atol=1e-14 * 2.0 * pi * p)

    def test_theta_on_grid_of_the_clifford_circle(self, clifford):
        # no waves: theta = slope u on any grid, not only on whole u-cycles
        profile = clifford.profile
        du = clifford.t0 / profile.cycle_period * 2.0 * pi / 256
        np.testing.assert_allclose(profile.theta_on_grid(du, 256),
                                   theta_of_phase(profile, du * np.arange(256)), rtol=0.0, atol=1e-15)

    def test_phase_metric_against_the_arc_length_quadrature(self, torus_23):
        # the mean of J over a u-cycle is the cycle's length over 2 pi,
        # two arcs: 2 L(a) / (2 pi)
        a = torus_23.profile.a
        _, J = geometry.phase_metric(a, np.arange(256) * (2.0 * pi / 256))
        assert abs(J.mean() - arc_length_quarter(a) / pi) <= 1e-12 * J.mean()

    def test_node_cap_raises_closure_failure(self, monkeypatch):
        monkeypatch.setattr(geometry, "_MAX_SERIES_NODES", 512)
        a = solve_turning_value(RotationNumber(48, 95))
        with pytest.raises(geometry.ClosureFailure, match="tail"):
            geometry._phase_knot_table(geometry._phase_series(a))


def theta_of_phase(profile, u):
    """theta at phase u, its Fourier series summed directly (Horner's rule in e^{iu})."""
    c, integral = profile._series
    slope, b = c[1, 0].real, integral[1]
    waves = np.polynomial.polynomial.polyval(np.exp(1j * u), b)
    return slope * u + 2.0 * (waves.real - b.real.sum())


def embedding_point(torus, alpha, t):
    """The one ambient point (alpha, t) of :func:`embedding_grid`."""
    return embedding_grid(torus, np.array([alpha]), np.array([t]))[0, 0]


def embedding_tangents(torus, alphas, ts, h=1e-5):
    """X_alpha and X_t over the grid alphas x ts, by central differences of the embedding."""
    x_alpha = embedding_grid(torus, alphas + h, ts) - embedding_grid(torus, alphas - h, ts)
    x_t = embedding_grid(torus, alphas, ts + h) - embedding_grid(torus, alphas, ts - h)
    return x_alpha / (2.0 * h), x_t / (2.0 * h)


class TestEmbedding:
    def test_initial_point(self, torus_23):
        a = torus_23.profile.a
        np.testing.assert_allclose(embedding_point(torus_23, 0.0, 0.0),
                                   [math.sin(a), 0.0, math.cos(a), 0.0], atol=1e-12)

    def test_quarter_orbit(self, torus_23):
        a = torus_23.profile.a
        np.testing.assert_allclose(embedding_point(torus_23, pi / 2.0, 0.0),
                                   [0.0, math.sin(a), math.cos(a), 0.0], atol=1e-12)

    def test_unit_norm_everywhere(self, torus_23):
        rng = np.random.default_rng(7)
        for alpha, frac in zip(rng.uniform(0, 2 * pi, 50), rng.uniform(0, 1, 50)):
            point = embedding_point(torus_23, float(alpha), float(frac) * torus_23.t0 * 0.999)
            assert abs(np.sum(point ** 2) - 1.0) <= 1e-9

    def test_projection_pole_never_hit(self, tori):
        for torus in tori.values():
            profile = torus.profile
            w_max = np.max(np.abs(np.cos(profile.phi) * np.sin(profile.theta)))
            assert w_max < 1.0 - 1e-6


class TestInducedMetric:
    @pytest.mark.parametrize("name", ["torus_23", "clifford"])
    def test_first_fundamental_form_by_finite_differences(self, request, name):
        # |X_alpha|^2 = sin(phi)^2, |X_t|^2 = 1 / (4 pi^2 sin(phi)^2) (the
        # geodesic has unit speed in the orbit metric) and X_alpha . X_t = 0
        torus = request.getfixturevalue(name)
        alphas = np.linspace(0.1, 6.0, 5)
        ts = np.linspace(0.013, 0.987, 37) * torus.t0
        x_alpha, x_t = embedding_tangents(torus, alphas, ts)
        sin_sq = np.sin(torus.profile.phi_at(ts)) ** 2
        np.testing.assert_allclose(np.sum(x_alpha ** 2, axis=-1) / sin_sq, 1.0, rtol=1e-8)
        np.testing.assert_allclose(np.sum(x_t ** 2, axis=-1) * (4.0 * pi ** 2 * sin_sq), 1.0,
                                   rtol=1e-8)
        np.testing.assert_allclose(np.sum(x_alpha * x_t, axis=-1), 0.0, atol=1e-11)

    def test_area_from_volume_form(self, torus_23):
        # integral of |X_alpha ^ X_t| over the fundamental domain equals t0
        ts = (np.arange(400) + 0.5) * (torus_23.t0 / 400)
        x_alpha, x_t = embedding_tangents(torus_23, np.array([1.0]), ts)
        density = np.sqrt(np.sum(x_alpha ** 2, axis=-1) * np.sum(x_t ** 2, axis=-1)
                          - np.sum(x_alpha * x_t, axis=-1) ** 2)
        integral = 2.0 * pi * float(np.mean(density)) * torus_23.t0
        assert abs(integral - torus_23.t0) <= 1e-9 * torus_23.t0

import math
from math import pi

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from otsuki import spectral
from otsuki.geometry import RotationNumber, build_torus
from otsuki.spectral import (
    GridTooCoarse,
    assemble,
    count_below,
    count_sign_changes,
    eigen_low,
    known_eigenfunction_residuals,
    lambda0_monotone_check,
    operator_matrix,
    resolving_grid,
)


class TestCountSignChanges:
    def test_two_blocks(self):
        assert count_sign_changes(np.array([1.0, 1.0, -1.0, -1.0])) == 2

    def test_alternating(self):
        assert count_sign_changes(np.array([1.0, -1.0, 1.0, -1.0])) == 4

    def test_cyclic_wraparound_counted(self):
        assert count_sign_changes(np.array([-1.0, 1.0, 1.0, 1.0])) == 2

    def test_near_zero_entries_ignored(self):
        v = np.array([1.0, 1e-14, -1.0, -1.0, 1e-13, 1.0])
        assert count_sign_changes(v) == 2

    def test_constant(self):
        assert count_sign_changes(np.ones(16)) == 0


class TestAssemble:
    def test_l0_has_zero_potential(self, torus_23):
        problem = assemble(torus_23, 0, 256)
        assert np.all(problem.Q == 0.0)

    def test_stiffness_range(self, torus_23):
        a = torus_23.profile.a
        problem = assemble(torus_23, 2, 512)
        lo = 4.0 * pi ** 2 * math.sin(a) ** 2
        hi = 4.0 * pi ** 2 * math.cos(a) ** 2
        for coeff in (problem.P, problem.P_mid):
            assert coeff.min() >= lo - 1e-9
            assert coeff.max() <= hi + 1e-9

    def test_clifford_constant_coefficients(self, clifford):
        problem = assemble(clifford, 3, 256)
        np.testing.assert_allclose(problem.P, 2.0 * pi ** 2, rtol=1e-9)
        np.testing.assert_allclose(problem.P_mid, 2.0 * pi ** 2, rtol=1e-9)
        np.testing.assert_allclose(problem.Q, 18.0, rtol=1e-9)

    def test_grid_floor(self, torus_23):
        with pytest.raises(GridTooCoarse):
            assemble(torus_23, 0, 32)

    def test_grid_must_resolve_oscillations(self, tori):
        with pytest.raises(GridTooCoarse):
            assemble(tori[(5, 9)], 0, 128)  # 32 p = 160

    def test_negative_mode_rejected(self, torus_23):
        with pytest.raises(ValueError):
            assemble(torus_23, -1, 256)


class TestOperatorMatrix:
    def test_exactly_symmetric(self, torus_23):
        A = operator_matrix(assemble(torus_23, 1, 512))
        assert (A - A.T).nnz == 0

    def test_cyclic_tridiagonal_structure(self, torus_23):
        n = 256
        A = operator_matrix(assemble(torus_23, 0, n)).toarray()
        mask = np.zeros((n, n), dtype=bool)
        idx = np.arange(n)
        mask[idx, idx] = mask[idx, (idx + 1) % n] = mask[(idx + 1) % n, idx] = True
        assert np.all(A[~mask] == 0.0)
        assert np.all(A[idx, (idx + 1) % n] < 0.0)

    def test_constants_in_kernel_for_l0(self, torus_23):
        A = operator_matrix(assemble(torus_23, 0, 512))
        assert np.max(np.abs(A @ np.ones(512))) <= 1e-9


class TestEigenLow:
    def test_against_dense_solver(self, torus_23):
        # independent oracle: full dense symmetric eigensolve at small n
        problem = assemble(torus_23, 0, 1024)
        sparse_vals = eigen_low(problem, 8).eigenvalues
        dense_vals = np.sort(scipy.linalg.eigh(
            operator_matrix(problem).toarray(), eigvals_only=True))[:8]
        np.testing.assert_allclose(sparse_vals, dense_vals, atol=1e-8)

    def test_k_bounds(self, torus_23):
        problem = assemble(torus_23, 0, 256)
        with pytest.raises(ValueError):
            eigen_low(problem, 0)
        with pytest.raises(ValueError):
            eigen_low(problem, 65)

    def test_ground_state_l0_is_constant(self, torus_23):
        spectrum = eigen_low(assemble(torus_23, 0, 1024), 1)
        assert abs(spectrum.eigenvalues[0]) <= 1e-8
        v = spectrum.eigenvectors[:, 0]
        assert np.max(np.abs(v - v.mean())) <= 1e-6 * np.abs(v).max()

    def test_clifford_closed_form_spectrum(self, clifford):
        spectrum = eigen_low(assemble(clifford, 0, 2048), 7)
        np.testing.assert_allclose(spectrum.eigenvalues,
                                   [0.0, 2.0, 2.0, 8.0, 8.0, 18.0, 18.0], atol=1e-3)
        assert spectrum.zero_counts == [0, 2, 2, 4, 4, 6, 6]

    def test_clifford_mode_offsets(self, clifford):
        # constant coefficients: lambda_0(l) = 2 l^2
        for l in range(4):
            spectrum = eigen_low(assemble(clifford, l, 1024), 1)
            assert abs(spectrum.eigenvalues[0] - 2.0 * l * l) <= 1e-3

    def test_oscillation_counts(self, torus_23):
        p = torus_23.rotation.p
        spectrum = eigen_low(assemble(torus_23, 0, 2048), 2 * p + 1)
        expected = [0] + [2 * (i // 2 + 1) for i in range(2 * p)]
        assert spectrum.zero_counts == expected

    def test_eigenvector_at_index_2p_minus_1_oscillates_2p_times(self, torus_23):
        p = torus_23.rotation.p
        spectrum = eigen_low(assemble(torus_23, 0, 2048), 2 * p + 1)
        assert spectrum.zero_counts[2 * p - 1] == 2 * p

    def test_interlacing_structure(self, torus_23):
        vals = eigen_low(assemble(torus_23, 0, 2048), 9).eigenvalues
        assert np.all(np.diff(vals) >= -1e-10)  # sorted
        for i in range(0, 7, 2):
            assert vals[i + 1] - vals[i] > 1e-3  # strict below each pair

    def test_ground_state_l1_is_sin_phi(self, torus_23):
        problem = assemble(torus_23, 1, 2048)
        spectrum = eigen_low(problem, 1)
        assert abs(spectrum.eigenvalues[0] - 2.0) <= 1e-3
        assert spectrum.zero_counts[0] == 0
        v = spectrum.eigenvectors[:, 0]
        s = np.sin(torus_23.profile.phi_at(problem.grid))
        cosine = abs(v @ s) / (np.linalg.norm(v) * np.linalg.norm(s))
        assert cosine > 0.9999


class TestEigenvalueConvergence:
    def test_second_order_in_grid_and_richardson(self, torus_23):
        # lambda_5(0) is simple and away from 0 and 2, a clean probe
        index = 5
        values = {n: eigen_low(assemble(torus_23, 0, n), 7).eigenvalues[index]
                  for n in (512, 1024, 2048, 8192)}
        d1 = values[512] - values[1024]
        d2 = values[1024] - values[2048]
        assert 3.0 <= d1 / d2 <= 5.0  # O(n^-2) halving
        truth = values[8192]
        richardson = (4.0 * values[2048] - values[1024]) / 3.0
        assert abs(richardson - truth) <= 0.1 * abs(values[2048] - truth)


class TestKnownEigenfunctionResiduals:
    def test_residuals_small_and_second_order(self, torus_23):
        coarse = known_eigenfunction_residuals(torus_23, 1024)
        fine = known_eigenfunction_residuals(torus_23, 2048)
        for rc, rf in zip(coarse, fine):
            assert rf < 2e-4
            assert 1.7 <= math.log2(rc / rf) <= 2.3

    def test_thin_torus_orders_at_resolving_grid(self, tori):
        torus = tori[(5, 9)]
        n = resolving_grid(torus)
        coarse = known_eigenfunction_residuals(torus, n)
        fine = known_eigenfunction_residuals(torus, 2 * n)
        for rc, rf in zip(coarse, fine):
            assert 1.7 <= math.log2(rc / rf) <= 2.3


class TestCountBelow:
    def test_2_3_report(self, torus_23):
        report = count_below(torus_23, threshold=2.0, l_max=3, n_grid=2048)
        assert report.n2 == 3
        assert report.claimed == 3
        assert report.verdict is True
        assert report.grids_used == [2048, 4096]
        assert len(set(report.counts_by_grid.values())) == 1
        assert report.truncation_confirmed is True
        assert report.tolerance_band < 1e-3
        anchors = {(l, i) for l, i, _ in report.eigenvalues_near_2}
        assert {(0, 3), (0, 4), (1, 0)} <= anchors

    def test_count_is_stable_in_l_max(self, torus_23):
        r2 = count_below(torus_23, l_max=2, n_grid=1024)
        r3 = count_below(torus_23, l_max=3, n_grid=1024)
        assert r2.n2 == r3.n2 == 3

    def test_l_max_floor(self, torus_23):
        with pytest.raises(ValueError):
            count_below(torus_23, l_max=1)


class TestCountBelowClassification:
    """White-box checks of the guard-band logic against doctored spectra.

    ``operator_matrix`` is replaced by a diagonal matrix whose low entries
    are the doctored eigenvalues of the mode; the rest of the diagonal is
    padded with values far above the threshold.
    """

    @staticmethod
    def _doctor(monkeypatch, spectrum_of):
        def fake(problem):
            low = np.array(spectrum_of(problem), dtype=float)
            pad = 20.0 + np.arange(problem.n_grid - low.size)
            return sp.diags(np.concatenate([low, pad])).tocsc()
        monkeypatch.setattr(spectral, "operator_matrix", fake)

    def test_shoulder_value_raises_ambiguous(self, torus_23, monkeypatch):
        # anchors displaced by 1e-6 set a 1e-5 band; 1.999985 sits in the
        # shoulder (2 - 2 band, 2 - band) and must abort the count
        pad = list(np.arange(3.0, 20.0))
        spectra = {
            0: [0.0, 1.999985, 1.9999990, 2.0000010] + pad,
            1: [2.0000005] + pad,
            2: [5.0] + pad,
            3: [7.0] + pad,
        }
        self._doctor(monkeypatch, lambda problem: spectra[problem.l])
        with pytest.raises(spectral.AmbiguousCount) as excinfo:
            count_below(torus_23, n_grid=256)
        assert "(0, 1.999985)" in str(excinfo.value)

    def test_wrong_count_fails_verdict(self, torus_23, monkeypatch):
        pad = list(np.arange(3.0, 20.0))
        spectra = {
            0: [0.0, 0.5, 1.9999990, 2.0000010] + pad,  # only 2 below, claimed 3
            1: [2.0000005] + pad,
            2: [5.0] + pad,
            3: [7.0] + pad,
        }
        self._doctor(monkeypatch, lambda problem: spectra[problem.l])
        report = count_below(torus_23, n_grid=256)
        assert report.n2 == 2
        assert report.verdict is False

    def test_unstable_count_fails_verdict(self, torus_23, monkeypatch):
        pad = list(np.arange(3.0, 20.0))

        def spectrum_of(problem):
            extra = [0.5] if problem.n_grid == 256 else []
            return {
                0: [0.0] + extra + [0.7, 1.2, 1.9999990, 2.0000010] + pad,
                1: [2.0000005] + pad,
                2: [5.0] + pad,
                3: [7.0] + pad,
            }[problem.l]

        self._doctor(monkeypatch, spectrum_of)
        report = count_below(torus_23, n_grid=256)
        assert len(set(report.counts_by_grid.values())) == 2
        assert report.verdict is False

    def test_low_mode_below_threshold_fails_verdict(self, torus_23, monkeypatch):
        pad = list(np.arange(3.0, 20.0))
        spectra = {
            0: [0.0, 0.5, 0.7, 1.9999990, 2.0000010] + pad,
            1: [2.0000005] + pad,
            2: [1.5] + pad,  # scan truncation assumption violated
            3: [7.0] + pad,
        }
        self._doctor(monkeypatch, lambda problem: spectra[problem.l])
        report = count_below(torus_23, n_grid=256)
        assert report.truncation_confirmed is False
        assert report.verdict is False

    def test_many_eigenvalues_in_one_mode_counted_in_full(self, torus_23, monkeypatch):
        # 20 mode-0 eigenvalues below 2, far more than the claimed 3
        pad = list(np.arange(3.0, 20.0))
        spectra = {
            0: list(np.linspace(0.0, 1.9, 20)) + [1.9999990, 2.0000010] + pad,
            1: [2.0000005] + pad,
            2: [5.0] + pad,
            3: [7.0] + pad,
        }
        self._doctor(monkeypatch, lambda problem: spectra[problem.l])
        report = count_below(torus_23, n_grid=256)
        assert report.counts_by_grid == {256: 20, 512: 20}
        assert report.n2 == 20
        assert report.verdict is False


def _lowest_above(problem, sigma):
    """Lanczos eigenvalues of the problem from the lowest through the first above sigma."""
    k = 4
    while True:
        vals = eigen_low(problem, k).eigenvalues
        if vals[-1] > sigma:
            return vals
        k *= 2


class TestInertiaAgainstLanczos:
    """The inertia count against an independent count of Lanczos eigenvalues."""

    def test_shift_at_an_eigenvalue_raises(self):
        A = sp.diags([1.0, 2.0, 3.0]).tocsc()
        assert spectral._inertia(A, 2.5) == 2
        with pytest.raises(spectral.SolverFailure, match="singular"):
            spectral._inertia(A, 2.0)

    def test_zero_leading_pivot_is_counted(self):
        # A - I has a zero leading pivot; eigenvalues -1, 3, 3
        A = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]]))
        assert spectral._inertia(A, 1.0) == 1

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_inertia_matches_lanczos_count(self, tori, label):
        torus = tori[label]
        band = count_below(torus).tolerance_band
        sigmas = (2.0 - band, 2.0, 2.0 + band)
        for n in (2048, 4096):
            for l in range(4):
                problem = assemble(torus, l, n)
                vals = _lowest_above(problem, sigmas[-1])
                A = operator_matrix(problem)
                for sigma in sigmas:
                    expected = np.sum(vals < sigma)
                    assert spectral._inertia(A, sigma) == expected, (n, l, sigma)

    def test_near_threshold_list_matches_lanczos_on_6_11(self):
        torus = build_torus(RotationNumber(6, 11))
        report = count_below(torus)
        band = report.tolerance_band
        expected = []
        for l in range(4):
            vals = _lowest_above(assemble(torus, l, report.grids_used[-1]), 2.0 + band)
            expected += [(l, i, v) for i, v in enumerate(vals) if abs(v - 2.0) <= band]
        got = report.eigenvalues_near_2
        assert len(got) == 13
        assert sum(l == 1 for l, _, _ in got) == 11
        assert [(l, i) for l, i, _ in got] == [(l, i) for l, i, _ in expected]
        np.testing.assert_allclose([v for _, _, v in got], [v for _, _, v in expected],
                                   rtol=0.0, atol=1e-9)


class TestBorderedFactorization:
    """Edge cases of the bordered factorization and a dense cross-check."""

    def test_zero_schur_complement_raises(self):
        # the leading block diag(1, 3) - 2 is regular; the corner pivot is 0
        A = sp.diags([1.0, 3.0, 2.0]).tocsc()
        assert spectral._inertia(A, 2.5) == 2
        with pytest.raises(spectral.SolverFailure, match="Schur"):
            spectral._inertia(A, 2.0)

    def test_entry_outside_the_pattern_rejected(self):
        A = np.diag([4.0, 5.0, 6.0, 7.0]) + np.diag([1.0, 1.0, 1.0], 1)
        A += np.triu(A, 1).T
        A[0, 3] = A[3, 0] = 0.5
        assert spectral._inertia(sp.csc_matrix(A), 0.0) == 0
        A[0, 2] = A[2, 0] = 0.25
        with pytest.raises(ValueError, match="pattern"):
            spectral._inertia(sp.csc_matrix(A), 0.0)

    def test_asymmetric_matrix_rejected(self):
        A = np.diag([4.0, 5.0, 6.0, 7.0]) + np.diag([1.0, 1.0, 1.0], 1)
        with pytest.raises(ValueError, match="symmetric"):
            spectral._inertia(sp.csc_matrix(A), 0.0)

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_inertia_matches_dense_count(self, tori, label):
        torus = tori[label]
        band = count_below(torus).tolerance_band
        turn = np.roll(np.arange(256), 100)  # a cyclic relabelling moves the border row
        for l in range(4):
            A = operator_matrix(assemble(torus, l, 256))
            vals = np.linalg.eigvalsh(A.toarray())
            for sigma in (0.5, 2.0 - band, 2.0, 2.0 + band, 10.0):
                expected = np.sum(vals < sigma)
                assert spectral._inertia(A, sigma) == expected, (l, sigma)
                assert spectral._inertia(A[turn][:, turn], sigma) == expected, (l, sigma)

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_solve_residual(self, tori, label):
        rng = np.random.default_rng(7)
        for l in range(4):
            A = operator_matrix(assemble(tori[label], l, 256))
            for sigma in (-1.0, 2.0):
                b = rng.standard_normal(256)
                x = spectral._ShiftedCyclic(A, sigma).solve(b)
                residual = A @ x - sigma * x - b
                assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b), (l, sigma)


def _valid_labels(q_max):
    """Every torus label p/q with q <= q_max, in lowest terms inside the window."""
    labels = []
    for q in range(2, q_max + 1):
        for p in range(1, q):
            try:
                labels.append(RotationNumber(p, q))
            except ValueError:
                pass
    return labels


SWEEP_LABELS = _valid_labels(13)


class TestGeneralization:
    def test_count_for_torus_outside_benchmark_table(self):
        from otsuki.geometry import RotationNumber, build_torus

        torus = build_torus(RotationNumber(7, 10))
        report = count_below(torus, threshold=2.0, l_max=3, n_grid=1024)
        assert report.n2 == 13
        assert report.verdict is True

    def test_sweep_has_twelve_labels(self):
        assert len(SWEEP_LABELS) == 12

    @pytest.mark.parametrize("rotation", SWEEP_LABELS,
                             ids=lambda r: f"{r.p}/{r.q}")
    def test_every_label_up_to_q_13_verifies(self, rotation):
        torus = build_torus(rotation)
        assert torus.profile.closure_phi_error < 1e-6
        assert torus.profile.closure_theta_error < 1e-6
        report = count_below(torus)
        assert report.n2 == 2 * rotation.p - 1
        assert report.verdict is True


class TestLambda0Monotone:
    def test_torus_values(self, torus_23):
        ground = lambda0_monotone_check(torus_23, [0, 1, 2, 3], n_grid=1024)
        assert abs(ground[0]) <= 1e-8
        assert abs(ground[1] - 2.0) <= 1e-3
        assert ground[2] > 2.0
        assert all(b > a for a, b in zip(ground, ground[1:]))

    def test_clifford_closed_form(self, clifford):
        ground = lambda0_monotone_check(clifford, [0, 1, 2, 3], n_grid=1024)
        np.testing.assert_allclose(ground, [0.0, 2.0, 8.0, 18.0], atol=1e-3)

    def test_requires_increasing_modes(self, torus_23):
        with pytest.raises(ValueError):
            lambda0_monotone_check(torus_23, [2, 1])


class TestResolvingGrid:
    def test_clifford_floor(self, clifford):
        assert resolving_grid(clifford) == 2048

    def test_thin_tori_need_finer_grids(self, tori):
        assert resolving_grid(tori[(5, 9)]) > resolving_grid(tori[(2, 3)])

    def test_power_of_two(self, tori):
        for torus in tori.values():
            n = resolving_grid(torus)
            assert n & (n - 1) == 0

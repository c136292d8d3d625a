import math
import time
import tracemalloc
from math import pi

import numpy as np
import pytest
import scipy.linalg

from otsuki import spectral
from otsuki.geometry import RotationNumber, build_torus, phase_metric
from otsuki.spectral import (
    GridTooCoarse,
    assemble,
    count_below,
    count_sign_changes,
    eigen_low,
    known_eigenfunction_residuals,
    lambda0_monotone_check,
    resolving_grid,
)


def _dense(main, off):
    """Dense oracle of the bands: off[j] couples j and j + 1 mod n, in both triangles."""
    j = np.arange(main.size)
    A = np.diag(main)
    A[j, (j + 1) % j.size] = A[(j + 1) % j.size, j] = off
    return A


def _bands(problem):
    return problem.main, problem.off


def _phase_grid(torus, n, offset=0.0):
    """phi and J at u_j = (j + offset) du over the q u-cycles of a torus' period."""
    du = 2.0 * pi * torus.rotation.q / n
    return phase_metric(torus.profile.a, (np.arange(n) + offset) * du)


def _count(main, off, sigma):
    """Eigenvalues below sigma of the cyclic bands: the Sturm counts of both halves."""
    return sum(spectral._inertia(d, e, sigma) for d, e in spectral._halves(main, off))


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
        # independent oracle of the flux sums: l = 0 has them alone on its
        # diagonal, and each mode l adds l^2 / sin^2 phi
        n = 256
        du = 2.0 * pi * 3 / n
        phi, J = _phase_grid(torus_23, n)
        phi_mid, J_mid = _phase_grid(torus_23, n, offset=0.5)
        c = 4.0 * pi ** 2 * np.sin(phi_mid) ** 2 / J_mid
        problems = [assemble(torus_23, l, n) for l in (0, 2)]
        np.testing.assert_allclose(problems[0].main, (c + np.roll(c, 1)) / du ** 2 / J,
                                   rtol=1e-12)
        np.testing.assert_allclose(problems[1].main - problems[0].main,
                                   4.0 / np.sin(phi) ** 2, rtol=1e-12)
        for problem in problems:
            np.testing.assert_allclose(problem.off,
                                       -c / du ** 2 / np.sqrt(J * np.roll(J, -1)), rtol=1e-12)

    def test_stiffness_range(self, torus_23):
        # the flux coefficient P = c J = 4 pi^2 sin^2 phi, read back from off
        a = torus_23.profile.a
        n = 512
        du = 2.0 * pi * 3 / n
        _, J = _phase_grid(torus_23, n)
        _, J_mid = _phase_grid(torus_23, n, offset=0.5)
        problem = assemble(torus_23, 2, n)
        P_mid = -problem.off * du ** 2 * np.sqrt(J * np.roll(J, -1)) * J_mid
        assert P_mid.min() >= 4.0 * pi ** 2 * math.sin(a) ** 2 - 1e-9
        assert P_mid.max() <= 4.0 * pi ** 2 * math.cos(a) ** 2 + 1e-9

    def test_clifford_constant_coefficients(self, clifford):
        # J is constant, so the phase grid is the arc-length grid t_j = j t0 / n,
        # and the bands those of -(2 pi^2 h')' + 18 h
        n = 256
        problem = assemble(clifford, 3, n)
        h = clifford.t0 / n
        np.testing.assert_allclose(problem.off, -2.0 * pi ** 2 / h ** 2, rtol=1e-9)
        np.testing.assert_allclose(problem.main, 4.0 * pi ** 2 / h ** 2 + 18.0, rtol=1e-9)

    def test_grid_floor(self, torus_23):
        with pytest.raises(GridTooCoarse):
            assemble(torus_23, 0, 32)

    def test_grid_must_resolve_oscillations(self, tori):
        with pytest.raises(GridTooCoarse):
            assemble(tori[(5, 9)], 0, 128)  # 32 p = 160

    def test_negative_mode_rejected(self, torus_23):
        with pytest.raises(ValueError):
            assemble(torus_23, -1, 256)

    def test_grid_above_the_cap_rejected(self, torus_23):
        n = spectral._MAX_GRID + 1
        with pytest.raises(ValueError, match=f"{n} rows"):
            assemble(torus_23, 0, n)


class TestOperatorMatrix:
    def test_cyclic_tridiagonal_structure(self, torus_23):
        n = 256
        main, off = _bands(assemble(torus_23, 0, n))
        assert main.shape == off.shape == (n,)
        assert np.all(off < 0.0)

    @pytest.mark.parametrize("n", [256, 255])
    def test_bands_mirror_symmetric_bit_for_bit(self, torus_23, n):
        main, off = _bands(assemble(torus_23, 2, n))
        np.testing.assert_array_equal(main[1:], main[:0:-1])
        np.testing.assert_array_equal(off, off[::-1])

    def test_problem_not_even_in_t_refused(self):
        # hand-built: P(t) = 1 + sin(2 pi t) / 2 on [0, 1) is not even in t
        n = 64
        P_mid = 1.0 + 0.5 * np.sin(2.0 * pi * (np.arange(n) + 0.5) / n)
        problem = spectral.SLProblem(l=0, main=(P_mid + np.roll(P_mid, 1)) * n ** 2,
                                     off=-P_mid * n ** 2)
        with pytest.raises(ValueError, match="reflection"):
            eigen_low(problem, 2)

    def test_constants_in_kernel_for_l0(self, torus_23):
        # the constants h = 1, in the symmetric form w = J^{1/2} h
        A = _dense(*_bands(assemble(torus_23, 0, 512)))
        _, J = _phase_grid(torus_23, 512)
        assert np.max(np.abs(A @ np.sqrt(J))) <= 1e-9


class TestInverse:
    def test_ldlt_exactly_where_the_shift_is_definite(self, torus_23, monkeypatch):
        used = []

        def recording(name):
            solve = getattr(spectral, name)

            def wrapped(*args):
                used.append(name)
                return solve(*args)
            return wrapped

        for name in ("dpttrs", "dgttrs"):
            monkeypatch.setattr(spectral, name, recording(name))
        lapack = scipy.linalg.lapack
        b = np.random.default_rng(3).standard_normal(513)
        definite_seen = set()
        # l = 0 at 2 is indefinite, at -1 definite; l = 2 lies above 2
        for l in (0, 2):
            (d, e), _ = spectral._halves(*_bands(assemble(torus_23, l, 1024)))
            for sigma in (-1.0, 2.0):
                definite = spectral._inertia(d, e, sigma) == 0
                definite_seen.add(definite)
                used.clear()
                x = spectral._inverse(d, e, sigma).matvec(b)
                assert used == ["dpttrs" if definite else "dgttrs"], (l, sigma)
                *lu, _ = lapack.dgttrf(e, d - sigma, e)
                reference = lapack.dgttrs(*lu, b)[0]
                assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)
        assert definite_seen == {True, False}


class TestEigenLow:
    def test_against_dense_solver(self, torus_23):
        # independent oracle: full dense symmetric eigensolve at small n; the
        # k cover the even half alone (1) and the shares k // 2 + 1 and k // 2
        for n in (1024, 1023, 255):
            problem = assemble(torus_23, 0, n)
            A = _dense(*_bands(problem))
            dense_vals = np.sort(scipy.linalg.eigh(A, eigvals_only=True))
            for k in (1, 7, 8, 9):
                spectrum = eigen_low(problem, k)
                np.testing.assert_allclose(spectrum.eigenvalues, dense_vals[:k], atol=1e-8)
                # unit eigenvectors of the full cyclic matrix, even and odd in t
                vecs = spectrum.eigenvectors
                residual = A @ vecs - vecs * spectrum.eigenvalues
                assert (np.linalg.norm(residual, axis=0).max()
                        <= 1e-12 * np.abs(A).sum(1).max()), (n, k)
                np.testing.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=1e-12)
                mirrored = vecs[-np.arange(n) % n]
                even = np.all(mirrored == vecs, axis=0)
                odd = np.all(mirrored == -vecs, axis=0)
                assert np.all(even ^ odd) and even.any() and odd.any() == (k > 1), (n, k)

    @pytest.mark.parametrize("p, q, l, k, n", [
        (9, 16, 3, 9, 2048), (9, 16, 3, 9, 4096), (11, 20, 3, 12, 4096)])
    def test_k_ending_inside_a_cluster(self, p, q, l, k, n):
        # the l = 3 values come in tight clusters, 8 to a half; asking a half
        # for k of them with ARPACK's default Krylov dimension did not converge
        problem = assemble(build_torus(RotationNumber(p, q)), l, n)
        oracle = np.sort(np.concatenate([
            scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                          select_range=(0, k - 1))
            for d, e in spectral._halves(*_bands(problem))]))[:k]
        np.testing.assert_allclose(eigen_low(problem, k).eigenvalues, oracle,
                                   rtol=0, atol=1e-9)

    def test_k_bounds(self, torus_23):
        problem = assemble(torus_23, 0, 256)
        with pytest.raises(ValueError):
            eigen_low(problem, 0)
        with pytest.raises(ValueError):
            eigen_low(problem, 65)

    def test_ground_state_l0_is_constant(self, torus_23):
        spectrum = eigen_low(assemble(torus_23, 0, 1024), 1)
        assert abs(spectrum.eigenvalues[0]) <= 1e-8
        _, J = _phase_grid(torus_23, 1024)
        v = spectrum.eigenvectors[:, 0] / np.sqrt(J)  # h = J^{-1/2} w
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
        phi, J = _phase_grid(torus_23, 2048)
        s = np.sqrt(J) * np.sin(phi)  # w = J^{1/2} h
        cosine = abs(v @ s) / (np.linalg.norm(v) * np.linalg.norm(s))
        assert cosine > 0.9999


class TestLazyEigenvectors:
    def test_unfolded_only_when_read(self, torus_23):
        n, k = 65536, 8
        problem = assemble(torus_23, 0, n)
        eigen_low(assemble(torus_23, 0, 256), k)  # first call: caches and lazy imports
        tracemalloc.start()
        try:
            spectrum = eigen_low(problem, k)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the half runs' vectors, about n / 2 x (k + 1), not the unfolded n x k
        assert held < n * k * 8
        vecs = spectrum.eigenvectors
        assert vecs.shape == (n, k)
        assert spectrum.eigenvectors is vecs
        assert spectrum.zero_counts == [0, 2, 2, 4, 4, 6, 6, 8]


class TestLanczosStoppingRule:
    """Lanczos stopped at ``_LANCZOS_TOL`` against ARPACK's machine-precision default, tol = 0."""

    @pytest.mark.parametrize("label", [(2, 3), (5, 9), (9, 16), (11, 20)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_eigenvalues_as_at_machine_precision(self, tori, label, monkeypatch):
        torus = tori.get(label) or build_torus(RotationNumber(*label))
        for n in (2048, 4096):
            for l in range(4):
                problem = assemble(torus, l, n)
                for k in (1, 8, 9):
                    loose = eigen_low(problem, k).eigenvalues
                    with monkeypatch.context() as patch:
                        patch.setattr(spectral, "_LANCZOS_TOL", 0.0)
                        tight = eigen_low(problem, k).eigenvalues
                    assert np.all(np.abs(loose - tight)
                                  <= 1e-13 * np.maximum(1.0, np.abs(tight))), (n, l, k)

    @pytest.mark.parametrize("label", [(2, 3), (5, 9)], ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_count_below_report_unchanged(self, tori, label, monkeypatch):
        def digits():
            report = count_below(tori[label], n_grid=2048)
            return (report.tolerance_band.hex(),
                    [(l, i, v.hex()) for l, i, v in report.eigenvalues_near_2])

        loose = digits()
        monkeypatch.setattr(spectral, "_LANCZOS_TOL", 0.0)
        assert digits() == loose


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

    def test_doubled_grid_above_the_cap_refused_before_assembly(self, torus_23):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{2 ** 22} rows"):
            count_below(torus_23, n_grid=2 ** 21)
        assert time.perf_counter() - start < 1.0

    def test_memory_does_not_grow_with_l_max(self, torus_23):
        # the modes are assembled one at a time, so l_max adds time, not memory
        def peak(l_max):
            tracemalloc.start()
            try:
                count_below(torus_23, l_max=l_max, n_grid=256)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3)  # first call: caches and lazy imports
        assert peak(200) <= 2.0 * peak(3)


class TestCountBelowClassification:
    """White-box checks of the guard-band logic against doctored spectra.

    Each mode is assembled as a diagonal: the doctored eigenvalues of the
    mode, padded with values far above the threshold.  ``_halves`` is
    replaced by two diagonal halves whose values alternate between the
    even and the odd half, so each l = 0 anchor at the threshold has a
    half of its own and the l = 1 ground is even.
    """

    @staticmethod
    def _doctor(monkeypatch, spectrum_of):
        def fake_modes(torus, modes, n_grid):
            for l in modes:
                low = np.array(spectrum_of(l, n_grid), dtype=float)
                yield spectral.SLProblem(
                    l=l, main=np.concatenate([low, 20.0 + np.arange(n_grid - low.size)]),
                    off=None)

        def fake_halves(main, _):
            return tuple((d, np.zeros(d.size - 1)) for d in (main[0::2], main[1::2]))
        monkeypatch.setattr(spectral, "_assemble_modes", fake_modes)
        monkeypatch.setattr(spectral, "_halves", fake_halves)

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
        self._doctor(monkeypatch, lambda l, n: spectra[l])
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
        self._doctor(monkeypatch, lambda l, n: spectra[l])
        report = count_below(torus_23, n_grid=256)
        assert report.n2 == 2
        assert report.verdict is False

    def test_unstable_count_fails_verdict(self, torus_23, monkeypatch):
        pad = list(np.arange(3.0, 20.0))

        def spectrum_of(l, n):
            extra = [0.5] if n == 256 else []
            return {
                0: [0.0] + extra + [0.7, 1.2, 1.9999990, 2.0000010] + pad,
                1: [2.0000005] + pad,
                2: [5.0] + pad,
                3: [7.0] + pad,
            }[l]

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
        self._doctor(monkeypatch, lambda l, n: spectra[l])
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
        self._doctor(monkeypatch, lambda l, n: spectra[l])
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
        half = np.array([1.0, 2.0, 3.0]), np.zeros(2)
        assert spectral._inertia(*half, 2.5) == 2
        assert spectral._inertia(*half, 2.0) == 1  # strictly below
        with pytest.raises(spectral.SolverFailure, match="singular"):
            spectral._eigenvalues_near(*half, 1, 2.0)

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
                bands = _bands(problem)
                for sigma in sigmas:
                    expected = np.sum(vals < sigma)
                    assert _count(*bands, sigma) == expected, (n, l, sigma)

    def test_near_threshold_list_matches_lanczos_on_14_27(self):
        # 11 l = 1 values lie in the band at 14/27's resolving grid: windows
        # beyond the anchors
        torus = build_torus(RotationNumber(14, 27))
        report = count_below(torus, n_grid=resolving_grid(torus))
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


class TestGroundEigenvalue:
    """The l = 1 ground anchor: Lanczos at the threshold on the even half, sized by its count."""

    @staticmethod
    def _diagonal(low, n=64):
        return np.concatenate([low, 20.0 + np.arange(n - len(low))]), np.zeros(n - 1)

    def test_several_below_the_shift(self):
        half = self._diagonal([1.99, 1.9, 2.5, 1.95])
        assert spectral._inertia(*half, 2.0) == 3
        assert abs(spectral._ground_eigenvalue(*half, 2.0) - 1.9) <= 1e-12

    def test_none_below_the_shift(self):
        half = self._diagonal([2.5, 2.1])
        assert spectral._inertia(*half, 2.0) == 0
        assert abs(spectral._ground_eigenvalue(*half, 2.0) - 2.1) <= 1e-12

    def test_lanczos_disagreeing_with_the_count_raises(self, monkeypatch):
        half = self._diagonal([1.99, 1.9, 2.5, 1.95])
        monkeypatch.setattr(spectral, "_shift_invert",
                            lambda d, e, sigma, k, which, ncv: np.array([1.9, 1.95, 2.5]))
        with pytest.raises(spectral.SolverFailure, match="Sturm count 3"):
            spectral._ground_eigenvalue(*half, 2.0)

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9), (6, 11), (7, 13)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_matches_eigen_low(self, tori, label):
        torus = tori.get(label) or build_torus(RotationNumber(*label))
        problem = assemble(torus, 1, 2048)
        expected = eigen_low(problem, 1).eigenvalues[0]
        even, _ = spectral._halves(*_bands(problem))
        got = spectral._ground_eigenvalue(*even, 2.0)
        assert abs(got - expected) <= 1e-10

    @pytest.mark.parametrize("label, n", [((2, 3), 1024), ((5, 9), 8192)],
                             ids=["2/3@1024", "5/9@8192"])
    def test_shift_far_above_the_ground(self, tori, label, n):
        # the l = 0 ground is 0 (the constants); at 2 the even half has m > 0
        # values below the shift, spread over [0, 2)
        problem = assemble(tori[label], 0, n)
        even, _ = spectral._halves(*_bands(problem))
        assert spectral._inertia(*even, 2.0) > 1
        got = spectral._ground_eigenvalue(*even, 2.0)
        assert abs(got - eigen_low(problem, 1).eigenvalues[0]) <= 1e-10

    def test_nearest_to_the_threshold_is_not_the_ground_of_a_coupled_half(self):
        # T = tridiag(-1, 2.5, -1) of order 64 has the eigenvalues
        # 2.5 - 2 cos(k pi / 65): 27 lie below 2, the nearest at 1.975, the
        # ground at 0.5023 (no torus half shows such a spread on the phase grid)
        n = 64
        half = np.full(n, 2.5), -np.ones(n - 1)
        exact = 2.5 - 2.0 * np.cos(np.arange(1, n + 1) * pi / (n + 1))
        assert spectral._inertia(*half, 2.0) == np.sum(exact < 2.0) == 27
        nearest = spectral._eigenvalues_near(*half, 1, 2.0)[0]
        ground = spectral._ground_eigenvalue(*half, 2.0)
        assert nearest - ground > 1e-3
        assert abs(ground - exact[0]) <= 1e-12


class TestBorderedFactorization:
    """The counts and solves of the reflection halves against a dense oracle."""

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_inertia_matches_dense_count(self, tori, label):
        torus = tori[label]
        band = count_below(torus).tolerance_band
        for n in (256, 255, 1023):
            for l in range(4):
                main, off = _bands(assemble(torus, l, n))
                vals = np.linalg.eigvalsh(_dense(main, off))
                for sigma in (0.5, 2.0 - band, 2.0, 2.0 + band, 10.0):
                    expected = np.sum(vals < sigma)
                    assert _count(main, off, sigma) == expected, (n, l, sigma)

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_solve_residual(self, tori, label):
        rng = np.random.default_rng(7)
        for l in range(4):
            for d, e in spectral._halves(*_bands(assemble(tori[label], l, 256))):
                T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
                for sigma in (-1.0, 2.0):
                    b = rng.standard_normal(d.size)
                    x = spectral._inverse(d, e, sigma).matvec(b)
                    residual = T @ x - sigma * x - b
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
THIN_LABELS = _valid_labels(30)


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

    def test_every_label_up_to_q_30_verifies_at_the_resolving_grid(self):
        # the thin tori included: 9/16 and 11/20 misjudged on the arc-length grid
        assert len(THIN_LABELS) == 58
        misjudged = []
        for rotation in THIN_LABELS:
            torus = build_torus(rotation)
            report = count_below(torus, n_grid=resolving_grid(torus))
            if report.n2 != 2 * rotation.p - 1 or not report.verdict:
                misjudged.append((rotation.p, rotation.q, report.n2, report.verdict))
        assert misjudged == []


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

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)])
    def test_matches_eigen_low(self, tori, p, q):
        torus = tori[(p, q)]
        ground = lambda0_monotone_check(torus, [0, 1, 2, 3], n_grid=2048)
        expected = [eigen_low(assemble(torus, l, 2048), 1).eigenvalues[0] for l in range(4)]
        np.testing.assert_allclose(ground, expected, rtol=0.0, atol=1e-10)


class TestResolvingGrid:
    def test_clifford_floor(self, clifford):
        assert resolving_grid(clifford) == 2048

    def test_256_rows_per_u_cycle(self):
        for (p, q), n in {(5, 8): 2048, (5, 9): 4096, (16, 31): 8192, (50, 99): 32768}.items():
            assert resolving_grid(build_torus(RotationNumber(p, q), n_samples=4096)) == n

    def test_thin_tori_need_finer_grids(self, tori):
        assert resolving_grid(tori[(5, 9)]) > resolving_grid(tori[(2, 3)])

    def test_power_of_two(self, tori):
        for torus in tori.values():
            n = resolving_grid(torus)
            assert n & (n - 1) == 0

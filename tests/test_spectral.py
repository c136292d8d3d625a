import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc
from math import pi
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from otsuki import spectral
from otsuki.geometry import RotationNumber, build_torus, phase_metric
from otsuki.spectral import (
    GridTooCoarse,
    assemble,
    count_below,
    eigen_low,
    known_eigenfunction_residuals,
    lambda0_monotone_check,
    resolving_grid,
)

from conftest import REFERENCE, count_interpolant_builds


def _dense(main, off):
    """Dense oracle of the bands: off[j] couples j and j + 1 mod n, in both triangles."""
    j = np.arange(main.size)
    A = np.diag(main)
    A[j, (j + 1) % j.size] = A[(j + 1) % j.size, j] = off
    return A


def _tridiagonal(d, e):
    """Dense matrix of the symmetric tridiagonal ``(d, e)``."""
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _phase_grid(torus, n, offset=0.0):
    """phi and J at u_j = (j + offset) du over the q u-cycles of a torus' period."""
    du = 2.0 * pi * torus.rotation.q / n
    return phase_metric(torus.profile.a, (np.arange(n) + offset) * du)


def _cyclic_bands(torus, l, n):
    """Reference bands of mode l on all n nodes of the phase grid, straight from phase_metric.

    ``main[j]`` is the diagonal of row j and ``off[j]`` couples rows j and j + 1 mod n.
    """
    du = 2.0 * pi * torus.rotation.q / n
    phi, J = _phase_grid(torus, n)
    phi_mid, J_mid = _phase_grid(torus, n, offset=0.5)
    c = 4.0 * pi ** 2 * np.sin(phi_mid) ** 2 / J_mid / du ** 2
    return (c + np.roll(c, 1)) / J + l * l / np.sin(phi) ** 2, -c / np.sqrt(J * np.roll(J, -1))


def _fold(main, off):
    """Even and odd halves ``(d, e)`` of mirror-symmetric cyclic bands of even order n.

    Even basis e_0, (e_j + e_{n-j}) / sqrt 2, e_{n/2}: rows 0 .. n/2, sqrt 2
    on the couplings into rows 0 and n/2; odd basis (e_j - e_{n-j}) / sqrt 2:
    rows 1 .. n/2 - 1.
    """
    r = main.size // 2
    e_even = off[:r].copy()
    e_even[[0, -1]] *= math.sqrt(2.0)
    return (main[:r + 1], e_even), (main[1:r], off[1:r - 1])


def _count(problem, sigma):
    """Eigenvalues of a mode below sigma: the Sturm counts of both halves."""
    return sum(spectral._sturm_counts(d, e, [sigma])[0] for d, e in (problem.even, problem.odd))


def count_sign_changes(values):
    """Sign changes of a periodic grid function over one period.

    Entries below 1e-10 times the max magnitude are ignored so that
    discretization noise at a genuine zero is not double counted.
    """
    v = np.asarray(values, dtype=float)
    peak = np.max(np.abs(v))
    if peak == 0.0:
        return 0
    signs = np.sign(v[np.abs(v) >= 1e-10 * peak])
    if signs.size < 2:
        return 0
    return int(np.sum(signs != np.roll(signs, 1)))


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


class TestCountSignChanges:
    """The oracle of the zero counts: sign changes of a dense eigenvector."""

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
        r = n // 2  # the even half holds nodes 0 .. r; the odd half's couplings carry no sqrt 2
        problems = [assemble(torus_23, l, n) for l in (0, 2)]
        np.testing.assert_allclose(problems[0].even[0],
                                   ((c + np.roll(c, 1)) / du ** 2 / J)[:r + 1], rtol=1e-12)
        np.testing.assert_allclose(problems[1].even[0] - problems[0].even[0],
                                   4.0 / np.sin(phi[:r + 1]) ** 2, rtol=1e-12)
        for problem in problems:
            np.testing.assert_allclose(problem.odd[1], (-c / du ** 2 / np.sqrt(
                J * np.roll(J, -1)))[1:r - 1], rtol=1e-12)

    def test_stiffness_range(self, torus_23):
        # the flux coefficient P = c J = 4 pi^2 sin^2 phi, read back from the
        # odd half's couplings: midpoints 1 .. r - 2, across u = pi
        a = torus_23.profile.a
        n, r = 512, 256
        du = 2.0 * pi * 3 / n
        _, J = _phase_grid(torus_23, n)
        _, J_mid = _phase_grid(torus_23, n, offset=0.5)
        problem = assemble(torus_23, 2, n)
        P_mid = -problem.odd[1] * du ** 2 * np.sqrt(J[1:r - 1] * J[2:r]) * J_mid[1:r - 1]
        assert P_mid.min() >= 4.0 * pi ** 2 * math.sin(a) ** 2 - 1e-9
        assert P_mid.max() <= 4.0 * pi ** 2 * math.cos(a) ** 2 + 1e-9

    def test_clifford_constant_coefficients(self, clifford):
        # J is constant, so the phase grid is the arc-length grid t_j = j t0 / n,
        # and the bands those of -(2 pi^2 h')' + 18 h
        n = 256
        problem = assemble(clifford, 3, n)
        h = clifford.t0 / n
        (d_even, e_even), (d_odd, e_odd) = problem.even, problem.odd
        np.testing.assert_allclose(e_odd, -2.0 * pi ** 2 / h ** 2, rtol=1e-9)
        np.testing.assert_allclose(e_even[[0, -1]], -math.sqrt(2.0) * 2.0 * pi ** 2 / h ** 2,
                                   rtol=1e-9)
        np.testing.assert_allclose(d_even, 4.0 * pi ** 2 / h ** 2 + 18.0, rtol=1e-9)
        np.testing.assert_array_equal(d_odd, d_even[1:-1])

    def test_grid_floor(self, torus_23):
        with pytest.raises(GridTooCoarse):
            assemble(torus_23, 0, 32)

    def test_grid_must_resolve_oscillations(self, tori):
        with pytest.raises(GridTooCoarse):
            assemble(tori[(5, 9)], 0, 128)  # 32 p = 160

    def test_negative_mode_rejected(self, torus_23):
        with pytest.raises(ValueError, match="non-negative"):
            assemble(torus_23, -1, 256)
        with pytest.raises(ValueError, match="non-negative"):
            lambda0_monotone_check(torus_23, [-1, 0], 256)

    def test_grid_above_the_cap_rejected(self, torus_23):
        n = spectral._MAX_GRID + 1
        with pytest.raises(ValueError, match=f"{n} rows"):
            assemble(torus_23, 0, n)

    def test_odd_grid_refused(self, torus_23):
        with pytest.raises(ValueError, match="n_grid must be even, got 1023"):
            assemble(torus_23, 0, 1023)


class TestOperatorMatrix:
    def test_cyclic_tridiagonal_structure(self, torus_23):
        # the halves of the cyclic tridiagonal: rows 0 .. n/2 and 1 .. n/2 - 1
        problem = assemble(torus_23, 0, 256)
        assert problem.n_grid == 256
        assert [x.shape for x in problem.even + problem.odd] == [(129,), (128,), (127,), (126,)]
        assert np.all(problem.even[1] < 0.0)

    @pytest.mark.parametrize("n", [256, 4096])
    def test_halves_are_the_fold_of_the_reference_bands(self, torus_23, n):
        for l in range(4):
            problem = assemble(torus_23, l, n)
            expected = _fold(*_cyclic_bands(torus_23, l, n))
            for got, want in zip(problem.even + problem.odd, expected[0] + expected[1]):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_constants_in_kernel_for_l0(self, torus_23):
        # the constants h = 1, in the symmetric form w = J^{1/2} h, are even:
        # on the even half, sqrt 2 on the paired nodes
        d, e = assemble(torus_23, 0, 512).even
        _, J = _phase_grid(torus_23, 512)
        w = np.sqrt(J[:257])
        w[1:-1] *= math.sqrt(2.0)
        assert np.max(np.abs(_tridiagonal(d, e) @ w)) <= 1e-9


class TestInverse:
    def test_ldlt_exactly_where_the_shift_is_definite(self, torus_23):
        # l = 0 at 2 is indefinite, at -1 definite; l = 2 lies above 2.  Only
        # the definite shifts of eigen_low are solved; an indefinite one raises
        lapack = scipy.linalg.lapack
        b = np.random.default_rng(3).standard_normal(513)
        definite_seen = set()
        for l in (0, 2):
            d, e = assemble(torus_23, l, 1024).even
            for sigma in (-1.0, 2.0):
                definite = spectral._sturm_counts(d, e, [sigma])[0] == 0
                definite_seen.add(definite)
                if not definite:
                    with pytest.raises(spectral.SolverFailure, match="not definite"):
                        spectral._inverse(d, e, sigma)
                    continue
                x = spectral._inverse(d, e, sigma).matvec(b)
                *lu, _ = lapack.dgttrf(e, d - sigma, e)
                reference = lapack.dgttrs(*lu, b)[0]
                assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)
        assert definite_seen == {True, False}


class TestEigenLow:
    def test_against_dense_solver(self, torus_23):
        # independent oracle: full dense symmetric eigensolve of the reference
        # bands at small n; the k cover the even half alone (1) and the shares
        # k // 2 + 1 and k // 2
        for n in (1024, 256):
            problem = assemble(torus_23, 0, n)
            A = _dense(*_cyclic_bands(torus_23, 0, n))
            dense_vals = np.sort(scipy.linalg.eigh(A, eigvals_only=True))
            for k in (1, 7, 8, 9):
                np.testing.assert_allclose(eigen_low(problem, k).eigenvalues, dense_vals[:k],
                                           atol=1e-8)

    @pytest.mark.parametrize("p, q, l, k, n", [
        (9, 16, 3, 9, 2048), (9, 16, 3, 9, 4096), (11, 20, 3, 12, 4096)])
    def test_k_ending_inside_a_cluster(self, p, q, l, k, n):
        # the l = 3 values come in tight clusters, 8 to a half; asking a half
        # for k of them with ARPACK's default Krylov dimension did not converge
        problem = assemble(build_torus(RotationNumber(p, q)), l, n)
        oracle = np.sort(np.concatenate([
            scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                          select_range=(0, k - 1))
            for d, e in (problem.even, problem.odd)]))[:k]
        np.testing.assert_allclose(eigen_low(problem, k).eigenvalues, oracle,
                                   rtol=0, atol=1e-9)

    def test_halves_are_the_runs_of_each_half(self, torus_23):
        # k // 2 + 1 even and k // 2 odd values, each ascending and its dense
        # half's lowest; the mode's values are the k smallest of both, bit for bit
        for l in (0, 1):
            problem = assemble(torus_23, l, 256)
            dense = [scipy.linalg.eigvalsh(_tridiagonal(d, e)) for d, e in (problem.even, problem.odd)]
            for k in range(1, 10):
                spectrum = eigen_low(problem, k)
                assert [run.size for run in spectrum.halves] == [k // 2 + 1, k // 2], (l, k)
                for run, values in zip(spectrum.halves, dense):
                    assert np.all(np.diff(run) >= 0), (l, k)
                    np.testing.assert_allclose(run, values[:run.size], rtol=0, atol=1e-10)
                assert np.sort(np.concatenate(spectrum.halves))[:k].tolist() == spectrum.eigenvalues.tolist()

    def test_k_bounds(self, torus_23):
        problem = assemble(torus_23, 0, 256)
        with pytest.raises(ValueError):
            eigen_low(problem, 0)
        with pytest.raises(ValueError):
            eigen_low(problem, 65)

    def test_ground_state_l0_is_constant(self, torus_23):
        # eigenvalue 0, and no sign change (test_constants_in_kernel_for_l0 checks the vector)
        spectrum = eigen_low(assemble(torus_23, 0, 1024), 1)
        assert abs(spectrum.eigenvalues[0]) <= 1e-8
        assert spectrum.zero_counts == [0]

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
        # eigenvalue 2, and no sign change, as sin phi > 0 (its residual is
        # TestKnownEigenfunctionResiduals')
        spectrum = eigen_low(assemble(torus_23, 1, 2048), 1)
        assert abs(spectrum.eigenvalues[0] - 2.0) <= 1e-3
        assert spectrum.zero_counts == [0]


class TestShiftBelowGround:
    """eigen_low's shift: dyadic, below the ground by one to two bracket widths."""

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_shift_exact_on_every_row(self, tori, label, monkeypatch):
        # d - sigma exact on every row: d - (d - sigma) recovers sigma.  The
        # converse check (d - sigma) + sigma == d holds for 2.001 as well, so
        # it cannot tell an exact shift from a rounded one; this one can.
        shifts = []
        inverse = spectral._inverse

        def recording(d, e, sigma):
            shifts.append(sigma)
            assert np.array_equal(d - (d - sigma), np.full(d.size, sigma)), sigma
            return inverse(d, e, sigma)

        monkeypatch.setattr(spectral, "_inverse", recording)
        n = {(2, 3): 2048, (3, 5): 4096, (4, 7): 16384, (5, 8): 4096, (5, 9): 65536}[label]
        for l in range(4):
            problem = assemble(tori[label], l, n)
            eigen_low(problem, 8)
            d, _ = problem.even
            assert not np.array_equal(d - (d - 2.001), np.full(d.size, 2.001))
        assert len(shifts) == 8

    @pytest.mark.parametrize("label", [(2, 3), (5, 9), (17, 33)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_below_the_ground_by_one_to_two_widths(self, tori, label):
        torus = tori.get(label) or build_torus(RotationNumber(*label))
        for l in range(4):
            problem = assemble(torus, l, 2048)
            even = problem.even
            sigma = spectral._shift_below_ground(*even)
            assert sigma * 2 ** 12 == round(sigma * 2 ** 12)  # dyadic, few bits
            ground = eigen_low(problem, 1).eigenvalues[0]
            width = (ground - sigma) / (1.0 + abs(ground))
            assert spectral._GROUND_BRACKET / 4 < width < 2.5 * spectral._GROUND_BRACKET, l
            assert spectral._sturm_counts(*even, [sigma + spectral._GROUND_BRACKET / 8])[0] == 0

    @pytest.mark.parametrize("l", [1, 2])
    def test_few_solves_on_a_cluster(self, tori, l, monkeypatch):
        # the l = 1 values of 5/9 lie in [2, 2.004]; shifted to -1 their
        # Lanczos runs took 73 (l = 1) and 88 (l = 2) solves, ARPACK's floor is 42
        problem = assemble(tori[(5, 9)], l, 65536)
        solves = []
        inverse = spectral._inverse

        def counting(d, e, sigma):
            op = inverse(d, e, sigma)
            return scipy.sparse.linalg.LinearOperator(
                op.shape, matvec=lambda b: solves.append(sigma) or op.matvec(b), dtype=float)

        monkeypatch.setattr(spectral, "_inverse", counting)
        eigen_low(problem, 8)
        assert len(solves) <= 50

    def test_hand_built_bands_below_minus_one(self):
        # a mirror-symmetric cyclic problem with eigenvalues far below -1:
        # the search starts below Gershgorin's bound instead of at -1
        n, j = 256, np.arange(256)
        main = -40.0 + 10.0 * np.cos(2.0 * pi * np.minimum(j, n - j) / n)
        off = -(3.0 + np.cos(2.0 * pi * (np.minimum(j, n - 1 - j) + 0.5) / n))
        even, odd = _fold(main, off)
        problem = spectral.SLProblem(l=0, n_grid=n, even=even, odd=odd)
        expected = np.linalg.eigvalsh(_dense(main, off))
        assert expected[0] < -40.0
        np.testing.assert_allclose(eigen_low(problem, 9).eigenvalues, expected[:9],
                                   rtol=0, atol=1e-10)


class TestLazyEigenvectors:
    """eigen_low builds no eigenvector: its zero counts follow the oscillation theorem."""

    def test_holds_no_vector(self, torus_23, monkeypatch):
        n, k = 65536, 8
        problem = assemble(torus_23, 0, n)
        eigen_low(assemble(torus_23, 0, 256), k)  # first call: caches and lazy imports
        asked = []
        eigsh = scipy.sparse.linalg.eigsh  # imported by _shift_invert when it runs
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda *args, **kwargs: asked.append(
            kwargs["return_eigenvectors"]) or eigsh(*args, **kwargs))
        tracemalloc.start()
        try:
            spectrum = eigen_low(problem, k)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < n  # not an eighth of one vector
        assert asked == [False, False]  # ARPACK is never asked for vectors
        assert spectrum.zero_counts == [0, 2, 2, 4, 4, 6, 6, 8]

    @pytest.mark.parametrize("label, l, n", [((5, 9), 3, 131072), ((26, 51), 2, 65536), ((50, 99), 2, 32768)],
                             ids=["5/9 l3", "26/51 l2", "50/99 l2"])
    def test_zero_counts_inside_a_cluster_the_values_resolve(self, tori, label, l, n):
        # values 1e-9 apart, about 1e-10 relative, where eps * max|main| is
        # 1e-8 or more: an LU of T - lambda I did not separate their vectors
        # (0 4 2 4 6 6 4 8 for 5/9); the counts take no vector
        torus = tori.get(label) or build_torus(RotationNumber(*label))
        assert eigen_low(assemble(torus, l, n), 8).zero_counts == [0, 2, 2, 4, 4, 6, 6, 8]

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_match_the_sign_changes_of_dense_eigenvectors(self, tori, label):
        # independent oracle: the eigenvectors of the full cyclic bands by a
        # dense symmetric eigensolve, their sign changes counted on the grid
        for n in (512, 1024):
            for l in range(4):
                A = _dense(*_cyclic_bands(tori[label], l, n))
                vecs = scipy.linalg.eigh(A, subset_by_index=(0, 7))[1]
                expected = [count_sign_changes(v) for v in vecs.T]
                assert eigen_low(assemble(tori[label], l, n), 8).zero_counts == expected, (n, l)

    @pytest.mark.parametrize("label, modes, k", [((16, 31), [3], 8), ((17, 33), [3], 8), ((17, 33), [3], 16),
                                                 ((26, 51), [2, 3], 8), ((50, 99), [1, 2, 3], 8)],
                             ids=["16/31", "17/33", "17/33 k16", "26/51", "50/99"])
    def test_inside_a_cluster_tighter_than_rounding(self, label, modes, k):
        # the values of a cluster agree to rounding, so vectors computed for
        # them were an arbitrary basis of its subspace: 0 2 0 2 0 2 0 2 for
        # 50/99, l = 3.  The halves' runs also return such values in rounding
        # order: counts read off each value's half read 0 2 2 4 4 6 8 6 for
        # 16/31, and began 2 0 for 17/33 at k = 16 (the odd ground below the
        # even one).  The halves interlace, so the counts are 0, 2, 2, 4, 4, ...
        # and the values are the runs' own, sorted
        torus = build_torus(RotationNumber(*label))
        for l in modes:
            problem = assemble(torus, l, 2048)
            spectrum = eigen_low(problem, k)
            assert spectrum.zero_counts == [2 * math.ceil(i / 2) for i in range(k)], (l, spectrum.zero_counts)
            assert spectrum.eigenvalues.tolist() == sorted(np.concatenate(spectrum.halves).tolist())[:k], l


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
                    [(l, first, last, lowest.hex(), highest.hex())
                     for l, first, last, lowest, highest in report.eigenvalues_near_2])

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
    def test_sin_phi_residual_second_order_at_a_fine_grid(self, torus_23):
        # h = sin phi evaluated at the nodes: at 65536 rows its residual stays
        # within 1.5 times the second-order extrapolation from 2048 rows (1.35
        # times), where an h unfolded from the folded w reads 1.67 times
        coarse = known_eigenfunction_residuals(torus_23, 2048)[0]
        fine = known_eigenfunction_residuals(torus_23, 65536)[0]
        assert fine <= 1.5 * coarse / 32 ** 2

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
        assert report.tolerance_band < 1e-3
        assert [(l, first, last) for l, first, last, _, _ in report.eigenvalues_near_2] == [
            (0, 3, 4), (1, 0, 0)]

    def test_count_is_stable_in_l_max(self, torus_23):
        # l_max is unread from 2 on: no value of a mode above 1 lies below 4
        r2 = count_below(torus_23, l_max=2, n_grid=1024)
        r3 = count_below(torus_23, l_max=3, n_grid=1024)
        assert r2 == r3
        assert r2.n2 == 3

    def test_l_max_walks_no_range(self, torus_23):
        # the modes are checked without a walk over range(l_max + 1)
        expected = count_below(torus_23, l_max=3)
        start = time.perf_counter()
        report = count_below(torus_23, l_max=10 ** 7)
        assert time.perf_counter() - start < 0.5
        assert report == expected

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9), (17, 33), (50, 99)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_no_value_of_mode_l_below_l_squared(self, tori, label):
        # each half is a positive semidefinite stiffness plus l^2 / sin(phi)^2
        # >= l^2, so no mode above l = 1 has a value below 4 and count_below
        # assembles none
        torus = tori.get(label) or build_torus(RotationNumber(*label))
        for n in sorted({2048, resolving_grid(torus)}):
            for l in (2, 3):
                problem = spectral._direct_sum(assemble(torus, l, n))
                assert spectral._sturm_counts(*problem, [l * l])[0] == 0, (n, l)

    @pytest.mark.slow
    def test_no_value_of_mode_2_below_4_up_to_q_100(self):
        # the bound that leaves the modes above l = 1 out of count_below, on
        # every label with q <= 100 at its resolving grid
        labels = _valid_labels(100)
        assert len(labels) == 630
        failed = []
        for rotation in labels:
            torus = build_torus(rotation)
            problem = spectral._direct_sum(assemble(torus, 2, resolving_grid(torus)))
            if spectral._sturm_counts(*problem, [4.0])[0]:
                failed.append((rotation.p, rotation.q))
        assert failed == []

    def test_assembles_modes_0_and_1_on_both_grids(self, torus_23, monkeypatch):
        # each exactly once, and no mode above them
        assembled = []
        problem = spectral.SLProblem
        monkeypatch.setattr(spectral, "SLProblem", lambda **kwargs: assembled.append(
            (kwargs["l"], kwargs["n_grid"])) or problem(**kwargs))
        count_below(torus_23, l_max=3, n_grid=1024)
        assert sorted(assembled) == [(0, 1024), (0, 2048), (1, 1024), (1, 2048)]

    def test_builds_no_interpolant(self, monkeypatch):
        # build_torus and count_below read the phase series and phase_metric alone
        built = count_interpolant_builds(monkeypatch)
        for label in REFERENCE:
            assert count_below(build_torus(RotationNumber(*label))).verdict is True
        assert built == []

    def test_l_max_floor(self, torus_23):
        with pytest.raises(ValueError):
            count_below(torus_23, l_max=1)

    def test_doubled_grid_above_the_cap_refused_before_assembly(self, torus_23):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{2 ** 22} rows"):
            count_below(torus_23, n_grid=2 ** 21)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n_grid, error", [(1022, None), (1023, ValueError),
                                               (128, GridTooCoarse)])
    def test_requested_grid_checked_before_anything_is_assembled(self, tori, monkeypatch,
                                                                 n_grid, error):
        # the requested grid is assembled last, but checked first
        called = []
        metric = spectral._phase_metric_trig
        monkeypatch.setattr(spectral, "_phase_metric_trig",
                            lambda a, u: called.append(u.size) or metric(a, u))
        if error is None:
            count_below(tori[(5, 9)], n_grid=n_grid)
            assert called == [2 * n_grid + 1]  # the doubled grid's points serve both grids
        else:
            with pytest.raises(error):
                count_below(tori[(5, 9)], n_grid=n_grid)
            assert called == []

    @pytest.mark.parametrize("threshold", [1.0, 3.0, 6.0])
    def test_threshold_other_than_2_refused_before_anything_is_evaluated(self, tori, monkeypatch,
                                                                         threshold):
        # the band is measured on the anchors at 2, so no other threshold has one
        called = []
        metric = spectral._phase_metric_trig
        monkeypatch.setattr(spectral, "_phase_metric_trig",
                            lambda a, u: called.append(u.size) or metric(a, u))
        with pytest.raises(ValueError, match="threshold"):
            count_below(tori[(5, 9)], threshold)
        assert called == []


class TestCountBelowClassification:
    """White-box checks of the guard-band logic against doctored spectra.

    Each mode is assembled as two diagonal halves: the doctored eigenvalues
    of the mode, padded with values far above the threshold, alternate
    between the even and the odd half, so each l = 0 anchor at the
    threshold has a half of its own and the l = 1 ground is even.  The
    known eigenfunctions are the unit vectors of the anchor rows: the
    ground of the even l = 1 half, and in each l = 0 half the value
    nearest the threshold.
    """

    @staticmethod
    def _doctor(monkeypatch, spectrum_of):
        def halves(l, n_grid):
            low = np.array(spectrum_of(l, n_grid), dtype=float)
            d = np.concatenate([low, 20.0 + np.arange(n_grid - low.size)])
            return [(half, np.zeros(half.size - 1)) for half in (d[0::2], d[1::2])]

        def fake_modes(torus, modes, n_grid, points=None):
            for l in modes:
                even, odd = halves(l, n_grid)
                yield spectral.SLProblem(l=l, n_grid=n_grid, even=even, odd=odd)

        def fake_eigenfunctions(torus, n_grid, points):
            (l1_even, _), _ = halves(1, n_grid)
            (l0_even, _), (l0_odd, _) = halves(0, n_grid)
            rows = [np.argmin(l1_even), np.argmin(np.abs(l0_even - 2.0)),
                    np.argmin(np.abs(l0_odd - 2.0))]
            return [np.eye(d.size)[row] for d, row in zip((l1_even, l0_even, l0_odd), rows)]

        monkeypatch.setattr(spectral, "_assemble_modes", fake_modes)
        monkeypatch.setattr(spectral, "_known_eigenfunctions", fake_eigenfunctions)

    def test_shoulder_value_raises_ambiguous(self, torus_23, monkeypatch):
        # anchors displaced by 1e-6 set a 1e-5 band; 1.999985 and 1.999981,
        # 1.5 and 1.9 bands below 2, sit in the shoulder [2 - 2 band, 2 - band)
        # and must abort the count
        pad = list(np.arange(3.0, 20.0))
        for value in (1.999985, 1.999981):
            spectra = {0: [0.0, value, 1.9999990, 2.0000010] + pad, 1: [2.0000005] + pad}
            self._doctor(monkeypatch, lambda l, n: spectra[l])
            with pytest.raises(spectral.AmbiguousCount) as excinfo:
                count_below(torus_23, n_grid=256)
            assert f"(0, {value})" in str(excinfo.value)

    def test_wrong_count_fails_verdict(self, torus_23, monkeypatch):
        pad = list(np.arange(3.0, 20.0))
        spectra = {
            0: [0.0, 0.5, 1.9999990, 2.0000010] + pad,  # only 2 below, claimed 3
            1: [2.0000005] + pad,
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
            }[l]

        self._doctor(monkeypatch, spectrum_of)
        report = count_below(torus_23, n_grid=256)
        assert len(set(report.counts_by_grid.values())) == 2
        assert report.verdict is False

    def test_many_eigenvalues_in_one_mode_counted_in_full(self, torus_23, monkeypatch):
        # 20 mode-0 eigenvalues below 2, far more than the claimed 3
        pad = list(np.arange(3.0, 20.0))
        spectra = {
            0: list(np.linspace(0.0, 1.9, 20)) + [1.9999990, 2.0000010] + pad,
            1: [2.0000005] + pad,
        }
        self._doctor(monkeypatch, lambda l, n: spectra[l])
        report = count_below(torus_23, n_grid=256)
        assert report.counts_by_grid == {256: 20, 512: 20}
        assert report.n2 == 20
        assert report.verdict is False

    # The band is measured once, on the doubled grid (512 rows here), and
    # both grids are counted against it.  There the anchors sit 1e-6 from 2,
    # so the band is 1e-5 (plus 2e-13); on the requested grid (256 rows) they
    # sit `factor` times as far.  `extra` lies below 2 on both grids.
    @staticmethod
    def _anchors_displaced(factor, extra):
        pad = list(np.arange(3.0, 20.0))

        def spectrum_of(l, n):
            shift = factor * 1e-6 if n == 256 else 1e-6
            return {
                0: [0.0, 0.5, extra, 2.0 - shift, 2.0 + shift] + pad,
                1: [2.0 + 0.5 * shift] + pad,
            }[l]
        return spectrum_of

    def test_anchors_of_a_second_order_grid_count_as_the_threshold(self, torus_23, monkeypatch):
        # 4 times the doubled grid's displacement, as in the second-order
        # regime: 0.4 band from 2, inside the band on both grids
        self._doctor(monkeypatch, self._anchors_displaced(4.0, 0.7))
        report = count_below(torus_23, n_grid=256)
        assert report.counts_by_grid == {256: 3, 512: 3}
        assert report.tolerance_band == pytest.approx(1e-5, rel=1e-6)
        assert report.verdict is True

    def test_anchors_outside_the_doubled_grids_band_are_counted_below(self, torus_23, monkeypatch):
        # 12 times: the requested grid's lower l = 0 anchor, 2 - 1.2e-5, lies
        # below 2 - band, so that grid counts it and the counts differ
        self._doctor(monkeypatch, self._anchors_displaced(12.0, 0.7))
        report = count_below(torus_23, n_grid=256)
        assert report.counts_by_grid == {256: 4, 512: 3}
        assert report.n2 == 3
        assert report.verdict is False

    def test_value_between_the_two_grids_bands_counted_on_both(self, torus_23, monkeypatch):
        # 2 - 3 band lies outside the doubled grid's band but would lie inside
        # one measured on the requested grid's anchors (4 times as wide)
        self._doctor(monkeypatch, self._anchors_displaced(4.0, 2.0 - 3e-5))
        report = count_below(torus_23, n_grid=256)
        assert report.counts_by_grid == {256: 3, 512: 3}
        assert report.verdict is True


class TestCountBelowLanczosRuns:
    @staticmethod
    def _runs(monkeypatch):
        halves = []
        shift_invert = spectral._shift_invert
        monkeypatch.setattr(spectral, "_shift_invert",
                            lambda d, *args, **kwargs: halves.append(d.size)
                            or shift_invert(d, *args, **kwargs))
        return halves

    @pytest.mark.parametrize("label, n", [((2, 3), 2048), ((3, 5), 2048), ((4, 7), 2048),
                                          ((5, 8), 2048), ((5, 9), 2048), ((5, 9), 65536)],
                             ids=["2/3", "3/5", "4/7", "5/8", "5/9", "5/9@65536"])
    def test_no_lanczos_run_on_the_benchmark_tori(self, tori, label, n, monkeypatch):
        # each window holds just its anchors, which come from their known
        # eigenfunctions by one Rayleigh-quotient step: nothing is bisected for
        halves = self._runs(monkeypatch)
        bisect = spectral._bisect
        monkeypatch.setattr(spectral, "_bisect", lambda d, *args: halves.append(d.size)
                            or bisect(d, *args))
        assert count_below(tori[label], n_grid=n).verdict is True
        assert halves == []

    def test_no_lanczos_run_on_thin_tori(self, monkeypatch):
        # the l = 1 clusters fill windows beyond their anchors (11 values of
        # 14/27, 99 of 50/99); their ends are bisected for on Sturm counts
        def refused(*args, **kwargs):
            raise AssertionError("count_below ran shift-invert Lanczos")

        monkeypatch.setattr(spectral, "_shift_invert", refused)
        for label in [(14, 27), (17, 33), (26, 51), (50, 99)]:
            torus = build_torus(RotationNumber(*label))
            report = count_below(torus, n_grid=resolving_grid(torus))
            assert report.verdict is True, label
            assert any(l == 1 and last > first for l, first, last, _, _ in report.eigenvalues_near_2)


def _lowest_above(problem, sigma):
    """Lanczos eigenvalues of the problem from the lowest through the first above sigma."""
    k = 4
    while True:
        vals = eigen_low(problem, k).eigenvalues
        if vals[-1] > sigma:
            return vals
        k *= 2


def _nearest(d, e, sigma):
    """The eigenvalue of the tridiagonal ``(d, e)`` nearest sigma, by dstebz (:func:`_bisected`)."""
    values = _bisected(d, e, "v", (sigma - 0.5, sigma + 0.5))
    return values[np.argmin(np.abs(values - sigma))]


def _bisected(d, e, select, select_range):
    """Eigenvalues of the tridiagonal ``(d, e)`` by LAPACK's dstebz, to full precision (abstol 2 tiny)."""
    return scipy.linalg.eigvalsh_tridiagonal(d, e, select=select, select_range=select_range,
                                             tol=2.0 * np.finfo(float).tiny)


def _dstebz_count(d, e, sigma):
    """Eigenvalues strictly below sigma: LAPACK's dstebz, range "V" with a tolerance wider than the spectrum."""
    spread = 2.0 * float(np.max(np.abs(e), initial=0.0))
    low, high = float(d.min()) - spread, float(d.max()) + spread
    m, *_, info = scipy.linalg.lapack.dstebz(d, e, 1, min(low, sigma) - 1.0,
                                             np.nextafter(sigma, -np.inf), 0, 0,
                                             2.0 * (high - low) + 1.0, "B")
    assert info == 0
    return m


SIXTEEN_CASES = [(rotation, 2048) for rotation in _valid_labels(13)] + [
    (RotationNumber(3, 5), 4096), (RotationNumber(4, 7), 16384),
    (RotationNumber(5, 8), 4096), (RotationNumber(5, 9), 65536)]


class TestBisect:
    """Sturm bisection for eigenvalues at given indices, on the dlaebz kernel."""

    def test_matches_dstebz_on_random_tridiagonals(self):
        rng = np.random.default_rng(28)
        for trial in range(100):
            n = int(rng.integers(2, 100))
            d, e = rng.standard_normal(n) * 10.0, rng.standard_normal(n - 1)
            if trial % 4 == 0:
                e[rng.random(e.size) < 0.3] = 0.0  # split into blocks
            indices = sorted(set(rng.integers(0, n, 3).tolist()))
            got = spectral._bisect(d, e, indices, -100.0, 100.0)
            np.testing.assert_allclose(got, _bisected(d, e, "i", (indices[0], indices[-1]))[
                np.subtract(indices, indices[0])], rtol=0.0, atol=4 * spectral._EPS * 100.0)

    def test_brackets_end_as_adjacent_doubles(self):
        # a diagonal matrix: each eigenvalue is its entry, exactly
        d = np.array([2.0 - 3e-6, 2.0 + 1e-6, 2.0, 1.0, np.nextafter(2.0, 3.0)])
        got = spectral._bisect(d, np.zeros(4), [1, 2, 3], 2.0 - 1e-5, 2.0 + 1e-5)
        assert list(got) == [2.0 - 3e-6, 2.0, np.nextafter(2.0, 3.0)]

    def test_inside_a_cluster(self):
        # the first l = 1 band of 26/51 at 2048 rows: 51 values within 1e-4
        problem = assemble(build_torus(RotationNumber(26, 51)), 1, 2048)
        d, e = spectral._direct_sum(problem)
        indices = list(range(spectral._sturm_counts(d, e, [2.0])[0]))
        assert len(indices) == 51
        got = spectral._bisect(d, e, indices, 1.99, 2.0)
        np.testing.assert_allclose(got, _bisected(d, e, "i", (indices[0], indices[-1])),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("indices", [[0], [2], [0, 1]])
    def test_bracket_without_its_index_raises(self, indices):
        d = np.array([1.0, 2.0, 3.0])
        with pytest.raises(spectral.SolverFailure, match="holds the indices"):
            spectral._bisect(d, np.zeros(2), indices, 1.5, 2.5)


class TestSturmCounts:
    """The dlaebz kernel against dstebz, whose counts it replaced."""

    def test_matches_dstebz_on_random_tridiagonals(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(2, 200))
            d = rng.standard_normal(2 * n) * 10.0 ** rng.integers(-3, 4)
            e = rng.standard_normal(2 * n)
            if trial % 3 == 0:
                e[rng.random(e.size) < 0.3] = 0.0  # split into blocks
            if trial % 5 == 0:
                e[:] = 0.0  # diagonal: every diagonal entry an eigenvalue
            if trial % 7 == 0:
                e[:] *= 1e-18  # couplings below dstebz's splitting threshold
            # strided halves, as the doctored ones of TestCountBelowClassification
            d, e = d[::2], e[1:2 * n - 1:2]
            shifts = np.concatenate([rng.standard_normal(int(rng.integers(1, 6))) * 3.0,
                                     d[:2]])  # shifts at eigenvalues of a diagonal
            expected = [_dstebz_count(d, e, sigma) for sigma in shifts]
            assert list(spectral._sturm_counts(d, e, shifts)) == expected, trial

    @pytest.mark.parametrize("rotation, n", SIXTEEN_CASES,
                             ids=lambda x: f"{x.p}/{x.q}" if isinstance(x, RotationNumber) else str(x))
    def test_matches_dstebz_on_every_half(self, rotation, n):
        torus = build_torus(rotation)
        shifts = [0.5, 2.0 - 2e-6, 2.0 - 1e-6, 2.0, 2.0 + 1e-6, 6.0, 12.0]
        for l in range(4):
            problem = assemble(torus, l, n)
            for d, e in (problem.even, problem.odd):
                expected = [_dstebz_count(d, e, sigma) for sigma in shifts]
                assert list(spectral._sturm_counts(d, e, shifts)) == expected, l

    def test_exact_zero_pivot(self):
        # the second pivot of T - 0 I is +0, counted as dstebz counts it:
        # one eigenvalue below 0 (det T = -1); dlarrc counts 2 here
        d, e = np.array([1.0, 1.0, 5.0]), np.array([1.0, 1.0])
        assert list(spectral._sturm_counts(d, e, [0.0])) == [1] == [_dstebz_count(d, e, 0.0)]

    @pytest.mark.parametrize("rotation, n", SIXTEEN_CASES,
                             ids=lambda x: f"{x.p}/{x.q}" if isinstance(x, RotationNumber) else str(x))
    def test_one_call_equals_one_shift_calls(self, rotation, n):
        # k = 1 .. 8 shifts, odd and even counts, unsorted, at eigenvalues'
        # distances from 2 that the guard band probes
        shifts = [2.0, 0.5, 12.0, 2.0 - 1e-6, 6.0, 2.0 + 1e-6, 0.0, 2.0 - 2e-6]
        torus = build_torus(rotation)
        for l in range(4):
            problem = assemble(torus, l, n)
            for d, e in (problem.even, problem.odd):
                single = [int(spectral._sturm_counts(d, e, [sigma])[0]) for sigma in shifts]
                for k in range(1, 9):
                    assert list(spectral._sturm_counts(d, e, shifts[:k])) == single[:k], (l, k)

    def test_couplings_must_match_the_diagonal(self):
        with pytest.raises(ValueError, match="couplings"):
            spectral._sturm_counts(np.ones(4), np.ones(4), [0.0])


# The five paper tori, and two thin ones whose windows near 2 are bisected for
_BINDING_LABELS = [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9), (17, 33), (50, 99)]

# count_below of each label at its resolving grid, one report a line: repr
# writes each float's shortest round-trip form, so equal lines are equal bits
_REPORTS = """
import dataclasses
from otsuki.geometry import RotationNumber, build_torus
from otsuki.spectral import count_below, resolving_grid
for p, q in {labels}:
    torus = build_torus(RotationNumber(p, q))
    print(repr(dataclasses.asdict(count_below(torus, n_grid=resolving_grid(torus)))))
"""


def _run_python(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter that imports otsuki from this tree."""
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestLapackBinding:
    """dlaebz and dgtsv from numpy's own OpenBLAS, or from scipy's LAPACK where numpy ships none."""

    def test_numpy_openblas_needs_no_scipy(self):
        if not list((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so")):
            pytest.skip("this numpy ships no OpenBLAS of its own")
        out = _run_python("import sys\n"
                          "from otsuki import spectral\n"
                          "print(spectral._DLAEBZ_INT, spectral._DGTSV_INT)\n"
                          + _REPORTS.format(labels=[(2, 3)])
                          + "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert out.splitlines()[0] == "int64 int64"
        assert out.splitlines()[-1] == "[]"

    def test_scipy_fallback_reports_are_bit_identical(self):
        # numpy's library hidden from the loader: both routines come from
        # scipy's cython_lapack with C ints, and no report moves by a bit
        hide = ("import ctypes, sys\n"
                "class Hidden(ctypes.CDLL):\n"
                "    def __init__(self, name, *args, **kwargs):\n"
                "        if 'libscipy_openblas64_' in str(name):\n"
                "            raise OSError(f'{name}: hidden')\n"
                "        super().__init__(name, *args, **kwargs)\n"
                "ctypes.CDLL = Hidden\n"
                "from otsuki import spectral\n"
                "print(spectral._DLAEBZ_INT, spectral._DGTSV_INT, 'scipy.linalg' in sys.modules)\n")
        out = _run_python(hide + _REPORTS.format(labels=_BINDING_LABELS)).splitlines()
        assert out[0] == "int32 int32 True"
        expected = []
        for p, q in _BINDING_LABELS:
            torus = build_torus(RotationNumber(p, q))
            expected.append(repr(dataclasses.asdict(count_below(torus, n_grid=resolving_grid(torus)))))
        assert out[1:] == expected


class TestInertiaAgainstLanczos:
    """The inertia count against an independent count of Lanczos eigenvalues."""

    def test_shift_at_an_eigenvalue_raises(self):
        half = np.array([1.0, 2.0, 3.0]), np.zeros(2)
        assert spectral._sturm_counts(*half, [2.5])[0] == 2
        assert spectral._sturm_counts(*half, [2.0])[0] == 1  # strictly below

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
                for sigma in sigmas:
                    expected = np.sum(vals < sigma)
                    assert _count(problem, sigma) == expected, (n, l, sigma)

    @pytest.mark.parametrize("label, l1_window", [((14, 27), 11), ((17, 33), 9), ((50, 99), 99)],
                             ids=["14/27", "17/33", "50/99"])
    def test_near_threshold_ranges_match_eigvalsh(self, label, l1_window):
        # the l = 1 values in the band at the resolving grid form a window
        # beyond the anchor; each mode's window against LAPACK's dstebz on
        # the doubled grid: its indices, and the values at its ends
        torus = build_torus(RotationNumber(*label))
        report = count_below(torus, n_grid=resolving_grid(torus))
        band = report.tolerance_band
        expected = []
        for l in range(4):
            d, e = spectral._direct_sum(assemble(torus, l, report.grids_used[-1]))
            window = _bisected(d, e, "v", (2.0 - band, 2.0 + band))
            if window.size:
                first = _bisected(d, e, "v", (-1.0, 2.0 - band)).size
                last = first + window.size - 1
                ends = _bisected(d, e, "i", (first, last))[[0, -1]]
                expected.append((l, first, last, *ends))
        got = report.eigenvalues_near_2
        assert [(l, first, last) for l, first, last, _, _ in got] == [x[:3] for x in expected]
        assert [last - first + 1 for l, first, last, _, _ in got if l == 1] == [l1_window]
        np.testing.assert_allclose([x[3:] for x in got], [x[3:] for x in expected],
                                   rtol=0.0, atol=1e-9)


class TestGroundEigenvalue:
    """The anchors by one Rayleigh-quotient step from their known eigenfunctions."""

    @staticmethod
    def _diagonal(low, n=64):
        return np.concatenate([low, 20.0 + np.arange(n - len(low))]), np.zeros(n - 1)

    def test_several_below_the_shift(self):
        # an exact eigenvector makes T - rho I exactly singular: rho is the eigenvalue
        half = self._diagonal([1.99, 1.9, 2.5, 1.95])
        assert spectral._sturm_counts(*half, [2.0])[0] == 3
        assert spectral._rayleigh_step(*half, np.eye(64)[1]) == (1.9, 0.0)

    def test_none_below_the_shift(self):
        half = self._diagonal([2.5, 2.1])
        assert spectral._sturm_counts(*half, [2.0])[0] == 0
        assert spectral._rayleigh_step(*half, np.eye(64)[1]) == (2.1, 0.0)
        # a perturbed one: rho is off by 4e-7, the step by rounding, within its radius
        value, radius = spectral._rayleigh_step(*half, np.eye(64)[1] + 1e-3 * np.eye(64)[0])
        assert abs(value - 2.1) <= 1e-15 and radius <= 1e-9

    @staticmethod
    def _anchors_and_lanczos(torus, n):
        """The three refined anchors on n rows, and an independent value for each: the
        l = 1 ground from eigen_low, and the value nearest 2 in each l = 0 half by dstebz."""
        l0, l1 = assemble(torus, 0, n), assemble(torus, 1, n)
        pairs = zip((l1.even, l0.even, l0.odd),
                    spectral._known_eigenfunctions(torus, n, spectral._phase_points(torus, n)))
        refined = [spectral._rayleigh_step(*half, w)[0] for half, w in pairs]
        lanczos = [eigen_low(l1, 1).eigenvalues[0]] + [
            _nearest(d, e, 2.0) for d, e in (l0.even, l0.odd)]
        return refined, lanczos, spectral._EPS * float(np.max(np.abs(l1.even[0])))

    @pytest.mark.parametrize("label, n", [
        ((2, 3), 2048), ((3, 5), 2048), ((4, 7), 2048), ((5, 8), 2048), ((5, 9), 2048),
        ((6, 11), 2048), ((7, 13), 2048), ((5, 9), 65536), ((17, 33), 16384), ((26, 51), 2048)],
        ids=["2/3", "3/5", "4/7", "5/8", "5/9", "6/11", "7/13", "5/9@65536", "17/33@16384",
             "26/51@2048"])
    def test_matches_eigen_low(self, tori, label, n):
        # on the doubled grid of count_below, within eps * max|main| of Lanczos
        torus = tori.get(label) or build_torus(RotationNumber(*label))
        refined, lanczos, floor = self._anchors_and_lanczos(torus, 2 * n)
        assert np.all(np.abs(np.subtract(refined, lanczos)) <= floor), (refined, lanczos, floor)

    @pytest.mark.parametrize("label, n", [((2, 3), 1024), ((5, 9), 8192)],
                             ids=["2/3@1024", "5/9@8192"])
    def test_shift_far_above_the_ground(self, tori, label, n):
        # the l = 0 anchors at 2 lie far above the l = 0 ground, 0, with many
        # values of their halves below them; one step from the known
        # eigenfunction still finds the one nearest 2
        problem = assemble(tori[label], 0, n)
        assert spectral._sturm_counts(*problem.even, [2.0])[0] > 1
        refined, lanczos, floor = self._anchors_and_lanczos(tori[label], n)
        assert np.all(np.abs(np.subtract(refined, lanczos)[1:]) <= floor)

    def test_clifford_circle(self, clifford):
        # a series without waves: theta = slope u on a grid that spans no whole u-cycle
        refined, lanczos, floor = self._anchors_and_lanczos(clifford, 4096)
        assert np.all(np.abs(np.subtract(refined, lanczos)) <= floor)

    @pytest.mark.parametrize("label", [(26, 51), (28, 55)], ids=["26/51", "28/55"])
    def test_cluster_ground_is_bisected_for(self, label, monkeypatch):
        # at 2048 rows sin phi's step ends in the l = 1 cluster above the
        # ground; count_below, doubling 1024 rows, bisects for the ground instead
        torus = build_torus(RotationNumber(*label))
        l1 = assemble(torus, 1, 2048)
        ground = scipy.linalg.eigvalsh_tridiagonal(*l1.even, select="i", select_range=(0, 0))[0]
        floor = spectral._EPS * float(np.max(np.abs(l1.even[0])))
        w = spectral._known_eigenfunctions(torus, 2048, spectral._phase_points(torus, 2048))[0]
        assert spectral._rayleigh_step(*l1.even, w)[0] - ground > 1e3 * floor
        bisected = []
        bisect = spectral._bisect

        def recording(d, e, indices, lo, hi):
            values = bisect(d, e, indices, lo, hi)
            if lo == 0.0:  # the ground's bracket; the windows' lie about 2
                bisected.append(values[0])
            return values

        monkeypatch.setattr(spectral, "_bisect", recording)
        assert count_below(torus, n_grid=1024).verdict is True
        assert len(bisected) == 1 and abs(bisected[0] - ground) <= floor

    def test_sin_2phi_in_place_of_sin_phi_raises(self, torus_23, monkeypatch):
        # a function that is no eigenfunction leaves its step's radius above
        # its displacement from 2
        known = spectral._known_eigenfunctions

        def swapped(torus, n, points):
            phi, J = (x[::2] for x in points[:2])
            w = np.sqrt(J) * np.sin(2.0 * phi)
            w[1:-1] *= math.sqrt(2.0)
            return [w] + known(torus, n, points)[1:]

        monkeypatch.setattr(spectral, "_known_eigenfunctions", swapped)
        with pytest.raises(spectral.SolverFailure, match="uncertain"):
            count_below(torus_23, n_grid=2048)

    @pytest.mark.parametrize("side, shift", [((1, 0), -1e-3), ((0, 0), 1e-3), ((0, 1), -1e-3)],
                             ids=["l1 ground", "l0 even", "l0 odd"])
    def test_unconfirmed_anchor_raises(self, torus_23, monkeypatch, side, shift):
        # one anchor moved off every eigenvalue of its half, its radius kept
        step = spectral._rayleigh_step
        calls = []

        def moved(d, e, w):
            value, radius = step(d, e, w)
            calls.append(d.size)  # the l = 1 ground first, then the l = 0 halves
            moves = len(calls) == 1 + [(1, 0), (0, 0), (0, 1)].index(side)
            return value + (shift if moves else 0.0), radius

        monkeypatch.setattr(spectral, "_rayleigh_step", moved)
        with pytest.raises(spectral.SolverFailure, match="no eigenvalue"):
            count_below(torus_23, n_grid=2048)

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9), (17, 33), (50, 99)],
                             ids=["2/3", "3/5", "4/7", "5/8", "5/9", "17/33", "50/99"])
    def test_one_solve_matches_factor_and_solve(self, tori, label):
        # the three anchor steps on the doubled resolving grid: dgtsv's x is
        # LAPACK's dgttrf and dgttrs' bit for bit, and so is the step
        lapack = scipy.linalg.lapack
        torus = tori.get(label) or build_torus(RotationNumber(*label))
        n = 2 * resolving_grid(torus)
        l0, l1 = assemble(torus, 0, n), assemble(torus, 1, n)
        for (d, e), w in zip((l1.even, l0.even, l0.odd),
                             spectral._known_eigenfunctions(torus, n, spectral._phase_points(torus, n))):
            Tw = d * w
            Tw[:-1] += e * w[1:]
            Tw[1:] += e * w[:-1]
            rho = float(np.sum(w * Tw) / np.sum(w * w))
            *lu, info = lapack.dgttrf(e, d - rho, e)
            assert info == 0
            x = lapack.dgttrs(*lu, w)[0]
            np.testing.assert_array_equal(lapack.dgtsv(e, d - rho, e, w)[3], x)
            xx = np.sum(x * x)
            step = np.sum(x * w) / xx
            assert spectral._rayleigh_step(d, e, w) == (
                rho + float(step), float(np.sqrt(np.sum((w - step * x) ** 2) / xx)))

    def test_nearest_to_the_threshold_is_not_the_ground_of_a_coupled_half(self):
        # T = tridiag(-1, 2.5, -1) of order 64 has the eigenvalues
        # 2.5 - 2 cos(k pi / 65): 27 lie below 2, the nearest at 1.975, the
        # ground at 0.5023 (no torus half shows such a spread on the phase grid)
        n = 64
        half = np.full(n, 2.5), -np.ones(n - 1)
        exact = 2.5 - 2.0 * np.cos(np.arange(1, n + 1) * pi / (n + 1))
        assert spectral._sturm_counts(*half, [2.0])[0] == np.sum(exact < 2.0) == 27
        nearest = _nearest(*half, 2.0)
        ground, _ = spectral._rayleigh_step(*half, np.sin(np.arange(1, n + 1) * pi / (n + 1)))
        assert nearest - ground > 1e-3
        assert abs(ground - exact[0]) <= 1e-12


class TestBorderedFactorization:
    """The counts and solves of the reflection halves against a dense oracle."""

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_inertia_matches_dense_count(self, tori, label):
        # the halves' Sturm counts against the eigenvalues of the reference bands
        torus = tori[label]
        band = count_below(torus).tolerance_band
        for n in (256, 1024):
            for l in range(4):
                vals = np.linalg.eigvalsh(_dense(*_cyclic_bands(torus, l, n)))
                problem = assemble(torus, l, n)
                for sigma in (0.5, 2.0 - band, 2.0, 2.0 + band, 10.0):
                    expected = np.sum(vals < sigma)
                    assert _count(problem, sigma) == expected, (n, l, sigma)

    @pytest.mark.parametrize("label", [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)],
                             ids=lambda pq: f"{pq[0]}/{pq[1]}")
    def test_solve_residual(self, tori, label):
        rng = np.random.default_rng(7)
        for l in range(4):
            problem = assemble(tori[label], l, 256)
            for d, e in (problem.even, problem.odd):
                T = _tridiagonal(d, e)
                for sigma in (-1.0, 2.0):
                    b = rng.standard_normal(d.size)
                    if spectral._sturm_counts(d, e, [sigma])[0]:  # not definite: refused
                        with pytest.raises(spectral.SolverFailure, match="not definite"):
                            spectral._inverse(d, e, sigma)
                        continue
                    x = spectral._inverse(d, e, sigma).matvec(b)
                    residual = T @ x - sigma * x - b
                    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(b), (l, sigma)


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
        assert ground == expected


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

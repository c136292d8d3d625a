"""Periodic Sturm-Liouville spectra on an Otsuki torus and eigenvalue counting.

Separation of variables in the orbit coordinate alpha reduces the
Laplace-Beltrami spectrum of the torus to the family of periodic problems

    -(P(t) h')' + Q_l(t) h = lambda h,      h(t + t0) = h(t),

with P = 4 pi^2 sin(phi(t))^2 and Q_l = l^2 / sin(phi(t))^2 for the angular
mode l = 0, 1, 2, ...  A mode-l eigenvalue contributes once to the surface
spectrum for l = 0 and twice for l > 0 (cos and sin factors).  The torus
metric is extremal for the functional attached to eigenvalue index N(2),
the number of surface eigenvalues strictly below 2, and the expected count
is 2p - 1; :func:`count_below` computes it and checks it.

The discretization is second-order symmetric finite differences on a
uniform periodic grid, giving a cyclic tridiagonal symmetric matrix A.
Every shifted matrix A - sigma I is factored one way, by bordering: the
last row and column are split off, the tridiagonal rest T gets LAPACK's
partial-pivoting LU, and the border leaves one scalar Schur complement s.
Eigenvalues below sigma are counted, not computed: by Haynsworth's inertia
additivity their number is the Sturm count of T below sigma (LAPACK
bisection, backward stable) plus one if s < 0 (see :func:`_inertia`).
The same factorization is the solve of shift-invert Lanczos iteration,
which is used only where eigenvalues or eigenvectors themselves are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .geometry import OtsukiTorus, turning_layer_scale

__all__ = [
    "GridTooCoarse", "SolverFailure", "AmbiguousCount",
    "SLProblem", "SLSpectrum", "VerificationReport",
    "assemble", "operator_matrix", "eigen_low",
    "known_eigenfunction_residuals", "count_below", "lambda0_monotone_check",
    "count_sign_changes", "resolving_grid",
]

_EIGSH_SEED = 20120524  # fixed Lanczos start vector: identical runs bit for bit


class GridTooCoarse(ValueError):
    """Requested discretization cannot resolve the requested modes."""


class SolverFailure(RuntimeError):
    """The sparse eigensolver failed, or a shifted matrix A - sigma I is singular.

    Singular means an exactly zero pivot in the LU of the tridiagonal block
    or an exactly zero Schur complement of the border: sigma is then an
    eigenvalue in floating point, and no count below it is defined.
    """


class AmbiguousCount(RuntimeError):
    """An eigenvalue sits inside the guard band below the counting threshold."""


@dataclass
class SLProblem:
    """Discretized periodic Sturm-Liouville problem for one angular mode."""

    l: int
    period: float
    grid: np.ndarray    # nodes t_j = j h, j = 0 .. n_grid - 1
    P: np.ndarray       # stiffness coefficient at the nodes
    P_mid: np.ndarray   # stiffness coefficient at the flux midpoints t_j + h/2
    Q: np.ndarray       # potential at the nodes
    n_grid: int

    @property
    def h(self) -> float:
        return self.period / self.n_grid


@dataclass
class SLSpectrum:
    """Low eigenpairs of one mode, sorted ascending."""

    l: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray   # column i is the grid eigenfunction of eigenvalues[i]
    zero_counts: list[int]
    n_grid: int
    period: float


@dataclass
class VerificationReport:
    """Outcome of the eigenvalue count against the predicted index."""

    rotation: object
    n2: int
    claimed: int
    eigenvalues_near_2: list[tuple[int, int, float]]
    tolerance_band: float
    grids_used: list[int]
    verdict: bool
    counts_by_grid: dict[int, int]
    truncation_confirmed: bool  # lambda_0(l) above threshold for every l >= 2


def assemble(torus: OtsukiTorus, l: int, n_grid: int) -> SLProblem:
    """Sample the mode-l coefficients on a uniform periodic grid.

    Requires ``n_grid >= 64`` and ``n_grid >= 32 p`` so the grid can
    represent the 2p oscillations of the eigenfunctions near the counting
    threshold.
    """
    return _assemble_modes(torus, [l], n_grid)[0]


def _assemble_modes(torus: OtsukiTorus, modes: Sequence[int], n_grid: int
                    ) -> list[SLProblem]:
    """:func:`assemble` for each listed mode, sampling the profile once."""
    if any(l < 0 for l in modes):
        raise ValueError("angular mode l must be non-negative")
    p = torus.profile.theta_winding
    if n_grid < 64 or n_grid < 32 * p:
        raise GridTooCoarse(f"n_grid must be >= max(64, 32 p = {32 * p})")
    t0 = torus.t0
    h = t0 / n_grid
    grid = np.arange(n_grid) * h
    phi = torus.profile.phi_at(grid)
    phi_mid = torus.profile.phi_at(grid + 0.5 * h)
    sin_sq = np.sin(phi) ** 2
    P = 4.0 * math.pi ** 2 * sin_sq
    P_mid = 4.0 * math.pi ** 2 * np.sin(phi_mid) ** 2
    return [SLProblem(l=l, period=t0, grid=grid, P=P, P_mid=P_mid,
                      Q=(l * l) / sin_sq if l else np.zeros(n_grid), n_grid=n_grid)
            for l in modes]


def operator_matrix(problem: SLProblem) -> sp.csc_matrix:
    """Cyclic tridiagonal symmetric matrix of h -> -(P h')' + Q h.

    Second-order central fluxes: the coupling between neighbours j and j+1
    (cyclically) is -P(t_{j+1/2}) / h^2, entered identically in both
    triangles, so the matrix equals its transpose exactly.
    """
    n = problem.n_grid
    h = problem.h
    off = -problem.P_mid / h ** 2
    main = (problem.P_mid + np.roll(problem.P_mid, 1)) / h ** 2 + problem.Q
    j = np.arange(n)
    rows = np.concatenate([j, j, (j + 1) % n])
    cols = np.concatenate([j, (j + 1) % n, j])
    vals = np.concatenate([main, off, off])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


def count_sign_changes(values: np.ndarray, rel_floor: float = 1e-10) -> int:
    """Sign changes of a periodic grid function over one period.

    Entries below ``rel_floor`` times the max magnitude are ignored so that
    discretization noise at a genuine zero is not double counted.
    """
    v = np.asarray(values, dtype=float)
    peak = np.max(np.abs(v))
    if peak == 0.0:
        return 0
    signs = np.sign(v[np.abs(v) >= rel_floor * peak])
    if signs.size < 2:
        return 0
    return int(np.sum(signs != np.roll(signs, 1)))


def eigen_low(problem: SLProblem, k: int) -> SLSpectrum:
    """The k smallest eigenpairs of the discretized problem.

    Shift-invert Lanczos about sigma = -1 (the operator is positive
    semidefinite, so the k eigenvalues nearest -1 are the k smallest).
    The start vector is fixed, making repeated runs identical.
    """
    n = problem.n_grid
    if k < 1 or k > n // 4:
        raise ValueError(f"k must lie in [1, n_grid / 4 = {n // 4}]")
    A = operator_matrix(problem)
    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(n)
    try:
        vals, vecs = eigsh(A, k=k, sigma=-1.0, which="LM", v0=v0,
                           ncv=min(n, max(2 * k + 1, 40)), maxiter=10000,
                           OPinv=_ShiftedCyclic(A, -1.0).inverse())
    except (ArpackNoConvergence, ArpackError) as exc:
        raise SolverFailure(f"eigensolver failed for l={problem.l}, "
                            f"n_grid={n}: {exc}") from exc
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    zero_counts = [count_sign_changes(vecs[:, i]) for i in range(k)]
    return SLSpectrum(l=problem.l, eigenvalues=vals, eigenvectors=vecs,
                      zero_counts=zero_counts, n_grid=n, period=problem.period)


def _eigenvalues_near(A: sp.csc_matrix, k: int, sigma: float) -> np.ndarray:
    """The k eigenvalues of A nearest sigma, ascending (shift-invert Lanczos)."""
    n = A.shape[0]
    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(n)
    try:
        vals = eigsh(A, k=k, sigma=sigma, which="LM", v0=v0,
                     return_eigenvectors=False,
                     OPinv=_ShiftedCyclic(A, sigma).inverse())
    except (ArpackNoConvergence, ArpackError) as exc:
        raise SolverFailure(f"eigensolver failed near sigma={sigma!r}, "
                            f"n_grid={n}: {exc}") from exc
    return np.sort(vals)


def _cyclic_bands(A: sp.spmatrix) -> tuple[np.ndarray, np.ndarray, float]:
    """Diagonal, superdiagonal and corner ``A[0, n-1]`` of a symmetric cyclic tridiagonal A.

    Raises ValueError unless A is square of order 3 or more, symmetric,
    and zero outside the cyclic tridiagonal pattern.
    """
    n = A.shape[0]
    if A.shape != (n, n) or n < 3:
        raise ValueError(f"need a square matrix of order >= 3, got shape {A.shape}")
    main = A.diagonal()
    off = A.diagonal(1)
    corner = float(A[0, n - 1])
    if not (np.array_equal(A.diagonal(-1), off) and A[n - 1, 0] == corner):
        raise ValueError("matrix is not symmetric")
    in_pattern = (np.count_nonzero(main) + 2 * np.count_nonzero(off)
                  + 2 * (corner != 0.0))
    if A.count_nonzero() != in_pattern:
        raise ValueError("matrix has entries outside the cyclic tridiagonal pattern")
    return main, off, corner


class _ShiftedCyclic:
    """A - sigma I for a symmetric cyclic tridiagonal A, factored by bordering.

    The last row and column are split off::

        A - sigma I = [[T, c], [c^T, d]]

    with T tridiagonal of order n - 1 and c zero but for ``c[0] = A[0, n-1]``
    (the corner) and ``c[n-2] = A[n-2, n-1]``.  T gets LAPACK's
    partial-pivoting LU (``dgttrf``); the border is eliminated through
    ``w = T^{-1} c`` and the scalar Schur complement ``s = d - c.w``.
    Raises :class:`SolverFailure` if T has an exactly zero pivot or s is
    exactly zero.
    """

    def __init__(self, A: sp.spmatrix, sigma: float):
        main, off, corner = _cyclic_bands(A)
        n = main.size
        self.sigma = sigma
        self._n = n
        self._main, self._off, self._corner = main, off, corner
        # the dgttrf wrapper needs order >= 3: pad T with identity rows
        m = max(n - 1, 3)
        d = np.ones(m)
        d[:n - 1] = main[:-1] - sigma
        e = np.zeros(m - 1)
        e[:n - 2] = off[:-1]
        *self._lu, info = dgttrf(e, d, e)
        if info > 0:
            raise SolverFailure(f"A - sigma I at sigma={sigma!r}, n_grid={n}: "
                                "singular tridiagonal block")
        c = np.zeros(n - 1)
        c[0] = corner
        c[-1] = off[-1]
        self._w = self._solve_block(c)
        self.schur = (main[-1] - sigma) - (corner * self._w[0] + off[-1] * self._w[-1])
        if self.schur == 0.0:
            raise SolverFailure(f"A - sigma I at sigma={sigma!r}, n_grid={n}: "
                                "singular, zero Schur complement")

    def _solve_block(self, rhs: np.ndarray) -> np.ndarray:
        """T^{-1} rhs, for rhs of length n - 1."""
        x = np.zeros(self._lu[1].size)
        x[:rhs.size] = rhs
        return dgttrs(*self._lu, x, overwrite_b=1)[0][:rhs.size]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (A - sigma I) x = b."""
        b = np.ravel(b)
        y = self._solve_block(b[:-1])
        # c.y from the two nonzeros of c, not a length-n dot
        last = (b[-1] - self._corner * y[0] - self._off[-1] * y[-1]) / self.schur
        x = np.empty(self._n)  # y - last w, written in place: temporaries cost more here
        np.multiply(self._w, -last, out=x[:-1])
        x[:-1] += y
        x[-1] = last
        return x

    def inverse(self) -> LinearOperator:
        """(A - sigma I)^{-1} as an operator, the OPinv of shift-invert eigsh."""
        return LinearOperator((self._n, self._n), matvec=self.solve, dtype=float)

    def count_negative(self) -> int:
        """Number of negative eigenvalues of A - sigma I: In(T) + In(s)."""
        d, e = self._main[:-1], self._off[:-1]
        spread = 2.0 * float(np.max(np.abs(e)))
        low, high = float(d.min()) - spread, float(d.max()) + spread
        # eigenvalues of T in (vl, sigma] with vl below T's Gershgorin interval;
        # a tolerance wider than that interval leaves only the Sturm counts
        vl = min(low, self.sigma) - 1.0
        m, *_, info = dstebz(d, e, 1, vl, self.sigma, 0, 0, 2.0 * (high - low) + 1.0, "B")
        if info:
            raise SolverFailure(f"Sturm count at sigma={self.sigma!r}, "
                                f"n_grid={self._n}: dstebz info={info}")
        return int(m) + int(self.schur < 0.0)


def _inertia(A: sp.spmatrix, sigma: float) -> int:
    """Number of eigenvalues of the symmetric cyclic tridiagonal A strictly below sigma.

    Bordered count (:class:`_ShiftedCyclic`): by Haynsworth's inertia
    additivity, the number of negative eigenvalues of A - sigma I is that of
    its tridiagonal leading block T plus one if the Schur complement s of
    the border is negative.  The first term is the Sturm count of LAPACK's
    bisection (``dstebz``), which is backward stable for tridiagonal
    matrices (Kahan; LAPACK Users' Guide section 2.4.4).  The corner is the
    second term, s from a partial-pivoting solve with T.  Its sign can be
    lost only when T is nearly singular at sigma.  By interlacing, T has an
    eigenvalue inside any close pair of eigenvalues of A, such as the l = 0
    pair at 2, so this term is checked, not proven: against dense and
    Lanczos counts and with the border moved to another row in the test
    suite, and by the grid-doubling check of :func:`count_below`.  A shift
    at which T or s is exactly singular raises :class:`SolverFailure`.
    """
    return _ShiftedCyclic(A, sigma).count_negative()


def known_eigenfunction_residuals(torus: OtsukiTorus, n_grid: int
                                  ) -> tuple[float, float, float]:
    """Relative residuals of the three coordinate-restriction eigenfunctions.

    The ambient coordinate functions restrict to eigenfunctions of the
    surface Laplacian with eigenvalue 2; after separation of variables this
    means sin(phi(t)) solves the l = 1 problem and cos(phi(t)) cos(theta(t))
    and cos(phi(t)) sin(theta(t)) solve the l = 0 problem, all at lambda = 2.
    Returns ``||A v - 2 v|| / ||v||`` for the three, in that order; each
    vanishes at the order of the discretization, so the triple measures the
    spectral accuracy of the grid.
    """
    problem_l1 = assemble(torus, 1, n_grid)
    problem_l0 = assemble(torus, 0, n_grid)
    A1 = operator_matrix(problem_l1)
    A0 = operator_matrix(problem_l0)
    phi = torus.profile.phi_at(problem_l0.grid)
    theta = torus.profile.theta_at(problem_l0.grid)
    residuals = []
    for A, v in ((A1, np.sin(phi)),
                 (A0, np.cos(phi) * np.cos(theta)),
                 (A0, np.cos(phi) * np.sin(theta))):
        residuals.append(float(np.linalg.norm(A @ v - 2.0 * v) / np.linalg.norm(v)))
    return tuple(residuals)


def _band_from_anchors(l0_near: np.ndarray, l1_ground: float, threshold: float) -> float:
    """Guard band from the measured displacement of the threshold anchors.

    Three eigenvalues equal the threshold analytically: the l = 1 ground
    state and the two l = 0 eigenvalues nearest the threshold.  Their
    computed positions measure directly how far the discretization moves an
    eigenvalue that sits exactly at the threshold; ten times the worst
    displacement is the classification band.  (The pointwise operator
    residual is a poor proxy for this: inside the thin turning layers of
    small-``a`` tori it overestimates the eigenvalue error by orders of
    magnitude at practical grids.)
    """
    d0 = float(np.max(np.abs(l0_near - threshold)))
    return 10.0 * max(d0, abs(l1_ground - threshold)) + 1e-13 * threshold


def count_below(torus: OtsukiTorus, threshold: float = 2.0, l_max: int = 3,
                n_grid: int = 2048) -> VerificationReport:
    """Count surface eigenvalues strictly below ``threshold`` and verify 2p - 1.

    For each mode l = 0 .. l_max the eigenvalues below ``threshold - band``
    are counted exactly by inertia (:func:`_inertia`) and weighted 1 (l = 0)
    or 2 (l > 0), where the band absorbs the eigenvalues that equal the
    threshold analytically (see :func:`_band_from_anchors`).  Lanczos
    iteration computes only eigenvalues that are reported: the three
    anchors, the eigenvalues within the band of the threshold, and those
    in the shoulder when the count is ambiguous.  The whole count is repeated
    on a doubled grid and must not change.  That modes above l_max cannot
    contribute is not assumed: the inertia at the threshold is checked to
    be zero for l = 2 .. l_max (lambda_0(l) increases strictly in l, so the
    scan terminates).

    Raises
    ------
    AmbiguousCount
        If at the finest grid some eigenvalue falls in the shoulder
        ``[threshold - 2 band, threshold - band)``, where "below" versus
        "equal to the threshold" cannot be distinguished reliably.
    """
    if l_max < 2:
        raise ValueError("l_max must be at least 2")
    claimed = torus.eigenvalue_index
    grids = [n_grid, 2 * n_grid]
    counts_by_grid: dict[int, int] = {}
    band = 0.0
    near: list[tuple[int, int, float]] = []
    truncation_confirmed = True
    for n in grids:
        finest = n == grids[-1]
        problems = _assemble_modes(torus, range(l_max + 1), n)
        matrices = [operator_matrix(problem) for problem in problems]
        l0_near = _eigenvalues_near(matrices[0], 2, threshold)
        l1_ground = float(eigen_low(problems[1], 1).eigenvalues[0])
        band = _band_from_anchors(l0_near, l1_ground, threshold)
        total = 0
        shoulder: list[tuple[int, float]] = []
        for l, A in enumerate(matrices):
            # for l >= 2, lambda_0(l) normally clears the band: one inertia settles the mode
            if l >= 2 and _inertia(A, threshold + band) == 0:
                continue
            below = _inertia(A, threshold - band)
            total += (1 if l == 0 else 2) * below
            if l >= 2 and _inertia(A, threshold) > 0:
                truncation_confirmed = False
            if not finest:
                continue
            n_window = _inertia(A, threshold + band) - below
            if n_window:
                window = _eigenvalues_near(A, n_window, threshold)
                near += [(l, below + rank, float(v)) for rank, v in enumerate(window)]
            n_shoulder = below - _inertia(A, threshold - 2.0 * band)
            if n_shoulder:
                values = _eigenvalues_near(A, n_shoulder, threshold - 1.5 * band)
                shoulder += [(l, round(float(v), 12)) for v in values]
        counts_by_grid[n] = total
        if shoulder:
            raise AmbiguousCount(
                f"eigenvalues {shoulder} lie within [threshold - 2 band, "
                f"threshold - band) at n_grid = {n}; refine the grid")
    stable = len(set(counts_by_grid.values())) == 1
    n2 = counts_by_grid[grids[-1]]
    verdict = stable and n2 == claimed and truncation_confirmed
    return VerificationReport(rotation=torus.rotation, n2=n2, claimed=claimed,
                              eigenvalues_near_2=near, tolerance_band=band,
                              grids_used=grids, verdict=verdict,
                              counts_by_grid=counts_by_grid,
                              truncation_confirmed=truncation_confirmed)


def lambda0_monotone_check(torus: OtsukiTorus, l_values: Sequence[int],
                           n_grid: int = 2048) -> list[float]:
    """Ground eigenvalue lambda_0(l) for each listed mode, checked increasing.

    lambda_0 always has multiplicity one, so it increases strictly in l;
    a violation here indicates a broken discretization, not mathematics.
    """
    l_values = list(l_values)
    if any(b <= a for a, b in zip(l_values, l_values[1:])):
        raise ValueError("l_values must be strictly increasing")
    ground = [float(eigen_low(assemble(torus, l, n_grid), 1).eigenvalues[0])
              for l in l_values]
    for (la, va), (lb, vb) in zip(zip(l_values, ground), zip(l_values[1:], ground[1:])):
        if not vb > va:
            raise RuntimeError(
                f"lambda_0 failed to increase: lambda_0({la}) = {va!r} "
                f"vs lambda_0({lb}) = {vb!r}")
    return ground


def resolving_grid(torus: OtsukiTorus, points_per_layer: float = 8.0,
                   floor: int = 2048) -> int:
    """Power-of-two grid size that places the given number of nodes per turning layer.

    Convergence of the discretization is second order only once the grid
    resolves the turning layers; use this to pick grids for convergence-rate
    measurements on thin tori.
    """
    layer = turning_layer_scale(torus.profile.a)
    if not math.isfinite(layer):
        return floor
    needed = points_per_layer * torus.t0 / layer
    return max(floor, 1 << int(math.ceil(math.log2(needed))))

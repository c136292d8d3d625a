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
A is never formed: each mode is held as two band arrays of length n,
the diagonal ``main`` and the coupling ``off``, where ``off[j]`` couples
rows j and j + 1 mod n (:func:`operator_bands`); one array holds both
triangles, so A is symmetric by construction.
Every shifted matrix A - sigma I is factored one way, by bordering: the
last row and column are split off, the tridiagonal rest T gets LAPACK's
partial-pivoting LU, and the border leaves one scalar Schur complement s.
Eigenvalues below sigma are counted, not computed: by Haynsworth's inertia
additivity their number is the Sturm count of T below sigma (LAPACK
bisection, backward stable) plus one if s < 0 (see :func:`_inertia`).
The same factorization is the solve of shift-invert Lanczos iteration,
which is used only where eigenvalues or eigenvectors themselves are needed;
Lanczos then never multiplies by A itself (see :func:`_shift_invert`).
Inside :func:`count_below` every Lanczos run is shifted to the threshold
and asks for exactly as many eigenvalues as it must return; the count at
the shift tells it how many that is (see :func:`_ground_eigenvalue`).
Grids are capped at ``_MAX_GRID`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .geometry import OtsukiTorus, turning_layer_scale

__all__ = [
    "GridTooCoarse", "SolverFailure", "AmbiguousCount",
    "SLProblem", "SLSpectrum", "VerificationReport",
    "assemble", "operator_bands", "eigen_low",
    "known_eigenfunction_residuals", "count_below", "lambda0_monotone_check",
    "count_sign_changes", "resolving_grid",
]

_EIGSH_SEED = 20120524  # fixed Lanczos start vector: identical runs bit for bit

# Largest grid assembled, in rows: about 300 B per row at peak, so about 0.6 GB
# (tracemalloc peak of count_below on 2/3 over the rows of its doubled grid:
# 292 B at n_grid 2^16 and 2^18).
# It admits the doubled resolving grid of 10/19 (2^20 -> 2^21).
_MAX_GRID = 2 ** 21


class GridTooCoarse(ValueError):
    """Requested discretization cannot resolve the requested modes."""


class SolverFailure(RuntimeError):
    """The eigensolver failed or contradicts an inertia count, or A - sigma I is singular.

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
    threshold, and ``n_grid <= _MAX_GRID`` (ValueError otherwise).
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
    _check_grid_size(n_grid)
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


def _check_grid_size(n_grid: int) -> None:
    """Refuse a grid of more than ``_MAX_GRID`` rows before anything is allocated."""
    if n_grid > _MAX_GRID:
        raise ValueError(f"a grid of {n_grid} rows exceeds the limit of "
                         f"{_MAX_GRID} rows (about 300 bytes per row)")


def operator_bands(problem: SLProblem) -> tuple[np.ndarray, np.ndarray]:
    """Bands ``(main, off)`` of the cyclic tridiagonal symmetric matrix of h -> -(P h')' + Q h.

    Second-order central fluxes: ``off[j] = -P(t_{j+1/2}) / h^2`` couples
    neighbours j and j + 1 mod n, so ``off[n-1]`` is the corner coupling
    rows n - 1 and 0; ``main[j]`` is the diagonal entry of row j.
    """
    h = problem.h
    off = -problem.P_mid / h ** 2
    main = (problem.P_mid + np.roll(problem.P_mid, 1)) / h ** 2 + problem.Q
    return main, off


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
    semidefinite, so the k eigenvalues nearest -1 are the k smallest),
    with ARPACK's default Krylov dimension ``max(2k + 1, 20)``.
    """
    n = problem.n_grid
    if k < 1 or k > n // 4:
        raise ValueError(f"k must lie in [1, n_grid / 4 = {n // 4}]")
    vals, vecs = _shift_invert(_ShiftedCyclic(*operator_bands(problem), -1.0), k, "LM",
                               maxiter=10000, vectors=True)
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    zero_counts = [count_sign_changes(vecs[:, i]) for i in range(k)]
    return SLSpectrum(l=problem.l, eigenvalues=vals, eigenvectors=vecs,
                      zero_counts=zero_counts, n_grid=n, period=problem.period)


def _shift_invert(shifted: _ShiftedCyclic, k: int, which: str, ncv: int | None = None,
                  maxiter: int | None = None, vectors: bool = False
                  ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """k eigenvalues (eigenpairs with ``vectors``) by shift-invert Lanczos about ``shifted.sigma``.

    ``which`` selects among the transformed values 1 / (lambda - sigma):
    "LM" the k eigenvalues nearest sigma, "SA" the k nearest below it when
    at least k lie below.  Where the wanted values dominate the transformed
    spectrum, a Krylov space of ``ncv = 2k + 1`` vectors suffices;
    ``ncv=None`` takes ARPACK's default ``max(2k + 1, 20)``.  Returned as
    eigsh returns them, unsorted.

    In shift-invert mode eigsh applies only ``OPinv``, the bordered solve;
    it never multiplies by A.  So A is passed as a shape-only operator
    whose product raises.  The start vector is fixed, making repeated runs
    identical.
    """
    n = shifted.n

    def no_product(x):
        raise RuntimeError("shift-invert Lanczos multiplied by the operator itself")

    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(n)
    try:
        return eigsh(LinearOperator((n, n), matvec=no_product, dtype=float), k=k,
                     sigma=shifted.sigma, which=which, v0=v0,
                     ncv=None if ncv is None else min(n, ncv), maxiter=maxiter,
                     return_eigenvectors=vectors, OPinv=shifted.inverse())
    except (ArpackNoConvergence, ArpackError) as exc:
        raise SolverFailure(f"eigensolver failed near sigma={shifted.sigma!r}, "
                            f"n_grid={n}: {exc}") from exc


def _eigenvalues_near(main: np.ndarray, off: np.ndarray, k: int, sigma: float) -> np.ndarray:
    """The k eigenvalues nearest sigma, ascending (shift-invert Lanczos)."""
    return np.sort(_shift_invert(_ShiftedCyclic(main, off, sigma), k, "LM", 2 * k + 1))


def _ground_eigenvalue(main: np.ndarray, off: np.ndarray, sigma: float) -> float:
    """The smallest eigenvalue of the A with bands ``(main, off)``, by Lanczos about sigma.

    The inertia of A - sigma I gives the number m of eigenvalues below
    sigma (Sylvester).  Shift-invert maps exactly those to the m negative
    values 1 / (lambda - sigma), so Lanczos asks for the m smallest
    transformed values ("SA") and the ground is the least of them; with
    m = 0 the eigenvalue nearest sigma is the ground.  This is exact for
    any sigma, but fast and accurate only for sigma near the ground: then
    the m values dominate the transformed spectrum and ``2m + 1`` Lanczos
    vectors suffice, even in a cluster where the eigenvalue nearest sigma
    is not the ground (7/13 at 2048: m = 6).  With m = 0 the ground need
    not dominate (on 2/3, l = 2, it lies 0.009 below a pair), so ARPACK's
    default Krylov dimension is kept.
    Raises :class:`SolverFailure` unless the returned eigenvalues lie on the
    side of sigma the count says: exactly m below it.
    """
    shifted = _ShiftedCyclic(main, off, sigma)
    m = shifted.count_negative()
    if m:
        vals = np.sort(_shift_invert(shifted, m, "SA", 2 * m + 1))
    else:
        vals = np.sort(_shift_invert(shifted, 1, "LM"))
    if np.count_nonzero(vals < sigma) != m:
        raise SolverFailure(f"Lanczos eigenvalues {vals} near sigma={sigma!r} "
                            f"disagree with the inertia count {m} below it")
    return float(vals[0])


class _ShiftedCyclic:
    """A - sigma I for the cyclic tridiagonal A with bands ``(main, off)``, factored by bordering.

    ``main`` is the diagonal and ``off[j]`` couples rows j and j + 1 mod n,
    so ``off[n-1]`` is the corner; both have length n >= 3.  The last row
    and column are split off::

        A - sigma I = [[T, c], [c^T, d]]

    with T tridiagonal of order n - 1 (diagonal ``main[:n-1] - sigma``,
    couplings ``off[:n-2]``), ``d = main[n-1] - sigma``, and c zero but for
    ``c[0] = off[n-1]`` (the corner) and ``c[n-2] = off[n-2]``.  T gets
    LAPACK's partial-pivoting LU (``dgttrf``); the border is eliminated
    through ``w = T^{-1} c`` and the scalar Schur complement ``s = d - c.w``.
    Raises :class:`SolverFailure` if T has an exactly zero pivot or s is
    exactly zero.
    """

    def __init__(self, main: np.ndarray, off: np.ndarray, sigma: float):
        n = main.size
        self.sigma = sigma
        self.n = n
        self._main, self._off = main, off
        # the dgttrf wrapper needs order >= 3: pad T with identity rows
        m = max(n - 1, 3)
        d = np.ones(m)
        d[:n - 1] = main[:-1] - sigma
        e = np.zeros(m - 1)
        e[:n - 2] = off[:n - 2]
        *self._lu, info = dgttrf(e, d, e)
        if info > 0:
            raise SolverFailure(f"A - sigma I at sigma={sigma!r}, n_grid={n}: "
                                "singular tridiagonal block")
        c = np.zeros(n - 1)
        c[0] = off[-1]
        c[-1] = off[-2]
        self._w = self._solve_block(c)
        self.schur = (main[-1] - sigma) - (off[-1] * self._w[0] + off[-2] * self._w[-1])
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
        last = (b[-1] - self._off[-1] * y[0] - self._off[-2] * y[-1]) / self.schur
        x = np.empty(self.n)  # y - last w, written in place: temporaries cost more here
        np.multiply(self._w, -last, out=x[:-1])
        x[:-1] += y
        x[-1] = last
        return x

    def inverse(self) -> LinearOperator:
        """(A - sigma I)^{-1} as an operator, the OPinv of shift-invert eigsh."""
        return LinearOperator((self.n, self.n), matvec=self.solve, dtype=float)

    def count_negative(self) -> int:
        """Number of negative eigenvalues of A - sigma I: In(T) + In(s)."""
        d, e = self._main[:-1], self._off[:-2]
        spread = 2.0 * float(np.max(np.abs(e)))
        low, high = float(d.min()) - spread, float(d.max()) + spread
        # eigenvalues of T in (vl, sigma] with vl below T's Gershgorin interval;
        # a tolerance wider than that interval leaves only the Sturm counts
        vl = min(low, self.sigma) - 1.0
        m, *_, info = dstebz(d, e, 1, vl, self.sigma, 0, 0, 2.0 * (high - low) + 1.0, "B")
        if info:
            raise SolverFailure(f"Sturm count at sigma={self.sigma!r}, "
                                f"n_grid={self.n}: dstebz info={info}")
        return int(m) + int(self.schur < 0.0)


def _inertia(main: np.ndarray, off: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues strictly below sigma of the A with bands ``(main, off)``.

    A is the symmetric cyclic tridiagonal matrix of :func:`operator_bands`.
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
    return _ShiftedCyclic(main, off, sigma).count_negative()


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
    problems = _assemble_modes(torus, (0, 1), n_grid)
    bands_l0, bands_l1 = (operator_bands(problem) for problem in problems)
    phi = torus.profile.phi_at(problems[0].grid)
    theta = torus.profile.theta_at(problems[0].grid)
    residuals = []
    for (main, off), v in ((bands_l1, np.sin(phi)),
                           (bands_l0, np.cos(phi) * np.cos(theta)),
                           (bands_l0, np.cos(phi) * np.sin(theta))):
        Av = main * v + off * np.roll(v, -1) + np.roll(off * v, 1)
        residuals.append(float(np.linalg.norm(Av - 2.0 * v) / np.linalg.norm(v)))
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

    At resolving grids the displacements approach the rounding noise of
    the shift-invert eigenvalues, so the band's trailing digits are noise
    there: on 5/9 at 131072 rows the l = 0 pair lies 2e-8 below the
    threshold and moves by 8e-10 when only the Lanczos shift moves from 2
    to 2.001, and the band can change by 1e-4 relative when only the
    solver or the Krylov dimension changes.  The counts do not depend on
    those digits.
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
    in the shoulder when the count is ambiguous.  Each run is shifted to
    the threshold (the shoulder's to its middle) and asks for just the
    number of eigenvalues an inertia count says it must return; the l = 1
    ground anchor comes from :func:`_ground_eigenvalue`.  The whole count
    is repeated on a doubled grid and must not change.  That modes above l_max cannot
    contribute is not assumed: the inertia at the threshold is checked to
    be zero for l = 2 .. l_max (lambda_0(l) increases strictly in l, so the
    scan terminates).

    Raises
    ------
    ValueError
        If the doubled grid ``2 n_grid`` exceeds ``_MAX_GRID`` rows; this
        is checked before anything is assembled.
    AmbiguousCount
        If at the finest grid some eigenvalue falls in the shoulder
        ``[threshold - 2 band, threshold - band)``, where "below" versus
        "equal to the threshold" cannot be distinguished reliably.
    """
    if l_max < 2:
        raise ValueError("l_max must be at least 2")
    _check_grid_size(2 * n_grid)
    claimed = torus.eigenvalue_index
    grids = [n_grid, 2 * n_grid]
    counts_by_grid: dict[int, int] = {}
    band = 0.0
    near: list[tuple[int, int, float]] = []
    truncation_confirmed = True
    for n in grids:
        finest = n == grids[-1]
        problems = _assemble_modes(torus, range(l_max + 1), n)
        bands = [operator_bands(problem) for problem in problems]
        l0_near = _eigenvalues_near(*bands[0], 2, threshold)
        l1_ground = _ground_eigenvalue(*bands[1], threshold)
        band = _band_from_anchors(l0_near, l1_ground, threshold)
        total = 0
        shoulder: list[tuple[int, float]] = []
        for l, (main, off) in enumerate(bands):
            # for l >= 2, lambda_0(l) normally clears the band: one inertia settles the mode
            if l >= 2 and _inertia(main, off, threshold + band) == 0:
                continue
            below = _inertia(main, off, threshold - band)
            total += (1 if l == 0 else 2) * below
            if l >= 2 and _inertia(main, off, threshold) > 0:
                truncation_confirmed = False
            if not finest:
                continue
            n_window = _inertia(main, off, threshold + band) - below
            if n_window:
                # the l = 0 pair at the threshold is the anchor run above
                window = (l0_near if l == 0 and n_window == 2
                          else _eigenvalues_near(main, off, n_window, threshold))
                near += [(l, below + rank, float(v)) for rank, v in enumerate(window)]
            n_shoulder = below - _inertia(main, off, threshold - 2.0 * band)
            if n_shoulder:
                values = _eigenvalues_near(main, off, n_shoulder, threshold - 1.5 * band)
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
    Each ground comes from :func:`_ground_eigenvalue` shifted near where it
    lies analytically: -1 for l = 0 (ground 0, the constants, where A is
    singular) and 2 for l >= 1 (the l = 1 ground, sin phi; l >= 2 above).
    """
    l_values = list(l_values)
    if any(b <= a for a, b in zip(l_values, l_values[1:])):
        raise ValueError("l_values must be strictly increasing")
    ground = [_ground_eigenvalue(*operator_bands(problem), 2.0 if problem.l else -1.0)
              for problem in _assemble_modes(torus, l_values, n_grid)]
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

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

The problems are posed in the turning phase u of the geodesic, where phi
and ``J = dt/du`` are closed forms (:func:`otsuki.geometry.phase_metric`)
and there is no turning layer to resolve.  A period is q u-cycles (t0 / J
for the Clifford circle); the grid ``u_j = j du`` has ``n_grid`` rows.
With ``c = P / J`` the problem reads ``-(c h_u)_u + Q J h = lambda J h``;
central fluxes scaled by ``J^{-1/2}`` on both sides give a symmetric cyclic
tridiagonal A on ``w = J^{1/2} h``, never formed but held as its two bands
(:class:`SLProblem`), one array for both triangles:

    off_j  = -c_{j+1/2} / du^2 / sqrt(J_j J_{j+1})
    main_j = (c_{j+1/2} + c_{j-1/2}) / du^2 / J_j + l^2 / sin(phi_j)^2

phi and J are even about the turning point u = 0, so half of the nodes and
of the midpoints are evaluated and mirrored (node j to n - j), and A
commutes with that reflection.  In an orthonormal basis of even and odd
grid functions A is the direct sum of two plain symmetric tridiagonals of
about n / 2 rows each, the even and the odd half of the mode
(:func:`_halves`); every count and every solve works on one half.
Eigenvalues below sigma are counted, not computed: their number is the sum
of the two halves' Sturm counts (LAPACK bisection, backward stable; see
:func:`_inertia`).  Shift-invert Lanczos iteration on a half, with LAPACK's
tridiagonal LDL^T (a definite shift) or partial-pivoting LU (an indefinite
one) as its solve (:func:`_inverse`), is used only where eigenvalues or
eigenvectors themselves are needed; Lanczos then never multiplies by A
itself (see :func:`_shift_invert`), and stops once the eigenvalues, not the
eigenvectors, are at rounding level (``_LANCZOS_TOL``).  :func:`eigen_low`
asks each half only for its share of the eigenpairs, which interlacing
bounds, and its eigenvectors are unfolded onto the grid only when read.
Inside :func:`count_below` every Lanczos run is shifted to the threshold
and asks for exactly as many eigenvalues of its half as it must return; a
Sturm count at the shift tells it how many that is (see
:func:`_ground_eigenvalue`).  Grids are capped at ``_MAX_GRID`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs, dstebz
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from .geometry import OtsukiTorus, phase_metric

__all__ = [
    "GridTooCoarse", "SolverFailure", "AmbiguousCount",
    "SLProblem", "SLSpectrum", "VerificationReport",
    "assemble", "eigen_low",
    "known_eigenfunction_residuals", "count_below", "lambda0_monotone_check",
    "count_sign_changes", "resolving_grid",
]

_EIGSH_SEED = 20120524  # fixed Lanczos start vector: identical runs bit for bit
# ARPACK's stopping rule: a Ritz pair (theta, y) of the shift-inverted operator
# is accepted once its residual is below tol * |theta|.  The Ritz value of a
# symmetric operator is then within (tol * theta)^2 / gap of an eigenvalue
# (Parlett, The Symmetric Eigenvalue Problem, ch. 11), a relative error of
# tol^2 / (relative gap): at rounding level for any relative gap above about
# 1e-8, so tol = 0 (machine epsilon, ARPACK's default) only adds restarts.
# The Ritz vector is within an angle tol / (relative gap): it loses digits
# only inside tight clusters, where zero counts are ill-determined anyway.
_LANCZOS_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)

# Largest grid assembled, in rows: up to about 270 B per row at peak, so about
# 0.57 GB (tracemalloc peak of count_below on 2/3 over the rows of its doubled
# grid: 126 B at n_grid 2^16, 270 B where a ground run keeps ARPACK's 20
# Lanczos vectors; the same at any l_max, as the modes above l = 1 are held
# one at a time).  The doubled resolving grid of 50/99 is 2^16.
_MAX_GRID = 2 ** 21


class GridTooCoarse(ValueError):
    """Requested discretization cannot resolve the requested modes."""


class SolverFailure(RuntimeError):
    """The eigensolver failed or contradicts a Sturm count, or a shifted half is singular.

    Singular means an exactly zero pivot in the LU of a half's T - sigma I:
    sigma is then an eigenvalue in floating point, and no shift-invert run
    about it is defined.
    """


class AmbiguousCount(RuntimeError):
    """An eigenvalue sits in the guard shoulder below the threshold, or the band is below the floating-point floor."""


@dataclass
class SLProblem:
    """One angular mode on the phase grid: the bands of its symmetric cyclic tridiagonal.

    ``main[j]`` is the diagonal of row j and ``off[j]`` couples rows j and
    j + 1 mod n (``off[n-1]`` is the corner).  Assembled bands are mirror
    symmetric bit for bit: ``main[n-j] == main[j]``, ``off[n-1-j] == off[j]``.
    """

    l: int
    main: np.ndarray
    off: np.ndarray

    @property
    def n_grid(self) -> int:
        return self.main.size


@dataclass
class SLSpectrum:
    """Low eigenpairs of one mode, sorted ascending.

    :func:`eigen_low` fills in the eigenvalues and keeps the eigenvectors
    of each half of the mode as its Lanczos runs return them.
    ``eigenvectors`` unfolds those onto the grid on first read, and then
    drops them; ``zero_counts`` is computed from ``eigenvectors`` on first
    read.  A caller that reads only the eigenvalues unfolds nothing.
    """

    l: int
    eigenvalues: np.ndarray
    n_grid: int
    # eigenvectors of the even and (if run) the odd half, columns as eigsh
    # returned them; None once unfolded
    _half_vectors: list[np.ndarray] | None = field(repr=False)
    # positions of the kept values among the even run's values and then the odd run's
    _order: np.ndarray = field(repr=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Column i is the unit grid eigenvector ``w = J^{1/2} h`` of ``eigenvalues[i]``, even or odd in u."""
        n, k = self.n_grid, self._order.size
        even_share = self._half_vectors[0].shape[1]
        parity = self._order >= even_share  # the odd run's values follow the even run's
        column = self._order - even_share * parity
        # unfold: half rows to grid nodes (the odd half starts at node 1), then
        # 1 / sqrt 2 on paired nodes and the mirror image, negated for odd columns
        vecs = np.zeros((n, k))
        for side, half_vecs in enumerate(self._half_vectors):
            kept = np.flatnonzero(parity == side)
            vecs[side:side + half_vecs.shape[0], kept] = half_vecs[:, column[kept]]
        paired = vecs[1:(n + 1) // 2]
        paired /= _SQRT2
        np.multiply(paired[::-1], np.where(parity, -1.0, 1.0), out=vecs[n // 2 + 1:])
        self._half_vectors = None
        return vecs

    @cached_property
    def zero_counts(self) -> list[int]:
        """Sign changes over one period of each eigenvector (:func:`count_sign_changes`)."""
        return [count_sign_changes(v) for v in self.eigenvectors.T]


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
    """The bands of mode l on the phase grid of ``n_grid`` rows.

    Requires ``n_grid >= 64`` and ``n_grid >= 32 p`` so the grid can
    represent the 2p oscillations of the eigenfunctions near the counting
    threshold, and ``n_grid <= _MAX_GRID`` (ValueError otherwise).
    """
    return next(_assemble_modes(torus, [l], n_grid))


def _phase_step(torus: OtsukiTorus, n_grid: int) -> float:
    """du of ``n_grid`` rows over a period: ``2 pi q`` in u, ``t0 / J`` for the Clifford circle."""
    return 2.0 * math.pi * torus.t0 / torus.profile.cycle.period / n_grid


def _assemble_modes(torus: OtsukiTorus, modes: Sequence[int], n_grid: int
                    ) -> Iterator[SLProblem]:
    """:func:`assemble` for each listed mode, evaluating phi and J once.

    The problems are made one at a time, as they are asked for, so a caller
    that keeps none of them holds one mode's diagonal at a time.
    """
    if any(l < 0 for l in modes):
        raise ValueError("angular mode l must be non-negative")
    p = torus.profile.theta_winding
    if n_grid < 64 or n_grid < 32 * p:
        raise GridTooCoarse(f"n_grid must be >= max(64, 32 p = {32 * p})")
    _check_grid_size(n_grid)
    du = _phase_step(torus, n_grid)
    # phi and J are even about the turning point u = 0: node j mirrors to
    # node n - j and midpoint j to midpoint n - 1 - j, so half of each is
    # evaluated, nodes and midpoints in one pass
    half = n_grid // 2 + 1
    phi, J = phase_metric(torus.profile.a, du * np.concatenate(
        [np.arange(half), np.arange((n_grid + 1) // 2) + 0.5]))
    sin_sq = np.sin(phi) ** 2
    flux = (4.0 * math.pi ** 2 / du ** 2) * sin_sq[half:] / J[half:]  # c / du^2 at the midpoints
    flux = np.concatenate([flux, flux[n_grid // 2 - 1::-1]])
    sin_sq, J = (np.concatenate([x, x[(n_grid - 1) // 2:0:-1]])
                 for x in (sin_sq[:half], J[:half]))
    off = -flux / np.sqrt(J * np.roll(J, -1))
    stiffness = (flux + np.roll(flux, 1)) / J
    del phi, J, flux  # not held while the generator waits
    for l in modes:
        yield SLProblem(l=l, main=stiffness + (l * l) / sin_sq, off=off)


def _check_grid_size(n_grid: int) -> None:
    """Refuse a grid of more than ``_MAX_GRID`` rows before anything is allocated."""
    if n_grid > _MAX_GRID:
        raise ValueError(f"a grid of {n_grid} rows exceeds the limit of "
                         f"{_MAX_GRID} rows (about 270 bytes per row)")


def count_sign_changes(values: np.ndarray) -> int:
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


def _halves(main: np.ndarray, off: np.ndarray
            ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Even and odd tridiagonals ``(d, e)`` of the mirror-symmetric cyclic bands ``(main, off)``.

    The reflection R maps row j to row n - j mod n; the bands commute with
    it when ``main[n-j] == main[j]`` and ``off[n-1-j] == off[j]``.  With
    r = n // 2, the even grid functions have the orthonormal basis e_0,
    (e_j + e_{n-j}) / sqrt 2 for 0 < j < n / 2 and, for even n, e_r; the
    odd ones (e_j - e_{n-j}) / sqrt 2.  In these bases A is the direct sum
    of a plain symmetric tridiagonal on each, the diagonal d and the
    couplings e:

    * even half, rows 0 .. r: d = main[0 .. r], e = off[0 .. r-1], with
      the coupling into each fixed point (row 0, and row r for even n)
      times sqrt 2;
    * odd half, rows 1 .. r - 1 (even n) or 1 .. r (odd n): d = main and
      e = off on those rows.

    For odd n the rows r and r + 1 are mirror partners coupled by off[r],
    so the last diagonal is ``main[r] + off[r]`` (even) and
    ``main[r] - off[r]`` (odd).  Requires n >= 8, so both halves have at
    least three rows.  Raises ValueError for bands that are not mirror
    symmetric bit for bit (a hand-built :class:`SLProblem`).
    """
    n = main.size
    if n < 8:
        raise ValueError(f"a mode needs at least 8 rows, got {n}")
    if not (np.array_equal(main[1:], main[:0:-1]) and np.array_equal(off, off[::-1])):
        raise ValueError("the bands are not symmetric under the reflection t -> -t")
    r = n // 2
    d_even, e_even = main[:r + 1].copy(), off[:r].copy()
    d_odd, e_odd = main[1:(n + 1) // 2].copy(), off[1:(n - 1) // 2].copy()
    e_even[0] *= _SQRT2
    if n % 2:
        d_even[r] += off[r]
        d_odd[-1] -= off[r]
    else:
        e_even[-1] *= _SQRT2
    return (d_even, e_even), (d_odd, e_odd)


def eigen_low(problem: SLProblem, k: int) -> SLSpectrum:
    """The k smallest eigenpairs of the discretized problem.

    Shift-invert Lanczos about sigma = -1 on each half of the mode (the
    operator is positive semidefinite, so the eigenvalues nearest -1 are
    the smallest), each half asked only for its share of the k.  The
    halves interlace: for even n the odd half is the even half without its
    first and last rows, for odd n it is the even half's trailing r x r
    block plus the positive rank-one term ``2 |off[r]| e_r e_r^T``, so by
    Cauchy interlacing ``mu_j <= nu_j <= mu_{j+2}`` for the even values mu
    and the odd values nu.  Hence the k smallest of the mode hold at most
    ``k // 2 + 1`` even and ``k // 2`` odd values, and those are the
    shares asked for (k + 1 or k pairs in all; k = 1 runs the even half
    only).  A run asking for m pairs uses ``max(3m, 20)`` Lanczos vectors:
    ARPACK's default ``max(2m + 1, 20)`` for m <= 6, and wider above, where
    the default does not converge when the share ends inside a tight
    cluster (the l = 3 values of 9/16 come 8 to a half; k = 16 at 4096
    rows).  The k smallest of the returned values are kept.  Their
    eigenvectors, and so the zero counts, are unfolded onto the grid only
    when first read (:class:`SLSpectrum`); until then the result holds the
    half runs' vectors, about ``n / 2 x (k + 1)`` values where the unfolded
    ones are ``n x k``.
    """
    n = problem.n_grid
    if k < 1 or k > n // 4:
        raise ValueError(f"k must lie in [1, n_grid / 4 = {n // 4}]")
    shares = (k // 2 + 1, k // 2)
    runs = [_shift_invert(d, e, -1.0, m, "LM", max(3 * m, 20), maxiter=10000,
                          vectors=True)
            for (d, e), m in zip(_halves(problem.main, problem.off), shares) if m]
    vals = np.concatenate([run[0] for run in runs])
    order = np.argsort(vals, kind="stable")[:k]
    return SLSpectrum(l=problem.l, eigenvalues=vals[order], n_grid=n,
                      _half_vectors=[run[1] for run in runs], _order=order)


def _shift_invert(d: np.ndarray, e: np.ndarray, sigma: float, k: int, which: str,
                  ncv: int | None = None, maxiter: int | None = None,
                  vectors: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """k eigenvalues (eigenpairs with ``vectors``) of the tridiagonal ``(d, e)`` about sigma.

    Shift-invert Lanczos: ``which`` selects among the transformed values
    1 / (lambda - sigma), "LM" the k eigenvalues nearest sigma, "SA" the k
    nearest below it when at least k lie below.  Where the wanted values
    dominate the transformed spectrum, a Krylov space of ``ncv = 2k + 1``
    vectors suffices; ``ncv=None`` takes ARPACK's default
    ``max(2k + 1, 20)``.  Returned as eigsh returns them, unsorted.
    Every run stops at the tolerance ``_LANCZOS_TOL``, which leaves the
    eigenvalues at rounding level wherever the relative gap to the next
    one exceeds about 1e-8 (see its comment).

    eigsh applies only ``OPinv`` (:func:`_inverse`); it never multiplies
    by T.  So T is passed as a shape-only operator whose product raises.
    The start vector is fixed, making repeated runs identical.
    """
    n = d.size

    def no_product(x):
        raise RuntimeError("shift-invert Lanczos multiplied by the operator itself")

    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(n)
    try:
        return eigsh(LinearOperator((n, n), matvec=no_product, dtype=float), k=k,
                     sigma=sigma, which=which, v0=v0, tol=_LANCZOS_TOL,
                     ncv=None if ncv is None else min(n, ncv), maxiter=maxiter,
                     return_eigenvectors=vectors, OPinv=_inverse(d, e, sigma))
    except (ArpackNoConvergence, ArpackError) as exc:
        raise SolverFailure(f"eigensolver failed near sigma={sigma!r}, "
                            f"order {n}: {exc}") from exc


def _inverse(d: np.ndarray, e: np.ndarray, sigma: float) -> LinearOperator:
    """(T - sigma I)^{-1} for the tridiagonal T = ``(d, e)``, the OPinv of shift-invert eigsh.

    LAPACK's LDL^T factorization (``dpttrf``) and its solve (``dpttrs``)
    where T - sigma I is positive definite, about twice as fast as the LU
    (0.23 against 0.45 ms a solve at 32769 rows, on one core of a 2-core
    x86-64 VM); elsewhere, as ``dpttrf``
    reports at its first non-positive pivot, the partial-pivoting LU
    (``dgttrf``, ``dgttrs``).  LAPACK's own pivot check chooses: the shift
    at -1 of :func:`eigen_low` is always definite (T is semidefinite, its
    quadratic form in ``h = J^{-1/2} w`` being
    ``sum c (dh)^2 / du^2 + Q J h^2``), the shifts at the
    threshold of :func:`count_below` are indefinite wherever eigenvalues
    lie below it.  Raises :class:`SolverFailure` if the LU has an exactly
    zero pivot.
    """
    n = d.size
    *ldl, info = dpttrf(d - sigma, e)
    if not info:
        return LinearOperator((n, n), matvec=lambda b: dpttrs(*ldl, b)[0], dtype=float)
    *lu, info = dgttrf(e, d - sigma, e)
    if info > 0:
        raise SolverFailure(f"T - sigma I at sigma={sigma!r}, order {n}: singular")
    return LinearOperator((n, n), matvec=lambda b: dgttrs(*lu, b)[0], dtype=float)


def _eigenvalues_near(d: np.ndarray, e: np.ndarray, k: int, sigma: float) -> np.ndarray:
    """The k eigenvalues of the tridiagonal ``(d, e)`` nearest sigma, ascending (shift-invert Lanczos)."""
    return np.sort(_shift_invert(d, e, sigma, k, "LM", 2 * k + 1))


def _ground_eigenvalue(d: np.ndarray, e: np.ndarray, sigma: float) -> float:
    """The smallest eigenvalue of the tridiagonal ``(d, e)``, by Lanczos about sigma.

    The Sturm count gives the number m of eigenvalues below sigma.
    Shift-invert maps exactly those to the m negative values
    1 / (lambda - sigma), so Lanczos asks for the m smallest transformed
    values ("SA") and the ground is the least of them; with m = 0 the
    eigenvalue nearest sigma is the ground.  This is exact for any sigma,
    and accurate far above the ground too (the l = 0 ground, 0, at sigma
    = 2: 3.5e-13 on 2/3 at 1024 rows and -2.3e-10 on 5/9 at 131072, where
    :func:`eigen_low` gives 2.1e-13 and -1.5e-11), but fast only for sigma
    near the ground: then the m values dominate the transformed spectrum
    and ``2m + 1`` Lanczos vectors suffice, even in a cluster where the
    eigenvalue nearest sigma is not the ground (the even half of l = 1 on
    11/21 at 2048: m = 5).  With
    m = 0 the ground need not dominate (on 2/3, l = 2, it lies 0.009 below
    a pair), so ARPACK's default Krylov dimension is kept.
    The ground state of a periodic problem is even, so for a mode this is
    called on its even half.
    Raises :class:`SolverFailure` unless the returned eigenvalues lie on the
    side of sigma the count says: exactly m below it.
    """
    m = _inertia(d, e, sigma)
    if m:
        vals = np.sort(_shift_invert(d, e, sigma, m, "SA", 2 * m + 1))
    else:
        vals = np.sort(_shift_invert(d, e, sigma, 1, "LM"))
    if np.count_nonzero(vals < sigma) != m:
        raise SolverFailure(f"Lanczos eigenvalues {vals} near sigma={sigma!r} "
                            f"disagree with the Sturm count {m} below it")
    return float(vals[0])


def _inertia(d: np.ndarray, e: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues strictly below sigma of the symmetric tridiagonal ``(d, e)``.

    The Sturm count of LAPACK's bisection (``dstebz``): the number of
    negative pivots of T - sigma I, which is backward stable for
    tridiagonal matrices (Kahan; LAPACK Users' Guide section 2.4.4).  A
    mode's count is the sum of this count over its two halves
    (:func:`_halves`), since A is their orthogonal direct sum; unlike a
    factorization, the count needs no regular T - sigma I.  LAPACK counts
    an eigenvalue equal to its bound as below it, so the bound is the
    floating-point number just below sigma.
    """
    spread = 2.0 * float(np.max(np.abs(e)))
    low, high = float(d.min()) - spread, float(d.max()) + spread
    # eigenvalues in (vl, sigma) with vl below the Gershgorin interval;
    # a tolerance wider than that interval leaves only the Sturm counts
    vl = min(low, sigma) - 1.0
    m, *_, info = dstebz(d, e, 1, vl, np.nextafter(sigma, -np.inf), 0, 0,
                         2.0 * (high - low) + 1.0, "B")
    if info:
        raise SolverFailure(f"Sturm count at sigma={sigma!r}, order {d.size}: "
                            f"dstebz info={info}")
    return int(m)


def known_eigenfunction_residuals(torus: OtsukiTorus, n_grid: int
                                  ) -> tuple[float, float, float]:
    """Relative residuals of the three coordinate-restriction eigenfunctions.

    The ambient coordinate functions restrict to eigenfunctions of the
    surface Laplacian with eigenvalue 2; after separation of variables this
    means sin(phi) solves the l = 1 problem and cos(phi) cos(theta) and
    cos(phi) sin(theta) solve the l = 0 problem, all at lambda = 2.  Each
    is taken at the nodes u_j in the symmetric form ``w = J^{1/2} v`` of
    the bands, with theta(u) summed from the geodesic's phase series.
    Returns ``||A w - 2 w|| / ||w||`` for the three, in that order; each
    vanishes at the order of the discretization, so the triple measures the
    spectral accuracy of the grid.
    """
    l0, l1 = _assemble_modes(torus, (0, 1), n_grid)
    u = _phase_step(torus, n_grid) * np.arange(n_grid)
    phi, J = phase_metric(torus.profile.a, u)
    theta = torus.profile.cycle.theta_of_phase(u)
    root_J = np.sqrt(J)
    residuals = []
    for problem, v in ((l1, np.sin(phi)), (l0, np.cos(phi) * np.cos(theta)),
                       (l0, np.cos(phi) * np.sin(theta))):
        w, off = root_J * v, problem.off
        Aw = problem.main * w + off * np.roll(w, -1) + np.roll(off * w, 1)
        residuals.append(float(np.linalg.norm(Aw - 2.0 * w) / np.linalg.norm(w)))
    return tuple(residuals)


def _band_from_anchors(l0_near: np.ndarray, l1_ground: float, threshold: float) -> float:
    """Guard band from the measured displacement of the threshold anchors.

    Three eigenvalues equal the threshold analytically: the l = 1 ground
    state and the two l = 0 eigenvalues nearest the threshold.  Their
    computed positions measure directly how far the discretization moves an
    eigenvalue that sits exactly at the threshold; ten times the worst
    displacement is the classification band.

    On fine grids the displacements approach the rounding noise of the
    shift-invert eigenvalues, so the band's trailing digits are noise
    there, and below the floating-point floor ``eps * max|main|`` the band
    measures rounding alone (:func:`count_below` refuses that).
    """
    d0 = float(np.max(np.abs(l0_near - threshold)))
    return 10.0 * max(d0, abs(l1_ground - threshold)) + 1e-13 * threshold


def count_below(torus: OtsukiTorus, threshold: float = 2.0, l_max: int = 3,
                n_grid: int = 2048) -> VerificationReport:
    """Count surface eigenvalues strictly below ``threshold`` and verify 2p - 1.

    For each mode l = 0 .. l_max the eigenvalues below ``threshold - band``
    are counted exactly, as two Sturm counts, one per half of the mode
    (:func:`_halves`, :func:`_inertia`), and weighted 1 (l = 0) or 2
    (l > 0), where the band absorbs the eigenvalues that equal the
    threshold analytically (see :func:`_band_from_anchors`).  Lanczos
    iteration computes only eigenvalues that are reported: the three
    anchors, the eigenvalues within the band of the threshold, and those
    in the shoulder when the count is ambiguous.  Each run works on one
    half, is shifted to the threshold (the shoulder's to its middle) and
    asks for just the number of eigenvalues that half's counts say it must
    return; the l = 1 ground anchor comes from :func:`_ground_eigenvalue`.
    A half whose window holds just its anchor reuses the anchor run, so no
    run is made twice.  The whole count is repeated on a doubled grid and
    must not change.  That modes above l_max cannot contribute is not
    assumed: the count below the threshold is checked to be zero for
    l = 2 .. l_max (lambda_0(l) increases strictly in l, so the scan
    terminates).

    Raises
    ------
    ValueError
        If the doubled grid ``2 n_grid`` exceeds ``_MAX_GRID`` rows; this
        is checked before anything is assembled.
    AmbiguousCount
        If at the finest grid some eigenvalue falls in the shoulder
        ``[threshold - 2 band, threshold - band)``, where "below" versus
        "equal to the threshold" cannot be distinguished reliably; or if
        the band there is below the floating-point floor
        ``eps * max|main|`` of the l = 1 mode, where the anchors' displacement
        is rounding and no count is reliable (2/3 from ``n_grid = 65536``).
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

    def counts(halves, sigma):
        return np.array([_inertia(d, e, sigma) for d, e in halves])

    for n in grids:
        finest = n == grids[-1]
        # the modes one at a time: only l = 0 and l = 1 are held throughout
        # (map, unlike a generator expression, holds no finished problem)
        problems = _assemble_modes(torus, range(l_max + 1), n)
        l0, l1 = next(problems), next(problems)
        floor = _EPS * float(np.max(np.abs(l1.main)))  # l1.main >= l0.main
        l0, l1 = _halves(l0.main, l0.off), _halves(l1.main, l1.off)
        modes = map(lambda problem: _halves(problem.main, problem.off), problems)
        # the anchors: in each l = 0 half the eigenvalue nearest the threshold
        # (cos phi cos theta is even, cos phi sin theta odd), and the l = 1
        # ground, which is even
        l0_near = np.array([_eigenvalues_near(d, e, 1, threshold)[0] for d, e in l0])
        l1_ground = _ground_eigenvalue(*l1[0], threshold)
        band = _band_from_anchors(l0_near, l1_ground, threshold)
        if finest and band < floor:
            raise AmbiguousCount(
                f"the guard band {band:.3e} at n_grid = {n} is below the "
                f"floating-point floor eps * max|main| = {floor:.3e}: rounding, "
                f"not the discretization, moves the anchors there; use a coarser grid")
        anchors = {(0, 0): l0_near[0], (0, 1): l0_near[1], (1, 0): l1_ground}
        total = 0
        shoulder: list[tuple[int, float]] = []
        for l, halves in enumerate(chain((l0, l1), modes)):
            # for l >= 2, lambda_0(l) normally clears the band: one count settles the mode
            if l >= 2 and not counts(halves, threshold + band).any():
                continue
            below = counts(halves, threshold - band)
            total += (1 if l == 0 else 2) * int(below.sum())
            if l >= 2 and counts(halves, threshold).any():
                truncation_confirmed = False
            if not finest:
                continue
            window, in_shoulder = [], []
            for side, ((d, e), n_window, n_shoulder) in enumerate(zip(
                    halves, counts(halves, threshold + band) - below,
                    below - counts(halves, threshold - 2.0 * band))):
                anchor = anchors.get((l, side), math.nan)
                if n_window == 1 and threshold - band <= anchor < threshold + band:
                    window.append(anchor)  # the anchor run above found it
                elif n_window:
                    window.extend(_eigenvalues_near(d, e, n_window, threshold))
                if n_shoulder:
                    in_shoulder.extend(_eigenvalues_near(d, e, n_shoulder,
                                                         threshold - 1.5 * band))
            near += [(l, int(below.sum()) + rank, float(v))
                     for rank, v in enumerate(sorted(window))]
            shoulder += [(l, round(float(v), 12)) for v in sorted(in_shoulder)]
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
    Each ground comes from :func:`_ground_eigenvalue` on the even half of
    the mode, shifted near where it lies analytically: -1 for l = 0
    (ground 0, the constants, where A is singular) and 2 for l >= 1 (the
    l = 1 ground, sin phi; l >= 2 above).
    """
    l_values = list(l_values)
    if any(b <= a for a, b in zip(l_values, l_values[1:])):
        raise ValueError("l_values must be strictly increasing")
    ground = [_ground_eigenvalue(*_halves(problem.main, problem.off)[0],
                                 2.0 if problem.l else -1.0)
              for problem in _assemble_modes(torus, l_values, n_grid)]
    for (la, va), (lb, vb) in zip(zip(l_values, ground), zip(l_values[1:], ground[1:])):
        if not vb > va:
            raise RuntimeError(
                f"lambda_0 failed to increase: lambda_0({la}) = {va!r} "
                f"vs lambda_0({lb}) = {vb!r}")
    return ground


def resolving_grid(torus: OtsukiTorus) -> int:
    """``max(2048, 2^ceil(log2(256 q)))``: 256 rows per u-cycle, the default of the CLI's --n-grid.

    2048 up to q = 8 and for the Clifford circle, 4096 for 5/9, 32768 for 50/99.
    """
    q = torus.profile.arcs_per_period // 2
    return max(2048, 1 << (256 * q - 1).bit_length())

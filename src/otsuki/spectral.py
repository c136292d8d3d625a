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
for the Clifford circle); the grid ``u_j = j du`` has an even number
``n_grid`` of rows.  With ``c = P / J`` the problem reads
``-(c h_u)_u + Q J h = lambda J h``; central fluxes scaled by ``J^{-1/2}``
on both sides give a symmetric cyclic tridiagonal A on ``w = J^{1/2} h``:

    A_{j,j+1} = -c_{j+1/2} / du^2 / sqrt(J_j J_{j+1})
    A_{j,j}   = (c_{j+1/2} + c_{j-1/2}) / du^2 / J_j + l^2 / sin(phi_j)^2

(indices mod n).  phi and J are even about the turning point u = 0, so A
commutes with the reflection of node j to node n - j, and in an
orthonormal basis of even and odd grid functions it is the direct sum of
two plain symmetric tridiagonals of about n / 2 rows each, the even and
the odd half of the mode.  A is never formed: the halves are assembled
from the nodes 0 .. n/2 and the midpoints between them
(:class:`SLProblem`), and every count and every solve works on one half.
Eigenvalues below sigma are counted, not computed: their number is the sum
of the two halves' Sturm counts (backward stable), one pass over a half's
rows per shift in one call of LAPACK's ``dlaebz`` for all the shifts a
caller needs (:func:`_sturm_counts`).  Shift-invert Lanczos iteration on a
half, with LAPACK's tridiagonal LDL^T (a definite shift) or
partial-pivoting LU (an indefinite one) as its solve (:func:`_inverse`),
is used only where eigenvalues or eigenvectors themselves are needed;
Lanczos then never multiplies by A itself (see :func:`_shift_invert`), and
stops once the eigenvalues, not the eigenvectors, are at rounding level
(``_LANCZOS_TOL``).  :func:`eigen_low` shifts both halves of a mode to a
dyadic sigma just below its ground, placed by a few Sturm counts, asks
each half only for its share of the eigenpairs, which interlacing bounds,
and unfolds its eigenvectors onto the grid only when they are read.
:func:`count_below` counts two grids against one guard band, measured on
the finer, where all its Lanczos runs are made, each shifted to the
threshold and asking a half for as many eigenvalues as a Sturm count there
says it must (:func:`_ground_eigenvalue`).  Grids are capped at ``_MAX_GRID`` rows.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs
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
_TINY = float(np.finfo(float).tiny)

# Largest grid assembled, in rows.  The tracemalloc peak of count_below per
# row of its doubled grid grows with q, as the l = 1 ground run keeps 2m + 1
# Lanczos vectors for a cluster of m ~ q / 2 values: about 100 B for the five
# tori at their resolving grids (222 B, 0.47 GB at the cap, where a ground run
# keeps ARPACK's 20), 154 B for 17/33, 876 B for 50/99, 1195 B for 70/139 (5 GB
# at the cap).  l_max does not change it: modes above l = 1 are held one at a time.
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
    """One angular mode: the even and the odd half ``(d, e)`` of its cyclic tridiagonal A.

    With r = n_grid / 2, the orthonormal bases e_0, (e_j + e_{n-j}) / sqrt 2
    (0 < j < r), e_r of the even grid functions and (e_j - e_{n-j}) / sqrt 2
    (0 < j < r) of the odd ones make A the direct sum of two plain symmetric
    tridiagonals, diagonal d and couplings e: the even half on rows 0 .. r,
    with sqrt 2 on the couplings into the fixed points 0 and r, and the odd
    half on rows 1 .. r - 1, the even half without its first and last rows.
    """

    l: int
    n_grid: int
    even: tuple[np.ndarray, np.ndarray]
    odd: tuple[np.ndarray, np.ndarray]


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
        paired = vecs[1:n // 2]
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

    n2: int
    claimed: int
    eigenvalues_near_2: list[tuple[int, int, float]]
    tolerance_band: float
    grids_used: list[int]
    verdict: bool
    counts_by_grid: dict[int, int]
    truncation_confirmed: bool  # lambda_0(l) above threshold for every l >= 2


def assemble(torus: OtsukiTorus, l: int, n_grid: int) -> SLProblem:
    """The even and odd halves of mode l on the phase grid of ``n_grid`` rows.

    Requires ``n_grid >= 64`` and ``n_grid >= 32 p`` so the grid can
    represent the 2p oscillations of the eigenfunctions near the counting
    threshold, ``n_grid <= _MAX_GRID``, and an even ``n_grid``
    (ValueError otherwise).
    """
    return next(_assemble_modes(torus, [l], n_grid))


def _phase_step(torus: OtsukiTorus, n_grid: int) -> float:
    """du of ``n_grid`` rows over a period: ``2 pi q`` in u, ``t0 / J`` for the Clifford circle."""
    return 2.0 * math.pi * torus.t0 / torus.profile.cycle.period / n_grid


def _assemble_modes(torus: OtsukiTorus, modes: Sequence[int], n_grid: int
                    ) -> Iterator[SLProblem]:
    """:func:`assemble` for each listed mode, evaluating phi and J once.

    Checked at once; made one at a time, as asked for, so a caller holds
    nothing before the first and, keeping none, one mode's diagonal at a time.
    """
    if any(l < 0 for l in modes):
        raise ValueError("angular mode l must be non-negative")
    p = torus.profile.theta_winding
    if n_grid < 64 or n_grid < 32 * p:
        raise GridTooCoarse(f"n_grid must be >= max(64, 32 p = {32 * p})")
    _check_grid_size(n_grid)
    if n_grid % 2:
        raise ValueError(f"n_grid must be even, got {n_grid}")

    def problems():
        du = _phase_step(torus, n_grid)
        # the even half's nodes 0 .. r and the midpoints between them, in one pass
        r = n_grid // 2
        phi, J = phase_metric(torus.profile.a, du * np.concatenate(
            [np.arange(r + 1), np.arange(r) + 0.5]))
        sin_sq = np.sin(phi) ** 2
        flux = (4.0 * math.pi ** 2 / du ** 2) * sin_sq[r + 1:] / J[r + 1:]  # c / du^2 at the midpoints
        sin_sq, J = sin_sq[:r + 1], J[:r + 1]
        off = -flux / np.sqrt(J[:-1] * J[1:])
        # flux at j + 1/2 plus flux at j - 1/2; the flux is even about the nodes 0 and r
        stiffness = (np.append(flux, flux[-1]) + np.insert(flux, 0, flux[0])) / J
        e_even = off.copy()
        e_even[[0, -1]] *= _SQRT2  # the couplings into the fixed points
        del phi, J, flux  # not held while the generator waits
        for l in modes:
            d = stiffness + (l * l) / sin_sq
            yield SLProblem(l=l, n_grid=n_grid, even=(d, e_even), odd=(d[1:-1], off[1:-1]))
    return problems()


def _check_grid_size(n_grid: int) -> None:
    """Refuse a grid of more than ``_MAX_GRID`` rows before anything is allocated."""
    if n_grid > _MAX_GRID:
        raise ValueError(f"a grid of {n_grid} rows exceeds the limit of "
                         f"{_MAX_GRID} rows (at peak about 220 bytes per row for small q, "
                         f"growing with q to about 1.2 kB at q = 139)")


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


def eigen_low(problem: SLProblem, k: int) -> SLSpectrum:
    """The k smallest eigenpairs of the discretized problem.

    Shift-invert Lanczos on each half of the mode, both shifted to one
    dyadic sigma just below the mode's ground (:func:`_shift_below_ground`,
    a few Sturm counts on the even half, whose ground is the mode's), each
    half asked only for its share of the k.  With no eigenvalue below
    sigma the eigenvalues nearest it are the smallest, and T - sigma I is
    definite, so every solve is an LDL^T; a shift close to the wanted
    values makes Lanczos converge fast.  The halves interlace: the odd half
    is the even half without its first and last rows, so by Cauchy
    interlacing ``mu_j <= nu_j <= mu_{j+2}`` for the even values mu and the
    odd values nu.  Hence the odd half's ground lies above the even half's,
    above sigma too, and the k smallest of the mode hold at most
    ``k // 2 + 1`` even and ``k // 2`` odd values; those are the shares
    asked for (k + 1 or k pairs in all; k = 1 runs the even half only).  A
    run asking for m pairs uses ``max(3m, 20)`` Lanczos vectors: ARPACK's
    default ``max(2m + 1, 20)`` for m <= 6, and wider above, where the
    default does not converge when the share ends inside a tight cluster
    (the l = 3 values of 9/16 come 8 to a half; k = 16 at 4096 rows).  The
    k smallest of the returned values are kept.  Their eigenvectors, and
    so the zero counts, are unfolded onto the grid only when first read
    (:class:`SLSpectrum`); until then the result holds the half runs'
    vectors, about ``n / 2 x (k + 1)`` values where the unfolded ones are
    ``n x k``.
    """
    n = problem.n_grid
    if k < 1 or k > n // 4:
        raise ValueError(f"k must lie in [1, n_grid / 4 = {n // 4}]")
    shares = (k // 2 + 1, k // 2)
    sigma = _shift_below_ground(*problem.even)
    runs = [_shift_invert(d, e, sigma, m, "LM", max(3 * m, 20), maxiter=10000,
                          vectors=True)
            for (d, e), m in zip((problem.even, problem.odd), shares) if m]
    vals = np.concatenate([run[0] for run in runs])
    order = np.argsort(vals, kind="stable")[:k]
    return SLSpectrum(l=problem.l, eigenvalues=vals[order], n_grid=n,
                      _half_vectors=[run[1] for run in runs], _order=order)


# The width, relative to 1 + |its upper end|, to which _shift_below_ground
# brackets a ground: close enough that the wanted eigenvalues dominate the
# transformed spectrum of a shift-invert run, and a handful of counts away.
_GROUND_BRACKET = 1.0 / 64.0


def _shift_below_ground(d: np.ndarray, e: np.ndarray) -> float:
    """A dyadic shift sigma just below the ground of the tridiagonal ``(d, e)``, by Sturm counts.

    The ground is bracketed by ``lo``, with no eigenvalue below it, and
    ``hi``, with one.  lo starts at -1, below which an assembled mode has
    no eigenvalue (it is positive semidefinite), or for other bands at a
    power of two below Gershgorin's lower bound; hi climbs through 0, 2,
    6, 14, ... until a count is positive, and the bracket then shrinks to
    its quarter and three-quarter points until its width is at most
    ``(1 + |hi|) * _GROUND_BRACKET``.  Each :func:`_sturm_counts` call
    counts at two points, one pass over the rows each.  The shift is one
    bracket width below lo, so the ground lies one to two widths above it
    and T - sigma I is definite by a margin far above rounding; at lo
    itself the ground can sit within rounding (the l = 0 ground is 0, a
    probe).  Every probe, and so sigma, is a dyadic number of a few bits:
    ``d - sigma`` is exact on every row, where a shift like 2.001 rounds on
    each row and biases every eigenvalue by up to half an ulp of ``max|d|``.
    """
    def split(probes):
        # lo rises through the probes with no eigenvalue below them, hi falls to the first with one
        nonlocal lo, hi
        for x, below in zip(probes, _sturm_counts(d, e, probes)):
            if below:
                hi = x
                return
            lo = x

    lo, hi = -math.inf, math.inf
    split([-1.0, 0.0])
    if lo == -math.inf:  # eigenvalues below -1: not an assembled mode
        spread = np.abs(np.concatenate([[0.0], e])) + np.abs(np.concatenate([e, [0.0]]))
        lo = -2.0 ** math.ceil(math.log2(2.0 - float(np.min(d - spread))))
    step = 2.0
    while hi == math.inf:
        split([lo + step, lo + 3.0 * step])
        step *= 4.0
    while hi - lo > (1.0 + abs(hi)) * _GROUND_BRACKET:
        quarter = 0.25 * (hi - lo)
        split([lo + quarter, hi - quarter])
    return 2.0 * lo - hi


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
    operator, inverse = LinearOperator((n, n), matvec=no_product, dtype=float), _inverse(d, e, sigma)

    def run(ncv):
        return eigsh(operator, k=k, sigma=sigma, which=which, v0=v0, tol=_LANCZOS_TOL,
                     ncv=None if ncv is None else min(n, ncv), maxiter=maxiter,
                     return_eigenvectors=vectors, OPinv=inverse)

    try:
        try:
            return run(ncv)
        except ArpackNoConvergence:
            if ncv is None or ncv >= max(2 * k + 1, 20):
                raise
            return run(None)  # a narrow Krylov space can stall inside a tight cluster
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
    of :func:`eigen_low` is definite, at least a bracket width below the
    ground (:func:`_shift_below_ground`), the shifts at the threshold of
    :func:`count_below` are indefinite wherever eigenvalues lie below it.
    ``d - sigma`` is exact for the few-bit dyadic shifts of
    :func:`eigen_low`, so its solves are those of T itself shifted, not of
    a copy rounded on every row.  Raises
    :class:`SolverFailure` if the LU has an exactly zero pivot.
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
    m = int(_sturm_counts(d, e, [sigma])[0])
    if m:
        vals = np.sort(_shift_invert(d, e, sigma, m, "SA", 2 * m + 1))
    else:
        vals = np.sort(_shift_invert(d, e, sigma, 1, "LM"))
    if np.count_nonzero(vals < sigma) != m:
        raise SolverFailure(f"Lanczos eigenvalues {vals} near sigma={sigma!r} "
                            f"disagree with the Sturm count {m} below it")
    return float(vals[0])


def _lapack_routine(name: str) -> int:
    """Address of a LAPACK routine of scipy's own build, from its ``cython_lapack`` capsule."""
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return get_pointer(capsule, get_name(capsule))


# DLAEBZ(IJOB, NITMAX, N, MMAX, MINP, NBMIN, ABSTOL, RELTOL, PIVMIN, D, E, E2,
# NVAL, AB, C, MOUT, NAB, WORK, IWORK, INFO), every argument by reference
_DLAEBZ = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 20)(_lapack_routine("dlaebz"))


def _sturm_counts(d: np.ndarray, e: np.ndarray, shifts: Sequence[float]) -> np.ndarray:
    """Number of eigenvalues strictly below each shift of the symmetric tridiagonal ``(d, e)``.

    The Sturm count: the number of non-positive pivots of T - sigma I in
    the recurrence ``p_j = (d_j - e_{j-1}^2 / p_{j-1}) - sigma``, which is
    backward stable for tridiagonal matrices (Kahan; LAPACK Users' Guide
    section 2.4.4).  A mode's count is the sum of this count over its two
    halves (:class:`SLProblem`), since A is their orthogonal direct sum; unlike
    a factorization, the count needs no regular T - sigma I.  One call of
    LAPACK's ``dlaebz`` (IJOB = 1) makes one pass over the rows per shift,
    where a ``dstebz`` call made several for one count.  The arithmetic is
    that of ``dstebz``, so the counts are too: the same recurrence,
    couplings below its splitting threshold dropped, the same ``pivmin``,
    and each shift lowered to the floating-point number just below it,
    since the recurrence counts an eigenvalue equal to its bound as below.
    dlaebz counts at both ends of each interval it is given, so an odd
    number of shifts costs one pass more.
    """
    d = np.ascontiguousarray(d, dtype=float)
    e2 = np.square(e, dtype=float)
    if e2.shape != (d.size - 1,):
        raise ValueError(f"{d.size} diagonal entries need {d.size - 1} couplings")
    e2[np.abs(d[1:] * d[:-1]) * _EPS ** 2 + _TINY > e2] = 0.0  # dstebz's splitting
    pivmin = ctypes.c_double(_TINY * max(1.0, float(e2.max(initial=0.0))))
    bounds = [math.nextafter(sigma, -math.inf) for sigma in shifts]
    # the intervals' lower ends, then their upper ends (AB and NAB are
    # column-major MMAX x 2 arrays), padded to even length
    ab = np.array(bounds + bounds[-1:] * (len(bounds) % 2))
    nab = np.empty(ab.size, dtype=np.intc)
    ints = [ctypes.c_int(v) for v in (1, 0, d.size, ab.size // 2, ab.size // 2, 0)]
    zero, unused, info = ctypes.c_double(0.0), ctypes.c_int(0), ctypes.c_int(0)
    ref = ctypes.byref
    e2_at, ab_at = e2.ctypes.data, ab.ctypes.data
    _DLAEBZ(*map(ref, ints), ref(zero), ref(zero), ref(pivmin),
            d.ctypes.data, e2_at, e2_at, ref(unused), ab_at, ab_at,  # E: not read
            ref(unused), nab.ctypes.data, ab_at, ref(unused), ref(info))
    return nab[:len(bounds)].astype(int)


def known_eigenfunction_residuals(torus: OtsukiTorus, n_grid: int
                                  ) -> tuple[float, float, float]:
    """Relative residuals of the three coordinate-restriction eigenfunctions.

    The ambient coordinate functions restrict to eigenfunctions of the
    surface Laplacian with eigenvalue 2; after separation of variables this
    means sin(phi) solves the l = 1 problem and cos(phi) cos(theta) and
    cos(phi) sin(theta) solve the l = 0 problem, all at lambda = 2.  Each
    is taken at the nodes u_j in the symmetric form ``w = J^{1/2} v``, with
    theta(u) summed from the geodesic's phase series, and folded onto its
    half of the mode (:class:`SLProblem`): the even sin(phi) and
    cos(phi) cos(theta) onto the even half, the odd cos(phi) sin(theta) onto
    the odd one.  The fold is orthonormal, so ``||A w - 2 w|| / ||w||`` is
    that of the half.  Returns the three in that order; each vanishes at
    the order of the discretization, so the triple measures the spectral
    accuracy of the grid.
    """
    l0, l1 = _assemble_modes(torus, (0, 1), n_grid)
    u = _phase_step(torus, n_grid) * np.arange(n_grid // 2 + 1)
    phi, J = phase_metric(torus.profile.a, u)
    theta = torus.profile.cycle.theta_of_phase(u)
    w = np.sqrt(J) * np.array([np.sin(phi), np.cos(phi) * np.cos(theta),
                               np.cos(phi) * np.sin(theta)])
    w[:, 1:-1] *= _SQRT2  # the paired nodes
    residuals = []
    for (d, e), y in ((l1.even, w[0]), (l0.even, w[1]), (l0.odd, w[2, 1:-1])):
        Ty = d * y
        Ty[:-1] += e * y[1:]
        Ty[1:] += e * y[:-1]
        residuals.append(float(np.linalg.norm(Ty - 2.0 * y) / np.linalg.norm(y)))
    return tuple(residuals)


def _band_from_anchors(l0_near: np.ndarray, l1_ground: float, threshold: float) -> float:
    """Guard band from the measured displacement of the threshold anchors.

    Three eigenvalues equal the threshold analytically: the l = 1 ground
    state and the two l = 0 eigenvalues nearest the threshold.  Their
    positions on the doubled grid of :func:`count_below` measure how far
    the discretization moves an eigenvalue that sits exactly at the
    threshold; ten times the worst displacement is the band that classifies
    both grids' counts (the requested grid moves it about four times as far).

    On fine grids the displacements approach the rounding noise of the
    shift-invert eigenvalues, so the band's trailing digits are noise
    there, and below the floating-point floor ``eps * max|main|`` (main
    the diagonal of A) the band measures rounding alone
    (:func:`count_below` refuses that).
    """
    d0 = float(np.max(np.abs(l0_near - threshold)))
    return 10.0 * max(d0, abs(l1_ground - threshold)) + 1e-13 * threshold


def count_below(torus: OtsukiTorus, threshold: float = 2.0, l_max: int = 3,
                n_grid: int = 2048) -> VerificationReport:
    """Count surface eigenvalues strictly below ``threshold`` and verify 2p - 1.

    For each mode l = 0 .. l_max the eigenvalues below ``threshold - band``
    are counted exactly, as two Sturm counts, one per half of the mode
    (:class:`SLProblem`), and weighted 1 (l = 0) or 2 (l > 0), where the band
    absorbs the eigenvalues that equal the threshold analytically (see
    :func:`_band_from_anchors`), measured once, on the doubled grid
    ``2 n_grid``; both grids are counted against it and must agree (a
    requested grid that is not yet second order, its anchors outside the
    band, does not).  One :func:`_sturm_counts` call per half and grid
    counts below every shift the grid needs: ``threshold - band`` and
    ``threshold`` on both, and on the doubled grid also ``threshold + band``
    and ``threshold - 2 band``, for the window and the shoulder.  Lanczos
    iteration, on the doubled grid alone, computes only eigenvalues that
    are reported: the three anchors, the eigenvalues within the band of the
    threshold, and those in the shoulder when the count is ambiguous, each
    run asking one half for just the number its counts say (the l = 1
    ground anchor through :func:`_ground_eigenvalue`).  A half whose window
    holds just its anchor reuses the anchor run, so no run is made twice.
    That modes above l_max cannot contribute is not assumed: the count
    below the threshold is checked to be zero for l = 2 .. l_max on both
    grids (lambda_0(l) increases strictly in l, so the scan terminates).

    Raises
    ------
    ValueError
        If the doubled grid ``2 n_grid`` exceeds ``_MAX_GRID`` rows, which
        is checked before anything is assembled, or if ``n_grid`` is odd,
        which is checked before any solve.
    AmbiguousCount
        If on the doubled grid some eigenvalue falls in the shoulder
        ``[threshold - 2 band, threshold - band)``, where "below" versus
        "equal to the threshold" cannot be distinguished reliably; or if
        the band is below the floating-point floor ``eps * max|main|`` of
        the l = 1 mode (main the diagonal of A) there, where the anchors'
        displacement is rounding and no count is reliable (2/3 from
        ``n_grid = 65536``).
    """
    if l_max < 2:
        raise ValueError("l_max must be at least 2")
    _check_grid_size(2 * n_grid)
    claimed = torus.eigenvalue_index
    grids = [n_grid, 2 * n_grid]
    # both grids checked now; the requested one is assembled once the doubled one is done
    requested, doubled = (_assemble_modes(torus, range(l_max + 1), n) for n in grids)
    # the modes one at a time: only l = 0 and l = 1 are held throughout
    l0, l1 = next(doubled), next(doubled)
    # eps * max|main| of l = 1, main the diagonal of A: the even half holds all its values
    floor = _EPS * float(np.max(np.abs(l1.even[0])))
    # the anchors: in each l = 0 half the eigenvalue nearest the threshold (cos phi
    # cos theta is even, cos phi sin theta odd), and the l = 1 ground, which is even
    l0_near = np.array([_eigenvalues_near(d, e, 1, threshold)[0]
                        for d, e in (l0.even, l0.odd)])
    l1_ground = _ground_eigenvalue(*l1.even, threshold)
    band = _band_from_anchors(l0_near, l1_ground, threshold)
    if band < floor:
        raise AmbiguousCount(
            f"the guard band {band:.3e} at n_grid = {grids[-1]} is below the "
            f"floating-point floor eps * max|main| = {floor:.3e}: rounding, "
            f"not the discretization, moves the anchors there; use a coarser grid")
    anchors = {(0, 0): l0_near[0], (0, 1): l0_near[1], (1, 0): l1_ground}
    counts_by_grid = dict.fromkeys(grids, 0)  # the requested grid first, as verify prints it
    truncation_confirmed = True

    def count(problem: SLProblem, *shifts: float) -> list[np.ndarray]:
        # both halves' Sturm counts below threshold - band, threshold and the
        # shifts; adds the count to its grid's and checks the truncation
        nonlocal truncation_confirmed
        below, below_threshold, *outer = np.array(
            [_sturm_counts(d, e, [threshold - band, threshold, *shifts])
             for d, e in (problem.even, problem.odd)]).T
        counts_by_grid[problem.n_grid] += (1 if problem.l == 0 else 2) * int(below.sum())
        if problem.l >= 2 and below_threshold.any():
            truncation_confirmed = False
        return [below, *outer]

    near: list[tuple[int, int, float]] = []
    shoulder: list[tuple[int, float]] = []
    for problem in chain((l0, l1), doubled):
        l, halves = problem.l, (problem.even, problem.odd)
        below, below_window, below_shoulder = count(problem, threshold + band, threshold - 2.0 * band)
        window, in_shoulder = [], []
        for side, ((d, e), n_window, n_shoulder) in enumerate(zip(
                halves, below_window - below, below - below_shoulder)):
            if n_window == 1 and (l, side) in anchors:
                window.append(anchors[l, side])  # the anchor run above found it
            elif n_window:
                window.extend(_eigenvalues_near(d, e, n_window, threshold))
            if n_shoulder:
                in_shoulder.extend(_eigenvalues_near(d, e, n_shoulder, threshold - 1.5 * band))
        near += [(l, int(below.sum()) + rank, float(v)) for rank, v in enumerate(sorted(window))]
        shoulder += [(l, round(float(v), 12)) for v in sorted(in_shoulder)]
    if shoulder:
        raise AmbiguousCount(
            f"eigenvalues {shoulder} lie within [threshold - 2 band, "
            f"threshold - band) at n_grid = {grids[-1]}; refine the grid")
    for problem in requested:
        count(problem)
    stable = len(set(counts_by_grid.values())) == 1
    n2 = counts_by_grid[grids[-1]]
    verdict = stable and n2 == claimed and truncation_confirmed
    return VerificationReport(n2=n2, claimed=claimed,
                              eigenvalues_near_2=near, tolerance_band=band,
                              grids_used=grids, verdict=verdict,
                              counts_by_grid=counts_by_grid,
                              truncation_confirmed=truncation_confirmed)


def lambda0_monotone_check(torus: OtsukiTorus, l_values: Sequence[int],
                           n_grid: int = 2048) -> list[float]:
    """Ground eigenvalue lambda_0(l) for each listed mode, checked increasing.

    lambda_0 always has multiplicity one, so it increases strictly in l;
    a violation here indicates a broken discretization, not mathematics.
    Each ground is ``eigen_low(problem, 1)``, as in the spectrum command.
    """
    l_values = list(l_values)
    if any(b <= a for a, b in zip(l_values, l_values[1:])):
        raise ValueError("l_values must be strictly increasing")
    ground = [float(eigen_low(problem, 1).eigenvalues[0])
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

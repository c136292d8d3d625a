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

(indices mod n).  phi and J are even about the turning point u = 0, so in
an orthonormal basis of even and odd grid functions A is the direct sum of
two plain symmetric tridiagonals of about n / 2 rows each, the even and
the odd half of the mode (:class:`SLProblem`), assembled from the nodes
0 .. n/2 and the midpoints between them.  Eigenvalues below sigma are
counted, not computed: the sum of the halves' Sturm counts (backward
stable), one walk over the rows for all the shifts a caller reads
(:func:`_sturm_counts`).  :func:`eigen_low` shifts both halves of a mode
just below its ground and asks shift-invert Lanczos on each
(:func:`_shift_invert`) for its share of the eigenvalues alone, to
rounding level, keeps each half's run, and reads each value's zero count
off its rank in the mode (the oscillation theorem and interlacing),
building no eigenvector.
:func:`count_below` counts the modes l = 0 and l = 1, the only ones with
values below 4, on two grids against one guard band, measured on the
finer from the three eigenvalues at 2 whose eigenfunctions are known
in closed form, by one Rayleigh-quotient step each; the other values it
reports, a window's or a shoulder's ends, are bisected for on the Sturm
counts (:func:`_bisect`).  Grids are capped at ``_MAX_GRID`` rows.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .geometry import OtsukiTorus, _phase_metric_trig

__all__ = [
    "GridTooCoarse", "SolverFailure", "AmbiguousCount",
    "SLProblem", "SLSpectrum", "VerificationReport",
    "assemble", "eigen_low",
    "known_eigenfunction_residuals", "count_below", "lambda0_monotone_check",
    "resolving_grid",
]

_EIGSH_SEED = 20120524  # fixed Lanczos start vector: identical runs bit for bit
# ARPACK's stopping rule: a Ritz pair (theta, y) of the shift-inverted operator
# is accepted once its residual is below tol * |theta|.  The Ritz value of a
# symmetric operator is then within (tol * theta)^2 / gap of an eigenvalue
# (Parlett, The Symmetric Eigenvalue Problem, ch. 11), a relative error of
# tol^2 / (relative gap): at rounding level for any relative gap above about
# 1e-8, so tol = 0 (machine epsilon, ARPACK's default) only adds restarts.
_LANCZOS_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)

# Largest grid assembled, in rows.  The tracemalloc peak of count_below per row of its
# doubled grid is 100 to 109 B whatever q (the five tori and 17/33 to 100/199 at their
# resolving grids), 0.21 GB at the cap; it assembles the modes l = 0 and l = 1 alone.
_MAX_GRID = 2 ** 21


class GridTooCoarse(ValueError):
    """Requested discretization cannot resolve the requested modes."""


class SolverFailure(RuntimeError):
    """The eigensolver failed or contradicts a Sturm count, or a shift is not below a half's spectrum.

    Shift-invert Lanczos needs T - sigma I definite at its shift sigma.
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
    """Low eigenvalues of one mode, sorted ascending, and the sign changes of their eigenfunctions.

    ``zero_counts[i]`` is the number of sign changes over one period of the
    eigenfunction of ``eigenvalues[i]`` (:func:`eigen_low`).  ``halves`` are
    the runs of the even and the odd half, ``k // 2 + 1`` and ``k // 2``
    values (none for k = 1), each ascending: the j-th value of a half is that
    of its eigenvector with j sign changes, whatever the grid, and
    ``eigenvalues`` are the k smallest of both.
    """

    l: int
    eigenvalues: np.ndarray
    n_grid: int
    zero_counts: list[int]
    halves: tuple[np.ndarray, np.ndarray]


@dataclass
class VerificationReport:
    """Outcome of the eigenvalue count against the predicted index."""

    n2: int
    claimed: int
    # per mode l with values in [2 - band, 2 + band) on the doubled grid: (l, first, last, lowest, highest)
    eigenvalues_near_2: list[tuple[int, int, int, float, float]]
    tolerance_band: float
    grids_used: list[int]
    verdict: bool
    counts_by_grid: dict[int, int]


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
    return 2.0 * math.pi * torus.t0 / torus.profile.cycle_period / n_grid


def _phase_points(torus: OtsukiTorus, n_grid: int) -> tuple[np.ndarray, ...]:
    """phi, J, sin phi and cos phi at ``u = k du / 2``, k <= n_grid: nodes (even k) and midpoints.

    Every other point is the same for n_grid / 2.
    """
    return _phase_metric_trig(torus.profile.a,
                              0.5 * _phase_step(torus, n_grid) * np.arange(n_grid + 1))


def _coefficients(torus: OtsukiTorus, n_grid: int, points=None) -> tuple[np.ndarray, ...]:
    """sin(phi)^2 and J at the nodes 0 .. n_grid / 2, and ``c / du^2`` at the midpoints between them."""
    _, J, sin_phi, _ = _phase_points(torus, n_grid) if points is None else points
    du = _phase_step(torus, n_grid)
    sin_sq = sin_phi ** 2
    return sin_sq[::2], J[::2], (4.0 * math.pi ** 2 / du ** 2) * sin_sq[1::2] / J[1::2]


def _check_grid(torus: OtsukiTorus, n_grid: int) -> None:
    """Refuse a grid :func:`assemble` does not take, before anything is allocated."""
    p = torus.profile.theta_winding
    if n_grid < 64 or n_grid < 32 * p:
        raise GridTooCoarse(f"n_grid must be >= max(64, 32 p = {32 * p})")
    if n_grid > _MAX_GRID:
        raise ValueError(f"a grid of {n_grid} rows exceeds the limit of {_MAX_GRID} rows (at peak "
                         f"about 100 bytes per row)")
    if n_grid % 2:
        raise ValueError(f"n_grid must be even, got {n_grid}")


def _assemble_modes(torus: OtsukiTorus, modes: Sequence[int], n_grid: int,
                    points=None) -> Iterator[SLProblem]:
    """:func:`assemble` for each listed mode, ascending, evaluating phi and J once (or reading ``points``).

    Checked at once, a negative mode by the first; made one at a time, as
    asked for, so a caller holds nothing before the first and, keeping
    none, one mode's diagonal at a time.  ``points`` are those of
    :func:`_phase_points`, if the caller has them.
    """
    if modes and modes[0] < 0:
        raise ValueError("angular mode l must be non-negative")
    _check_grid(torus, n_grid)

    def problems():
        sin_sq, J, flux = _coefficients(torus, n_grid, points)
        off = -flux / np.sqrt(J[:-1] * J[1:])
        # flux at j + 1/2 plus flux at j - 1/2; the flux is even about the nodes 0 and r
        stiffness = (np.concatenate([flux, flux[-1:]]) + np.concatenate([flux[:1], flux])) / J
        e_even = off.copy()
        e_even[[0, -1]] *= _SQRT2  # the couplings into the fixed points
        del J, flux  # not held while the generator waits
        for l in modes:
            d = stiffness + (l * l) / sin_sq
            yield SLProblem(l=l, n_grid=n_grid, even=(d, e_even), odd=(d[1:-1], off[1:-1]))
    return problems()


def _direct_sum(problem: SLProblem) -> tuple[np.ndarray, np.ndarray]:
    """The mode as one tridiagonal ``(d, e)``, its two halves uncoupled: for Sturm counts alone."""
    (d, e), (d_odd, e_odd) = problem.even, problem.odd
    return np.concatenate([d, d_odd]), np.concatenate([e, [0.0], e_odd])


def eigen_low(problem: SLProblem, k: int) -> SLSpectrum:
    """The k smallest eigenvalues of the discretized problem, and their zero counts.

    Shift-invert Lanczos on each half, both shifted to one dyadic sigma just
    below the mode's ground (:func:`_shift_below_ground`), where T - sigma I
    is definite (an LDL^T solve) and the wanted values dominate.  The odd
    half is the even half without its first and last rows, so by Cauchy
    interlacing ``mu_j <= nu_j <= mu_{j+2}`` (even mu, odd nu), and the k
    smallest hold at most ``k // 2 + 1`` even and ``k // 2`` odd values:
    the shares asked for (k = 1 runs the even half only).  A run for m
    values uses ``max(3m, 20)`` Lanczos vectors, wider than ARPACK's default
    above m = 6, where that does not converge when a share ends inside a
    tight cluster (l = 3 of 9/16, k = 16 at 4096 rows).  The runs return
    eigenvalues only; each is kept, ascending, as its half's run, and the k
    smallest of both are the mode's.

    Their zero counts need no eigenvector.  Each half is a Jacobi matrix,
    its couplings negative, so by the oscillation theorem (Gantmacher and
    Krein) the eigenvector of its j-th eigenvalue (from j = 0) changes sign
    exactly j times.  Unfolded onto the grid, an even vector is mirrored about the
    nodes 0 and r, an odd one antisymmetric through them: the j-th value of
    the even half has ``2 j`` sign changes over a period, that of the odd
    half ``2 j + 2``.  By the interlacing above, the mode's values ascend as
    mu_0, then mu_{j+1} and nu_j in either order for j = 0, 1, ..., so the
    i-th has ``2 ceil(i / 2)`` sign changes, whichever half's run returned
    it: in a cluster whose values agree to rounding that run can be either.
    """
    n = problem.n_grid
    if k < 1 or k > n // 4:
        raise ValueError(f"k must lie in [1, n_grid / 4 = {n // 4}]")
    sigma = _shift_below_ground(*problem.even)
    even, odd = (np.sort(_shift_invert(d, e, sigma, m)) if m else np.empty(0)
                 for (d, e), m in zip((problem.even, problem.odd), (k // 2 + 1, k // 2)))
    return SLSpectrum(l=problem.l, eigenvalues=np.sort(np.concatenate([even, odd]))[:k], n_grid=n,
                      zero_counts=[2 * ((i + 1) // 2) for i in range(k)], halves=(even, odd))


# The width, relative to 1 + |its upper end|, to which _shift_below_ground
# brackets a ground: close enough that the wanted eigenvalues dominate the
# transformed spectrum of a shift-invert run, and a handful of counts away.
_GROUND_BRACKET = 1.0 / 64.0


def _shift_below_ground(d: np.ndarray, e: np.ndarray) -> float:
    """A dyadic shift sigma just below the ground of the tridiagonal ``(d, e)``, by Sturm counts.

    lo, with no eigenvalue below it, starts at -1 (an assembled mode is
    positive semidefinite; other bands start a power of two below
    Gershgorin's bound), and hi, with one, climbs through 0, 2, 6, 14, ...;
    the bracket then shrinks to its quarter points until its width is at
    most ``(1 + |hi|) * _GROUND_BRACKET``, two probes per
    :func:`_sturm_counts` call.  sigma is one width below lo, so
    T - sigma I is definite by a margin far above rounding.  Every probe is
    a dyadic number of a few bits, so ``d - sigma`` is exact on every row,
    where a shift like 2.001 would bias every eigenvalue by up to half an
    ulp of ``max|d|``.
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


def _shift_invert(d: np.ndarray, e: np.ndarray, sigma: float, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the tridiagonal ``(d, e)``, unsorted, for a shift sigma below them all.

    Shift-invert Lanczos with ``max(3k, 20)`` vectors (see :func:`eigen_low`)
    to the tolerance ``_LANCZOS_TOL``.  eigsh applies only ``OPinv``
    (:func:`_inverse`), so T is a shape-only operator whose product raises.
    The start vector is fixed, making repeated runs identical.
    """
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh
    n = d.size

    def no_product(x):
        raise RuntimeError("shift-invert Lanczos multiplied by the operator itself")

    v0 = np.random.default_rng(_EIGSH_SEED).standard_normal(n)
    try:
        return eigsh(LinearOperator((n, n), matvec=no_product, dtype=float), k=k, sigma=sigma,
                     v0=v0, tol=_LANCZOS_TOL, ncv=min(n, max(3 * k, 20)), maxiter=10000,
                     return_eigenvectors=False, OPinv=_inverse(d, e, sigma))
    except (ArpackNoConvergence, ArpackError) as exc:
        raise SolverFailure(f"eigensolver failed near sigma={sigma!r}, "
                            f"order {n}: {exc}") from exc


def _inverse(d: np.ndarray, e: np.ndarray, sigma: float) -> LinearOperator:
    """(T - sigma I)^{-1} for the tridiagonal T = ``(d, e)``, the OPinv of shift-invert eigsh.

    LAPACK's LDL^T (``dpttrf``, ``dpttrs``), for a shift below the spectrum:
    SolverFailure where ``dpttrf`` meets a non-positive pivot.
    """
    from scipy.linalg.lapack import dpttrf, dpttrs
    from scipy.sparse.linalg import LinearOperator
    n = d.size
    *ldl, info = dpttrf(d - sigma, e)
    if info:
        raise SolverFailure(f"T - sigma I at sigma={sigma!r}, order {n}: not definite")
    return LinearOperator((n, n), matvec=lambda b: dpttrs(*ldl, b)[0], dtype=float)


def _lapack_routine(name: str, n_args: int) -> tuple[Callable[..., None], np.dtype]:
    """LAPACK's ``name``, called with the addresses of its ``n_args`` arguments, and its integer type.

    numpy's Linux wheels link an OpenBLAS of their own,
    ``numpy.libs/libscipy_openblas64_*.so``, loaded with numpy itself, which
    exports LAPACK as ``scipy_<name>_64_`` with 64-bit integers: the routine
    is taken from there, so the Sturm counts and the anchor steps of
    :func:`count_below` import no scipy (a cold ``otsuki verify 2 3``, 2-vCPU
    x86-64 VM, numpy 2.4.6, scipy 1.17.1: 0.41 s and 58 MB with scipy's
    LAPACK, 0.16 s and 32 MB with numpy's).  Where that file or symbol is
    missing (numpy built against MKL or a system OpenBLAS, the macOS and
    Windows wheels), the routine comes from scipy's own build, its
    ``cython_lapack`` capsule, with C ints; only that path imports scipy.
    """
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so")):
        try:
            return prototype((f"scipy_{name}_64_", ctypes.CDLL(str(path)))), np.dtype(np.int64)
        except (OSError, AttributeError):  # not loadable, or without the symbol
            pass
    from scipy.linalg import cython_lapack
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return prototype(get_pointer(capsule, get_name(capsule))), np.dtype(np.intc)


# DLAEBZ(IJOB, NITMAX, N, MMAX, MINP, NBMIN, ABSTOL, RELTOL, PIVMIN, D, E, E2,
# NVAL, AB, C, MOUT, NAB, WORK, IWORK, INFO), every argument by reference
_DLAEBZ, _DLAEBZ_INT = _lapack_routine("dlaebz", 20)
# DGTSV(N, NRHS, DL, D, DU, B, LDB, INFO), every argument by reference
_DGTSV, _DGTSV_INT = _lapack_routine("dgtsv", 8)


def _sturm_counts(d: np.ndarray, e: np.ndarray, shifts: Sequence[float]) -> np.ndarray:
    """Number of eigenvalues strictly below each shift of the symmetric tridiagonal ``(d, e)``.

    The Sturm count: the number of non-positive pivots of T - sigma I in
    the recurrence ``p_j = (d_j - e_{j-1}^2 / p_{j-1}) - sigma``, which is
    backward stable for tridiagonal matrices (Kahan; LAPACK Users' Guide
    section 2.4.4).  A mode's count is the sum of this count over its two
    halves (:class:`SLProblem`), since A is their orthogonal direct sum; unlike
    a factorization, the count needs no regular T - sigma I.  One call of
    the vector branch of LAPACK's ``dlaebz`` (IJOB = 3, NBMIN = 1, one
    iteration) walks the rows once, every shift advancing row by row
    together, where a ``dstebz`` call made several passes for one count.
    The arithmetic is that of ``dstebz``'s bisection, so the counts are too:
    the same recurrence and ``pivmin`` (a pivot at or below it counts, and
    continues as ``-pivmin``), couplings below its splitting threshold
    dropped, and each shift lowered to the floating-point number just below
    it, since the recurrence counts an eigenvalue equal to its bound as
    below.  Each shift is the C of one interval whose lower end is a
    sentinel (AB = -huge, NAB = -1) and whose target NVAL is -1: no interval
    converges or moves, and each count lands in ``NAB(:, 2)``.  Every
    argument but D sits in one work array, so a call reads two addresses.
    """
    d = np.ascontiguousarray(d, dtype=float)
    n, m, size = d.size, len(shifts), _DLAEBZ_INT.itemsize
    if np.shape(e) != (n - 1,):
        raise ValueError(f"{n} diagonal entries need {n - 1} couplings")
    # E2 (also passed as E, which is not read), then AB (m x 2, column-major),
    # C, WORK, ABSTOL = RELTOL = 0 and PIVMIN; after them, as integers, NVAL,
    # NAB (m x 2), IWORK, and IJOB, NITMAX, N, MMAX, MINP, NBMIN, MOUT and INFO
    reals = n + 4 * m + 1
    work = np.empty(reals + 4 * m + 8)
    e2 = np.square(e, out=work[:n - 1])
    e2[np.abs(d[1:] * d[:-1]) * _EPS ** 2 + _TINY > e2] = 0.0  # dstebz's splitting
    work[n - 1:n - 1 + 4 * m] = -_HUGE
    work[n - 1 + 2 * m:n - 1 + 3 * m] = [math.nextafter(sigma, -math.inf) for sigma in shifts]
    work[reals - 2:reals] = 0.0, _TINY * max(1.0, float(e2.max(initial=0.0)))
    ints = work[reals:].view(_DLAEBZ_INT)
    ints[:4 * m] = -1
    ints[4 * m:4 * m + 8] = 3, 1, n, m, m, 1, 0, 0
    at = work.ctypes.data
    ab, c, w, tol, pivmin = (at + 8 * i for i in (n - 1, n - 1 + 2 * m, n - 1 + 3 * m, reals - 2, reals - 1))
    nval, nab, iwork, ijob, nitmax, order, mmax, minp, nbmin, mout, info = (
        at + 8 * reals + size * j for j in (0, m, 3 * m, *range(4 * m, 4 * m + 8)))
    _DLAEBZ(ijob, nitmax, order, mmax, minp, nbmin, tol, tol, pivmin, d.ctypes.data, at, at,
            nval, ab, c, mout, nab, w, iwork, info)
    return ints[2 * m:3 * m].astype(int)


def _bisect(d: np.ndarray, e: np.ndarray, indices: Sequence[int], lo: float, hi: float) -> np.ndarray:
    """The eigenvalues of the tridiagonal ``(d, e)`` in ``[lo, hi)`` at the distinct 0-based ``indices``, ascending.

    Sturm-sequence bisection (Barth, Martin and Wilkinson, *Numer. Math.* 9, 1967): a bracket
    holds the eigenvalue of index i while ``count(lo) <= i < count(hi)``.  One
    :func:`_sturm_counts` call at the midpoints of all open brackets halves each, until each
    is two adjacent doubles, whose lower end is the eigenvalue (the count is of values
    strictly below).  SolverFailure if ``[lo, hi)`` misses an index.
    """
    indices = np.unique(indices)
    below = _sturm_counts(d, e, [lo, hi])
    if not below[0] <= indices.min() <= indices.max() < below[1]:
        raise SolverFailure(f"[{lo!r}, {hi!r}) holds the indices {below[0]} .. {below[1] - 1} "
                            f"of order {d.size}, not {indices.tolist()}")
    lo, hi = np.full(indices.size, float(lo)), np.full(indices.size, float(hi))
    while (open_ := np.flatnonzero(np.nextafter(lo, hi) < hi)).size:
        mid = 0.5 * (lo[open_] + hi[open_])
        above = _sturm_counts(d, e, mid) > indices[open_]
        hi[open_[above]] = mid[above]
        lo[open_[~above]] = mid[~above]
    return lo


def _nodal_eigenfunctions(torus: OtsukiTorus, n_grid: int, points) -> np.ndarray:
    """sin(phi), cos(phi) cos(theta) and cos(phi) sin(theta) at the nodes 0 .. n_grid / 2, as rows.

    The ambient coordinate functions restrict to eigenfunctions of the
    surface Laplacian with eigenvalue 2: sin(phi) of the l = 1 problem,
    cos(phi) cos(theta) and cos(phi) sin(theta) of the l = 0 problem.  theta
    comes from the phase series (:meth:`GeodesicProfile.theta_on_grid`); the
    odd cos(phi) sin(theta) is set to 0 at the nodes 0 and r, where it
    vanishes.  ``points`` are those of :func:`_phase_points`.
    """
    sin_phi, cos_phi = points[2][::2], points[3][::2]
    theta = torus.profile.theta_on_grid(_phase_step(torus, n_grid), n_grid)[:sin_phi.size]
    h = np.array([sin_phi, cos_phi * np.cos(theta), cos_phi * np.sin(theta)])
    h[2, [0, -1]] = 0.0
    return h


def _known_eigenfunctions(torus: OtsukiTorus, n_grid: int, points) -> list[np.ndarray]:
    """The three :func:`_nodal_eigenfunctions` as ``w = J^{1/2} h``, folded onto their halves.

    The even halves (:class:`SLProblem`) of l = 1 and l = 0 take the even
    sin(phi) and cos(phi) cos(theta), the odd half of l = 0 takes
    cos(phi) sin(theta).  ``points`` are those of :func:`_phase_points`.
    """
    w = np.sqrt(points[1][::2]) * _nodal_eigenfunctions(torus, n_grid, points)
    w[:, 1:-1] *= _SQRT2  # the paired nodes
    return [w[0], w[1], w[2, 1:-1]]


def known_eigenfunction_residuals(torus: OtsukiTorus, n_grid: int
                                  ) -> tuple[float, float, float]:
    """Relative residuals ``||A w - 2 w|| / ||w||`` of the three :func:`_known_eigenfunctions`.

    Each is that of its half (the fold is orthonormal), taken in flux form
    on h evaluated at the nodes (:func:`_nodal_eigenfunctions`), which does
    not cancel terms of size ``max|main| |w|`` as ``A w - 2 w`` does, nor
    amplify the rounding of the folded w by a second difference as an h
    unfolded from it would:

        sum_pm c_{j+-1/2} (h_j - h_{j+-1}) / (du^2 sqrt J_j) + (l^2 / sin(phi_j)^2 - 2) w_j.

    Each vanishes at the order of the discretization, so the triple
    measures the spectral accuracy of the grid.
    """
    points = _phase_points(torus, n_grid)
    sin_sq, J, flux = _coefficients(torus, n_grid, points)
    root_J = np.sqrt(J)
    fold = np.full(J.size, _SQRT2)
    fold[[0, -1]] = 1.0
    residuals = []
    for l, edge, h in zip((1, 0, 0), (0, 0, 1), _nodal_eigenfunctions(torus, n_grid, points)):
        F = -flux * np.diff(h)  # c (h_j - h_{j+1}), mirrored past 0 and r
        r = fold * ((np.concatenate([F, -F[-1:]]) - np.concatenate([-F[:1], F])) / root_J
                    + (l * l / sin_sq - 2.0) * root_J * h)
        inner = slice(edge, J.size - edge)  # the odd half omits the nodes 0 and r
        residuals.append(float(np.sqrt(np.sum(r[inner] ** 2)
                                       / np.sum((fold * root_J * h)[inner] ** 2))))
    return tuple(residuals)


def _rayleigh_step(d: np.ndarray, e: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """An eigenvalue of the tridiagonal ``(d, e)`` near an approximate eigenvector w, and a radius.

    One step of Rayleigh-quotient iteration (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 4): w's Rayleigh quotient rho, the LU solve
    ``x = (T - rho I)^{-1} w`` (``dgtsv``) and ``rho' = rho + (x.w) / (x.x)``, the
    Rayleigh quotient of x.  An eigenvalue lies within the radius
    ``||T x - rho' x|| / ||x|| = ||w - (x.w / x.x) x|| / ||x||`` of rho'
    (Krylov-Weinstein); an exactly singular LU makes rho one (radius 0).
    Inner products are ``np.sum(x * y)``: a threaded BLAS ``ddot`` can
    stall on long vectors after ARPACK's runs.
    """
    Tw = d * w
    Tw[:-1] += e * w[1:]
    Tw[1:] += e * w[:-1]
    rho = float(np.sum(w * Tw) / np.sum(w * w))
    # DL, D - rho, DU and B end to end, then the integers N, NRHS, LDB and INFO
    n = d.size
    work = np.empty(4 * n + 2)
    work[:n - 1] = e
    np.subtract(d, rho, out=work[n - 1:2 * n - 1])
    work[2 * n - 1:3 * n - 2] = e
    x = work[3 * n - 2:4 * n - 2]
    x[:] = w
    ints = work[4 * n - 2:].view(_DGTSV_INT)
    ints[:4] = n, 1, n, 0
    at, size = work.ctypes.data, _DGTSV_INT.itemsize
    order = at + 8 * (4 * n - 2)
    _DGTSV(order, order + size, at, at + 8 * (n - 1), at + 8 * (2 * n - 1), at + 8 * (3 * n - 2),
           order + 2 * size, order + 3 * size)
    if ints[3] > 0:
        return rho, 0.0
    xx = np.sum(x * x)
    step = np.sum(x * w) / xx
    return rho + float(step), float(np.sqrt(np.sum((w - step * x) ** 2) / xx))


def count_below(torus: OtsukiTorus, threshold: float = 2.0, l_max: int = 3,
                n_grid: int = 2048) -> VerificationReport:
    """Count surface eigenvalues strictly below ``threshold`` and verify 2p - 1.

    The eigenvalues of the modes l = 0 and l = 1 below ``threshold - band``
    are counted by Sturm counts and weighted 1 (l = 0) or 2 (l = 1).  No
    other mode has a value below ``threshold + band``: each half of mode l
    is a positive semidefinite stiffness plus the diagonal
    ``l^2 / sin(phi)^2 >= l^2``, so by Weyl's inequality no value of mode l
    lies below l^2, 4 from l = 2 on, and the band is far below 2 (at most
    0.025 on every label with q <= 100).  So no mode above l = 1 is
    assembled.  ``l_max``, the highest mode scanned, stays for the callers
    that pass it and is otherwise unread: every value from 2 on, where the
    bound takes over, gives the same report, and one below 2, a scan that
    stops short of the bound, is refused.  The
    band is ten times the worst displacement of the three anchors, the
    eigenvalues equal to 2 analytically, on the doubled grid ``2 n_grid``,
    where phi and J are evaluated once for both grids.  Both grids are
    counted against it and must agree: in the second-order regime the
    requested grid's anchors sit at about 0.4 band, before it outside.
    Each anchor is one Rayleigh-quotient step from its eigenfunction
    (:func:`_known_eigenfunctions`, :func:`_rayleigh_step`), refused if its
    radius exceeds both its displacement and the floor ``eps * max|main|``,
    and confirmed by Sturm counts at ``value -+ max(radius, floor)``; the
    l = 1 ground is bisected for (:func:`_bisect`) if values lie below or
    the radius is above the floor (its step can end in the cluster above it
    on coarse thin tori).  A doubled-grid half takes one
    :func:`_sturm_counts` call, at ``threshold -+ band``, ``threshold - 2
    band`` and an l = 0 anchor's ends, the requested grid one per mode, at
    ``threshold - band``.  A mode's window, its values in
    ``[threshold - band, threshold + band)`` on the doubled grid, is
    reported by its indices and its ends: its anchors if it holds nothing
    else, else bisected for, as a shoulder's ends are.

    Raises
    ------
    ValueError
        If ``threshold`` is not 2, where the anchors that measure the band
        lie; if ``l_max`` is below 2; if the doubled grid ``2 n_grid``
        exceeds ``_MAX_GRID`` rows; or if ``n_grid`` is odd: all checked
        before anything is evaluated.
    AmbiguousCount
        If on the doubled grid some eigenvalue falls in the shoulder
        ``[threshold - 2 band, threshold - band)``, where "below" versus
        "equal to the threshold" cannot be distinguished reliably; or if
        the band is below the floating-point floor ``eps * max|main|`` of
        the l = 1 mode (main the diagonal of A) there, where the anchors'
        displacement is rounding and no count is reliable (2/3 from
        ``n_grid = 65536``).
    SolverFailure
        If an anchor is refused or not confirmed.
    """
    if threshold != 2.0:
        raise ValueError(f"the threshold must be 2, where the anchors lie, not {threshold!r}")
    if l_max < 2:
        raise ValueError("l_max must be at least 2")
    claimed = torus.eigenvalue_index
    grids = [n_grid, 2 * n_grid]
    for n in reversed(grids):  # both checked before anything is evaluated
        _check_grid(torus, n)
    points = _phase_points(torus, grids[1])
    # the requested grid is assembled once the doubled one is done, from every other point
    requested = _assemble_modes(torus, [0, 1], n_grid, tuple(x[::2] for x in points))
    l0, l1 = _assemble_modes(torus, [0, 1], grids[1], points)
    # eps * max|main| of l = 1, main the diagonal of A: the even half holds all its values
    floor = _EPS * float(np.max(np.abs(l1.even[0])))
    # the anchors by (l, side), sin phi, cos phi cos theta, cos phi sin theta, and their intervals
    refined = {key: _rayleigh_step(*half, w) for key, half, w in zip(
        ((1, 0), (0, 0), (0, 1)), (l1.even, l0.even, l0.odd),
        _known_eigenfunctions(torus, grids[1], points))}
    anchors = {key: value for key, (value, _) in refined.items()}
    ends = {key: [value - max(radius, floor), value + max(radius, floor)]
            for key, (value, radius) in refined.items()}
    for key, (value, radius) in refined.items():
        if radius > max(abs(value - threshold), floor):
            raise SolverFailure(f"the anchor {value!r} of l = {key[0]}, half {key[1]}, at n_grid "
                                f"= {grids[1]} is uncertain by {radius:.3e}, more than its displacement")

    def confirm(key, below):  # an eigenvalue of the anchor's half between its ends
        if below[0] == below[1]:
            raise SolverFailure(f"no eigenvalue of l = {key[0]}, half {key[1]}, lies within {ends[key]} "
                                f"at n_grid = {grids[1]}, around its anchor {anchors[key]!r}")

    # the ground is settled first: sin phi's step can end in the l = 1 cluster above it
    # (thin tori, coarse grids), so it is bisected for, above 0, unless at the floor with none below
    below_ground = _sturm_counts(*l1.even, ends[1, 0])
    if below_ground[0] or refined[1, 0][1] > floor:
        anchors[1, 0] = float(_bisect(*l1.even, [0], 0.0, ends[1, 0][1])[0])
    else:
        confirm((1, 0), below_ground)
    # rounding moves the anchors on fine grids, so the band's trailing digits are noise there
    band = 10.0 * max(abs(v - threshold) for v in anchors.values()) + 1e-13 * threshold
    if band < floor:
        raise AmbiguousCount(
            f"the guard band {band:.3e} at n_grid = {grids[-1]} is below the "
            f"floating-point floor eps * max|main| = {floor:.3e}: rounding, "
            f"not the discretization, moves the anchors there; use a coarser grid")
    counts_by_grid = dict.fromkeys(grids, 0)  # the requested grid first, as verify prints it

    def count(problem: SLProblem, halves, shifts) -> list[np.ndarray]:
        found = [_sturm_counts(d, e, [threshold - band, *extra])
                 for (d, e), extra in zip(halves, shifts)]
        counts_by_grid[problem.n_grid] += (1 if problem.l == 0 else 2) * sum(int(c[0]) for c in found)
        return found

    near: list[tuple[int, int, int, float, float]] = []
    shoulder: list[tuple[int, float]] = []
    for problem in (l0, l1):
        l = problem.l
        # also at the ends of an l = 0 anchor's interval, on its half
        found = count(problem, (problem.even, problem.odd),
                      [[threshold + band, threshold - 2.0 * band, *(ends[l, side] if l == 0 else [])]
                       for side in (0, 1)])
        for side, c in enumerate(found if l == 0 else []):
            confirm((l, side), c[3:])
        # per mode: the values below threshold - band, threshold + band and threshold - 2 band
        below, window_top, shoulder_bottom = (sum(int(c[i]) for c in found) for i in range(3))
        if window_top > below:
            if all(c[1] - c[0] == ((l, side) in anchors) for side, c in enumerate(found)):
                values = [anchors[l, side] for side in (0, 1) if (l, side) in anchors]
            else:
                values = _bisect(*_direct_sum(problem), [below, window_top - 1],
                                 threshold - band, threshold + band)
            near.append((l, below, window_top - 1, float(min(values)), float(max(values))))
        if below > shoulder_bottom:
            values = _bisect(*_direct_sum(problem), [shoulder_bottom, below - 1],
                             threshold - 2.0 * band, threshold - band)
            shoulder += [(l, round(float(v), 12)) for v in values]
    if shoulder:
        raise AmbiguousCount(
            f"eigenvalues {shoulder} lie within [threshold - 2 band, "
            f"threshold - band) at n_grid = {grids[-1]}; refine the grid")
    for problem in requested:
        count(problem, [_direct_sum(problem)], [[]])
    stable = len(set(counts_by_grid.values())) == 1
    n2 = counts_by_grid[grids[-1]]
    return VerificationReport(n2=n2, claimed=claimed,
                              eigenvalues_near_2=near, tolerance_band=band,
                              grids_used=grids, verdict=stable and n2 == claimed,
                              counts_by_grid=counts_by_grid)


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

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
rounding level; the eigenvectors come by inverse iteration when first
read (:class:`SLSpectrum`).  :func:`count_below` counts two grids against
one guard band, measured on the finer from the three eigenvalues at 2
whose eigenfunctions are known in closed form, by one Rayleigh-quotient
step each; the other values it reports, a window's or a shoulder's ends,
are bisected for on the Sturm counts (:func:`_bisect`).  Grids are
capped at ``_MAX_GRID`` rows.
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
from scipy.linalg.lapack import dgeqrf, dgtsv, dorgqr, dpttrf, dpttrs

from .geometry import OtsukiTorus, _phase_metric_trig

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
_LANCZOS_TOL = 1e-12
_SQRT2 = math.sqrt(2.0)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)

# Largest grid assembled, in rows.  The tracemalloc peak of count_below per row of its
# doubled grid is 96 to 106 B whatever q (the five tori and 17/33 to 100/199 at their
# resolving grids), 0.22 GB at the cap.  Modes above l = 1 are held one at a time.
_MAX_GRID = 2 ** 21


class GridTooCoarse(ValueError):
    """Requested discretization cannot resolve the requested modes."""


class SolverFailure(RuntimeError):
    """The eigensolver failed or contradicts a Sturm count, or a shift is not below a half's spectrum.

    Shift-invert Lanczos and the eigenvectors need T - sigma I definite at
    the Lanczos shift sigma.
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

    :func:`eigen_low` fills in the eigenvalues and keeps the mode's two
    halves, the half of each kept value and its Lanczos shift.
    ``eigenvectors`` computes the eigenvectors of each half at its kept
    values on first read (:func:`_half_eigenvectors`), unfolds them onto
    the grid and drops the halves; ``zero_counts`` is computed from
    ``eigenvectors`` on first read.  A caller that reads only the
    eigenvalues computes no eigenvector.
    """

    l: int
    eigenvalues: np.ndarray
    n_grid: int
    # the even and the odd half (d, e) of the mode; None once the eigenvectors are built
    _halves: tuple[tuple[np.ndarray, np.ndarray], ...] | None = field(repr=False)
    # True where a kept value is the odd half's
    _odd: np.ndarray = field(repr=False)
    # the shift of the Lanczos runs, below the ground: T - sigma I is definite on both halves
    _sigma: float = field(repr=False)

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Column i is the unit grid eigenvector ``w = J^{1/2} h`` of ``eigenvalues[i]``, even or odd in u."""
        n = self.n_grid
        # built as rows: half rows to grid nodes (the odd half starts at node 1), then
        # 1 / sqrt 2 on paired nodes and the mirror image, negated for odd vectors
        vecs = np.zeros((self.eigenvalues.size, n))
        for side, (d, e) in enumerate(self._halves):
            kept = np.flatnonzero(self._odd == side)
            if kept.size:
                vecs[kept, side:side + d.size] = _half_eigenvectors(
                    d, e, self.eigenvalues[kept], self._sigma)
        paired = vecs[:, 1:n // 2]
        paired /= _SQRT2
        np.multiply(paired[:, ::-1], np.where(self._odd, -1.0, 1.0)[:, None], out=vecs[:, n // 2 + 1:])
        self._halves = None
        return vecs.T

    @cached_property
    def zero_counts(self) -> list[int]:
        """Sign changes over one period of each eigenvector (:func:`count_sign_changes`)."""
        return [count_sign_changes(v) for v in self.eigenvectors.T]


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
    eigenvalues only, and the k smallest are kept.  Eigenvectors are
    computed only when first read (:class:`SLSpectrum`): until then the
    result holds the kept values and references to the mode's halves, no
    vector.
    """
    n = problem.n_grid
    if k < 1 or k > n // 4:
        raise ValueError(f"k must lie in [1, n_grid / 4 = {n // 4}]")
    shares = (k // 2 + 1, k // 2)
    sigma = _shift_below_ground(*problem.even)
    vals = np.concatenate([_shift_invert(d, e, sigma, m)
                           for (d, e), m in zip((problem.even, problem.odd), shares) if m])
    order = np.argsort(vals, kind="stable")[:k]  # the odd run's values follow the even run's
    return SLSpectrum(l=problem.l, eigenvalues=vals[order], n_grid=n,
                      _halves=(problem.even, problem.odd), _odd=order >= shares[0],
                      _sigma=sigma)


def _half_eigenvectors(d: np.ndarray, e: np.ndarray, values: np.ndarray,
                       sigma: float) -> np.ndarray:
    """Orthonormal eigenvectors of the tridiagonal ``(d, e)`` at its eigenvalues ``values``, as rows.

    One step of inverse iteration per value in the form of the MRRR
    algorithm (Dhillon and Parlett, *Linear Algebra Appl.* 387, 2004; LAPACK
    ``dlar1v``): the twisted factorization of ``L D L^T - (lambda - sigma) I``
    from the definite ``L D L^T = T - sigma I`` (``dpttrf``), and its null
    vector.  Its qd transforms are relatively stable, so a vector resolves
    the relative gaps of ``lambda - sigma``, as the Lanczos runs did; an LU
    of the indefinite T - lambda I resolves only gaps above about
    ``eps * max|d|``.  One QR then makes the vectors orthonormal.
    """
    n = d.size
    D, L, info = dpttrf(d - sigma, e)
    if info:
        raise SolverFailure(f"T - sigma I at sigma={sigma!r}, order {n}: not definite")
    LD = L * D[:-1]
    LLD = L * LD
    vecs = np.zeros((len(values), n))  # its transpose, Fortran-ordered, is the QR's input
    work, support = np.empty(4 * n), np.empty(2, dtype=np.intc)
    pivmin = ctypes.c_double(_TINY * max(1.0, float(np.max(e * e, initial=0.0))))
    size, first = ctypes.c_int(n), ctypes.c_int(1)  # the whole range 1 .. n
    gaptol = ctypes.c_double(0.0)  # keeps every entry of the vector
    wantnc, negcnt = ctypes.c_int(0), ctypes.c_int()
    shift, twist = ctypes.c_double(), ctypes.c_int()
    ztz, mingma, nrminv, resid, rqcorr = (ctypes.c_double() for _ in range(5))  # not read
    ref = ctypes.byref
    factors = [x.ctypes.data for x in (D, L, LD, LLD)]
    for row, value in zip(vecs, values):
        shift.value, twist.value = value - sigma, 0  # twist 0: dlar1v chooses it
        _DLAR1V(ref(size), ref(first), ref(size), ref(shift), *factors, ref(pivmin), ref(gaptol),
                row.ctypes.data, ref(wantnc), ref(negcnt), ref(ztz), ref(mingma), ref(twist),
                support.ctypes.data, ref(nrminv), ref(resid), ref(rqcorr), work.ctypes.data)
    qr, tau, *_ = dgeqrf(vecs.T, overwrite_a=1)
    return dorgqr(qr, tau, overwrite_a=1)[0].T


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
    from scipy.sparse.linalg import LinearOperator
    n = d.size
    *ldl, info = dpttrf(d - sigma, e)
    if info:
        raise SolverFailure(f"T - sigma I at sigma={sigma!r}, order {n}: not definite")
    return LinearOperator((n, n), matvec=lambda b: dpttrs(*ldl, b)[0], dtype=float)


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
# DLAR1V(N, B1, BN, LAMBDA, D, L, LD, LLD, PIVMIN, GAPTOL, Z, WANTNC, NEGCNT, ZTZ, MINGMA,
# R, ISUPPZ, NRMINV, RESID, RQCORR, WORK), every argument by reference
_DLAR1V = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 21)(_lapack_routine("dlar1v"))


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
    converges or moves, and each count lands in ``NAB(:, 2)``.
    """
    d = np.ascontiguousarray(d, dtype=float)
    e2 = np.square(e, dtype=float)
    if e2.shape != (d.size - 1,):
        raise ValueError(f"{d.size} diagonal entries need {d.size - 1} couplings")
    e2[np.abs(d[1:] * d[:-1]) * _EPS ** 2 + _TINY > e2] = 0.0  # dstebz's splitting
    pivmin = ctypes.c_double(_TINY * max(1.0, float(e2.max(initial=0.0))))
    m = len(shifts)
    # the real arrays AB (m x 2, column-major), C and WORK end to end, and so
    # the integer arrays NVAL, NAB (m x 2) and IWORK
    reals = np.full(4 * m, -_HUGE)
    reals[2 * m:3 * m] = [math.nextafter(sigma, -math.inf) for sigma in shifts]
    ints = np.full(4 * m, -1, dtype=np.intc)
    at, int_at, e2_at = reals.ctypes.data, ints.ctypes.data, e2.ctypes.data
    real_size, int_size = reals.itemsize * m, ints.itemsize * m
    args = [ctypes.c_int(v) for v in (3, 1, d.size, m, m, 1)]
    zero, mout, info = ctypes.c_double(0.0), ctypes.c_int(0), ctypes.c_int(0)
    ref = ctypes.byref
    _DLAEBZ(*map(ref, args), ref(zero), ref(zero), ref(pivmin),
            d.ctypes.data, e2_at, e2_at, int_at, at, at + 2 * real_size,  # E: not read
            ref(mout), int_at + int_size, at + 3 * real_size, int_at + 3 * int_size, ref(info))
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
    *_, x, info = dgtsv(e, d - rho, e, w)
    if info > 0:
        return rho, 0.0
    xx = np.sum(x * x)
    step = np.sum(x * w) / xx
    return rho + float(step), float(np.sqrt(np.sum((w - step * x) ** 2) / xx))


def count_below(torus: OtsukiTorus, threshold: float = 2.0, l_max: int = 3,
                n_grid: int = 2048) -> VerificationReport:
    """Count surface eigenvalues strictly below ``threshold`` and verify 2p - 1.

    For each mode l = 0 .. l_max the eigenvalues below ``threshold - band``
    are counted by Sturm counts and weighted 1 (l = 0) or 2 (l > 0).  The
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
    ``threshold - band``; modes l >= 2 also at ``threshold``, where no value
    may lie (the truncation check).  Each grid stops at its first mode
    l >= 2 with no value below ``threshold + band`` (doubled) or
    ``threshold`` (requested): mode l + 1 adds a positive diagonal to mode
    l, so by Weyl's inequality no later mode has one.  A mode's window, its
    values in ``[threshold - band, threshold + band)`` on the doubled grid,
    is reported by its indices and its ends: its anchors if it holds
    nothing else, else bisected for, as a shoulder's ends are.

    Raises
    ------
    ValueError
        If ``threshold`` is not 2, where the anchors that measure the band
        lie; if the doubled grid ``2 n_grid`` exceeds ``_MAX_GRID`` rows; or
        if ``n_grid`` is odd: all checked before anything is evaluated.
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
    grids, modes = [n_grid, 2 * n_grid], range(l_max + 1)
    for n in reversed(grids):  # both checked before anything is evaluated
        _check_grid(torus, n)
    points = _phase_points(torus, grids[1])
    # the requested grid is assembled once the doubled one is done, from every other point
    requested = _assemble_modes(torus, modes, n_grid, tuple(x[::2] for x in points))
    doubled = _assemble_modes(torus, modes, grids[1], points)
    # the modes one at a time: only l = 0 and l = 1 are held throughout
    l0, l1 = next(doubled), next(doubled)
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
    truncation_confirmed = True

    def count(problem: SLProblem, halves, shifts) -> list[np.ndarray]:
        # Sturm counts below threshold - band, shifts and (l >= 2, truncation check) threshold
        nonlocal truncation_confirmed
        check = [threshold] if problem.l >= 2 else []
        found = [_sturm_counts(d, e, [threshold - band, *extra, *check])
                 for (d, e), extra in zip(halves, shifts)]
        counts_by_grid[problem.n_grid] += (1 if problem.l == 0 else 2) * sum(int(c[0]) for c in found)
        if check and any(c[-1] for c in found):
            truncation_confirmed = False
        return found

    near: list[tuple[int, int, int, float, float]] = []
    shoulder: list[tuple[int, float]] = []
    for problem in chain((l0, l1), doubled):
        if problem.l >= 2 and not _sturm_counts(*_direct_sum(problem), [threshold + band])[0]:
            break  # no value below the window, nor in any later mode
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
        found = count(problem, [_direct_sum(problem)], [[]])
        if problem.l >= 2 and not found[0][-1]:
            break  # no value below the threshold, nor in any later mode
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

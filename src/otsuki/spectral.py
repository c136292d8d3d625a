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
uniform periodic grid, giving a cyclic tridiagonal symmetric matrix.
Eigenvalues are counted by Sylvester's law of inertia: the number below
sigma is the number of negative pivots of an unpivoted LDL^T factorization
of A - sigma I, exactly so in exact arithmetic (see :func:`_inertia` for
the floating-point caveat).  Shift-invert Lanczos iteration is used only
where eigenvalues or eigenvectors themselves are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh, splu

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
    """The sparse eigensolver failed, or an inertia factorization pivoted."""


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
    if l < 0:
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
    Q = (l * l) / sin_sq if l else np.zeros(n_grid)
    return SLProblem(l=l, period=t0, grid=grid, P=P, P_mid=P_mid, Q=Q, n_grid=n_grid)


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
                           ncv=min(n, max(2 * k + 1, 40)), maxiter=10000)
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
                     return_eigenvectors=False)
    except (ArpackNoConvergence, ArpackError) as exc:
        raise SolverFailure(f"eigensolver failed near sigma={sigma!r}, "
                            f"n_grid={n}: {exc}") from exc
    return np.sort(vals)


def _inertia(A: sp.csc_matrix, sigma: float) -> int:
    """Number of eigenvalues of the symmetric matrix A strictly below sigma.

    By Sylvester's law of inertia this is, in exact arithmetic, the number
    of negative pivots of an unpivoted LDL^T factorization of A - sigma I.
    The pivots are the diagonal of U from SuperLU run with natural ordering
    and diagonal pivoting forced; any row or column permutation would void
    the count, so it is an error, as is an exactly singular factor.

    For a tridiagonal matrix the computed count is backward stable (Kahan;
    LAPACK Users' Guide section 2.4.4).  That result does not cover the
    cyclic corner: it fills the last row, whose pivot is a Schur complement
    that can lose accuracy by cancellation when A - sigma I is indefinite.
    Its reliability here rests on the comparison with Lanczos counts in the
    test suite and on the grid-doubling check of :func:`count_below`.
    """
    n = A.shape[0]
    try:
        lu = splu(A - sigma * sp.identity(n, format="csc"),
                  permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:  # exactly singular: sigma is an eigenvalue
        raise SolverFailure(f"inertia at sigma={sigma!r}, n_grid={n}: {exc}") from exc
    identity = np.arange(n)
    if not (np.array_equal(lu.perm_r, identity) and np.array_equal(lu.perm_c, identity)):
        raise SolverFailure(f"inertia at sigma={sigma!r}, n_grid={n}: "
                            "the factorization pivoted")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


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
        problems = [assemble(torus, l, n) for l in range(l_max + 1)]
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

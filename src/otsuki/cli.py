"""Command-line front end.

Subcommands
-----------
solve     p q     turning value, momentum, period, area, functional value
table             the five benchmark tori against the built-in reference values
geodesic  p q     orbit-space geodesic as csv, json, or an svg polar plot
spectrum  p q     low Sturm-Liouville eigenvalues for one angular mode
verify    p q     eigenvalue count N(2) against the predicted index 2p - 1
mesh      p q     stereographic projection of the torus as a wavefront obj

Every subcommand takes --format, --out and --config.  Each other flag is
taken only by the subcommands that read it: geodesic --n-samples; spectrum
--n-grid, --l and --k; verify --n-grid; mesh --n-alpha and --n-t.  Every
flag but --config is also a key of the config file (underscores or
dashes); a flag overrides the file, which overrides the default.  One
file may serve every subcommand: each reads the keys of its own flags and
ignores the others, but an unknown key is refused.

Only spectrum and verify import the spectral module; the other
subcommands need numpy alone.  Only spectrum loads scipy, for ARPACK
(scipy.sparse.linalg) and its eigenvalues.  verify counts them by Sturm
sequences, with the LAPACK of the OpenBLAS that numpy's Linux wheels ship
(scipy's where numpy has none): a cold verify 2 3 takes about 0.16 s and
32 MB, as geodesic does, against 0.41 s and 58 MB with scipy's LAPACK
(2-vCPU x86-64 VM, numpy 2.4.6, scipy 1.17.1).
spectrum prints Richardson-extrapolated eigenvalues from grids n and 2n,
each half's j-th value with that half's j-th on the other grid, sorted,
and their zero counts: by the oscillation theorem, 2j for the j-th value
(from 0) of the mode's even half and 2j + 2 for that of its odd half,
which interlace: 2 ceil(i / 2) for the mode's i-th value.  verify counts
the modes l = 0 and l = 1, the only ones with values below 4, and prints
each mode's values at 2 as one index range and its two ends.

Exit codes: 0 success (and verification passed), 1 verification failed,
2 invalid input, an output file that cannot be written, or a computation
that failed (SolverFailure, ClosureFailure, NonConvergence: "computation
failed" on stderr), 3 ambiguous eigenvalue count (an eigenvalue in the
guard shoulder, or a guard band below the floating-point floor).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import pi
from typing import Iterable, Iterator

import numpy as np

from . import geometry

# Reference values for the five benchmark tori: rotation number, turning
# value, eigenvalue index, functional value (4 significant digits).
REFERENCE_ROWS = [
    (2, 3, 0.3379, 3, 79.91),
    (3, 5, 0.1273, 5, 127.7),
    (4, 7, 0.07526, 7, 177.2),
    (5, 8, 0.1874, 9, 206.7),
    (5, 9, 0.05220, 9, 227.1),
]

# Each subcommand's accepted formats, its default first; also the order of
# the subcommands in ``otsuki --help``.
_VALID_FORMATS = {
    "solve": ("text", "json"),
    "geodesic": ("csv", "json", "svg"),
    "verify": ("text", "json"),
    "table": ("text", "csv", "json"),
    "spectrum": ("text", "json", "csv"),
    "mesh": ("obj",),
}

_ALL = tuple(_VALID_FORMATS)

# Most vertices a mesh may have: at 64 x 16384 = 2**20 vertices a run
# reaches about 0.5 GB peak RSS and takes several seconds.
_MAX_MESH_VERTICES = 2 ** 20

# The one declaration of every option: name -> (type, default, help, the
# subcommands that take the flag --name and read the config key name).
_OPTIONS = {
    "format": (str, None, "output format (subcommand-dependent)", _ALL),
    "out": (str, None, "write output to this file", _ALL),
    "n_grid": (int, None, "spectral grid size, an even number of rows (default: 256 per "
                          "phase cycle, at least 2048, a power of two)", ("spectrum", "verify")),
    "n_samples": (int, None, "geodesic samples per period (default: resolution-aware)",
                  ("geodesic",)),
    "l": (int, 0, "angular mode", ("spectrum",)),
    "k": (int, 8, "number of eigenvalues", ("spectrum",)),
    "n_alpha": (int, 64, "vertices around the orbit direction", ("mesh",)),
    "n_t": (int, 256, "vertices along the geodesic", ("mesh",)),
}


def _read_config(path: str) -> dict:
    """Parse a simple key=value config file ('#' starts a comment)."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _OPTIONS[key][0](value.strip())
    return values


def _fmt(value: float) -> str:
    """Fixed 12-significant-digit rendering for machine-readable output."""
    return f"{value:.12g}"


def _json(record) -> str:
    """The record as indented json, every float (numpy arrays included) to 12 digits."""
    def rounded(value):
        if isinstance(value, dict):
            return {key: rounded(item) for key, item in value.items()}
        if isinstance(value, (list, tuple, np.ndarray)):
            return [rounded(item) for item in value]
        if isinstance(value, (float, np.floating)):
            return float(_fmt(value))
        return value
    return json.dumps(rounded(record), indent=2) + "\n"


def _csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """A header line and one line per row, comma separated, every float to 12 digits."""
    lines = [",".join(header)] + [
        ",".join([_fmt(v) if isinstance(v, float) else str(v) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# subcommand handlers: each returns its exit code and its output, a string
# or strings to be written one by one
# --------------------------------------------------------------------------

def cmd_solve(args: argparse.Namespace) -> tuple[int, str]:
    torus = geometry.build_torus(geometry.RotationNumber(args.p, args.q))
    profile = torus.profile
    record = {
        "p": args.p, "q": args.q,
        "a": profile.a,
        "c": profile.c,
        "t0": profile.t0,
        "area": torus.area,
        "lambda": torus.lambda_value,
        "eigenvalue_index": torus.eigenvalue_index,
    }
    if args.format == "json":
        return 0, _json(record)
    labels = ["turning value a", "momentum c", "period t0", "area",
              f"Lambda_{torus.eigenvalue_index}", "eigenvalue index"]
    values = [_fmt(profile.a), _fmt(profile.c), _fmt(profile.t0),
              _fmt(torus.area), _fmt(torus.lambda_value),
              str(torus.eigenvalue_index)]
    lines = [f"Otsuki torus O_{args.p}/{args.q}"] + [
        f"  {label:<18s} = {value}" for label, value in zip(labels, values)]
    return 0, "\n".join(lines) + "\n"


def cmd_table(args: argparse.Namespace) -> tuple[int, str]:
    rows = []
    for p, q, a_ref, index, lam_ref in REFERENCE_ROWS:
        torus = geometry.build_torus(geometry.RotationNumber(p, q))
        rows.append({
            "p": p, "q": q,
            "a": torus.profile.a,
            "a_reference": a_ref,
            "a_delta": torus.profile.a - a_ref,
            "eigenvalue_index": index,
            "lambda": torus.lambda_value,
            "lambda_reference": lam_ref,
            "lambda_delta": torus.lambda_value - lam_ref,
        })
    if args.format == "json":
        return 0, _json({"rows": rows})
    if args.format == "csv":
        return 0, _csv(rows[0], (r.values() for r in rows))
    lines = ["p/q    a        2p-1  Lambda   delta_a    delta_Lambda"]
    for r in rows:
        lines.append(f"{r['p']}/{r['q']:<4d} {r['a']:<8.4g} {r['eigenvalue_index']:<5d} "
                     f"{r['lambda']:<8.4g} {r['a_delta']:<+10.2e} {r['lambda_delta']:<+.2e}")
    return 0, "\n".join(lines) + "\n"


def _geodesic_svg(profile: geometry.GeodesicProfile) -> str:
    """Polar plot of the geodesic: radius phi, angle theta, turning circles."""
    stride = max(1, profile.n_samples // 2048)
    phi = profile.phi[::stride]
    theta = profile.theta[::stride]
    x = phi * np.cos(theta)
    y = -phi * np.sin(theta)  # svg y axis points down
    points = " L ".join(f"{xi:.6f},{yi:.6f}" for xi, yi in zip(x, y))
    half = pi / 2
    r_inner = profile.a
    r_outer = pi / 2 - profile.a
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{-half:.10f} {-half:.10f} {2 * half:.10f} {2 * half:.10f}">\n'
        f'  <circle cx="0" cy="0" r="{r_inner:.6f}" fill="none" '
        f'stroke="#999999" stroke-width="0.006"/>\n'
        f'  <circle cx="0" cy="0" r="{r_outer:.6f}" fill="none" '
        f'stroke="#999999" stroke-width="0.006"/>\n'
        f'  <path d="M {points}" fill="none" stroke="#1f3f9f" stroke-width="0.01"/>\n'
        f'</svg>\n')


def cmd_geodesic(args: argparse.Namespace) -> tuple[int, str]:
    torus = geometry.build_torus(geometry.RotationNumber(args.p, args.q), args.n_samples)
    profile = torus.profile
    n = profile.n_samples
    if args.format == "svg":
        return 0, _geodesic_svg(profile)
    # one period without its closing sample, as Python floats: formatting
    # them takes half the time of indexing numpy scalars one at a time
    t, phi, theta = (column[:n].tolist() for column in (profile.t, profile.phi, profile.theta))
    if args.format == "json":
        payload = {
            "p": args.p, "q": args.q,
            "a": profile.a,
            "t0": profile.t0,
            "n_samples": n,
            "t": t,
            "phi": phi,
            "theta": theta,
        }
        return 0, _json(payload)
    return 0, _csv(("t", "phi", "theta"), zip(t, phi, theta))


def _cluster_ids(values: np.ndarray, tol: float = 1e-5) -> list[int]:
    """Group indices of numerically coincident eigenvalues."""
    ids = [0]
    for prev, cur in zip(values, values[1:]):
        ids.append(ids[-1] if abs(cur - prev) <= tol * max(1.0, abs(cur)) else ids[-1] + 1)
    return ids


def cmd_spectrum(args: argparse.Namespace) -> tuple[int, str]:
    from . import spectral
    torus = geometry.build_torus(geometry.RotationNumber(args.p, args.q))
    if args.n_grid is None:
        args.n_grid = spectral.resolving_grid(torus)
    # both grids assembled, then solved in reverse: a bad grid or k is refused before any solve
    problems = [spectral.assemble(torus, args.l, n) for n in (2 * args.n_grid, args.n_grid)]
    coarse = spectral.eigen_low(problems.pop(), args.k).halves
    fine = spectral.eigen_low(problems.pop(), args.k)
    # Richardson extrapolation of the second-order discretization, each
    # half's j-th value with that half's j-th on the other grid: both are of
    # the eigenvector with j sign changes, while a rank in the whole mode can
    # swap inside a near-degenerate even/odd pair
    lam = np.sort(np.concatenate([(4.0 * f - c) / 3.0 for f, c in zip(fine.halves, coarse)]))[:args.k]
    clusters = _cluster_ids(lam)
    record = {
        "p": args.p, "q": args.q, "l": args.l,
        "n_grid": args.n_grid,
        "eigenvalues": lam,
        "zero_counts": fine.zero_counts,
        "clusters": clusters,
    }
    if args.format == "json":
        return 0, _json(record)
    if args.format == "csv":
        return 0, _csv(("index", "eigenvalue", "zero_count", "cluster"),
                       zip(range(len(lam)), lam.tolist(), fine.zero_counts, clusters))
    lines = [f"mode l = {args.l}, grid {args.n_grid} (Richardson with {2 * args.n_grid})"]
    for i, v in enumerate(lam):
        lines.append(f"  lambda_{i}({args.l}) = {_fmt(v):<18s} "
                     f"zeros = {fine.zero_counts[i]:<3d} cluster = {clusters[i]}")
    return 0, "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    from . import spectral
    torus = geometry.build_torus(geometry.RotationNumber(args.p, args.q))
    if args.n_grid is None:
        args.n_grid = spectral.resolving_grid(torus)
    try:
        report = spectral.count_below(torus, threshold=2.0, n_grid=args.n_grid)
    except spectral.AmbiguousCount as exc:
        print(f"ambiguous eigenvalue count: {exc}", file=sys.stderr)
        return 3, ""
    record = {
        "p": args.p, "q": args.q,
        "claimed": report.claimed,
        "n2": report.n2,
        "verdict": "pass" if report.verdict else "fail",
        "tolerance_band": report.tolerance_band,
        "grids": report.grids_used,
        "counts_by_grid": {str(n): c for n, c in report.counts_by_grid.items()},
        "eigenvalues_near_threshold": [
            {"l": l, "first": first, "last": last, "lowest": lowest, "highest": highest}
            for l, first, last, lowest, highest in report.eigenvalues_near_2],
    }
    code = 0 if report.verdict else 1
    if args.format == "json":
        return code, _json(record)
    lines = [f"verification of O_{args.p}/{args.q}",
             f"  N(2) counted   = {report.n2}"
             f"   (grids {report.counts_by_grid})",
             f"  2p - 1 claimed = {report.claimed}",
             f"  tolerance band = {_fmt(report.tolerance_band)}",
             "  eigenvalues at the threshold:"]
    for l, first, last, lowest, highest in report.eigenvalues_near_2:
        lines.append(f"    lambda_{first}({l}) = {_fmt(lowest)}" if first == last else
                     f"    lambda_{first}..{last}({l}) in [{_fmt(lowest)}, {_fmt(highest)}]")
    lines.append(f"  verdict: {'PASS' if report.verdict else 'FAIL'}")
    return code, "\n".join(lines) + "\n"


def cmd_mesh(args: argparse.Namespace) -> tuple[int, Iterator[str]]:
    if args.n_alpha < 3 or args.n_t < 3:
        raise ValueError("mesh sizes must be at least 3 in each direction")
    if args.n_alpha * args.n_t > _MAX_MESH_VERTICES:
        raise ValueError(f"a mesh of {args.n_alpha * args.n_t} vertices exceeds the limit of "
                         f"{_MAX_MESH_VERTICES}")
    torus = geometry.build_torus(geometry.RotationNumber(args.p, args.q))
    alphas = np.arange(args.n_alpha) * (2.0 * pi / args.n_alpha)
    ts = np.arange(args.n_t) * (torus.t0 / args.n_t)
    points = geometry.embedding_grid(torus, alphas, ts)
    # |w| = cos(phi) |sin(theta)| <= cos(a) < 1: the pole is never reached
    projected = points[:, :, :3] / (1.0 - points[:, :, 3])[:, :, None]

    def blocks():
        """The obj text, one block per orbit circle: the header, the vertices, the faces."""
        yield (f"# torus {args.p}/{args.q}, stereographic projection from (0, 0, 0, 1)\n"
               f"# {args.n_alpha} x {args.n_t} vertices, quad faces\n")
        for row in projected:
            yield "".join(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}\n" for x, y, z in row)
        n_t = args.n_t
        for i in range(args.n_alpha):
            # 1-based index of vertex 0 of this circle and of the next one
            this, nxt = i * n_t + 1, (i + 1) % args.n_alpha * n_t + 1
            yield "".join(f"f {this + j} {nxt + j} {nxt + (j + 1) % n_t} "
                          f"{this + (j + 1) % n_t}\n" for j in range(n_t))

    return 0, blocks()


_HANDLERS = {
    "solve": cmd_solve, "table": cmd_table, "geodesic": cmd_geodesic,
    "spectrum": cmd_spectrum, "verify": cmd_verify, "mesh": cmd_mesh,
}


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------

def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otsuki",
        description="Minimal SO(2)-invariant tori in the 3-sphere: "
                    "construction, spectra, verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _VALID_FORMATS:
        s = sub.add_parser(name)
        if name != "table":
            s.add_argument("p", type=int)
            s.add_argument("q", type=int)
        for key, (kind, default, text, subcommands) in _OPTIONS.items():
            if name in subcommands:
                s.add_argument("--" + key.replace("_", "-"), type=kind, help=(
                    text if default is None else f"{text} (default {default})"))
        s.add_argument("--config", help="key=value config file")
    return parser


def _resolve_options(args: argparse.Namespace) -> None:
    """Fill every option of the subcommand a flag left unset: config file, then table default."""
    file_values = _read_config(args.config) if args.config else {}
    for key, (_, default, _, subcommands) in _OPTIONS.items():
        if args.subcommand in subcommands and getattr(args, key) is None:
            setattr(args, key, file_values.get(key, default))
    if args.format is None:
        args.format = _VALID_FORMATS[args.subcommand][0]


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        _resolve_options(args)
    except (OSError, ValueError) as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    if args.format not in _VALID_FORMATS[args.subcommand]:
        print(f"format {args.format!r} is not supported by "
              f"{args.subcommand!r} (choose from "
              f"{', '.join(_VALID_FORMATS[args.subcommand])})", file=sys.stderr)
        return 2
    try:
        code, text = _HANDLERS[args.subcommand](args)
        if text:
            chunks = (text,) if isinstance(text, str) else text
            if args.out:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.writelines(chunks)
            else:
                sys.stdout.writelines(chunks)
        return code
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # NonConvergence, ClosureFailure, SolverFailure, ...
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

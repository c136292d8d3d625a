"""Command-line front end.

Subcommands
-----------
solve     p q     turning value, momentum, period, area, functional value
table             the five benchmark tori against the built-in reference values
geodesic  p q     orbit-space geodesic as csv, json, or an svg polar plot
spectrum  p q     low Sturm-Liouville eigenvalues for one angular mode
verify    p q     eigenvalue count N(2) against the predicted index 2p - 1
mesh      p q     stereographic projection of the torus as a wavefront obj

Exit codes: 0 success (and verification passed), 1 verification failed,
2 invalid input, 3 ambiguous eigenvalue count.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from math import pi
from typing import Optional

import numpy as np

from . import geometry, spectral
from .numerics import QuadratureSpec, RootSpec

# Reference values for the five benchmark tori: rotation number, turning
# value, eigenvalue index, functional value (4 significant digits).
REFERENCE_ROWS = [
    (2, 3, 0.3379, 3, 79.91),
    (3, 5, 0.1273, 5, 127.7),
    (4, 7, 0.07526, 7, 177.2),
    (5, 8, 0.1874, 9, 206.7),
    (5, 9, 0.05220, 9, 227.1),
]

_VALID_FORMATS = {
    "solve": ("text", "json"),
    "table": ("text", "csv", "json"),
    "geodesic": ("csv", "json", "svg"),
    "spectrum": ("text", "json", "csv"),
    "verify": ("text", "json"),
    "mesh": ("obj",),
}

_DEFAULT_FORMATS = {
    "solve": "text", "table": "text", "geodesic": "csv",
    "spectrum": "text", "verify": "text", "mesh": "obj",
}


@dataclass
class RunConfig:
    """Fully resolved options for one invocation (flags > config file > defaults)."""

    subcommand: str
    p: Optional[int] = None
    q: Optional[int] = None
    format: Optional[str] = None
    out: Optional[str] = None
    n_grid: int = 2048
    n_samples: Optional[int] = None
    l_max: int = 3
    l: int = 0
    k: int = 8
    n_alpha: int = 64
    n_t: int = 256
    tol_quad: float = 1e-12
    tol_root: float = 1e-13

    def quad_spec(self) -> QuadratureSpec:
        return QuadratureSpec(target_rel_tol=self.tol_quad)

    def root_spec(self) -> RootSpec:
        return RootSpec(abs_tol_x=self.tol_root)


_CONFIG_KEYS = {
    "format": str, "out": str, "n_grid": int, "n_samples": int, "l_max": int,
    "l": int, "k": int, "n_alpha": int, "n_t": int, "tol_quad": float,
    "tol_root": float,
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
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _CONFIG_KEYS[key](value.strip())
    return values


def _fmt(value: float) -> str:
    """Fixed 12-significant-digit rendering for machine-readable output."""
    return f"{value:.12g}"


def _round12(value: float) -> float:
    return float(_fmt(value))


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_torus(cfg: RunConfig) -> geometry.OtsukiTorus:
    rotation = geometry.RotationNumber(cfg.p, cfg.q)
    return geometry.build_torus(rotation, n_samples=cfg.n_samples,
                                quad_spec=cfg.quad_spec(),
                                root_spec=cfg.root_spec())


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> int:
    torus = _build_torus(cfg)
    profile = torus.profile
    record = {
        "p": cfg.p, "q": cfg.q,
        "a": _round12(profile.a),
        "c": _round12(profile.c),
        "t0": _round12(profile.t0),
        "area": _round12(torus.area),
        "lambda": _round12(torus.lambda_value),
        "eigenvalue_index": torus.eigenvalue_index,
    }
    if cfg.format == "json":
        _emit(json.dumps(record, indent=2) + "\n", cfg.out)
    else:
        labels = ["turning value a", "momentum c", "period t0", "area",
                  f"Lambda_{torus.eigenvalue_index}", "eigenvalue index"]
        values = [_fmt(profile.a), _fmt(profile.c), _fmt(profile.t0),
                  _fmt(torus.area), _fmt(torus.lambda_value),
                  str(torus.eigenvalue_index)]
        lines = [f"Otsuki torus O_{cfg.p}/{cfg.q}"] + [
            f"  {label:<18s} = {value}" for label, value in zip(labels, values)]
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_table(cfg: RunConfig) -> int:
    rows = []
    for p, q, a_ref, index, lam_ref in REFERENCE_ROWS:
        sub = RunConfig(**{**cfg.__dict__, "p": p, "q": q})
        torus = _build_torus(sub)
        rows.append({
            "p": p, "q": q,
            "a": _round12(torus.profile.a),
            "a_reference": a_ref,
            "a_delta": _round12(torus.profile.a - a_ref),
            "eigenvalue_index": index,
            "lambda": _round12(torus.lambda_value),
            "lambda_reference": lam_ref,
            "lambda_delta": _round12(torus.lambda_value - lam_ref),
        })
    if cfg.format == "json":
        _emit(json.dumps({"rows": rows}, indent=2) + "\n", cfg.out)
    elif cfg.format == "csv":
        header = ("p,q,a,a_reference,a_delta,eigenvalue_index,"
                  "lambda,lambda_reference,lambda_delta")
        lines = [header] + [
            f"{r['p']},{r['q']},{_fmt(r['a'])},{_fmt(r['a_reference'])},"
            f"{_fmt(r['a_delta'])},{r['eigenvalue_index']},{_fmt(r['lambda'])},"
            f"{_fmt(r['lambda_reference'])},{_fmt(r['lambda_delta'])}"
            for r in rows]
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        lines = ["p/q    a        2p-1  Lambda   delta_a    delta_Lambda"]
        for r in rows:
            lines.append(f"{r['p']}/{r['q']:<4d} {r['a']:<8.4g} {r['eigenvalue_index']:<5d} "
                         f"{r['lambda']:<8.4g} {r['a_delta']:<+10.2e} {r['lambda_delta']:<+.2e}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


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


def cmd_geodesic(cfg: RunConfig) -> int:
    torus = _build_torus(cfg)
    profile = torus.profile
    n = profile.n_samples
    if cfg.format == "svg":
        _emit(_geodesic_svg(profile), cfg.out)
    elif cfg.format == "json":
        payload = {
            "p": cfg.p, "q": cfg.q,
            "a": _round12(profile.a),
            "t0": _round12(profile.t0),
            "n_samples": n,
            "t": [_round12(v) for v in profile.t[:n]],
            "phi": [_round12(v) for v in profile.phi[:n]],
            "theta": [_round12(v) for v in profile.theta[:n]],
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg.out)
    else:  # csv
        lines = ["t,phi,theta"] + [
            f"{_fmt(profile.t[i])},{_fmt(profile.phi[i])},{_fmt(profile.theta[i])}"
            for i in range(n)]
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _cluster_ids(values: np.ndarray, tol: float = 1e-5) -> list[int]:
    """Group indices of numerically coincident eigenvalues."""
    ids = [0]
    for prev, cur in zip(values, values[1:]):
        ids.append(ids[-1] if abs(cur - prev) <= tol * max(1.0, abs(cur)) else ids[-1] + 1)
    return ids


def cmd_spectrum(cfg: RunConfig) -> int:
    torus = _build_torus(cfg)
    coarse = spectral.eigen_low(spectral.assemble(torus, cfg.l, cfg.n_grid), cfg.k)
    fine = spectral.eigen_low(spectral.assemble(torus, cfg.l, 2 * cfg.n_grid), cfg.k)
    # Richardson extrapolation of the second-order discretization
    lam = (4.0 * fine.eigenvalues - coarse.eigenvalues) / 3.0
    clusters = _cluster_ids(lam)
    record = {
        "p": cfg.p, "q": cfg.q, "l": cfg.l,
        "n_grid": cfg.n_grid,
        "eigenvalues": [_round12(v) for v in lam],
        "zero_counts": fine.zero_counts,
        "clusters": clusters,
    }
    if cfg.format == "json":
        _emit(json.dumps(record, indent=2) + "\n", cfg.out)
    elif cfg.format == "csv":
        lines = ["index,eigenvalue,zero_count,cluster"] + [
            f"{i},{_fmt(lam[i])},{fine.zero_counts[i]},{clusters[i]}"
            for i in range(len(lam))]
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        lines = [f"mode l = {cfg.l}, grid {cfg.n_grid} (Richardson with {2 * cfg.n_grid})"]
        for i, v in enumerate(lam):
            lines.append(f"  lambda_{i}({cfg.l}) = {_fmt(v):<18s} "
                         f"zeros = {fine.zero_counts[i]:<3d} cluster = {clusters[i]}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    torus = _build_torus(cfg)
    try:
        report = spectral.count_below(torus, threshold=2.0, l_max=cfg.l_max,
                                      n_grid=cfg.n_grid)
    except spectral.AmbiguousCount as exc:
        print(f"ambiguous eigenvalue count: {exc}", file=sys.stderr)
        return 3
    record = {
        "p": cfg.p, "q": cfg.q,
        "claimed": report.claimed,
        "n2": report.n2,
        "verdict": "pass" if report.verdict else "fail",
        "tolerance_band": _round12(report.tolerance_band),
        "grids": report.grids_used,
        "counts_by_grid": {str(n): c for n, c in report.counts_by_grid.items()},
        "truncation_confirmed": report.truncation_confirmed,
        "eigenvalues_near_threshold": [
            {"l": l, "index": i, "value": _round12(v)}
            for l, i, v in report.eigenvalues_near_2],
    }
    if cfg.format == "json":
        _emit(json.dumps(record, indent=2) + "\n", cfg.out)
    else:
        lines = [f"verification of O_{cfg.p}/{cfg.q}",
                 f"  N(2) counted   = {report.n2}"
                 f"   (grids {report.counts_by_grid})",
                 f"  2p - 1 claimed = {report.claimed}",
                 f"  tolerance band = {_fmt(report.tolerance_band)}",
                 f"  higher modes confirmed above threshold: "
                 f"{report.truncation_confirmed}",
                 "  eigenvalues at the threshold:"]
        for l, i, v in report.eigenvalues_near_2:
            lines.append(f"    lambda_{i}({l}) = {_fmt(v)}")
        lines.append(f"  verdict: {'PASS' if report.verdict else 'FAIL'}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0 if report.verdict else 1


def cmd_mesh(cfg: RunConfig) -> int:
    if cfg.n_alpha < 3 or cfg.n_t < 3:
        print("mesh sizes must be at least 3 in each direction", file=sys.stderr)
        return 2
    torus = _build_torus(cfg)
    alphas = np.arange(cfg.n_alpha) * (2.0 * pi / cfg.n_alpha)
    ts = np.arange(cfg.n_t) * (torus.t0 / cfg.n_t)
    points = geometry.embedding_grid(torus, alphas, ts)
    w = points[:, :, 3]
    w_max = float(np.max(np.abs(w)))
    if w_max >= 1.0 - 1e-9:  # cannot happen: |w| = cos(phi) |sin(theta)| < cos(a)
        print(f"projection pole approached (max |w| = {w_max})", file=sys.stderr)
        return 2
    denom = 1.0 - w
    projected = points[:, :, :3] / denom[:, :, None]
    lines = [f"# torus {cfg.p}/{cfg.q}, stereographic projection from (0, 0, 0, 1)",
             f"# {cfg.n_alpha} x {cfg.n_t} vertices, quad faces"]
    for i in range(cfg.n_alpha):
        for j in range(cfg.n_t):
            x, y, z = projected[i, j]
            lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    for i in range(cfg.n_alpha):
        for j in range(cfg.n_t):
            i2 = (i + 1) % cfg.n_alpha
            j2 = (j + 1) % cfg.n_t
            a = i * cfg.n_t + j + 1
            b = i2 * cfg.n_t + j + 1
            c = i2 * cfg.n_t + j2 + 1
            d = i * cfg.n_t + j2 + 1
            lines.append(f"f {a} {b} {c} {d}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


_HANDLERS = {
    "solve": cmd_solve, "table": cmd_table, "geodesic": cmd_geodesic,
    "spectrum": cmd_spectrum, "verify": cmd_verify, "mesh": cmd_mesh,
}


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------

def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default=None,
                        help="output format (subcommand-dependent)")
    common.add_argument("--out", default=None, help="write output to this file")
    common.add_argument("--config", default=None, help="key=value config file")
    common.add_argument("--n-grid", type=int, default=None, dest="n_grid",
                        help="spectral grid size (default 2048)")
    common.add_argument("--n-samples", type=int, default=None, dest="n_samples",
                        help="geodesic samples per period (default: resolution-aware)")
    common.add_argument("--l-max", type=int, default=None, dest="l_max",
                        help="highest angular mode scanned by verify (default 3)")
    common.add_argument("--tol-quad", type=float, default=None, dest="tol_quad",
                        help="quadrature relative tolerance (default 1e-12)")
    common.add_argument("--tol-root", type=float, default=None, dest="tol_root",
                        help="root-finder absolute tolerance (default 1e-13)")

    parser = argparse.ArgumentParser(
        prog="otsuki",
        description="Minimal SO(2)-invariant tori in the 3-sphere: "
                    "construction, spectra, verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name in ("solve", "geodesic", "verify"):
        s = sub.add_parser(name, parents=[common])
        s.add_argument("p", type=int)
        s.add_argument("q", type=int)
    sub.add_parser("table", parents=[common])
    s = sub.add_parser("spectrum", parents=[common])
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--l", type=int, default=None, help="angular mode (default 0)")
    s.add_argument("--k", type=int, default=None,
                   help="number of eigenvalues (default 8)")
    s = sub.add_parser("mesh", parents=[common])
    s.add_argument("p", type=int)
    s.add_argument("q", type=int)
    s.add_argument("--n-alpha", type=int, default=None, dest="n_alpha",
                   help="vertices around the orbit direction (default 64)")
    s.add_argument("--n-t", type=int, default=None, dest="n_t",
                   help="vertices along the geodesic (default 256)")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    file_values = _read_config(args.config) if args.config else {}
    valid_names = {f.name for f in fields(RunConfig)}
    for key, value in file_values.items():
        if key in valid_names:
            setattr(cfg, key, value)
    for key in valid_names:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if cfg.format is None:
        cfg.format = _DEFAULT_FORMATS[cfg.subcommand]
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except (OSError, ValueError) as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return 2
    if cfg.format not in _VALID_FORMATS[cfg.subcommand]:
        print(f"format {cfg.format!r} is not supported by "
              f"{cfg.subcommand!r} (choose from "
              f"{', '.join(_VALID_FORMATS[cfg.subcommand])})", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[cfg.subcommand](cfg)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # NonConvergence, ClosureFailure, SolverFailure, ...
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

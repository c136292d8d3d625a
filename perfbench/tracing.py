"""Outside-in layer tracing for the otsuki benchmark.

The program has no spans of its own yet, so this module wraps the public
functions of ``otsuki.numerics``, ``otsuki.geometry``, ``otsuki.spectral``
and ``otsuki.cli`` from the outside, for the length of a ``with`` block.
Each wrapped call records a span (name, start, end, parent span, item id)
in memory; counters are kept at the same boundaries.  Nothing is written
until the run ends.

The wrappers only observe: every argument and result is passed through
unchanged, so a traced pass computes bit for bit what an untraced pass
computes.  Integrands handed to ``integrate_singular`` keep their arity,
because that function chooses its calling convention from the integrand's
signature.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Per-layer metrics reported by a traced run: name -> unit.  Names ending in
# ".s" are inclusive span time, ".self_s" span time minus child spans.
LAYER_METRICS = {
    "numerics.integrate_singular.s": "s",
    "numerics.integrate_singular.calls": "count",
    "numerics.integrate_singular.nodes": "count",
    "numerics.find_root_monotone.s": "s",
    "numerics.find_root_monotone.f_evals": "count",
    "numerics.integrate_ode.s": "s",
    "numerics.integrate_ode.steps": "count",
    "numerics.integrate_ode.rhs_evals": "count",
    "numerics.trajectory_eval.s": "s",
    "numerics.trajectory_eval.points": "count",
    "geometry.solve_turning_value.s": "s",
    "geometry.omega.calls": "count",
    "geometry.period.s": "s",
    "geometry.interpolant.s": "s",
    "geometry.trace_geodesic.self_s": "s",
    "geometry.samples": "count",
    "geometry.phi_at.s": "s",
    "geometry.phi_at.points": "count",
    "geometry.period_drift_max": "ratio",
    "spectral.assemble.s": "s",
    "spectral.assemble.rows": "count",
    "spectral.operator_matrix.s": "s",
    "spectral.count_below.self_s": "s",
    "spectral.eigen_low.s": "s",
    "spectral.eigen_low.calls": "count",
    "spectral.eigen_low.k_sum": "count",
    "spectral.eigenpairs.s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _takes_distances(f) -> bool:
    """Mirror of the arity rule ``integrate_singular`` applies to integrands."""
    try:
        sig = inspect.signature(f)
    except (TypeError, ValueError):
        return False
    positional = 0
    for p in sig.parameters.values():
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
            positional += 1
        elif p.kind == p.VAR_POSITIONAL:
            return True
    return positional >= 3


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index, item]
        self.counts: dict[str, float] = defaultdict(float)
        self.item = None
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._periods: dict[tuple[float, int], float] = {}

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            record = [name, perf_counter(), 0.0,
                      self._open[-1] if self._open else -1, self.item]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr, name, before=None, after=None):
        """Wrap ``owner.attr`` wherever the otsuki modules bind that object.

        An attribute the owner does not define is left alone; its metrics read 0.
        """
        if isinstance(owner, type):
            original = vars(owner).get(attr)
            targets = [owner]
        else:
            original = getattr(owner, attr, None)
            targets = [m for key, m in sys.modules.items()
                       if (key == "otsuki" or key.startswith("otsuki."))
                       and getattr(m, attr, None) is original]
        if original is None:
            return
        wrapped = self._wrap(name, original, before, after)
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapped)

    def _count(self, key, amount=1):
        self.counts[key] += amount

    # -- argument and result hooks ---------------------------------------

    @staticmethod
    def _swap_first(args, kwargs, key, make):
        """Replace the callable passed first (positionally or as ``key``)."""
        if args:
            return (make(args[0]),) + tuple(args[1:]), kwargs
        return args, {**kwargs, key: make(kwargs[key])}

    def _count_nodes(self, args, kwargs):
        counts = self.counts

        def make(f):
            if _takes_distances(f):
                def integrand(x, d_lo, d_hi):
                    counts["numerics.integrate_singular.nodes"] += np.size(x)
                    return f(x, d_lo, d_hi)
            else:
                def integrand(x):
                    counts["numerics.integrate_singular.nodes"] += np.size(x)
                    return f(x)
            return integrand
        return self._swap_first(args, kwargs, "f", make)

    def _count_root_evals(self, args, kwargs):
        counts = self.counts

        def make(f):
            def objective(x):
                counts["numerics.find_root_monotone.f_evals"] += 1
                return f(x)
            return objective
        return self._swap_first(args, kwargs, "f", make)

    def _count_rhs(self, args, kwargs):
        counts = self.counts

        def make(rhs):
            def counted_rhs(t, y):
                counts["numerics.integrate_ode.rhs_evals"] += 1
                return rhs(t, y)
            return counted_rhs
        return self._swap_first(args, kwargs, "rhs", make)

    def _record_period(self, args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        q = args[1] if len(args) > 1 else kwargs["q"]
        self._periods[(a, q)] = result

    def _record_drift(self, args, kwargs, torus):
        t0_quadrature = self._periods.get((torus.profile.a, torus.rotation.q))
        if t0_quadrature:
            drift = abs(torus.t0 - t0_quadrature) / t0_quadrature
            key = "geometry.period_drift_max"
            self.counts[key] = max(self.counts[key], drift)

    # -- installation ----------------------------------------------------

    def __enter__(self):
        from otsuki import cli, geometry, numerics, spectral

        p = self._patch
        p(numerics, "integrate_singular", "numerics.integrate_singular",
          before=self._count_nodes)
        p(numerics, "find_root_monotone", "numerics.find_root_monotone",
          before=self._count_root_evals)
        p(numerics, "integrate_ode", "numerics.integrate_ode",
          before=self._count_rhs,
          after=lambda a, k, r: self._count("numerics.integrate_ode.steps",
                                            getattr(r, "n_steps", 0)))
        if hasattr(numerics, "Trajectory"):
            p(numerics.Trajectory, "__call__", "numerics.trajectory_eval",
              after=lambda a, k, r: self._count("numerics.trajectory_eval.points",
                                                np.size(a[1])))
        p(geometry, "solve_turning_value", "geometry.solve_turning_value")
        p(geometry, "omega", "geometry.omega")
        p(geometry, "period", "geometry.period", after=self._record_period)
        p(geometry, "trace_geodesic", "geometry.trace_geodesic",
          after=lambda a, k, r: self._count("geometry.samples", r.n_samples))
        p(geometry, "build_torus", "geometry.build_torus", after=self._record_drift)
        p(geometry.GeodesicProfile, "__post_init__", "geometry.interpolant")
        p(geometry.GeodesicProfile, "phi_at", "geometry.phi_at",
          after=lambda a, k, r: self._count("geometry.phi_at.points", np.size(a[1])))
        p(spectral, "assemble", "spectral.assemble",
          after=lambda a, k, r: self._count("spectral.assemble.rows", r.n_grid))
        p(spectral, "operator_matrix", "spectral.operator_matrix")
        p(spectral, "count_below", "spectral.count_below")
        p(spectral, "eigen_low", "spectral.eigen_low",
          after=lambda a, k, r: self._count("spectral.eigen_low.k_sum",
                                            a[1] if len(a) > 1 else k["k"]))
        p(cli, "main", "cli.main")
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        return False

    # -- reduction -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals from the recorded spans and counters."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start

        def ancestors(i):
            parent = self.spans[i][3]
            while parent >= 0:
                yield self.spans[parent][0]
                parent = self.spans[parent][3]

        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        eigenpairs = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            duration = end - start
            calls[name] += 1
            self_time[name] += duration - child_time[i]
            outer = list(ancestors(i))
            if name not in outer:
                total[name] += duration
            if name == "spectral.eigen_low" and "spectral.count_below" not in outer:
                eigenpairs += duration

        out = {}
        for metric in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = total[layer]
            elif kind == "self_s":
                out[metric] = self_time[layer]
            elif kind == "calls":
                out[metric] = float(calls[layer])
            else:
                out[metric] = float(self.counts.get(metric, 0.0))
        out["spectral.eigenpairs.s"] = eigenpairs
        out["trace.spans"] = float(n)
        return out

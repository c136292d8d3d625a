"""Benchmark of the otsuki pipeline: closure solve, geodesic trace, eigenvalue count.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper5 --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of that checkout.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` makes one untraced and one
traced pass and reports the per-layer metrics (see ``tracing.py``).  Every
output is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See ``README.md``
for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from math import gcd, pi
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
    "band_max": "1",
}

PROBES = 3                 # cold start-ups timed per run; setup_s takes their median
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CLI_TIMEOUT_S = 120

PAPER_LABELS = [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)]

# Today's resolving_grid values, fixed here so a change to resolving_grid
# cannot change the load of spectral_fine.
FINE_GRIDS = {(2, 3): 2048, (3, 5): 4096, (4, 7): 16384, (5, 8): 4096, (5, 9): 65536}

# |lambda_0(l = 0)|: the constant is in the kernel of the discrete operator,
# so the computed ground eigenvalue is zero up to solver round-off.
GROUND_ZERO_TOL = 1e-8


@functools.cache
def reference() -> dict:
    """Recorded seed results and the paper table (written by record_reference.py)."""
    return json.loads((HERE / "reference.json").read_text())


def label_key(label) -> str:
    return f"{label[0]}/{label[1]}"


def rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


def check_torus_values(label, a, lam, lam_key="lambda") -> list[str]:
    """North-star bounds against the recorded seed values, and the paper table."""
    seed = reference()["labels"][label_key(label)]
    paper = reference()["paper"][label_key(label)]
    problems = []
    if not rel(a, seed["a"]) <= 1e-12:
        problems.append(f"a = {a!r} vs recorded {seed['a']!r}")
    if not rel(lam, seed[lam_key]) <= 1e-9:
        problems.append(f"Lambda = {lam!r} vs recorded {seed[lam_key]!r}")
    if not abs(a - paper["a"]) <= 5e-4:
        problems.append(f"a = {a!r} vs paper {paper['a']}")
    if not rel(lam, paper["lambda"]) <= 1e-3:
        problems.append(f"Lambda = {lam!r} vs paper {paper['lambda']}")
    return problems


def check_count(label, n2, verdict) -> list[str]:
    problems = []
    if n2 != 2 * label[0] - 1:
        problems.append(f"n2 = {n2}, expected {2 * label[0] - 1}")
    if not verdict:
        problems.append("verdict false")
    return problems


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def require_source():
    if not (SRC / "otsuki" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'otsuki'}; "
                 "run from the root of an otsuki checkout")


def import_program():
    """Import otsuki from this checkout's src/, and nowhere else."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import otsuki
    if Path(otsuki.__file__).resolve().parent != (SRC / "otsuki").resolve():
        sys.exit(f"perfbench: imported otsuki from {otsuki.__file__}, not {SRC}")


def warm_up():
    """Import the library and fill its lazy first-call state on a tiny torus."""
    import_program()
    from otsuki import geometry, spectral
    torus = geometry.build_torus(geometry.RotationNumber(2, 3), n_samples=64)
    spectral.eigen_low(spectral.assemble(torus, 0, 128), 4)


def probe_main(kind: str) -> None:
    """Child side of a start-up probe: get ready, say so, exit."""
    if kind == "cli":
        import_program()
        import otsuki.cli  # noqa: F401
    else:
        warm_up()
    print("ready", flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def time_probe(kind: str) -> float:
    """Seconds from starting a fresh interpreter to its 'ready' line."""
    started = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--probe", kind],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=child_env()) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: start-up probe {kind!r} failed (exit {code})")
    return elapsed


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    """Items run one at a time by a single caller (closed loop)."""

    name = ""
    probe = "library"
    bit_keys = ("a", "lambda", "n2", "band")

    def prepare(self) -> None:
        """Workload-specific set-up after warm-up; counted in setup_s."""

    def items(self) -> list:
        raise NotImplementedError

    def run(self, item, in_process: bool) -> dict:
        raise NotImplementedError

    def check(self, item, result) -> list[str]:
        return []

    def run_checks(self, results: dict) -> dict:
        """Checks over a whole pass, outside the timed phase: item -> problems."""
        return {}

    def band_max(self, results: dict) -> float:
        return max(r["band"] for r in results.values())


class Paper5(Workload):
    """The paper's table plus its verification, the default user path."""

    name = "paper5"

    def items(self):
        return list(PAPER_LABELS)

    def run(self, item, in_process):
        from otsuki import geometry, spectral
        torus = geometry.build_torus(geometry.RotationNumber(*item))
        report = spectral.count_below(torus, 2.0, l_max=3, n_grid=2048)
        return {"a": torus.profile.a, "lambda": torus.lambda_value,
                "n2": report.n2, "band": report.tolerance_band,
                "verdict": report.verdict}

    def check(self, item, r):
        return (check_torus_values(item, r["a"], r["lambda"])
                + check_count(item, r["n2"], r["verdict"]))


class SpectralFine(Workload):
    """Counting at each torus's resolving grid, plus the eigenpair path."""

    name = "spectral_fine"

    def prepare(self):
        from otsuki import geometry
        self.tori = {label: geometry.build_torus(geometry.RotationNumber(*label))
                     for label in PAPER_LABELS}
        self.setup_problems = {
            label: check_torus_values(label, t.profile.a, t.lambda_value)
            for label, t in self.tori.items()}

    def items(self):
        return list(PAPER_LABELS)

    def run(self, item, in_process):
        from otsuki import spectral
        torus = self.tori[item]
        n = FINE_GRIDS[item]
        report = spectral.count_below(torus, 2.0, l_max=3, n_grid=n)
        ground = {(l, m): spectral.eigen_low(spectral.assemble(torus, l, m), 8).eigenvalues
                  for l in (0, 1) for m in (n, 2 * n)}
        return {"a": torus.profile.a, "lambda": torus.lambda_value,
                "n2": report.n2, "band": report.tolerance_band,
                "verdict": report.verdict, "eigenvalues": ground}

    def check(self, item, r):
        problems = list(self.setup_problems[item])
        problems += check_count(item, r["n2"], r["verdict"])
        for (l, m), vals in r["eigenvalues"].items():
            if len(vals) != 8 or any(b < a for a, b in zip(vals, vals[1:])):
                problems.append(f"l={l} n={m}: eigenvalues not 8 ascending")
            elif l == 0 and not abs(vals[0]) <= GROUND_ZERO_TOL:
                problems.append(f"l=0 n={m}: ground {vals[0]!r} is not about 0")
            elif l == 1 and not abs(vals[0] - 2.0) <= r["band"]:
                problems.append(f"l=1 n={m}: ground {vals[0]!r} farther than "
                                f"band {r['band']!r} from 2")
        return problems


def sweep_labels(q_max: int = 100) -> list[tuple[int, int]]:
    """Every label p/q in lowest terms with 1/2 < p/q < sqrt(2)/2 and q <= q_max."""
    return [(p, q) for q in range(2, q_max + 1) for p in range(1, q)
            if gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]


class ClosureSweep(Workload):
    """Closure solve and quadrature period for every label with q <= 100."""

    name = "closure_sweep"
    bit_keys = ("a", "lambda")

    def items(self):
        return sweep_labels()

    def run(self, item, in_process):
        from otsuki import geometry
        a = geometry.solve_turning_value(geometry.RotationNumber(*item))
        return {"a": a, "lambda": 2.0 * geometry.period(a, item[1])}

    def check(self, item, r):
        if not 0.0 < r["a"] < pi / 4:
            return [f"a = {r['a']!r} outside (0, pi/4)"]
        if item in FINE_GRIDS:
            return check_torus_values(item, r["a"], r["lambda"], "lambda_quadrature")
        return []

    def run_checks(self, results):
        ordered = sorted(results, key=lambda label: label[0] / label[1])
        return {hi: [f"a({label_key(hi)}) = {results[hi]['a']!r} does not exceed "
                     f"a({label_key(lo)}) = {results[lo]['a']!r}"]
                for lo, hi in zip(ordered, ordered[1:])
                if not results[hi]["a"] > results[lo]["a"]}

    def band_max(self, results):
        # Nothing is counted here; the accuracy reading is the largest
        # relative closure residual |omega(a) - (p/q) pi| / ((p/q) pi).
        from otsuki import geometry
        return max(rel(geometry.omega(r["a"]), pi * p / q)
                   for (p, q), r in results.items())


CLI_COMMANDS = {
    "verify": ["verify", "2", "3", "--format", "json"],
    "spectrum": ["spectrum", "2", "3", "--l", "0", "--k", "8", "--format", "json"],
    "geodesic": ["geodesic", "2", "3", "--format", "csv"],
}


class CliCold(Workload):
    """Each command in a fresh interpreter, as a shell user runs it."""

    name = "cli_cold"
    probe = "cli"
    bit_keys = ("stdout",)

    def items(self):
        return list(CLI_COMMANDS)

    def run(self, item, in_process):
        argv = CLI_COMMANDS[item]
        if in_process:
            from otsuki import cli
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            return {"code": code, "stdout": out.getvalue()}
        done = subprocess.run([sys.executable, "-m", "otsuki.cli", *argv],
                              capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=CLI_TIMEOUT_S)
        return {"code": done.returncode, "stdout": done.stdout}

    def check(self, item, r):
        if r["code"] != 0:
            return [f"exit code {r['code']}"]
        text = r["stdout"]
        if item == "verify":
            record = json.loads(text)
            if record["verdict"] != "pass" or record["n2"] != 3:
                return [f"verdict {record['verdict']!r}, n2 = {record['n2']}"]
        elif item == "spectrum":
            vals = json.loads(text)["eigenvalues"]
            if len(vals) != 8 or any(b < a for a, b in zip(vals, vals[1:])):
                return [f"eigenvalues not 8 ascending: {vals}"]
        else:
            lines = text.splitlines()
            if lines[0] != "t,phi,theta" or len(lines) != 4097:
                return [f"csv has header {lines[0]!r} and {len(lines) - 1} rows"]
        return []

    def band_max(self, results):
        return json.loads(results["verify"]["stdout"])["tolerance_band"]


WORKLOADS = {w.name: w for w in (Paper5, SpectralFine, ClosureSweep, CliCold)}


# --------------------------------------------------------------------------
# passes and metrics
# --------------------------------------------------------------------------

def run_pass(workload, items, in_process, tracer=None):
    """One closed-loop pass; checks run after the pass clock stops."""
    latencies, results, errors = [], {}, {}
    started = perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = label_key(item) if isinstance(item, tuple) else item
        t = perf_counter()
        try:
            results[item] = workload.run(item, in_process)
        except Exception as exc:  # a failed item is counted, not fatal
            errors[item] = [f"{type(exc).__name__}: {exc}"]
        latencies.append(perf_counter() - t)
    wall = perf_counter() - started
    for item, result in results.items():
        try:
            problems = workload.check(item, result)
        except (KeyError, ValueError, IndexError) as exc:
            problems = [f"unreadable output: {exc}"]
        if problems:
            errors[item] = problems
    ok = {item: r for item, r in results.items() if item not in errors}
    for item, problems in workload.run_checks(ok).items():
        errors.setdefault(item, []).extend(problems)
    return {"wall": wall, "order": list(items), "latencies": latencies,
            "results": results, "errors": errors}


def tail(passes):
    """Tail of the per-item latency, each item taken as its median over the passes.

    Returns the highest ladder percentile with at least ten items beyond it
    (else the maximum), the percentile and the item count.  Taking each
    item's median first keeps a host hiccup during one pass out of the tail
    of millisecond items, so the tail reflects which items are slow.
    """
    by_item = defaultdict(list)
    for p in passes:
        for item, latency in zip(p["order"], p["latencies"]):
            by_item[item].append(latency)
    ordered = sorted(statistics.median(v) for v in by_item.values())
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct, n
    return ordered[-1], 100.0, n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_loc": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def report(lines, payload):
    for line in lines:
        print(line)
    print(json.dumps(payload))


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics."""
    probes = [time_probe(workload.probe) for _ in range(PROBES)]
    if workload.probe == "library":
        warm_up()
    t = perf_counter()
    workload.prepare()
    setup = statistics.median(probes) + perf_counter() - t

    rng = random.Random(seed)
    base = workload.items()
    passes = []
    clock = perf_counter()
    # Start another pass only if it should end within the measuring time.
    while not passes or (perf_counter() - clock
                         + statistics.mean(p["wall"] for p in passes)) <= seconds:
        order = rng.sample(base, len(base))
        passes.append(run_pass(workload, order, in_process=False))

    latencies = [x for p in passes for x in p["latencies"]]
    attempted = len(latencies)
    failed = sum(len(p["errors"]) for p in passes)
    first = passes[0]["results"]
    for p in passes[1:]:
        for item, r in p["results"].items():
            if item in first and item not in p["errors"] and any(
                    r.get(k) != first[item].get(k) for k in workload.bit_keys):
                p["errors"][item] = ["result differs from the run's first pass"]
                failed += 1
    ok = {i: r for i, r in first.items() if i not in passes[0]["errors"]}
    try:
        band = workload.band_max(ok)
    except (KeyError, ValueError):  # the items it reads failed
        band = 0.0
    tail_value, tail_pct, tail_n = tail(passes)
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(p["wall"] for p in passes),
        "item_p50_s": statistics.median(latencies),
        "item_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb(children=workload.probe == "cli"),
        "band_max": band,
    }
    lines = [f"workload {workload.name}  seed {seed}  passes {len(passes)}  "
             f"items {attempted}  trace 0"]
    lines += [f"  {k:<12} = {v:.6g} {END_TO_END[k]}" for k, v in metrics.items()]
    lines.append(f"  item_tail_s is p{tail_pct:g} over {tail_n} items of each item's "
                 f"median latency in {len(passes)} passes")
    lines.append(f"  fail_ratio   = {failed / attempted:.6g} ({failed}/{attempted})")
    for p in passes:
        for item, problems in p["errors"].items():
            lines.append(f"  FAILED {item}: {'; '.join(problems)}")
    lines.append("env " + json.dumps(environment(), sort_keys=True))
    return lines, {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def measure_traced(workload, seed):
    """Traced run: one untraced and one traced pass; per-layer metrics."""
    from tracing import LAYER_METRICS, Tracer

    import_s = statistics.median(time_probe("cli") for _ in range(PROBES))
    warm_up()
    import otsuki.cli  # noqa: F401  (imported here, not inside a timed pass)
    workload.prepare()
    order = random.Random(seed).sample(workload.items(), len(workload.items()))
    plain = run_pass(workload, order, in_process=True)
    with Tracer() as tracer:
        traced = run_pass(workload, order, in_process=True, tracer=tracer)

    errors = dict(traced["errors"])
    for item, r in traced["results"].items():
        before = plain["results"].get(item)
        if before is None or any(r.get(k) != before.get(k) for k in workload.bit_keys):
            errors.setdefault(item, []).append("traced result differs from untraced")
    metrics = tracer.layer_metrics()
    metrics["cli.import_s"] = import_s
    metrics["cli.stdout_bytes"] = float(sum(
        len(r.get("stdout", "").encode()) for r in traced["results"].values()))
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]

    env = environment()
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans_file.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "env": env,
        "fields": ["name", "start", "end", "parent", "item"],
        "spans": tracer.spans, "metrics": metrics}))

    attempted = len(traced["latencies"])
    lines = [f"workload {workload.name}  seed {seed}  items {attempted}  trace 1",
             f"  untraced wall {plain['wall']:.6g} s, traced wall {traced['wall']:.6g} s",
             f"  spans written to {spans_file.relative_to(ROOT)}"]
    lines += [f"  {k:<38} = {v:.6g} {LAYER_METRICS[k]}" for k, v in metrics.items()]
    lines.append(f"  fail_ratio = {len(errors) / attempted:.6g} ({len(errors)}/{attempted})")
    for item, problems in errors.items():
        lines.append(f"  FAILED {item}: {'; '.join(problems)}")
    lines.append("env " + json.dumps(env, sort_keys=True))
    return lines, {
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("library", "cli"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe_main(args.probe)
        return
    if args.workload is None:
        parser.error("--workload is required")
    require_source()
    workload = WORKLOADS[args.workload]()
    if args.trace:
        report(*measure_traced(workload, args.seed))
    else:
        report(*measure(workload, args.seed, args.seconds))


if __name__ == "__main__":
    main()

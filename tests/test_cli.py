import argparse
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import otsuki
from otsuki import cli, geometry, spectral
from otsuki.cli import main

from conftest import count_interpolant_builds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_solves(monkeypatch, names=("eigen_low", "_sturm_counts", "_shift_invert")):
    """Names of the listed ``spectral`` functions in the order they are called.

    eigen_low, every Sturm count and every Lanczos run go through the defaults.
    """
    solved = []

    def recording(name):
        original = getattr(spectral, name)
        return lambda *args, **kwargs: solved.append(name) or original(*args, **kwargs)

    for name in names:
        monkeypatch.setattr(spectral, name, recording(name))
    return solved


class TestSolve:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "solve", "2", "3")
        assert code == 0
        assert "Lambda_3" in out
        assert "79.91" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "solve", "2", "3", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["eigenvalue_index"] == 3
        assert abs(record["lambda"] - 79.91) <= 0.1
        assert abs(record["a"] - 0.3379) <= 5e-4
        assert abs(record["lambda"] - 2.0 * record["t0"]) <= 1e-9

    def test_rejects_out_of_window(self, capsys):
        code, _, err = run(capsys, "solve", "3", "4")
        assert code == 2
        assert "sqrt(2)/2" in err

    def test_rejects_half(self, capsys):
        code, _, err = run(capsys, "solve", "1", "2")
        assert code == 2

    def test_rejects_unreduced(self, capsys):
        code, _, err = run(capsys, "solve", "4", "6")
        assert code == 2
        assert "lowest terms" in err


class TestTable:
    def test_all_rows_and_deltas(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("p,q,a,")
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(float(cells[4])) <= 5e-4    # a delta
            assert abs(float(cells[8])) <= 0.1     # lambda delta

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "json")
        rows = json.loads(out)["rows"]
        assert [(r["p"], r["q"]) for r in rows] == [(2, 3), (3, 5), (4, 7), (5, 8), (5, 9)]
        assert [r["eigenvalue_index"] for r in rows] == [3, 5, 7, 9, 9]


@pytest.mark.parametrize("argv", [["solve", "2", "3"], ["solve", "5", "9", "--format", "json"],
                                  ["table"], ["table", "--format", "csv"]])
def test_solve_and_table_build_no_interpolant(capsys, monkeypatch, argv):
    # their tori are built from the phase series alone; geodesic builds one interpolant
    built = count_interpolant_builds(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    assert built == []
    assert run(capsys, "geodesic", "2", "3")[0] == 0
    assert built == [1]


class TestGeodesic:
    def test_csv_shape_and_initial_row(self, capsys):
        code, out, _ = run(capsys, "geodesic", "2", "3", "--n-samples", "4096")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,phi,theta"
        assert len(lines) == 1 + 4096
        t0, phi0, theta0 = lines[1].split(",")
        assert float(t0) == 0.0
        assert abs(float(phi0) - 0.3379) <= 5e-4
        assert float(theta0) == 0.0

    def test_json(self, capsys):
        code, out, _ = run(capsys, "geodesic", "2", "3", "--format", "json",
                           "--n-samples", "4096")
        record = json.loads(out)
        assert record["n_samples"] == 4096
        assert len(record["phi"]) == 4096
        assert abs(record["t0"] - 39.957) <= 0.01

    def test_svg(self, capsys, tmp_path):
        path = tmp_path / "curve.svg"
        code, _, _ = run(capsys, "geodesic", "2", "3", "--format", "svg",
                         "--out", str(path))
        assert code == 0
        svg = path.read_text()
        assert svg.count("<circle") == 2
        assert svg.count("<path") == 1
        a = 0.337871
        assert f'r="{a:.6f}"' in svg
        assert f'r="{math.pi / 2 - a:.6f}"' in svg
        assert 'viewBox="-1.5707963268' in svg

    @pytest.mark.parametrize("p, q", [(48, 95), (50, 99)])
    def test_thin_torus_closes_at_explicit_samples(self, capsys, p, q):
        code, out, err = run(capsys, "geodesic", str(p), str(q), "--n-samples", "4096")
        assert code == 0, err
        assert len(out.strip().split("\n")) == 1 + 4096

    def test_samples_above_the_cap_exit_2(self, capsys):
        # refused at trace time: no sample is evaluated, so nothing is allocated
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "geodesic", "50", "99", "--n-samples", str(2 ** 22 + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert f"{2 ** 22 + 1} samples" in err
        assert peak < 2_000_000

    def test_unsupported_format(self, capsys):
        code, _, err = run(capsys, "geodesic", "2", "3", "--format", "obj")
        assert code == 2
        assert "not supported" in err

    def test_threefold_symmetry_of_curve(self, capsys):
        # q = 3 congruent segments: rotating theta by 2 pi p / q maps the
        # sampled curve onto itself
        code, out, _ = run(capsys, "geodesic", "2", "3", "--format", "json",
                           "--n-samples", "4098")
        record = json.loads(out)
        phi = np.array(record["phi"])
        theta = np.array(record["theta"])
        third = len(phi) // 3
        np.testing.assert_allclose(phi[third:], phi[:-third], atol=1e-6)
        np.testing.assert_allclose(theta[third:], theta[:-third] + 2 * math.pi * 2 / 3,
                                   atol=1e-6)


class TestSpectrum:
    def test_l1_ground_state(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2", "3", "--l", "1", "--k", "1",
                           "--format", "json", "--n-grid", "1024")
        record = json.loads(out)
        assert abs(record["eigenvalues"][0] - 2.0) <= 1e-4

    def test_l0_double_eigenvalue_at_2(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2", "3", "--l", "0", "--k", "6",
                           "--format", "json", "--n-grid", "1024")
        record = json.loads(out)
        vals = record["eigenvalues"]
        assert abs(vals[3] - 2.0) <= 1e-4
        assert abs(vals[4] - 2.0) <= 1e-4
        assert record["clusters"][3] == record["clusters"][4]
        assert record["zero_counts"][:5] == [0, 2, 2, 4, 4]

    def test_l0_kernel(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2", "3", "--l", "0", "--k", "1",
                           "--format", "json", "--n-grid", "1024")
        assert abs(json.loads(out)["eigenvalues"][0]) <= 1e-8

    def test_text_render(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2", "3", "--k", "3",
                           "--n-grid", "1024")
        assert code == 0
        assert "lambda_0(0)" in out

    def test_cluster_that_extrapolates_descending_prints_the_finer_grid(self, capsys):
        # the l = 1 cluster of 16/31 narrows faster than second order from
        # 2048 to 4096 rows, so the Richardson values would descend (by 2e-9)
        code, out, err = run(capsys, "spectrum", "16", "31", "--l", "1", "--k", "8",
                             "--n-grid", "2048", "--format", "json")
        assert code == 0
        assert "extrapolation dropped" in err
        record = json.loads(out)
        vals = record["eigenvalues"]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        torus = geometry.build_torus(geometry.RotationNumber(16, 31))
        fine = spectral.eigen_low(spectral.assemble(torus, 1, 4096), 8)
        assert vals == [float(cli._fmt(v)) for v in fine.eigenvalues]
        assert record["zero_counts"] == [0, 2, 2, 4, 4, 6, 6, 8]
        assert record["clusters"] == [0] * 8

    @pytest.mark.parametrize("argv", [("2", "3"), ("5", "9", "--l", "3"), ("9", "16", "--l", "1")],
                             ids=["2/3 l0", "5/9 l3", "9/16 l1"])
    def test_degenerate_pairs_extrapolate_ascending(self, capsys, argv):
        # each mode's values come in pairs equal but for rounding; a flip of
        # the pair's order by rounding is a tie, not a descent
        code, out, err = run(capsys, "spectrum", *argv, "--k", "8")
        assert code == 0
        assert "Richardson with" in out.splitlines()[0]
        assert "extrapolation dropped" not in err
        vals = [float(line.split("=")[1].split()[0]) for line in out.splitlines()[1:]]
        assert len(vals) == 8 and all(b >= a for a, b in zip(vals, vals[1:]))

    def test_tie_clamped_to_ascending(self, capsys, monkeypatch):
        # a Richardson pair descending by 1e-13, well inside the tie tolerance
        def fake_eigen_low(problem, k):
            fine = problem.n_grid == 4096
            vals = np.array([0.0, 0.5, 0.5 - (1e-13 if fine else 0.0), 1.0])
            return spectral.SLSpectrum(l=0, eigenvalues=vals, n_grid=problem.n_grid,
                                       _halves=None, _odd=np.zeros(4, dtype=bool), _sigma=-1.0)

        monkeypatch.setattr(spectral, "eigen_low", fake_eigen_low)
        monkeypatch.setattr(spectral.SLSpectrum, "zero_counts", [0, 2, 2, 4])
        code, out, err = run(capsys, "spectrum", "2", "3", "--k", "4", "--format", "json")
        assert code == 0 and err == ""
        vals = json.loads(out)["eigenvalues"]
        assert vals[1] == vals[2] and vals == sorted(vals)

    def test_default_grid_is_the_resolving_grid(self, capsys):
        code, out, _ = run(capsys, "spectrum", "5", "9", "--k", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["n_grid"] == 4096

    def test_doubled_grid_above_the_cap_refused_before_any_solve(self, capsys, monkeypatch):
        solved, eigen_low = [], spectral.eigen_low
        monkeypatch.setattr(spectral, "eigen_low",
                            lambda *args: solved.append(args) or eigen_low(*args))
        start = time.perf_counter()
        code, out, err = run(capsys, "spectrum", "2", "3", "--n-grid", "2097152")
        assert code == 2 and out == ""
        assert "a grid of 4194304 rows exceeds the limit" in err
        assert solved == []
        assert time.perf_counter() - start < 1.5

    @pytest.mark.parametrize("argv", [("spectrum", "2", "3", "--n-grid", "1025"),
                                      ("verify", "2", "3", "--n-grid", "2049")],
                             ids=["spectrum", "verify"])
    def test_odd_grid_refused_before_any_solve(self, capsys, monkeypatch, argv):
        solved = record_solves(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("invalid input: n_grid must be even")
        assert solved == []

    def test_k_above_the_requested_grid_refused_before_any_solve(self, capsys, monkeypatch):
        # 513 rows fit the doubled grid's limit of 1024 but not the requested one's
        solved = record_solves(monkeypatch, ("_sturm_counts", "_shift_invert"))
        start = time.perf_counter()
        code, out, err = run(capsys, "spectrum", "2", "3", "--k", "513", "--n-grid", "2048")
        assert code == 2 and out == ""
        assert "k must lie in [1, n_grid / 4 = 512]" in err
        assert solved == []
        assert time.perf_counter() - start < 1.5


class TestVerify:
    def test_2_3_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "2", "3", "--n-grid", "1024")
        assert code == 0
        assert "N(2) counted   = 3" in out
        assert "PASS" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "verify", "2", "3", "--format", "json",
                           "--n-grid", "1024")
        assert code == 0
        record = json.loads(out)
        assert record["n2"] == 3
        assert record["claimed"] == 3
        assert record["verdict"] == "pass"
        assert record["grids"] == [1024, 2048]
        assert record["counts_by_grid"] == {"1024": 3, "2048": 3}
        found = [(e["l"], e["first"], e["last"]) for e in record["eigenvalues_near_threshold"]]
        assert found == [(0, 3, 4), (1, 0, 0)]

    @pytest.mark.parametrize("p, q, grid", [(9, 16, 4096), (11, 20, 8192), (17, 33, 16384)])
    def test_thin_torus_passes_at_defaults(self, capsys, p, q, grid):
        code, out, err = run(capsys, "verify", str(p), str(q), "--format", "json")
        assert code == 0, err
        record = json.loads(out)
        assert record["n2"] == 2 * p - 1
        assert record["grids"] == [grid, 2 * grid]

    def test_below_the_floating_point_floor_exits_3(self, capsys):
        # at 262144 rows the anchors of 2/3 move by rounding alone: the band
        # is under eps * max|main|, where the doubled count read 3 and then 7
        code, out, err = run(capsys, "verify", "2", "3", "--n-grid", "131072")
        assert code == 3
        assert out == ""
        assert "floating-point floor" in err
        assert "refine" not in err


def _valid_labels(q_max):
    return [(p, q) for q in range(2, q_max + 1) for p in range(1, q)
            if math.gcd(p, q) == 1 and q < 2 * p and 2 * p * p < q * q]


@pytest.mark.slow
def test_every_label_up_to_q_100_verifies_at_defaults(capsys):
    # and reports the counts pinned in tests/data/verify_q100.json: n2, the
    # verdict, the counts by grid and the (l, index) of each value near 2
    pinned = json.loads((Path(__file__).parent / "data" / "verify_q100.json").read_text())
    labels = _valid_labels(100)
    assert len(labels) == 630
    failed, changed = [], []
    for p, q in labels:
        code, out, _ = run(capsys, "verify", str(p), str(q), "--format", "json")
        if code != 0:
            failed.append((p, q, code))
            continue
        record = json.loads(out)
        report = {key: record[key] for key in ("n2", "verdict", "counts_by_grid")}
        report["near"] = [[e["l"], index] for e in record["eigenvalues_near_threshold"]
                          for index in range(e["first"], e["last"] + 1)]
        if report != pinned[f"{p}/{q}"]:
            changed.append((p, q))
    assert failed == []
    assert changed == []


@pytest.mark.slow
def test_thin_labels_verify_at_defaults(capsys):
    # 70/139, 100/199 and 40 labels with 100 < q <= 200 drawn with a fixed seed
    drawn = random.Random(28).sample([pq for pq in _valid_labels(200) if pq[1] > 100], 40)
    failed = []
    for p, q in [(70, 139), (100, 199)] + drawn:
        code, out, _ = run(capsys, "verify", str(p), str(q), "--format", "json")
        if code != 0 or json.loads(out)["n2"] != 2 * p - 1:
            failed.append((p, q, code))
    assert failed == []


class TestMesh:
    def test_obj_structure(self, capsys, tmp_path):
        path = tmp_path / "torus.obj"
        code, _, _ = run(capsys, "mesh", "2", "3", "--n-alpha", "12", "--n-t", "48",
                         "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        vertices = [l for l in lines if l.startswith("v ")]
        faces = [l for l in lines if l.startswith("f ")]
        assert len(vertices) == 12 * 48
        assert len(faces) == 12 * 48
        for line in vertices:
            assert all(math.isfinite(float(w)) for w in line.split()[1:])
        for line in faces:
            indices = [int(w) for w in line.split()[1:]]
            assert len(indices) == 4
            assert all(1 <= i <= 12 * 48 for i in indices)

    def test_invalid_sizes(self, capsys):
        code, out, err = run(capsys, "mesh", "2", "3", "--n-alpha", "2")
        assert code == 2
        assert out == ""
        assert "invalid input: mesh sizes must be at least 3" in err

    def test_too_many_vertices_refused_before_the_torus_is_built(self, capsys, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("the torus was built")

        monkeypatch.setattr(cli.geometry, "build_torus", no_build)
        code, out, err = run(capsys, "mesh", "2", "3", "--n-alpha", "1024", "--n-t", "1025")
        assert code == 2
        assert out == ""
        assert f"{1024 * 1025} vertices exceeds the limit of {2 ** 20}" in err

    def test_written_block_by_block(self, capsys):
        # 16384 vertices, 1.2 MB of obj text: traced peak 1.6 MB written one
        # orbit circle at a time, 6.9 MB when every line was held
        tracemalloc.start()
        try:
            code = main(["mesh", "2", "3", "--n-alpha", "16", "--n-t", "1024",
                         "--out", os.devnull])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 3e6

    def test_deterministic_output(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
        run(capsys, "mesh", "2", "3", "--n-alpha", "8", "--n-t", "32", "--out", str(p1))
        run(capsys, "mesh", "2", "3", "--n-alpha", "8", "--n-t", "32", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestConfigPrecedence:
    def test_config_file_applies(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_grid = 1024  # coarse\n")
        code, out, _ = run(capsys, "spectrum", "2", "3", "--k", "1",
                           "--format", "json", "--config", str(cfg))
        assert json.loads(out)["n_grid"] == 1024

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_grid=1024\n")
        code, out, _ = run(capsys, "spectrum", "2", "3", "--k", "1",
                           "--format", "json", "--config", str(cfg),
                           "--n-grid", "2048")
        assert json.loads(out)["n_grid"] == 2048

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_gird=1024\n")
        code, _, err = run(capsys, "solve", "2", "3", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "solve", "2", "3", "--config", "/nonexistent.cfg")
        assert code == 2

    def test_key_of_another_subcommand_ignored(self, capsys, tmp_path):
        # n_samples is read by geodesic only: a count above the sample cap
        # refuses geodesic and leaves verify alone
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n_samples = {2 ** 22 + 1}\n")
        code, _, err = run(capsys, "geodesic", "2", "3", "--config", str(cfg))
        assert code == 2
        assert "samples" in err
        code, out, _ = run(capsys, "verify", "2", "3", "--config", str(cfg))
        assert code == 0
        assert "PASS" in out


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("argv", [
        ["solve", "2", "3", "--n-grid", "7"],
        ["table", "--l-max", "0"],
        ["spectrum", "2", "3", "--n-samples", "5000"],
        ["verify", "17", "33", "--n-samples", "5000"],
        ["solve", "2", "3", "--tol-quad", "1e-9"],
    ], ids=" ".join)
    def test_flag_the_subcommand_does_not_read_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


# A config value and a flag value for every option, each unlike its default.
_OPTION_VALUES = {
    "format": ("json", "text"), "out": ("a.txt", "b.txt"),
    "n_grid": ("1024", "4096"), "n_samples": ("5000", "6000"),
    "l_max": ("4", "5"), "l": ("1", "2"), "k": ("3", "4"),
    "n_alpha": ("10", "12"), "n_t": ("20", "24"),
}


class TestOptionTable:
    @pytest.fixture
    def seen(self, monkeypatch):
        """Replace every handler by one that records the resolved options."""
        seen = {}

        def record(args):
            seen.update(vars(args))
            return 0, ""

        for name in cli._HANDLERS:
            monkeypatch.setitem(cli._HANDLERS, name, record)
        return seen

    def test_values_cover_the_table(self):
        assert set(_OPTION_VALUES) == set(cli._OPTIONS)

    @pytest.mark.parametrize("key", sorted(cli._OPTIONS))
    def test_config_key_and_flag_override(self, key, seen, tmp_path):
        kind, default, _, subcommands = cli._OPTIONS[key]
        sub = subcommands[0]
        argv = [sub] + ([] if sub == "table" else ["2", "3"])
        from_file, from_flag = _OPTION_VALUES[key]
        cfg = tmp_path / "run.cfg"
        for spelling in (key, key.replace("_", "-")):
            cfg.write_text(f"{spelling} = {from_file}\n")
            assert main(argv + ["--config", str(cfg)]) == 0
            assert seen[key] == kind(from_file) != default
        flag = "--" + key.replace("_", "-")
        assert main(argv + ["--config", str(cfg), flag, from_flag]) == 0
        assert seen[key] == kind(from_flag)

    def test_defaults_without_flag_or_config(self, seen):
        # each subcommand resolves its own options and no others; an unset
        # n_grid is the torus's resolving grid, chosen by the handler
        expected = {
            "solve": {"format": "text", "out": None},
            "table": {"format": "text", "out": None},
            "geodesic": {"format": "csv", "out": None, "n_samples": None},
            "spectrum": {"format": "text", "out": None, "n_grid": None, "l": 0, "k": 8},
            "verify": {"format": "text", "out": None, "n_grid": None, "l_max": 3},
            "mesh": {"format": "obj", "out": None, "n_alpha": 64, "n_t": 256},
        }
        for name, options in expected.items():
            seen.clear()
            assert main([name] + ([] if name == "table" else ["2", "3"])) == 0
            assert {key: seen[key] for key in cli._OPTIONS if key in seen} == options, name

    def test_each_subcommand_keeps_its_flags_and_help(self):
        shared = {
            "--format": "output format (subcommand-dependent)",
            "--out": "write output to this file",
            "--config": "key=value config file",
        }
        n_grid = {"--n-grid": "spectral grid size, an even number of rows (default: 256 "
                              "per phase cycle, at least 2048, a power of two)"}
        extra = {
            "geodesic": {"--n-samples":
                         "geodesic samples per period (default: resolution-aware)"},
            "verify": {**n_grid,
                       "--l-max": "highest angular mode scanned by verify (default 3)"},
            "spectrum": {**n_grid, "--l": "angular mode (default 0)",
                         "--k": "number of eigenvalues (default 8)"},
            "mesh": {"--n-alpha": "vertices around the orbit direction (default 64)",
                     "--n-t": "vertices along the geodesic (default 256)"},
        }
        subparsers = next(action for action in cli._make_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert sorted(subparsers.choices) == sorted(
            ["solve", "table", "geodesic", "spectrum", "verify", "mesh"])
        for name, parser in subparsers.choices.items():
            flags = {action.option_strings[-1]: action.help for action in parser._actions
                     if action.option_strings and action.dest != "help"}
            assert flags == {**shared, **extra.get(name, {})}, name


class TestUnwritableOutput:
    def test_missing_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "2", "3",
                             "--out", str(tmp_path / "missing" / "x"))
        assert code == 2
        assert out == ""
        assert "cannot write output" in err

    def test_directory_as_output_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", "2", "3", "--out", str(tmp_path))
        assert code == 2
        assert "cannot write output" in err


class TestVerifyFailurePaths:
    def test_failed_verdict_exits_1(self, capsys, monkeypatch):
        import otsuki.spectral as spectral_module

        def fake(torus, threshold=2.0, l_max=3, n_grid=2048):
            return spectral_module.VerificationReport(
                n2=2, claimed=3,
                eigenvalues_near_2=[], tolerance_band=1e-5,
                grids_used=[n_grid, 2 * n_grid], verdict=False,
                counts_by_grid={n_grid: 2, 2 * n_grid: 2},
                truncation_confirmed=True)

        monkeypatch.setattr(spectral_module, "count_below", fake)
        code, out, _ = run(capsys, "verify", "2", "3", "--n-grid", "1024")
        assert code == 1
        assert "FAIL" in out

    def test_ambiguous_count_exits_3(self, capsys, monkeypatch):
        import otsuki.spectral as spectral_module

        def fake(torus, threshold=2.0, l_max=3, n_grid=2048):
            raise spectral_module.AmbiguousCount("synthetic shoulder value")

        monkeypatch.setattr(spectral_module, "count_below", fake)
        code, _, err = run(capsys, "verify", "2", "3", "--n-grid", "1024")
        assert code == 3
        assert "ambiguous" in err

    def test_ambiguous_count_writes_no_output_file(self, capsys, tmp_path):
        # at 2 x 65536 rows the guard band of 2/3 is below the rounding floor
        path = tmp_path / "verify.txt"
        code, out, err = run(capsys, "verify", "2", "3", "--n-grid", "65536",
                             "--out", str(path))
        assert code == 3
        assert out == ""
        assert "floating-point floor" in err
        assert not path.exists()

    def test_grid_above_the_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "2", "3", "--n-grid", "4194304")
        assert code == 2
        assert "8388608 rows" in err


class TestToleranceOverrides:
    def test_tolerance_config_key_rejected(self, capsys, tmp_path):
        # quadrature and root finder run at one fixed accuracy
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol_quad = 1e-9\n")
        code, _, err = run(capsys, "solve", "2", "3", "--config", str(cfg))
        assert code == 2
        assert "unknown key 'tol_quad'" in err

    def test_ode_tolerance_flag_rejected(self, capsys):
        # the geodesic is no longer integrated, so there is no ODE tolerance
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", "2", "3", "--tol-ode-rel", "1e-9"])
        assert exit_info.value.code == 2
        assert "--tol-ode-rel" in capsys.readouterr().err

    def test_ode_tolerance_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol_ode_abs = 1e-11\n")
        code, _, err = run(capsys, "solve", "2", "3", "--config", str(cfg))
        assert code == 2
        assert "unknown key 'tol_ode_abs'" in err


class TestColdStart:
    def test_import_leaves_out_heavy_scipy_modules(self):
        src = str(Path(otsuki.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = ("import sys, otsuki.cli; print(' '.join(sorted(m for m in sys.modules "
                 "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'interpolate'], "
                 "['scipy', 'optimize'], ['scipy', 'special']))))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ""

    def test_scipy_loaded_only_by_the_spectral_subcommands(self):
        # one fresh interpreter; verify and spectrum run last, as the only ones
        # that load scipy, and spectrum, as the only one that loads ARPACK
        commands = ["solve 2 3", "table", "geodesic 2 3",
                    "mesh 2 3 --n-alpha 8 --n-t 16", "verify 2 3", "spectrum 2 3"]
        src = str(Path(otsuki.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = ("import contextlib, io, sys\n"
                 "from otsuki.cli import main\n"
                 "for argv in sys.argv[1:]:\n"
                 "    with contextlib.redirect_stdout(io.StringIO()):\n"
                 "        code = main(argv.split())\n"
                 "    print(argv, code, 'scipy' in sys.modules, 'scipy.sparse.linalg' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", probe, *commands], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            f"{argv} 0 {argv.split()[0] in ('verify', 'spectrum')} {argv.startswith('spectrum')}"
            for argv in commands]

    def test_package_import_loads_no_module(self):
        src = str(Path(otsuki.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = "import sys, otsuki; print(sorted(m for m in sys.modules if m.startswith('otsuki')))"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "['otsuki']"

    def test_module_exports_resolve(self):
        for module in (geometry, spectral):
            star = {}
            exec(f"from {module.__name__} import *", star)
            for name in module.__all__:
                assert star[name] is getattr(module, name)

    def test_names_only_tests_read_are_gone(self):
        for name in ("embed", "AmbientPoint", "OutOfRange", "induced_metric_at"):
            assert not hasattr(geometry, name)
        assert not hasattr(geometry.OrbitMetric, "E_prime")
        assert not hasattr(geometry.OrbitMetric, "G_prime")
        assert not hasattr(geometry.RotationNumber(2, 3), "value")
        assert "rotation" not in {f.name for f in dataclasses.fields(spectral.VerificationReport)}


class TestDeterminism:
    def test_csv_byte_identical(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "geodesic", "2", "3", "--n-samples", "2048", "--out", str(p1))
        run(capsys, "geodesic", "2", "3", "--n-samples", "2048", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_verify_json_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "2", "3", "--format", "json",
                         "--n-grid", "1024")
        _, out2, _ = run(capsys, "verify", "2", "3", "--format", "json",
                         "--n-grid", "1024")
        assert out1 == out2

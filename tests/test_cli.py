import json
import math

import numpy as np

from otsuki.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        found = {(e["l"], e["index"]) for e in record["eigenvalues_near_threshold"]}
        assert {(0, 3), (0, 4), (1, 0)} <= found


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
        code, _, err = run(capsys, "mesh", "2", "3", "--n-alpha", "2")
        assert code == 2

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


class TestVerifyFailurePaths:
    def test_failed_verdict_exits_1(self, capsys, monkeypatch):
        import otsuki.spectral as spectral_module

        def fake(torus, threshold=2.0, l_max=3, n_grid=2048):
            return spectral_module.VerificationReport(
                rotation=torus.rotation, n2=2, claimed=3,
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

    def test_thin_torus_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "50", "99")
        assert code == 2
        assert "samples" in err


class TestToleranceOverrides:
    def test_loose_tolerances_still_solve(self, capsys):
        code, out, _ = run(capsys, "solve", "2", "3", "--format", "json",
                           "--tol-quad", "1e-9", "--tol-root", "1e-9",
                           "--tol-ode-rel", "1e-9", "--tol-ode-abs", "1e-11")
        assert code == 0
        assert abs(json.loads(out)["lambda"] - 79.91) <= 0.1


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

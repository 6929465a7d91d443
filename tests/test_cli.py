import json
import math

import numpy as np
import pytest

from anglebound.bounds import cardinality_bound
from anglebound.cli import dispatch, read_pointset, table_bound_grid, write_pointset
from anglebound.geometry import PointSet

SQUARE = {"dim": 2, "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE))
    return str(path)


def run(args, capsys):
    code = dispatch(args)
    out = capsys.readouterr().out
    return code, out


class TestBasicCommands:
    def test_bound_matches_library_exactly(self, capsys):
        code, out = run(["bound", "--theta-deg", "90", "--dim", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        rep = cardinality_bound(math.radians(90.0), 2)
        assert payload["bound"] == rep.bound
        assert payload["f_value"]["value"] == rep.f_value.value
        assert payload["theorem_applicable"] is True

    def test_angle_on_square(self, square_file, capsys):
        code, out = run(["angle", "--in", square_file], capsys)
        assert code == 0
        assert json.loads(out)["max_angle"] == pytest.approx(math.pi / 2)

    def test_convex_position_with_witness(self, tmp_path, capsys):
        bad = {"dim": 2, "points": [[0, 0], [1, 0], [1, 1], [0, 1], [0.4, 0.5]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out = run(["convex-position", "--in", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["in_convex_position"] is False
        assert payload["obtuse_witness"]["angle"] >= math.pi / 2

    def test_curvature_fractions(self, square_file, capsys):
        code, out = run(["curvature", "--in", square_file, "--samples", "20000",
                         "--seed", "5"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert math.fsum(payload["fractions"]) == 1.0
        assert len(payload["fractions"]) == 4

    def test_cone_cover_failure_diagnosis(self, square_file, capsys):
        code, out = run(["cone-cover", "--in", square_file, "--eta", "0.1"], capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["covered"] is False
        assert payload["required_radius"] == pytest.approx(math.pi / 4, abs=1e-9)

    def test_pipeline_pack_construct_witness(self, tmp_path, capsys):
        lines_path = tmp_path / "lines.json"
        pts_path = tmp_path / "ef.json"
        assert dispatch(["pack-lines", "--m", "2", "--dim", "2", "--seed", "1",
                         "--out", str(lines_path)]) == 0
        capsys.readouterr()
        assert dispatch(["ef-construct", "--lines", str(lines_path), "--rho", "1.4",
                         "--out", str(pts_path)]) == 0
        capsys.readouterr()
        code, out = run(["angle", "--in", str(pts_path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4
        assert payload["max_angle"] <= math.pi - 1.4
        code, out = run(["witness", "--in", str(pts_path), "--lines", str(lines_path),
                         "--rho", "1.6"], capsys)
        # 4 points < 2^2 + 1: hypothesis violated -> exit 2
        assert code == 2

    def test_n_bounds_explicit_constants(self, capsys):
        code, out = run(["n-bounds", "--theta", str(math.pi - 1.0), "--dim", "3",
                         "--c-d", "1.0", "--C-d", "4.0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["upper"] == pytest.approx(1 + 2**17)
        assert payload["calibrated"] is False

    def test_search_alpha(self, capsys):
        code, out = run(["search-alpha", "--n", "3", "--dim", "2", "--iters", "200",
                         "--restarts", "1", "--seed", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["achieved_angle"] <= math.pi / 3 + 1e-3
        assert len(payload["points"]) == 3

    def test_search_max(self, capsys):
        code, out = run(["search-max", "--theta-deg", "90", "--dim", "2",
                         "--budget", "500", "--seed", "3"], capsys)
        assert code == 0
        assert len(json.loads(out)["points"]) >= 4


class TestTable:
    def test_grid_values(self, capsys):
        code, out = run(["table", "--bound-grid", "--dims", "2..3",
                         "--theta-deg", "90..120", "--theta-step", "30"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("dim,theta_rad")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        by_key = {(r[0], r[2][:5]): r for r in rows}
        assert float(by_key[("2", "90.0")][6]) == pytest.approx(4.0, abs=1e-9)
        assert float(by_key[("3", "90.0")][6]) == pytest.approx(10.899, abs=1e-3)
        boundary = by_key[("2", "119.9")]
        assert float(boundary[6]) == pytest.approx(6.0, abs=1e-6)
        assert boundary[8] == "formula-only"

    def test_module_level_function_matches(self):
        text = table_bound_grid([2], [math.pi / 2])
        row = text.strip().splitlines()[1].split(",")
        assert float(row[6]) == cardinality_bound(math.pi / 2, 2).bound


class TestFileFormats:
    def test_csv_roundtrip(self, tmp_path):
        ps = PointSet(np.array([[0.25, -1.5], [3.0, 2.125], [0.1, 0.2]]))
        path = tmp_path / "pts.csv"
        write_pointset(ps, str(path))
        back = read_pointset(str(path))
        np.testing.assert_array_equal(back.points, ps.points)

    def test_json_roundtrip(self, tmp_path):
        ps = PointSet(np.array([[0.25, -1.5, 0.7], [3.0, 2.125, -0.3]]))
        path = tmp_path / "pts.json"
        write_pointset(ps, str(path))
        back = read_pointset(str(path))
        np.testing.assert_array_equal(back.points, ps.points)
        assert back.dim == 3

    def test_dim_mismatch_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3, "points": [[1, 2], [3, 4]]}))
        code, _ = run(["angle", "--in", str(path)], capsys)
        assert code == 2

    def test_ragged_points_rejected_by_the_library(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"points": [[0, 0], [1, 0, 0]]}))
        assert dispatch(["angle", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: point rows have different lengths [2, 3]\n"


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert dispatch(["no-such-command"]) == 2
        capsys.readouterr()

    def test_precondition_errors_exit_two(self, capsys):
        assert dispatch(["bound", "--theta", "5.0", "--dim", "2"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_missing_file_exits_two(self, capsys):
        assert dispatch(["angle", "--in", "/nonexistent/pts.json"]) == 2
        capsys.readouterr()

    def test_both_angle_units_rejected(self, capsys):
        assert dispatch(["bound", "--theta", "1.0", "--theta-deg", "60",
                         "--dim", "2"]) == 2
        capsys.readouterr()


class TestManifests:
    def test_manifest_written_and_reruns_identical(self, tmp_path, capsys):
        out_path = tmp_path / "res.json"
        args = ["search-alpha", "--n", "4", "--dim", "2", "--iters", "150",
                "--restarts", "1", "--seed", "11", "--out", str(out_path)]
        assert dispatch(args) == 0
        capsys.readouterr()
        first = out_path.read_bytes()
        manifest_path = tmp_path / "res.manifest.json"
        first_manifest = manifest_path.read_bytes()
        assert dispatch(args) == 0
        capsys.readouterr()
        assert out_path.read_bytes() == first
        assert manifest_path.read_bytes() == first_manifest
        manifest = json.loads(first_manifest)
        assert manifest["subcommand"] == "search-alpha"
        assert manifest["seed"] == 11
        assert manifest["outputs"] == [str(out_path)]
        assert manifest["parameters"]["n"] == 4

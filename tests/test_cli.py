import csv
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anglebound
from anglebound import cli, constructions, geometry
from anglebound.bounds import cardinality_bound
from anglebound.cli import dispatch, read_pointset, table_bound_grid
from anglebound.constructions import n_bounds
from anglebound.geometry import PointSet

SRC = str(Path(anglebound.__file__).resolve().parent.parent)
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
        assert payload["f_value"] == rep.f_value
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

    @staticmethod
    def _sphere_file(tmp_path, seed: int, n: int, dim: int) -> str:
        x = np.random.default_rng(seed).normal(size=(n, dim))
        path = tmp_path / f"sphere{dim}.json"
        path.write_text(json.dumps({"dim": dim, "points": (x / np.linalg.norm(x, axis=1)[:, None])
                                    .tolist()}))
        return str(path)

    def test_monte_carlo_curvature_is_reproducible_and_seeded(self, tmp_path, capsys):
        # Criterion 14 on the rotated-block stream: D = 5 takes the Monte Carlo path.
        args = ["curvature", "--in", self._sphere_file(tmp_path, 2304, 9, 5), "--samples", "20000"]
        outs = [run(args + ["--seed", seed], capsys) for seed in ("3", "3", "4")]
        assert [code for code, _ in outs] == [0, 0, 0]
        assert outs[0][1] == outs[1][1]
        first, other = (json.loads(out) for _, out in outs[1:])
        assert first["method"] == "monte_carlo" and first["fractions"] != other["fractions"]
        # The seed-3 stdout is pinned: how the sweep forms its products must
        # not move a direction across a normal-cone boundary.
        assert hashlib.sha256(outs[0][1].encode()).hexdigest() == (
            "e345d871fef2d3d286542139b76210012876d3c6d3ad0e6eaeb67162de42ec72")

    def test_exact_curvature_payload_is_pinned(self, tmp_path, capsys):
        # R^3 takes the exact path, whose stdout is independent of the sampler.
        args = ["curvature", "--in", self._sphere_file(tmp_path, 2303, 10, 3), "--samples", "20000",
                "--seed", "7"]
        code, out = run(args, capsys)
        assert code == 0 and json.loads(out)["method"] == "exact"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f896124cd8b95b746c4e52d825b8134557d55bcd8c35c73176cedeabc350d52f")

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

    def test_ef_construct_help_says_max_angle_is_a_rescan(self, capsys):
        code, out = run(["ef-construct", "--help"], capsys)
        assert code == 0
        assert "max_angle field is an exact O(n^3 D) rescan" in " ".join(out.split())

    def test_n_bounds_explicit_constants(self, capsys):
        code, out = run(["n-bounds", "--theta", str(math.pi - 1.0), "--dim", "3",
                         "--c-d", "1.0", "--C-d", "4.0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["upper"] == pytest.approx(1 + 2**17)
        assert payload == dataclasses.asdict(n_bounds(math.pi - 1.0, 3, 1.0, 4.0))

    # Nine cells in d = 3-8: the cube's 2^d below, and the theorem's bound
    # above where theta < theta_d, else null with the reason.
    @pytest.mark.parametrize("dim,deg,upper,reason", [
        (3, 100, 17.3238064131, None),
        (3, 109, 33.3664925916, None),
        (3, 120, None, "theta is not below theta_3 = 1.91063323625"),
        (4, 100, 109.490166955, None),
        (4, 120, None, "theta is past theta_3 = 1.91063323625"),
        (5, 100, 1399.96113130, None),
        (6, 95, 2097.64941816, None),
        (7, 95, 19693.1741547, None),
        (8, 96, 981727.096930, None),
    ])
    def test_n_bounds_reports_the_cube_and_the_theorem(self, dim, deg, upper, reason, capsys):
        code, out = run(["n-bounds", "--theta-deg", str(deg), "--dim", str(dim)], capsys)
        assert code == 0
        want = None if upper is None else cardinality_bound(math.radians(deg), dim).bound
        assert json.loads(out) == {"theta": math.radians(deg), "d": dim,
                                   "lower": 2**dim, "lower_certificate": "cube", "upper": want,
                                   "upper_certificate": None if upper is None else "theorem",
                                   "reason": reason}
        if upper is not None:
            assert want == pytest.approx(upper, rel=1e-11)

    @pytest.mark.parametrize("flags,message", [
        (["--theta-deg", "90", "--dim", "3"], "theta must lie in (pi/2, pi), got "
                                              "1.5707963267948966"),
        (["--theta-deg", "100", "--dim", "1"], "d must be an integer in [2, 1024), got 1"),
        (["--theta-deg", "100", "--dim", "1024"], "d must be an integer in [2, 1024), got 1024"),
        (["--theta-deg", "100", "--dim", "3", "--c-d", "1"],
         "pass both --c-d and --C-d, or neither"),
    ], ids=["theta", "dim", "dim-past-floats", "one-constant"])
    def test_n_bounds_refuses_by_name(self, flags, message, capsys):
        assert dispatch(["n-bounds", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_n_bounds_takes_no_seed(self, capsys):
        assert dispatch(["n-bounds", "--theta-deg", "100", "--dim", "3", "--seed", "2"]) == 2
        assert "unrecognized arguments: --seed 2" in capsys.readouterr().err

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
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        by_key = {(r["dim"], r["theta_deg"]): r for r in rows}
        assert float(by_key[("2", "90.0")]["bound"]) == pytest.approx(4.0, abs=1e-9)
        assert float(by_key[("3", "90.0")]["bound"]) == pytest.approx(10.899, abs=1e-3)
        boundary = by_key[("2", "120.0")]
        assert float(boundary["bound"]) == pytest.approx(6.0, abs=1e-6)
        assert boundary["status"] == "formula-only"

    @pytest.mark.parametrize("step, last", [("0.6", "91.6"), ("0.1", "92.0")])
    def test_grid_stops_at_the_range_end(self, capsys, step, last):
        # A step that does not divide the range stops short of its end; one
        # that divides it up to rounding still reaches it.
        code, out = run(["table", "--bound-grid", "--dims", "2..2",
                         "--theta-deg", "91..92", "--theta-step", step], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["theta_deg"] == "91.0" and rows[-1]["theta_deg"] == last

    def test_cells_past_theta_d_minus_1_are_not_applicable(self, capsys):
        # 115 and 120 degrees lie between theta_3 and theta_2 = 120 degrees;
        # 125 lies past theta_2, where the bound is not evaluated.
        code, out = run(["table", "--bound-grid", "--dims", "3",
                         "--theta-deg", "115..125", "--theta-step", "5"], capsys)
        assert code == 0
        assert out == (
            "dim,theta_rad,theta_deg,eta,f_value,bound,theorem_applicable,status\n"
            "3,2.007128639793479,115.0,1.3416671615716231,0.013067721727702698,"
            "76.52443332031373,False,formula-only\n"
            "3,2.0943951023931953,120.0,1.5707963267948966,0.0,inf,False,formula-only\n"
            "3,2.181661564992912,125.0,,,,,not-applicable\n")

    def test_module_level_function_matches(self):
        text = table_bound_grid([2], [90.0])
        row = next(csv.DictReader(io.StringIO(text)))
        assert float(row["bound"]) == cardinality_bound(math.pi / 2, 2).bound


class TestFileFormats:
    def test_csv_roundtrip(self, tmp_path):
        ps = PointSet(np.array([[0.25, -1.5], [3.0, 2.125], [0.1, 0.2]]))
        path = tmp_path / "pts.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in ps.points.tolist()))
        back = read_pointset(str(path))
        np.testing.assert_array_equal(back.points, ps.points)

    def test_json_roundtrip(self, tmp_path):
        ps = PointSet(np.array([[0.25, -1.5, 0.7], [3.0, 2.125, -0.3]]))
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"dim": 3, "points": ps.points.tolist()}))
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

    @pytest.mark.parametrize("points", [{"a": 1}, [[0, {"a": 1}], [1, 0]]],
                             ids=["object", "object-coordinate"])
    def test_object_coordinates_rejected_by_the_library(self, tmp_path, capsys, points):
        path = tmp_path / "objects.json"
        path.write_text(json.dumps({"points": points}))
        assert dispatch(["angle", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: point coordinates must be numbers: float() argument "
                                "must be a string or a real number, not 'dict'\n")

    @pytest.mark.parametrize("data,shape", [({"lines": [1, 0, 0]}, "(3,)"), ([], "(0,)")])
    def test_malformed_line_files_rejected(self, tmp_path, square_file, capsys, data, shape):
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(data))
        for argv in (["witness", "--in", square_file, "--lines", str(path), "--rho", "1.6"],
                     ["ef-construct", "--lines", str(path), "--rho", "1.4"]):
            assert dispatch(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: lines must form an (m, dim) array, got shape {shape}\n"


    @pytest.mark.parametrize("data", [{"lines": [[1, 0], [0, 1]]}, [[0, 0], [1, 0]]],
                             ids=["lines-object", "bare-list"])
    def test_point_file_without_points_key_rejected(self, tmp_path, capsys, data):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps(data))
        assert dispatch(["angle", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f'error: {path}: expected a JSON object with a "points" key\n'

    def test_directory_as_input_rejected(self, tmp_path, capsys):
        assert dispatch(["angle", "--in", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path}'\n"

    @pytest.mark.parametrize("name,text,message", [
        ("pts.csv", "0,0\n1,x\n", "{path}: coordinate must be a finite number, got 'x'"),
        ("pts.json", '{"dim": "two", "points": [[0, 0], [1, 0]]}',
         "{path}: dim must be an integer, got 'two'"),
        ("pts.json", '{"dim": 2.7, "points": [[0, 0], [1, 0]]}',  # int() would read 2
         "{path}: dim must be an integer, got 2.7"),
        ("pts.json", '{"dim": true, "points": [[0, 0], [1, 0]]}',  # int() would read 1
         "{path}: dim must be an integer, got True"),
    ], ids=["csv-coordinate", "json-dim", "json-dim-fraction", "json-dim-bool"])
    def test_unparsable_numbers_named(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert dispatch(["angle", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    def test_integral_json_dim_accepted_as_written(self, tmp_path):
        path = tmp_path / "pts.json"
        for dim in ("2", "2.0"):
            path.write_text(f'{{"dim": {dim}, "points": [[0, 0], [1, 0], [0, 1]]}}')
            assert read_pointset(str(path)).dim == 2

    def test_non_numeric_line_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "lines.json"
        path.write_text(json.dumps({"lines": [["a", 0], [0, 1]]}))
        assert dispatch(["ef-construct", "--lines", str(path), "--rho", "1.4"]) == 2
        assert capsys.readouterr().err == ("error: line coordinates must be numbers: could not "
                                           "convert string to float: 'a'\n")

    def test_nan_line_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "lines.json"
        path.write_text('{"lines": [[1, 0], [NaN, 1]]}')
        assert dispatch(["ef-construct", "--lines", str(path), "--rho", "1.4"]) == 2
        assert capsys.readouterr().err == "error: lines must be unit vectors\n"

    @pytest.mark.parametrize("text,message", [
        ("", "Expecting value: line 1 column 1 (char 0)"),
        ('{"points": [[0, 0], [1, 0]]', "Expecting ',' delimiter: line 1 column 28 (char 27)"),
    ], ids=["empty", "truncated"])
    def test_json_read_errors_name_the_file(self, tmp_path, square_file, capsys, text, message):
        # With a point file and a line file, the message says which one is not JSON.
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        lines = tmp_path / "lines.json"
        lines.write_text(json.dumps({"lines": [[1, 0], [0, 1]]}))
        for argv in (["angle", "--in", str(bad)],
                     ["witness", "--in", str(bad), "--lines", str(lines), "--rho", "1.6"],
                     ["witness", "--in", square_file, "--lines", str(bad), "--rho", "1.6"],
                     ["ef-construct", "--lines", str(bad), "--rho", "1.4"]):
            assert dispatch(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {bad}: {message}\n"

    def test_undecodable_json_file_is_named(self, tmp_path, capsys):
        bad = tmp_path / "bytes.json"
        bad.write_bytes(b"\xff\xfe{")
        for argv in (["angle", "--in", str(bad)], ["ef-construct", "--lines", str(bad), "--rho", "1"]):
            assert dispatch(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {bad}: ")


class TestPayloadKeys:
    """The exact top-level keys of every subcommand's output."""

    @pytest.fixture
    def files(self, tmp_path, square_file):
        interior = tmp_path / "interior.json"
        interior.write_text(json.dumps({"points": [[0, 0], [1, 0], [1, 1], [0, 1], [0.4, 0.5]]}))
        pentagon = tmp_path / "pentagon.json"
        ang = 2 * math.pi * np.arange(5) / 5
        pentagon.write_text(json.dumps({"points": np.column_stack([np.cos(ang),
                                                                   np.sin(ang)]).tolist()}))
        lines = tmp_path / "lines.json"
        lines.write_text(json.dumps({"lines": [[1, 0], [0, 1]]}))
        return {"square": square_file, "interior": str(interior),
                "pentagon": str(pentagon), "lines": str(lines)}

    CASES = {
        "bound": (["bound", "--theta-deg", "90", "--dim", "3"], 0,
                  {"theta", "ambient_dim", "eta", "f_value", "bound", "theorem_applicable"}),
        "angle": (["angle", "--in", "{square}"], 0, {"dim", "n", "max_angle"}),
        "convex-position": (["convex-position", "--in", "{interior}"], 0,
                            {"in_convex_position", "witness_point", "witness_simplex",
                             "obtuse_witness"}),
        "convex-position-yes": (["convex-position", "--in", "{square}"], 0,
                                {"in_convex_position"}),
        "curvature": (["curvature", "--in", "{square}", "--samples", "2000"], 0,
                      {"fractions", "method", "samples", "seed", "std_error"}),
        "cone-cover": (["cone-cover", "--in", "{square}", "--eta", "0.9"], 0,
                       {"covered", "eta", "cones"}),
        "cone-cover-refused": (["cone-cover", "--in", "{square}", "--eta", "0.1"], 2,
                               {"covered", "vertex_index", "required_radius", "allowed"}),
        "pack-lines": (["pack-lines", "--m", "3", "--dim", "2", "--iters", "50"], 0,
                       {"dim", "lines", "min_pairwise_angle"}),
        "cover-lines": (["cover-lines", "--rho-deg", "90", "--dim", "2", "--probes", "2000"], 0,
                        {"dim", "lines", "min_pairwise_angle", "rho"}),
        "ef-construct": (["ef-construct", "--lines", "{lines}", "--rho", "1.4"], 0,
                         {"dim", "points", "max_angle", "certified_below"}),
        "witness": (["witness", "--in", "{pentagon}", "--lines", "{lines}", "--rho", "1.6"], 0,
                    {"vi", "v", "vj", "angle", "threshold"}),
        "n-bounds": (["n-bounds", "--theta", "2.0", "--dim", "3", "--c-d", "1", "--C-d", "4"], 0,
                     {"theta", "d", "c_d", "C_d", "lower", "upper", "overflow",
                      "lower_valid_above_n"}),
        "n-bounds-certified": (["n-bounds", "--theta-deg", "100", "--dim", "3"], 0,
                               {"theta", "d", "lower", "lower_certificate", "upper",
                                "upper_certificate", "reason"}),
        "search-alpha": (["search-alpha", "--n", "4", "--dim", "2", "--iters", "20",
                          "--restarts", "1"], 0,
                         {"points", "dim", "achieved_angle", "iterations", "seed", "restarts"}),
        "search-max": (["search-max", "--theta-deg", "90", "--dim", "2", "--budget", "50"], 0,
                       {"points", "dim", "achieved_angle", "iterations", "seed", "restarts"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_top_level_keys(self, case, files, capsys):
        argv, expected_code, keys = self.CASES[case]
        code, out = run([a.format(**files) for a in argv], capsys)
        assert code == expected_code
        payload = json.loads(out)
        assert set(payload) == keys
        if case == "convex-position":
            assert set(payload["obtuse_witness"]) == {"vi", "v", "vj", "angle"}
        if case == "cone-cover":
            assert {frozenset(c) for c in payload["cones"]} == {
                frozenset({"apex", "axis", "half_angle"})}

    def test_table_columns(self, capsys):
        code, out = run(["table", "--bound-grid", "--dims", "2", "--theta-deg", "90"], capsys)
        assert code == 0
        assert out.splitlines()[0] == (
            "dim,theta_rad,theta_deg,eta,f_value,bound,theorem_applicable,status")


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert dispatch(["no-such-command"]) == 2
        capsys.readouterr()

    def test_precondition_errors_exit_two(self, capsys):
        assert dispatch(["bound", "--theta", "5.0", "--dim", "2"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_a_doubling_past_the_size_cap_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(constructions, "_MAX_DOUBLED_POINTS", 8)
        path = tmp_path / "frame.json"
        path.write_text(json.dumps({"lines": np.eye(4).tolist()}))
        assert dispatch(["ef-construct", "--lines", str(path), "--rho", "1", "--slack", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 4 lines double to 2^4 = 16 points, past the cap of 8\n"

    def test_missing_file_exits_two(self, capsys):
        assert dispatch(["angle", "--in", "/nonexistent/pts.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["curvature", "--in", "{square}", "--samples", "2000"],
        ["pack-lines", "--m", "4", "--dim", "3", "--iters", "20"],
        ["cover-lines", "--rho-deg", "70", "--dim", "3", "--probes", "2000"],
        ["search-alpha", "--n", "4", "--dim", "2", "--iters", "20", "--restarts", "1"],
        ["search-max", "--theta-deg", "90", "--dim", "2", "--budget", "50"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_refused_by_name(self, argv, square_file, capsys):
        assert dispatch([a.format(square=square_file) for a in argv] + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("argv,message", [
        (["search-alpha", "--n", "5", "--dim", "2", "--iters", "-3", "--restarts", "1"],
         "iters must be an integer >= 1, got -3"),
        (["search-alpha", "--n", "5", "--dim", "3", "--iters", "10", "--restarts", "-2"],
         "restarts must be an integer >= 0, got -2"),
        (["search-max", "--theta-deg", "90", "--dim", "2", "--budget", "-5"],
         "budget must be an integer >= 0, got -5"),
    ], ids=["iters", "restarts", "budget"])
    def test_negative_search_budget_is_refused_by_name(self, argv, message, capsys):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["pack-lines", "--m", "5", "--dim", "3", "--iters", "-3"],
         "iters must be an integer >= 1, got -3"),
        (["pack-lines", "--m", "3", "--dim", "2", "--iters", "0"],
         "iters must be an integer >= 1, got 0"),
    ], ids=["search", "closed-form"])
    def test_pack_lines_budget_is_refused_by_name(self, argv, message, capsys):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["bound", "--dim", "2"], "--theta or --theta-deg is required"),
        (["table", "--dims", "2"], "table currently supports --bound-grid only"),
    ], ids=["bound-no-angle", "table-no-grid"])
    def test_missing_required_choice_is_refused_by_name(self, argv, message, capsys):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_empty_probe_set_is_refused_by_name(self, capsys):
        assert dispatch(["cover-lines", "--rho", "1.5", "--dim", "3", "--probes", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: probes must be an integer >= 1, got 0\n"

    def test_planar_family_past_the_cap_is_refused_by_name(self, capsys):
        # 1 110 056 lines would take the separation check about an hour.
        assert dispatch(["cover-lines", "--rho", "1e-7", "--dim", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: R^2: leaving every direction within rho/2 = 5e-08 of a "
                                "line takes 1110056 lines, past the cap of 10002\n")

    @pytest.mark.parametrize("flags,message", [
        (["--theta-step", "0"], "--theta-step must be positive, got 0.0"),
        (["--theta-step", "-1"], "--theta-step must be positive, got -1.0"),
        (["--dims", "2..x"], "--dims must be an integer, got 'x'"),
        (["--theta-deg", "90..inf"], "--theta-deg must be a finite number, got 'inf'"),
        (["--dims", "5..2"], "--dims range must run from low to high, got '5..2'"),
        (["--theta-deg", "100..91"], "--theta-deg range must run from low to high, got '100..91'"),
        (["--theta-step", "inf"], "--theta-step must be a finite number, got inf"),
        (["--theta-step", "5e-324"], "the grid has inf rows, more than 1000000"),
        (["--theta-step", "1e-300"], "the grid has 1.4e+302 rows, more than 1000000"),
        (["--dims", "2..100000000"], "the grid has 2.9e+09 rows, more than 1000000"),
    ])
    def test_bad_table_grid_refused_by_name(self, capsys, flags, message):
        assert dispatch(["table", "--bound-grid", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    # Each in a child whose address space is capped at 1 GiB, so that a start
    # built before its check (the 36 000-gon's (36 000, 35 999) scan index,
    # 2^40 hypercube rows, or the 20 001 x 20 001 corners of the simplex of
    # R^20000) would exit 1 with a MemoryError, not 2.
    @pytest.mark.parametrize("flags,message", [
        (["--theta-deg", "179.99", "--dim", "2"],
         "the 36000-gon start has 36000 points, past the cap of 1000"),
        (["--theta-deg", "95", "--dim", "40"],
         "the hypercube start has 2^40 points, past the cap of 2^12"),
        (["--theta-deg", "50", "--dim", "20000"],
         "the simplex start has 20001 points, past the cap of 351"),
    ], ids=["polygon", "hypercube", "simplex"])
    def test_search_max_past_a_start_cap_exits_two(self, flags, message):
        child = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                 "from anglebound.cli import main; main()")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            SRC, os.environ.get("PYTHONPATH")])), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", child, "search-max", *flags, "--budget", "0"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")

    def test_value_error_inside_the_library_is_internal(self, square_file, capsys, monkeypatch):
        def broken(ps):
            raise ValueError("not a usage error")

        monkeypatch.setattr(geometry, "max_angle", broken)
        assert dispatch(["angle", "--in", square_file]) == 1
        assert capsys.readouterr().err == "internal error: ValueError: not a usage error\n"

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

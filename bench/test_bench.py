"""Tests of the benchmark itself: seeded inputs, output checks, metric names.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import math
import os
import pickle
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as C  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

LIB = W.load_library()


# ------------------------------------------------------------ seeded inputs

@pytest.mark.parametrize("cls", [W.Library, W.Certify, W.Constructions, W.Search])
def test_items_repeat_exactly_for_a_seed(cls):
    wl = cls()
    first = pickle.dumps(wl.items(7, 0))
    assert pickle.dumps(wl.items(7, 0)) == first
    assert pickle.dumps(wl.items(8, 0)) != first
    assert pickle.dumps(wl.items(7, 1)) != first


def test_cli_inputs_repeat_exactly_for_a_seed(tmp_path):
    def snapshot(seed):
        items = W.cli_inputs(seed, tmp_path)
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        return [i["argv"] for i in items], files

    first = snapshot(7)
    assert snapshot(7) == first
    assert snapshot(8) != first
    assert [i["sub"] for i in W.cli_inputs(7, tmp_path)] == list(W.CLI_SUBCOMMANDS)


def test_certify_grid_plants_one_interior_point_in_a_third_of_the_sets():
    kinds = [kind for _, _, kind in W.CERTIFY_CELLS]
    assert kinds.count("interior") * 3 == len(kinds)
    item = W.certify_item(np.random.default_rng(0), 3, 8, "interior")
    radii = np.linalg.norm(item["points"], axis=1)
    assert radii[item["interior"]] < 1.0 - 1e-3
    assert np.allclose(np.delete(radii, item["interior"]), 1.0)


# ------------------------------------------------------- checks, planted faults

def run_item(wl, item):
    out = wl.run(item, LIB, NullTracer())
    wl.check(item, out)  # the genuine output passes
    return out


def rejects(wl, item, out):
    with pytest.raises(C.CheckFailed):
        wl.check(item, out)
    return True


def certify(D, n, kind, seed=3):
    return W.certify_item(np.random.default_rng(seed), D, n, kind)


def test_certify_rejects_a_wrong_max_angle():
    wl = W.Certify()
    item = certify(3, 9, "sphere")
    out = run_item(wl, item)
    assert rejects(wl, item, {**out, "theta": out["theta"] - 1e-6})
    i, j, k = out["triple"]
    assert rejects(wl, item, {**out, "triple": (j, i, k)})
    assert rejects(wl, item, {**out, "scalar_max": out["scalar_max"] - 1e-6})


def test_certify_rejects_a_wrong_negative_verdict():
    wl = W.Certify()
    item = certify(3, 8, "interior")
    out = run_item(wl, item)
    v = out["verdict"]
    outside = v.witness_simplex.copy()
    outside[0] = 2.0 * v.witness_point - outside[1]  # moves the point off its simplex
    assert rejects(wl, item, {**out, "verdict": dataclasses.replace(v, witness_simplex=outside)})
    assert rejects(wl, item, {**out, "verdict": dataclasses.replace(v, in_convex_position=True)})
    k = len(v.witness_simplex) - 1
    weak = dataclasses.replace(out["obtuse"], angle=math.acos(-1.0 / k) - 1e-3)
    assert rejects(wl, item, {**out, "obtuse": weak})


def test_certify_rejects_wrong_fractions_cones_and_bound():
    wl = W.Certify()
    item = certify(2, 4, "below")
    out = run_item(wl, item)
    est = out["estimate"]
    fr = est.fractions.copy()
    fr[0] += 1e-12
    assert rejects(wl, item, {**out, "estimate": dataclasses.replace(est, fractions=fr)})
    cone = out["cones"][0]
    flipped = dataclasses.replace(cone, axis=-cone.axis)
    assert rejects(wl, item, {**out, "cones": [flipped, *out["cones"][1:]]})
    refusal = LIB.errors.CapTooSmall(0, 1.5, item["eta"])
    no_cones = {k: v for k, v in out.items() if k != "cones"}
    assert rejects(wl, item, {**no_cones, "refusal": refusal})  # a cover is guaranteed here
    report = dataclasses.replace(out["bound"], bound=len(item["points"]) - 0.5)
    assert rejects(wl, item, {**out, "bound": report})


def test_construct_rejects_wrong_lines_points_and_witness():
    wl = W.Constructions()
    cell, *_, witness = wl.items(5, 0)
    out = run_item(wl, cell)
    pack = out["pack"]
    wrong = SimpleNamespace(lines=pack.lines, min_pairwise_angle=pack.min_pairwise_angle + 1e-6)
    assert rejects(wl, cell, {**out, "pack": wrong})
    assert rejects(wl, cell, {**out, "points": out["points"][:-1]})
    assert rejects(wl, cell, {**out, "rho": math.pi - out["theta"] + 1e-6})
    assert rejects(wl, cell, {**out, "cover": SimpleNamespace(lines=out["cover"].lines[:1])})
    out = run_item(wl, witness)
    weak = dataclasses.replace(out["witness"], angle=math.pi - witness["rho"] - 1e-3)
    assert rejects(wl, witness, {**out, "witness": weak})


def test_search_rejects_wrong_angles_and_broken_caps():
    wl = W.Search()
    alpha = {"kind": "alpha", "n": 5, "D": 2, "seed": 1, "iters": 20}
    out = run_item(wl, alpha)
    res = out["result"]
    lower = dataclasses.replace(res, achieved_angle=res.achieved_angle - 1e-6)
    assert rejects(wl, alpha, {"result": lower})
    cap = {"kind": "max", "theta": math.pi / 2, "D": 2, "budget": 60, "seed": 1}
    out = run_item(wl, cap)
    res = out["result"]
    pts = res.points.points
    middle = 0.5 * (pts[0] + pts[1])  # a straight angle at the new point
    broken = dataclasses.replace(res, points=LIB.geometry.PointSet(np.vstack([pts, middle])))
    assert rejects(wl, cap, {"result": broken})


def test_cli_rejects_bad_exit_changed_bytes_and_wrong_payload(tmp_path):
    def cli():  # a fresh instance has seen no earlier output to compare bytes with
        return W.Cli(env={**os.environ, "PYTHONPATH": str(HERE.parent / "src")},
                     workdir=tmp_path)

    wl = cli()
    items = {i["sub"]: i for i in W.cli_inputs(4, tmp_path)}
    assert [i["sub"] for i in wl.items(4, 0)] == list(W.CLI_TIMED)
    outs = {sub: run_item(wl, items[sub]) for sub in ("angle", "ef-construct")}
    out = outs["angle"]
    assert rejects(wl, items["angle"], {**out, "code": 1})
    assert rejects(wl, items["angle"], {**out, "stdout": out["stdout"] + b" "})
    payload = json.loads(out["stdout"])
    payload["max_angle"] -= 1e-6
    assert rejects(cli(), items["angle"], {**out, "stdout": json.dumps(payload).encode()})
    payload = json.loads(outs["ef-construct"]["stdout"])
    payload["points"] = payload["points"][:-1]
    bad = {"code": 0, "stdout": json.dumps(payload).encode()}
    assert rejects(cli(), items["ef-construct"], bad)


# ------------------------------------------------------------- metric names

def benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(W.WORKLOADS)
    assert spec["paths"] == ["bench"]


def fake_result():
    spans = {name: {"calls": 2, "busy_s": 0.5, "p50_s": 0.2} for name in run.LIBRARY_SPANS}
    return {"times": [[0.01 * (i + 1) + 0.001 * r for i in range(30)] for r in range(3)],
            "refs": [[0.002] * 30 for _ in range(3)], "ref_nominal_s": 0.001, "slowdown": 2.0,
            "peak_rss_mb": 100.0,
            "spans": spans, "facts": {"verdicts": 4, "negative": 1}, "python_floor_ms": 80.0,
            "traced_s": 1.1, "untraced_s": 1.0, "quality": {"search.size_mean": 6.0}}


def test_printed_end_to_end_metrics_match_benchmark_json():
    metrics, lines = run.end_to_end(fake_result(), [1.0, 1.2, 1.1])
    spec = {m["name"]: m for m in benchmark_json()["end_to_end"]}
    assert list(metrics) == list(spec)
    for name, m in metrics.items():
        assert m["unit"] == spec[name]["unit"]
        assert m["value"] > 0
    assert len(lines) == len(spec)
    assert spec["setup_s"] == {"name": "setup_s", "unit": "s", "better": "lower",
                               "bound": max(m["bound"] for m in spec.values())}


def test_printed_per_layer_metrics_match_benchmark_json():
    metrics, _ = run.per_layer(fake_result())
    spec = {m["name"]: m for m in benchmark_json()["per_layer"]}
    assert list(metrics) == list(spec)
    for name, m in metrics.items():
        assert m["unit"] == spec[name]["unit"]


def test_tail_is_the_slowest_twentieth_of_cells_averaged_over_rounds():
    rounds = [[1.0, 4.0, 2.0], [1.0, 2.0, 5.0]]
    assert run.slowest_cells(rounds) == ([2], 3.5)
    rounds = [[float(k) for k in range(41)]] * 2  # 41 cells: the slowest three
    assert run.slowest_cells(rounds) == ([40, 39, 38], 39.0)


def test_scale_divides_each_round_by_its_mean_reference():
    times = [[1.0, 2.0], [1.0, 2.0]]
    refs = [[0.002, 0.002], [0.001, 0.003]]
    assert speed.scale(times, refs, 0.001) == [[0.5, 1.0], [0.5, 1.0]]
    assert 0 < speed.kernel_s() < 1.0


def test_tracer_records_parent_and_item():
    tr = Tracer()
    tr.item = 3
    with tr.span("item.x"):
        assert tr("inner", max, 1, 2) == 2
    (outer, inner) = tr.spans
    assert inner[0] == "inner" and inner[3] == 0 and inner[4] == 3
    assert outer[3] is None and outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert tr.summary()["inner"]["calls"] == 1

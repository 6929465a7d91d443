"""anglebound benchmark: four seeded workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

Each workload runs in fresh interpreters (bench/worker.py) with the
checkout's `src` on PYTHONPATH and one BLAS thread. The last line of the
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of
a separate traced pass with --trace 1. Lines before it name every metric
with its unit and sample count, and the environment fingerprint. Results
and spans are also written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
from workloads import CLI_TIMED

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("library", "cli")
# Seconds of work per round on the reference machine (2 cores, Python 3.11):
# --seconds buys a whole number of rounds, at least MIN_ROUNDS, so every run
# of one workload and one --seconds measures the same items, on any version
# of the program. A run stops starting rounds after OVERRUN times --seconds,
# which bounds its length on a slow machine or a slow program.
NOMINAL_ROUND_S = {"library": 9.5, "cli": 8.0}
MIN_ROUNDS = 2
OVERRUN = 1.3
TAIL_SHARE = 0.05
SETUP_RUNS = 3
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LIBRARY_SPANS = (
    "geometry.PointSet", "geometry.max_angle_triple", "geometry.angle_at",
    "bounds.cardinality_bound",
    "convexity.is_convex_position", "convexity.obtuse_witness",
    "curvature.gauss_bonnet_sum", "curvature.cone_cover_certificate",
    "constructions.pack_lines", "constructions.ef_doubling", "constructions.cover_lines",
    "constructions.obtuse_triple_witness",
    "search.minimize_max_angle", "search.max_cardinality_search",
)
CLI_SPANS = tuple(f"cli.{s}" for s in CLI_TIMED)
DERIVED = {
    "convexity.negative_frac": "frac",
    "curvature.mc_samples_per_s": "1/s",
    "curvature.cone_cover.covered_frac": "frac",
    "constructions.ef_doubling.points": "count",
    "search.anneal_iters_per_s": "1/s",
    "search.size_per_kbudget": "pts/kbudget",
    "cli.python_floor_ms": "ms",
    "trace.overhead_pct": "%",
    "host.slowdown": "x",
}
QUALITY = {
    "search.alpha_deg_mean": "deg",
    "search.size_mean": "points",
    "construct.pack_deg_mean": "deg",
    "construct.cover_lines_mean": "lines",
}


def per_layer_units() -> dict:
    units = {}
    for name in LIBRARY_SPANS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.p50_us": "us"})
    for name in CLI_SPANS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.p50_ms": "ms"})
    return {**units, **DERIVED, **QUALITY}


def rounds_for(workload: str, seconds: int, trace: int) -> int:
    """Rounds per pass; a traced run makes two passes (untraced, traced) of half as many."""
    rounds = max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))
    return max(1, rounds // 2) if trace else rounds


def git_commit(root: Path) -> str:
    """HEAD of a checkout that is a git work tree, read without leaving it."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def worker_env(root: Path) -> dict:
    """Environment of every workload process: the checkout's sources, one BLAS thread.

    CLI workers pass it on to each `python -m anglebound` they start.
    """
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def kill(proc: subprocess.Popen):
    """Kill a worker together with any CLI process it started."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(cmd: list[str], env: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready` line; returns it with its set-up time.

    The set-up time is at full speed: scaled by a fresh interpreter's
    start-up, timed just before (speed.py).
    """
    ref = speed.startup_s(env)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - t0), kill, (proc,))
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    setup = (time.perf_counter() - t0) * speed.STARTUP_NOMINAL_S / ref
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker exited during set-up (code {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Remaining stdout of a worker, which must exit with code 0 before the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        kill(proc)
        proc.communicate()
        raise RuntimeError("worker passed the deadline and was killed")
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with code {proc.returncode}")
    return out


def slowest_cells(rounds: list[list[float]]) -> tuple[list[int], float]:
    """The slowest twentieth of the cells (at least one) by mean time, and their mean.

    Cell k is item k of every round: the same kind and size of item with
    fresh inputs. A run has too few items for a high percentile of single
    items to repeat between runs: the ten slowest of ~240 library items come
    from a handful of cells and move with their inputs, and which single
    cell is slowest changes with the seed. Averaging the slowest cells over
    the run gives a tail that repeats.
    """
    means = [statistics.fmean(col) for col in zip(*rounds)]
    order = sorted(range(len(means)), key=means.__getitem__, reverse=True)
    cells = order[:math.ceil(TAIL_SHARE * len(means))]
    return cells, statistics.fmean(means[k] for k in cells)


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics; every time is at full speed (speed.py), raw ones are noted."""
    scaled = speed.scale(res["times"], res["refs"], res["ref_nominal_s"])
    raw = [t for rnd in res["times"] for t in rnd]
    times = [t for rnd in scaled for t in rnd]
    refs = [t for rnd in res["refs"] for t in rnd]
    slowdown = statistics.fmean(refs) / res["ref_nominal_s"]
    cells, tail_s = slowest_cells(scaled)
    raw_tail_s = slowest_cells(res["times"])[1]
    n, r = len(times), len(scaled)
    values = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} launches"),
        "items_per_s": (n / sum(times), f"{n} items, {r} rounds; raw {n / sum(raw):.4g}, "
                                        f"host slowdown {slowdown:.3f}"),
        "item_p50_ms": (1e3 * statistics.median(times),
                        f"n={n}; raw {1e3 * statistics.median(raw):.4g}"),
        "item_tail_ms": (1e3 * tail_s, f"slowest {len(cells)} of {len(scaled[0])} cells "
                                       f"{cells}, n={r} each; raw {1e3 * raw_tail_s:.4g}"),
        "peak_rss_mb": (res["peak_rss_mb"], "max resident set"),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in values.items()}
    lines = [f"  {k:<14} {v:>12.4f} {END_TO_END[k]:<5} ({note})"
             for k, (v, note) in values.items()]
    return metrics, lines


def per_layer(res: dict) -> tuple[dict, list[str]]:
    spans, facts = res["spans"], res["facts"]
    values = {}
    for name in LIBRARY_SPANS + CLI_SPANS:
        s = spans.get(name, {"calls": 0, "busy_s": 0.0, "p50_s": 0.0})
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.busy_s"] = s["busy_s"]
        if name.startswith("cli."):
            values[f"{name}.p50_ms"] = 1e3 * s["p50_s"]
        else:
            values[f"{name}.p50_us"] = 1e6 * s["p50_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    values.update({
        "convexity.negative_frac": ratio(facts.get("negative", 0), facts.get("verdicts", 0)),
        "curvature.mc_samples_per_s": ratio(facts.get("mc_samples", 0),
                                            values["curvature.gauss_bonnet_sum.busy_s"]),
        "curvature.cone_cover.covered_frac": ratio(facts.get("covered", 0),
                                                   facts.get("cover_attempts", 0)),
        "constructions.ef_doubling.points": facts.get("ef_points", 0),
        "search.anneal_iters_per_s": ratio(facts.get("anneal_iters", 0),
                                           values["search.minimize_max_angle.busy_s"]),
        "search.size_per_kbudget": ratio(facts.get("found_points", 0),
                                         facts.get("budget", 0) / 1000.0),
        "cli.python_floor_ms": res["python_floor_ms"],
        "trace.overhead_pct": 100.0 * (res["traced_s"] / res["untraced_s"] - 1.0),
        "host.slowdown": res["slowdown"],
    })
    for name in QUALITY:
        values[name] = res["quality"].get(name, 0.0)
    units = per_layer_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    idle = [name for name in LIBRARY_SPANS + CLI_SPANS if values[f"{name}.calls"] == 0]
    hidden = {f"{name}.{field}" for name in idle
              for field in ("calls", "busy_s", "p50_us", "p50_ms")}
    lines = [f"  {k:<44} {v:>14.6g} {units[k]}" for k, v in values.items() if k not in hidden]
    lines.append(f"  ({len(idle)} spans with no calls on this workload not shown; traced pass "
                 f"{res['traced_s']:.3f} s against {res['untraced_s']:.3f} s untraced)")
    return metrics, lines


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    rounds = rounds_for(workload, seconds, trace)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rounds", str(rounds), "--trace", str(trace),
           "--budget-s", repr(OVERRUN * seconds), "--root", str(root)]
    env = worker_env(root)
    setups = []
    for _ in range(SETUP_RUNS - 1):
        proc, setup = launch(cmd + ["--setup-only"], env, deadline)
        finish(proc, deadline)
        setups.append(setup)
    proc, setup = launch(cmd, env, deadline)
    setups.append(setup)
    res = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    if trace:
        metrics, lines = per_layer(res)
    else:
        metrics, lines = end_to_end(res, setups)
    quality = "  ".join(f"{k}={v:.6g}" for k, v in res["quality"].items())
    fp = {"commit": git_commit(root), **res["fingerprint"]}
    summary = {"correct": res["failed"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    print(f"== {workload}  seed={seed}  rounds={rounds}  trace={trace}  "
          f"failed={res['failed']}/{res['attempted']} "
          f"(failed_frac={res['failed'] / res['attempted']:.4f})")
    print("\n".join(lines))
    if quality:
        print(f"  quality: {quality}")
    print(f"  env: {json.dumps(fp, sort_keys=True)}")
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {**summary, "workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "rounds": rounds, "quality": res["quality"], "env": fp,
              "setups": setups, "times": res["times"], "refs": res["refs"],
              "ref_nominal_s": res["ref_nominal_s"]}
    (out_dir / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    root = Path.cwd().resolve()
    if not (root / "src" / "anglebound" / "__init__.py").is_file():
        print("error: run from the repository root; src/anglebound is missing", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(root, w, args.seed, args.seconds, args.trace) for w in names}
    except (RuntimeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

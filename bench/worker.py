"""One workload in a fresh interpreter: warm up, signal ready, run the items, report.

Started by run.py, never by hand. Prints `ready` once imports and one
warm-up item are done (run.py times set-up up to that line) and, unless
--setup-only, one JSON line with the item times, failures and counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


def run_pass(wl, lib, tracer, seed: int, rounds: int, budget_s: float, log: dict):
    """Closed loop over `rounds` rounds: the next item starts when the last returns.

    Appends one list of item times per round to log["times"], and to
    log["refs"] the reference time measured just before each item. After
    `budget_s` seconds no further round starts, once two have run (one
    when `rounds` is 1).
    """
    start = time.perf_counter()
    for rnd in range(rounds):
        if rnd >= min(rounds, 2) and time.perf_counter() - start > budget_s:
            break
        items = wl.items(seed, rnd)
        outs = []
        times, refs = [], []
        log["times"].append(times)
        log["refs"].append(refs)
        for item in items:
            refs.append(wl.reference())
            tracer.item = log["attempted"]
            log["attempted"] += 1
            t0 = time.perf_counter()
            try:
                with tracer.span(f"item.{wl.name}"):
                    out = wl.run(item, lib, tracer)
            except Exception:
                times.append(time.perf_counter() - t0)
                fail(log, f"{wl.name} item raised:\n{traceback.format_exc()}")
                outs.append(None)
                continue
            times.append(time.perf_counter() - t0)
            outs.append(out)
            try:
                wl.check(item, out)
            except Exception as e:  # a check that cannot even read the output fails the item
                kind = "check failed" if isinstance(e, CheckFailed) else "check raised"
                fail(log, f"{wl.name} {kind}: {type(e).__name__}: {e}")
                continue
            for k, v in wl.facts(item, out).items():
                log["facts"][k] = log["facts"].get(k, 0) + v
        if rnd == 0 and "quality" not in log and None not in outs:
            log["quality"] = wl.quality(items, outs)


def fail(log: dict, message: str):
    log["failed"] += 1
    if log["failed"] <= 5:
        print(message, file=sys.stderr)


def fingerprint() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--budget-s", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = Path(args.root)

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:
        wl = cls(env=dict(os.environ), workdir=root / ".bench_out" / f"cli-{args.seed}")
        lib = None
    else:
        wl = cls()
        lib = workloads.load_library()
        src = (root / "src").resolve()
        if not Path(lib.geometry.__file__).resolve().is_relative_to(src):
            sys.exit(f"anglebound imported from {lib.geometry.__file__}, not {src}")
    warm_item = wl.warmup()
    warm_out = [wl.run(item, lib, NullTracer()) for item in warm_item]
    print("ready", flush=True)
    for item, out in zip(warm_item, warm_out):
        wl.check(item, out)
    wl.reference()
    if args.setup_only:
        return

    log = {"attempted": 0, "failed": 0, "times": [], "refs": [], "facts": {}}
    result = {}
    if args.trace:
        # The same rounds untraced, then traced: the gap is the tracing overhead.
        run_pass(wl, lib, NullTracer(), args.seed, args.rounds, args.budget_s / 2, log)
        traced = {"attempted": 0, "failed": 0, "times": [], "refs": [], "facts": {}}
        tracer = Tracer()
        run_pass(wl, lib, tracer, args.seed, args.rounds, args.budget_s / 2, traced)
        both = min(len(log["times"]), len(traced["times"]))

        def full_speed_s(p):
            return sum(map(sum, speed.scale(p["times"][:both], p["refs"][:both], wl.ref_nominal_s)))

        refs = [r for rnd in traced["refs"] for r in rnd]
        result.update(spans=tracer.summary(), facts=traced["facts"],
                      untraced_s=full_speed_s(log), traced_s=full_speed_s(traced),
                      slowdown=statistics.fmean(refs) / wl.ref_nominal_s)
        result["quality"] = traced.get("quality", log.get("quality", {}))
        result["python_floor_ms"] = workloads.python_floor_ms(dict(os.environ))
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        log["attempted"] += traced["attempted"]
        log["failed"] += traced["failed"]
    else:
        run_pass(wl, lib, NullTracer(), args.seed, args.rounds, args.budget_s, log)
        result["quality"] = log.get("quality", {})
    who = resource.RUSAGE_CHILDREN if cls is workloads.Cli else resource.RUSAGE_SELF
    result.update(attempted=log["attempted"], failed=log["failed"], times=log["times"],
                  refs=log["refs"], ref_nominal_s=wl.ref_nominal_s,
                  peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
                  fingerprint=fingerprint())
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

"""Run one workload over several seeds and report how steady each metric is.

    python3 curvebench/spread.py --workload spark --seeds 1 2 3 4 5
    python3 curvebench/spread.py --workload spark --seeds 1-10 --save a
    python3 curvebench/spread.py --workload spark --seeds 11-20 --against a

For each metric: the median over the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``), their distance as a share of the
median, and the metric's bound from ``BENCHMARK.json``.  With
``--against`` it also prints how far this set's median moved from a saved
set's.  It ends with the split of each run's wall time between set-up,
rounds, passes and the rest.  Run from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import OUT_DIR  # noqa: E402


def parse_seeds(items: list[str]) -> list[int]:
    out = []
    for item in items:
        if "-" in item:
            a, b = item.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(item))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    record_path = [ln.split("record: ", 1)[1] for ln in proc.stderr.splitlines()
                   if "record: " in ln][-1]
    with open(record_path) as f:
        record = json.load(f)
    return {"seed": seed, "wall_s": wall, "result": result, "raw": record["raw"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarise(runs: list[dict]) -> dict[str, dict]:
    names = list(runs[0]["result"]["metrics"])
    out = {}
    for name in names:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(vals) if len(vals) > 1 else (vals[0],) * 3
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "values": vals, "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", nargs="+", required=True, help="e.g. 1 2 3 or 1-10")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--save", help="save this set's summary under this name")
    ap.add_argument("--against", help="compare medians with a saved set")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        r = runs[-1]["result"]
        print(f"seed {seed}: {runs[-1]['wall_s']:.1f} s, attempted {r['attempted']}, "
              f"failed {r['failed']}", file=sys.stderr, flush=True)
    summary = summarise(runs)
    saved_dir = os.path.join(OUT_DIR, "spread")
    other = None
    if args.against:
        with open(os.path.join(saved_dir, f"{args.against}.json")) as f:
            other = json.load(f)["summary"]
    print(f"workload {args.workload}, {len(runs)} runs, seeds {args.seeds}, {seconds} s each")
    head = f"{'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'IQR/med':>8s} {'bound':>6s}"
    if other:
        head += f" {'shift':>7s}"
    print(head)
    for name, s in summary.items():
        bound = bounds.get(name)
        line = (f"{name:40s} {s['unit']:6s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                f"{100 * s['spread']:7.2f}% {'' if bound is None else f'{100 * bound:5.0f}%':>6s}")
        if other and name in other and other[name]["median"]:
            shift = s["median"] / other[name]["median"] - 1.0
            line += f" {100 * shift:+6.2f}%"
        print(line)
    walls = [r["wall_s"] for r in runs]
    setup = [sum(r["raw"]["setup_s"]) for r in runs]
    rounds = [r["raw"]["round_wall_s"] for r in runs]
    passes = [r["raw"]["pass_wall_s"] for r in runs]
    n_rounds = [len(r["raw"]["rounds"]) for r in runs]
    n_passes = [r["raw"]["passes"] for r in runs]
    med = statistics.median
    print(
        f"run wall {med(walls):.1f} s (max {max(walls):.1f}): set-up {med(setup):.1f} s, "
        f"rounds {med(rounds):.1f} s ({med(n_rounds)} rounds), "
        f"passes {med(passes):.1f} s ({med(n_passes)} passes), "
        f"other {med(walls) - med(setup) - med(rounds) - med(passes):.1f} s"
    )
    if args.save:
        os.makedirs(saved_dir, exist_ok=True)
        with open(os.path.join(saved_dir, f"{args.save}.json"), "w") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                       "summary": summary, "walls": walls}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

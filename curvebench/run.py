"""Benchmark of the curve-layout system: learning, block-store queries, Spark.

Run from the root of a checkout:

    python3 curvebench/run.py --workload learn --seed 1 --seconds 15 --trace 0

Workloads: ``learn`` (numpy + ``repro``, see ``local.py``) and ``spark``
(local Spark session, see ``sparkload.py``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Progress goes to standard
error and one record per run to ``curvebench/out/records/``.  The exit
code is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import os
import sys

# Before numpy is imported anywhere: one BLAS / OpenMP thread, no bytecode
# files in the checkout.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

WORKLOADS = ("learn", "spark")
SRC = "src"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def check_names(metrics: dict, trace: bool) -> None:
    """Refuse to print metrics other than the ones ``BENCHMARK.json`` lists."""
    from layers import E2E_UNITS, LAYER_UNITS

    want = LAYER_UNITS if trace else E2E_UNITS
    got = {k: u for k, (_, u) in metrics.items()}
    if got != want:
        raise ValueError(
            f"metric names or units differ from the table: "
            f"{sorted(set(got.items()) ^ set(want.items()))}"
        )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no {SRC}/repro here: run from the root of a checkout", file=sys.stderr)
        return 2
    src = os.path.abspath(SRC)
    sys.path.insert(0, src)
    # Spark's Python workers import repro too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    import harness

    if args.workload == "spark":
        import sparkload as workload
    else:
        import local as workload
    checker, metrics, record = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    check_names(metrics, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": harness.environment(),
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **record,
    }
    path = harness.write_record(record)
    for msg in checker.messages:
        harness.log(f"CHECK FAILED: {msg}")
    for name, (value, unit) in metrics.items():
        harness.log(f"  {name:44s} {value:14.6g} {unit}")
    harness.log(f"record: {path}")
    print(harness.result_line(checker, metrics), flush=True)
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

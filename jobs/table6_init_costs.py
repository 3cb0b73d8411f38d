"""Reproduce Table 6: initialization costs of GC and LC, varying n.

Table 6 is a view of the Figures 9-10 timing pass (``fig9_10.rows``).

Usage: python jobs/table6_init_costs.py [--quick]
"""
import argparse
import sys

from repro.experiments import fig9_10
from repro.experiments.common import render_table, sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="fewer n values")
    ap.add_argument("--ell", type=int, default=10)
    ap.add_argument("--delta", type=int, default=16)
    args = ap.parse_args(argv)
    table = fig9_10.TABLE6
    if args.quick:
        table = table._replace(values=tuple(2**i for i in (1, 4, 7, 10)))
    star = {**fig9_10.STAR, "ell": args.ell, "delta": args.delta}
    print(render_table(table.title, sweep(fig9_10.rows, star, {"6": table})["6"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

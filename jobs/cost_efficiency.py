"""Reproduce Figures 9-10: GC/LC vs NGC/NLC estimation times.

Usage: python jobs/cost_efficiency.py [--sweep {n,delta,ell,d,all}]
"""
import argparse
import sys

from repro.experiments import fig9_10
from repro.experiments.common import render_table, sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sweep", choices=["n", "delta", "ell", "d", "all"], default="all")
    args = ap.parse_args(argv)
    figures = {k: f for k, f in fig9_10.FIGURES.items() if args.sweep in (k, "all")}
    for k, rows in sweep(fig9_10.rows, fig9_10.STAR, figures).items():
        print(render_table(figures[k].title, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())

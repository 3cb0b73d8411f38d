"""Reproduce Figures 11-13: BMTree with SP vs GC vs LC rewards.

Usage: python jobs/bmtree_variants.py [--figure {11,12,13,all}]
"""
import argparse
import sys

from repro.experiments import fig11_13
from repro.experiments.common import render_table, sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--figure", choices=["11", "12", "13", "all"], default="all")
    args = ap.parse_args(argv)
    figures = {k: f for k, f in fig11_13.FIGURES.items() if args.figure in (k, "all")}
    for k, rows in sweep(fig11_13.rows, fig11_13.STAR, figures).items():
        print(render_table(figures[k].title, rows))
    if args.figure in ("13", "all"):
        print(render_table(fig11_13.FIG13.title, fig11_13.vary_rho_and_h(fig11_13.STAR)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

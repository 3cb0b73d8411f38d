"""Reproduce Figures 14-17: block accesses of LBMC vs competitors.

Usage: python jobs/block_access.py [--figure {14,15,16,17,all}]
"""
import argparse
import sys

from repro.experiments import fig14_17
from repro.experiments.common import render_table, sweep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--figure", choices=["14", "15", "16", "17", "all"], default="all")
    ap.add_argument("--n-pts", type=int, default=100_000)
    args = ap.parse_args(argv)
    figures = {k: f for k, f in fig14_17.FIGURES.items() if args.figure in (k, "all")}
    star = {**fig14_17.STAR, "n_pts": args.n_pts}
    for k, rows in sweep(fig14_17.rows, star, figures).items():
        print(render_table(figures[k].title, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())

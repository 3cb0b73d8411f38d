"""Figures 9 & 10 and Table 6 — cost-estimation efficiency (§6.2).

Times one *per-candidate-BMC* estimation (initialization excluded, as
in the paper) for the efficient algorithms (GC = Eq. 6 scoring,
LC = Algorithm 2) against the naive baselines (NGC = Eq. 5 over all
queries, NLC = brute-force section counting), sweeping n, delta, ell
and d.  Paper shape: GC/LC flat in n and delta; NGC linear in n; NLC
grows with n and delta; gains up to ~24x (GC) and ~1e5 x (LC).

The same pass times the two initializations — IGC, the O(n) scan
building the coefficients A[j][k], and ILC, the O(n) pattern-table
build (Algorithm 1) — which Table 6 sets against NGC and NLC at
n = 2^1 .. 2^10.  The paper's claim: IGC < NGC and ILC < NLC at
moderate n, with all four growing roughly linearly in n.
"""
from __future__ import annotations

from repro.core.bmc import BMC
from repro.core.global_cost import GlobalCostEstimator, naive_global_cost
from repro.core.local_cost import PatternTables, naive_local_cost
from repro.workloads.queries import random_squares
from .common import Figure, time_call

SEED = 0
REPEATS = 5
# Table 5 (cost estimation): n = 2^4 square queries of edge 2^4 at
# random locations; the paper's ell = 10 and d = 2.
STAR = {"n": 16, "delta": 16, "ell": 10, "d": 2}
TIMES = ("GC_us", "NGC_us", "LC_us", "NLC_us", "gain_GC", "gain_LC")
FIGURES = {
    "n": Figure("Fig 9a/10a — vary n", "n", tuple(2**i for i in range(0, 11, 2)), columns=TIMES),
    "delta": Figure("Fig 9b/10b — vary delta", "delta", (16, 32, 64, 128, 256), columns=TIMES),
    "ell": Figure("Fig 9c/10c — vary ell", "ell", (10, 12, 14, 16), columns=TIMES),
    # NLC enumerates delta^d cells per query, so d moves on a smaller grid
    "d": Figure(
        "Fig 9d/10d — vary d (gains)", "d", (2, 3, 4),
        columns=("gain_GC", "gain_LC"), fixed={"ell": 8, "delta": 8},
    ),
}
TABLE6 = Figure(
    "Table 6 — initialization costs of GC and LC", "n", tuple(2**i for i in range(1, 11)),
    columns=("IGC_ms", "NGC_ms", "ILC_s", "NLC_s", "IGC<NGC", "ILC<NLC"),
)


def rows(n, delta, ell, d) -> list[dict]:
    """One configuration's timings over ZC: both initializations, then
    one estimation by each of GC, NGC, LC and NLC."""
    queries = random_squares(n, ell, delta, seed=SEED, d=d)
    sigma = BMC.zc(d, ell)
    t_igc, gc_est = time_call(GlobalCostEstimator, queries, d, ell, repeats=REPEATS)
    t_ilc, lc_est = time_call(PatternTables, queries, d, ell, repeats=REPEATS)
    t_gc, _ = time_call(gc_est.cost, sigma, repeats=REPEATS)
    t_ngc, _ = time_call(naive_global_cost, sigma, queries, repeats=REPEATS)
    t_lc, _ = time_call(lc_est.local_cost, sigma, repeats=REPEATS)
    t_nlc, _ = time_call(naive_local_cost, sigma, queries, repeats=REPEATS)
    return [{
        "GC_us": round(t_gc * 1e6, 2),
        "NGC_us": round(t_ngc * 1e6, 2),
        "LC_us": round(t_lc * 1e6, 2),
        "NLC_us": round(t_nlc * 1e6, 2),
        "gain_GC": round(t_ngc / t_gc, 1) if t_gc > 0 else float("inf"),
        "gain_LC": round(t_nlc / t_lc, 1) if t_lc > 0 else float("inf"),
        "IGC_ms": round(t_igc * 1e3, 3),
        "NGC_ms": round(t_ngc * 1e3, 3),
        "ILC_s": round(t_ilc, 5),
        "NLC_s": round(t_nlc, 5),
        "IGC<NGC": t_igc < t_ngc,
        "ILC<NLC": t_ilc < t_nlc,
    }]

"""The ``learn`` workload: one process, numpy and ``repro``.

d = 2, ell = 16, the OSM-like table of 10^6 points and data-following
queries with delta = 1024 at aspect 1:16.  A round is learn (estimator
init over 10^5 learning queries -> QUILTS -> LBMC warm-started from the
QUILTS winner -> BMTree-SP/-GC/-LC) -> layout (curve values of every
point -> block store build).  A pass runs 200 test queries through
``BlockStore.query``.  The estimator init and the learners dominate.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import checks
from harness import (
    Checker,
    RefKernel,
    Tracer,
    e2e_metrics,
    log,
    peak_rss_mb,
    raw_record,
    repeated,
)
from layers import LayerReport, measure, probe_cost_cache

D, ELL, DELTA = 2, 16, 1024
#: The table and the learners' seed are fixed; ``--seed`` draws the queries.
DATASET_SEED = 0
LEARNER_SEED = 0
BMTREE_H = 6
BMTREE_QUERIES = 1000
BMTREE_SAMPLE_RATE = 1e-2
COST_PROBE_CURVES = 32  # unseen curves scored per traced round, cold then warm
STORE_SUM_CHECKS = 50  # test queries whose stored rows are summed against DuckDB
# Across processes, LBMC rounds and block-store queries slow down in step
# with the reference kernel's ``stream`` part (log-log slope ~1).
NORMALISE_BY = {"setup": ("stream",), "rounds": ("stream",), "queries": ("stream",)}


@dataclass(frozen=True)
class Config:
    n_points: int
    n_learn: int
    n_test: int
    aspect: float
    setup_reps: int
    round_share: float  # share of the measured time given to rounds
    chunk: int  # test queries per scheduled unit
    min_rounds: int
    oracle_queries: int  # learning queries whose estimator is checked against them
    tail_pct: float  # latency percentile with >= 10 queries of a pass beyond it


CONFIG = Config(10**6, 10**5, 200, 1 / 16, 5, 0.85, 40, 3, 10**4, 95)


def seeds(seed: int) -> dict[str, int]:
    return {"learn": 1000 * seed + 1, "test": 1000 * seed + 2}


def make_inputs(cfg: Config, seed: int, tracer: Tracer):
    from repro.workloads.datasets import make_dataset
    from repro.workloads.queries import data_following

    s = seeds(seed)
    with tracer.span("workloads.datasets.make_dataset"):
        points = make_dataset("OSM", cfg.n_points, ELL, seed=DATASET_SEED)
    with tracer.span("workloads.queries.data_following"):
        learn = data_following(points, cfg.n_learn, ELL, DELTA, cfg.aspect, seed=s["learn"])
        test = data_following(points, cfg.n_test, ELL, DELTA, cfg.aspect, seed=s["test"])
    return points, learn, test


class LocalWorkload:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        self.name, self.cfg, self.seed = name, CONFIG, seed
        self.seconds, self.trace = seconds, trace
        self.ref = RefKernel()
        self.tracer = Tracer(trace)
        self.results: list[dict] = []  # per round: curves and learner outputs
        self.answers: dict[int, tuple[int, int]] = {}  # query -> (rows, blocks)
        self.store = None

    # -- one round: learn -> layout ------------------------------------------
    def do_round(self, i: int) -> dict[str, float]:
        from repro.core.cost_model import WorkloadCostEstimator
        from repro.learn.bmtree import REWARDS, BMTreeLite
        from repro.learn.lbmc import LBMC
        from repro.learn.quilts import quilts
        from repro.storage.blockstore import BlockStore

        tr = self.tracer
        # a traced run alternates traced and untraced rounds to measure overhead
        tr.enabled = self.trace and i % 2 == 0
        t0 = time.perf_counter()
        est = WorkloadCostEstimator(self.learn, D, ELL)
        t_init = time.perf_counter()
        with tr.span("learn.quilts"):
            qr = quilts(est, self.learn)
        t_quilts = time.perf_counter()
        with tr.span("learn.lbmc"):
            res = LBMC(est, seed=LEARNER_SEED).learn(warm_start=[qr.best])
        t_lbmc = time.perf_counter()
        bmtree = {}
        for reward in REWARDS:
            with tr.span(f"learn.bmtree.{reward}"):
                tree = BMTreeLite(
                    D, ELL, h=BMTREE_H, reward=reward,
                    sample_rate=BMTREE_SAMPLE_RATE, seed=LEARNER_SEED,
                ).fit(self.points, self.learn[:BMTREE_QUERIES])
            bmtree[reward] = tree.stats
        t_learn = time.perf_counter()
        values = res.best.values(self.points)
        self.store = BlockStore(self.points, values)
        t_layout = time.perf_counter()
        if tr.enabled:  # outside the round's timings
            probe_cost_cache(tr, est, checks.random_curves(D, ELL, COST_PROBE_CURVES, 1000 + i))
        tr.enabled = self.trace
        self.results.append(
            {"traced": self.trace and i % 2 == 0, "quilts": qr, "lbmc": res, "bmtree": bmtree}
        )
        return {
            "learn_s": t_learn - t0,
            "layout_s": t_layout - t_learn,
            "init_s": t_init - t0,
            "quilts_s": t_quilts - t_init,
            "lbmc_s": t_lbmc - t_quilts,
            "bmtree_s": t_learn - t_lbmc,
        }

    # -- one test query ------------------------------------------------------
    def do_query(self, i: int) -> float:
        q = self.test[i]
        t0 = time.perf_counter()
        s = self.tracer.begin("storage.blockstore.query")
        n, blocks = self.store.query(q)
        self.tracer.end(s)
        dt = time.perf_counter() - t0
        self.answers[i] = (n, blocks)
        return dt

    # -- the whole run ---------------------------------------------------------
    def run(self):
        cfg = self.cfg
        self.ref.run()
        setup, (self.points, self.learn, self.test) = repeated(
            cfg.setup_reps, lambda: make_inputs(cfg, self.seed, self.tracer), self.ref
        )
        log(f"[{self.name}] set-up {np.median([t for t, _ in setup]):.3f} s; warming up")
        self.tracer.unit = "warmup"
        self.tracer.enabled = False
        self.do_round(-1)
        self.results.clear()
        for i in range(min(cfg.chunk, cfg.n_test)):
            self.do_query(i)
        self.answers.clear()
        log(f"[{self.name}] warmed up; measuring")
        smp = measure(
            self.tracer, self.ref, self.seconds, self.trace, self.do_round, self.do_query,
            cfg.n_test, cfg.chunk, cfg.round_share, cfg.min_rounds,
        )
        log(
            f"[{self.name}] {len(smp.rounds)} rounds in {smp.round_wall_s:.1f} s, "
            f"{smp.passes} passes in {smp.pass_wall_s:.1f} s; checking"
        )
        checker, facts = self.check()
        facts["peak_rss_mb"] = peak_rss_mb()
        if self.trace:
            metrics = self.layer_metrics(smp, facts)
        else:
            metrics = e2e_metrics(smp, setup, facts, cfg.tail_pct, NORMALISE_BY)
        record = {
            "params": {"config": cfg.__dict__, "d": D, "ell": ELL, "delta": DELTA,
                       "dataset_seed": DATASET_SEED, "learner_seed": LEARNER_SEED,
                       "seeds": seeds(self.seed)},
            "raw": raw_record(smp, setup, self.ref),
            "facts": facts,
            "checks": checker.messages,
        }
        if self.trace:
            record["spans"] = self.tracer.as_records()
        return checker, metrics, record

    def check(self):
        from repro.core.bmc import BMC
        from repro.core.cost_model import WorkloadCostEstimator

        checker = Checker()
        best = self.results[-1]["lbmc"].best
        zc = BMC.zc(D, ELL)
        fresh = WorkloadCostEstimator(self.learn, D, ELL)
        for r in self.results:
            res = r["lbmc"]
            checker.check(
                res.best_cost == fresh.cost(res.best),
                f"LBMC best_cost {res.best_cost} != fresh C({res.best}) {fresh.cost(res.best)}",
            )
        # The brute-force Cl costs ~60 us a query: it checks a fresh
        # estimator over the first 10^4 queries, not all 10^5.
        sub = self.learn[: self.cfg.oracle_queries]
        est = fresh if len(sub) == len(self.learn) else WorkloadCostEstimator(sub, D, ELL)
        checks.check_estimator(checker, est, [best, zc], sub, "estimator")
        oracle = checks.RangeOracle(self.points)
        try:
            checks.check_answers(
                checker, oracle, self.test,
                {i: (n,) for i, (n, _) in self.answers.items()}, "block store",
            )
            B = self.store.block_size
            for i, (n, blocks) in self.answers.items():
                checker.check(
                    -(-n // B) <= blocks <= n, f"query {i}: {blocks} blocks for {n} rows"
                )
            # the store still holds every row: sum its rows inside sampled queries
            pts = self.store.points
            for i in range(0, self.cfg.n_test, max(1, self.cfg.n_test // STORE_SUM_CHECKS)):
                q = self.test[i]
                m = ((pts[:, 0] >= q.lo[0]) & (pts[:, 0] <= q.hi[0])
                     & (pts[:, 1] >= q.lo[1]) & (pts[:, 1] <= q.hi[1]))
                sel = pts[m].astype(np.int64)
                got = (int(m.sum()), int(sel[:, 0].sum()), int(sel[:, 1].sum()))
                want = oracle.answer(q)
                checker.check(got == want, f"stored rows in query {i}: {got} vs {want}")
        finally:
            oracle.close()
        rows = np.array([self.answers[i][0] for i in sorted(self.answers)], dtype=float)
        blocks = np.array([self.answers[i][1] for i in sorted(self.answers)], dtype=float)
        facts = {
            "chosen": best.to_string(),
            "chosen_cost": fresh.cost(best),
            "zc_cost": fresh.cost(zc),
            "blocks_per_query": float(blocks.mean()),
            "rows_per_query": float(rows.mean()),
            "rows_read_per_query": float(blocks.mean()) * self.store.block_size,
            "precision": float(np.mean(rows / np.maximum(1.0, blocks * self.store.block_size))),
            "answered": len(self.answers),
        }
        return checker, facts

    def layer_metrics(self, smp, facts) -> dict:
        tr = self.tracer
        rep = LayerReport(tr, smp.rounds, [r["traced"] for r in self.results], self.ref)
        lbmc_s = tr.per_unit_total("learn.lbmc", rep.units)
        lbmc = [r["lbmc"] for r in self.results if r["traced"]]
        reward = [r.reward_seconds for r in lbmc]
        rep.out.update({
            "learn.quilts.candidates": float(self.results[-1]["quilts"].n_candidates),
            "learn.lbmc.s": float(np.median(lbmc_s)),
            "learn.lbmc.reward_s": float(np.median(reward)),
            "learn.lbmc.dqn_s": float(np.median([a - b for a, b in zip(lbmc_s, reward)])),
            "learn.lbmc.reward_evals": float(np.median([r.n_reward_evals for r in lbmc])),
            "learn.lbmc.improved_share": float(np.mean(
                [r["lbmc"].best_cost < r["lbmc"].initial_cost for r in self.results]
            )),
            "core.bmc.values_s": rep.per_round("core.bmc.values"),
            "storage.blockstore.build_s": rep.per_round("storage.blockstore.build"),
            "storage.blockstore.query_ms": rep.per_call_ms("storage.blockstore.query"),
            "storage.blockstore.blocks_per_query": facts["blocks_per_query"],
            "storage.blockstore.rows_per_query": facts["rows_per_query"],
            "storage.blockstore.precision": facts["precision"],
        })
        bm = [r["bmtree"] for r in self.results]
        for reward_name in ("sp", "gc", "lc"):
            rep.out[f"learn.bmtree.{reward_name}_s"] = rep.per_round(f"learn.bmtree.{reward_name}")
        rep.out["learn.bmtree.reward_s"] = float(
            np.median([sum(s.reward_seconds for s in b.values()) for b in bm])
        )
        rep.out["learn.bmtree.reward_evals"] = float(
            np.median([sum(s.n_reward_evals for s in b.values()) for b in bm])
        )
        return rep.metrics()


def run(name: str, seed: int, seconds: float, trace: bool):
    return LocalWorkload(name, seed, seconds, trace).run()

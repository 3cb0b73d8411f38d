"""Metric names and the per-layer probes of a traced run.

A traced run (``--trace 1``) wraps the entry points of ``repro``'s layers
with spans for the duration of the run and restores them afterwards.
Calls the workloads make directly (QUILTS, LBMC, BMTree, block-store
queries, the Spark calls) get spans at the call site instead.  A probe
whose target no longer exists raises: the run fails rather than report
a layer time of 0.
"""
from __future__ import annotations

import functools
import importlib

import numpy as np

from harness import RefKernel, Samples, Scheduler, Tracer

#: End-to-end metrics every workload prints with ``--trace 0``.
E2E_UNITS = {
    "setup_s": "s",
    "learn_s": "s",
    "layout_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
    "rows_read_per_query": "rows",
    "chosen_cost_vs_zc": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every workload prints with ``--trace 1``; a layer a
#: workload does not reach reads 0.
LAYER_UNITS = {
    "env.ref_ms": "ms",
    "env.ref_stream_ms": "ms",
    "env.ref_spark_ms": "ms",
    "trace.overhead_pct": "%",
    "workloads.datasets.make_dataset_s": "s",
    "workloads.queries.data_following_s": "s",
    "core.query.to_arrays_s": "s",
    "core.global_cost.init_s": "s",
    "core.local_cost.init_s": "s",
    "core.cost_model.init_s": "s",
    "core.cost_model.cost_cold_us": "us",
    "core.cost_model.cost_warm_us": "us",
    "core.local_cost.profile_cache_hit_rate": "ratio",
    "learn.quilts.s": "s",
    "learn.quilts.candidates": "count",
    "learn.lbmc.s": "s",
    "learn.lbmc.reward_s": "s",
    "learn.lbmc.dqn_s": "s",
    "learn.lbmc.reward_evals": "count",
    "learn.lbmc.improved_share": "ratio",
    "learn.bmtree.sp_s": "s",
    "learn.bmtree.gc_s": "s",
    "learn.bmtree.lc_s": "s",
    "learn.bmtree.reward_s": "s",
    "learn.bmtree.reward_evals": "count",
    "core.bmc.values_s": "s",
    "storage.blockstore.build_s": "s",
    "storage.blockstore.query_ms": "ms",
    "storage.blockstore.blocks_per_query": "blocks",
    "storage.blockstore.rows_per_query": "rows",
    "storage.blockstore.precision": "ratio",
    "sparkops.estimator.to_spark_s": "s",
    "sparkops.estimator.fit_s": "s",
    "sparkops.layout.choose_s": "s",
    "sparkops.curve_udf.values_s": "s",
    "sparkops.layout.write_s": "s",
    "sparkops.layout.query_ms": "ms",
    "sparkops.layout.jobs_per_query": "count",
    "sparkops.layout.scan_ms": "ms",
    "sparkops.layout.scan_rows_per_row_returned": "ratio",
    "sparkops.layout.files_per_query": "files",
    "sparkops.layout.bytes_per_row": "B",
}

# (module, attribute, span name) of the layer entry points to wrap.
PROBES = [
    ("repro.core.global_cost", "queries_to_arrays", "core.query.to_arrays"),
    ("repro.core.local_cost", "queries_to_arrays", "core.query.to_arrays"),
    ("repro.core.global_cost", "GlobalCostEstimator.__init__", "core.global_cost.init"),
    ("repro.core.local_cost", "PatternTables.__init__", "core.local_cost.init"),
    ("repro.core.cost_model", "WorkloadCostEstimator.__init__", "core.cost_model.init"),
    ("repro.core.bmc", "BMC.values", "core.bmc.values"),
    ("repro.storage.blockstore", "BlockStore.__init__", "storage.blockstore.build"),
]


class Probes:
    """Installs span wrappers on ``repro``; ``remove`` restores them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        # the local-cost drop-profile cache: its misses tell cold calls from warm
        owner, leaf = _resolve("repro.core.local_cost", "_drop_profile.cache_info")
        self.cache_info = getattr(owner, leaf)

    def install(self) -> "Probes":
        for module, attr, name in PROBES:
            owner, leaf = _resolve(module, attr)
            self._patch(owner, leaf, self._span_wrapper(getattr(owner, leaf), name))
        owner, leaf = _resolve("repro.core.cost_model", "WorkloadCostEstimator.cost")
        self._patch(owner, leaf, self._cost_wrapper(getattr(owner, leaf)))
        return self

    def remove(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def _patch(self, owner, leaf, wrapper) -> None:
        self._undo.append((owner, leaf, getattr(owner, leaf)))
        setattr(owner, leaf, wrapper)

    def _span_wrapper(self, fn, name):
        tracer = self.tracer

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            s = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(s)

        return probe

    def _cost_wrapper(self, fn):
        """Spans ``cost`` calls as cold (the call missed the drop-profile
        cache) or warm."""
        tracer, cache_info = self.tracer, self.cache_info

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            misses = cache_info().misses
            s = tracer.begin("core.cost_model.cost")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(s)
                if s is not None:
                    cold = cache_info().misses > misses
                    s.name = "core.cost_model.cost.cold" if cold else "core.cost_model.cost.warm"

        return probe


def measure(tracer: Tracer, ref: RefKernel, seconds: float, trace: bool, do_round, do_query,
            n_queries: int, chunk: int, round_share: float, min_rounds: int) -> Samples:
    """The measured part of a run: rounds and pass chunks interleaved by
    the ``Scheduler``, with the probes installed when the run is traced
    (which then needs 4 rounds: 2 traced, 2 not)."""
    tracer.enabled = trace
    probes = Probes(tracer).install() if trace else None
    try:
        return Scheduler(seconds, ref, tracer).run(
            do_round, do_query, n_queries, chunk, round_share,
            max(min_rounds, 4 if trace else 0),
        )
    finally:
        if probes:
            probes.remove()


CACHE_PROBE = "core.cost_model.cache_probe"


def probe_cost_cache(tracer: Tracer, est, curves) -> None:
    """Score curves the run has not seen yet twice, so that a traced round
    has cold and warm ``cost`` calls even when its own calls all hit."""
    with tracer.span(CACHE_PROBE):
        for _ in range(2):
            for sigma in curves:
                est.cost(sigma)


def cost_metrics(tracer: Tracer, units: list[str]) -> dict[str, float]:
    """Per-call cold and warm ``cost`` time, and the drop-profile cache hit
    rate of the workload's own calls (those outside the cache probe)."""
    by_id = {s.id: s for s in tracer.spans}
    times = {"cold": [], "warm": []}
    own = {"cold": 0, "warm": 0}
    for s in tracer.spans:
        if s.unit not in units or not s.name.startswith("core.cost_model.cost."):
            continue
        kind = s.name.rsplit(".", 1)[1]
        times[kind].append(s.duration)
        if s.parent is None or by_id[s.parent].name != CACHE_PROBE:
            own[kind] += 1
    calls = own["cold"] + own["warm"]
    return {
        "core.cost_model.cost_cold_us": float(np.median(times["cold"])) * 1e6 if times["cold"] else 0.0,
        "core.cost_model.cost_warm_us": float(np.median(times["warm"])) * 1e6 if times["warm"] else 0.0,
        "core.local_cost.profile_cache_hit_rate": own["warm"] / calls if calls else 0.0,
    }


class LayerReport:
    """Per-layer metrics of a traced run, from the spans of its traced
    rounds; ``out`` starts with every metric at 0 and the layers every
    workload shares."""

    def __init__(self, tracer: Tracer, rounds: list[dict], traced: list[bool], ref: RefKernel):
        self.tracer = tracer
        self.units = [f"round{i}" for i, on in enumerate(traced) if on]

        def whole(on: bool) -> float:
            return float(np.median(
                [r["learn_s"] + r["layout_s"] for r, t in zip(rounds, traced) if t == on]
            ))

        self.out = dict.fromkeys(LAYER_UNITS, 0.0)
        self.out.update({
            "env.ref_ms": ref.median_ms("cpu"),
            "env.ref_stream_ms": ref.median_ms("stream"),
            "env.ref_spark_ms": ref.median_ms("spark") if "spark" in ref.samples_ms else 0.0,
            "trace.overhead_pct": (whole(True) / whole(False) - 1.0) * 100.0,
            "workloads.datasets.make_dataset_s": self.setup("workloads.datasets.make_dataset"),
            "workloads.queries.data_following_s": self.setup("workloads.queries.data_following"),
            "core.query.to_arrays_s": self.per_round("core.query.to_arrays"),
            "core.global_cost.init_s": self.per_round("core.global_cost.init", self_only=True),
            "core.local_cost.init_s": self.per_round("core.local_cost.init", self_only=True),
            "core.cost_model.init_s": self.per_round("core.cost_model.init"),
            "learn.quilts.s": self.per_round("learn.quilts"),
            **cost_metrics(tracer, self.units),
        })

    def per_round(self, name: str, self_only: bool = False) -> float:
        """Median over traced rounds of the round's total (self) time in ``name``."""
        return float(np.median(self.tracer.per_unit_total(name, self.units, self_only)))

    def per_call_ms(self, name: str) -> float:
        d = [s.duration for s in self.tracer.spans if s.name == name]
        return float(np.median(d)) * 1e3 if d else 0.0

    def setup(self, name: str) -> float:
        d = [s.duration for s in self.tracer.named(name, {"setup"})]
        return float(np.median(d)) if d else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {k: (v, LAYER_UNITS[k]) for k, v in self.out.items()}


def _resolve(module: str, attr: str):
    """(owner object, leaf name) of ``module.attr``; raises if it is gone."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for p in path:
        owner = getattr(owner, p)
    if not hasattr(owner, leaf):
        raise AttributeError(f"probe target {module}.{attr} does not exist")
    return owner, leaf

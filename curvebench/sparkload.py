"""The ``spark`` workload: the curve-layout path through a local Spark session.

d = 2, ell = 16, an OSM-like table of 100,000 points cached as a
DataFrame, 10^4 data-following learning queries (delta = 1024, aspect
1:1) and 50 square test queries.  A round is ``queries_to_spark`` ->
``fit_estimator_distributed`` -> ``choose_layout`` over the QUILTS
candidates (which hold ZC and both lexicographic curves) ->
``write_curve_ordered`` to 16 Parquet files.  A pass runs every test
query through ``run_range_query(...).collect()``; the scan's own metrics
(files, rows, scan time) are read from the executed plan afterwards,
outside the timed region.  After every unit of work the reference kernel
also times a fixed Spark range query over a table of its own, which
imports nothing from ``repro``; test-query latencies are normalised by it.
"""
from __future__ import annotations

import os
import signal
import time

import numpy as np

import checks
from harness import (
    OUT_DIR,
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
from local import D, DATASET_SEED, DELTA, ELL, seeds

N_POINTS = 100_000
N_LEARN = 10_000
N_TEST = 50
TAIL_PCT = 80  # latency percentile with 10 queries of a pass beyond it
QUERY_PARTITIONS = 8
N_FILES = 16
REF_ROWS = 100_000
SETUP_REPS = 3
ROUND_SHARE = 0.4
CHUNK = 10
WARMUP_QUERIES = 10
MIN_ROUNDS = 4
# Test queries slow down with the machine in step with a fixed Spark range
# query (the ``spark`` reference part).  Rounds and set-up mix driver-side
# Python, numpy in the Python workers and Spark jobs, and no single part
# tracks them: they use the geometric mean of all three.
NORMALISE_BY = {
    "setup": ("cpu", "stream", "spark"),
    "rounds": ("cpu", "stream", "spark"),
    "queries": ("spark",),
}
COLS = ["x", "y"]
# Two task slots: with the driver, the JVM's own threads and one Python
# worker per task, more would oversubscribe a 4-vCPU machine.
CORES = max(1, min(2, os.cpu_count() or 1))
SHUFFLE_PARTITIONS = 16
DRIVER_MEMORY = "1g"
# C1 only: on 4 vCPUs the JVM's C2 compilations compete with the tasks and
# keep queries slow for tens of seconds; with C1 they settle within ~20.
JIT = "-XX:TieredStopAtLevel=1"
# A fixed heap and young generation and one GC thread: the JVM's peak
# resident set no longer depends on when the collector chose to grow.
GC = f"-Xms{DRIVER_MEMORY} -Xmn256m -XX:+UseSerialGC"
COST_PROBE_CURVES = 32  # unseen curves scored per traced round, cold then warm
RANDOM_CURVES = 16  # extra curves on which distributed and local estimators must agree


# ---------------------------------------------------------------------------
# Session lifetime
# ---------------------------------------------------------------------------


def start_spark():
    spark_dir = os.path.abspath(os.path.join(OUT_DIR, "spark"))
    tmp = os.path.join(spark_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp  # pyspark's and the workers' temp files
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{CORES}]")
        .appName("curvebench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.default.parallelism", str(CORES))
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.bindAddress", "127.0.0.1")
        .config("spark.local.dir", os.path.join(spark_dir, "local"))
        .config("spark.sql.warehouse.dir", os.path.join(spark_dir, "warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData {JIT} {GC}")
        .config("spark.ui.retainedJobs", "100000")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == pid:
            out.append(int(entry))
    return out


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        kids = _children(todo.pop())
        out.extend(kids)
        todo.extend(kids)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def jvm_process():
    from pyspark import SparkContext

    return getattr(SparkContext._gateway, "proc", None)


def jvm_peak_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def stop_spark(spark, timeout: float = 60.0) -> None:
    """Stop the session, end its JVM and wait for the JVM's Python workers."""
    from pyspark import SparkContext

    proc = jvm_process()
    workers = _descendants(proc.pid) if proc else []
    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=timeout)
        except Exception:  # noqa: BLE001 - any failure to exit ends in a kill
            proc.kill()
            proc.wait(timeout=timeout)
    SparkContext._gateway = None
    SparkContext._jvm = None
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in workers) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in workers:
        if _alive(p):
            os.kill(p, signal.SIGKILL)


# ---------------------------------------------------------------------------
# Reference query: a fixed Spark range query that imports nothing from repro
# ---------------------------------------------------------------------------


def write_ref_table(spark, path: str) -> None:
    """A fixed table shaped like the workload's: REF_ROWS pseudo-random
    (x, y) in [0, 2^16) over N_FILES Parquet files."""
    spark.range(0, REF_ROWS, 1, N_FILES).selectExpr(
        "id * 40503 % 65536 AS x", "id * 9973 % 65536 AS y"
    ).write.mode("overwrite").parquet(path)


def ref_query(spark, path: str) -> int:
    """Read the reference table and collect a range of it, the way
    ``run_range_query`` does, outside the workload's job groups."""
    from pyspark.sql import functions as F

    sc = spark.sparkContext
    group = sc.getLocalProperty("spark.jobGroup.id")
    sc.setLocalProperty("spark.jobGroup.id", "curvebench-ref")
    try:
        df = spark.read.parquet(path).filter(
            (F.col("x") >= 20000) & (F.col("x") <= 21023) & (F.col("y") <= 20000)
        )
        return len(df.select("x", "y").collect())
    finally:
        sc.setLocalProperty("spark.jobGroup.id", group)


# ---------------------------------------------------------------------------
# Engine metrics of an executed query
# ---------------------------------------------------------------------------


def scan_metrics(df) -> dict[str, int]:
    """Summed metrics of the file-scan leaves of ``df``'s executed plan."""
    out = {"numFiles": 0, "numOutputRows": 0, "scanTime": 0, "filesSize": 0}
    leaves = df._jdf.queryExecution().executedPlan().collectLeaves().iterator()
    while leaves.hasNext():
        m = leaves.next().metrics()
        for k in out:
            if m.contains(k):
                out[k] += int(m.apply(k).value())
    return out


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


class SparkWorkload:
    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.ref = RefKernel()
        self.tracer = Tracer(trace)
        self.path = os.path.abspath(os.path.join(OUT_DIR, "spark", "table"))
        self.results: list[dict] = []
        self.answers: dict[int, tuple[int, int, int]] = {}
        self.scans: dict[int, dict[str, int]] = {}
        self.points_df = None

    def make_inputs(self):
        from repro.workloads.datasets import make_dataset, to_spark
        from repro.workloads.queries import data_following

        s, tr = seeds(self.seed), self.tracer
        with tr.span("workloads.datasets.make_dataset"):
            points = make_dataset("OSM", N_POINTS, ELL, seed=DATASET_SEED)
        with tr.span("workloads.queries.data_following"):
            learn = data_following(points, N_LEARN, ELL, DELTA, 1.0, seed=s["learn"])
            test = data_following(points, N_TEST, ELL, DELTA, 1.0, seed=s["test"])
        if self.points_df is not None:
            self.points_df.unpersist()
        self.points_df = to_spark(self.spark, points).cache()
        self.points_df.count()
        return points, learn, test

    def do_round(self, i: int) -> dict[str, float]:
        from repro.core.bmc import BMC
        from repro.learn.quilts import design_candidates
        from repro.sparkops.curve_udf import with_curve_value
        from repro.sparkops.estimator import fit_estimator_distributed, queries_to_spark
        from repro.sparkops.layout import choose_layout, write_curve_ordered

        tr = self.tracer
        tr.enabled = self.trace and i % 2 == 0
        t0 = time.perf_counter()
        with tr.span("sparkops.estimator.to_spark"):
            qdf = queries_to_spark(self.spark, self.learn, n_partitions=QUERY_PARTITIONS)
        with tr.span("sparkops.estimator.fit"):
            est = fit_estimator_distributed(qdf, D, ELL)
        with tr.span("learn.quilts"):
            cands = design_candidates(self.learn, D, ELL)
        cands += [c for c in (BMC.zc(D, ELL), BMC.lex(D, ELL)) if c not in cands]
        with tr.span("sparkops.layout.choose"):
            best, scores = choose_layout(est, cands)
        t1 = time.perf_counter()
        with tr.span("sparkops.layout.write"):
            write_curve_ordered(self.points_df, best, COLS, self.path, n_files=N_FILES)
        t2 = time.perf_counter()
        if tr.enabled:  # outside the round's timings: the UDF alone, the cost cache
            probe_cost_cache(tr, est, checks.random_curves(D, ELL, COST_PROBE_CURVES, 1000 + i))
            with tr.span("sparkops.curve_udf.values"):
                with_curve_value(self.points_df, best, COLS).write.format("noop").mode(
                    "overwrite"
                ).save()
        tr.enabled = self.trace
        self.results.append(
            {"traced": self.trace and i % 2 == 0, "est": est, "best": best,
             "scores": scores, "candidates": cands}
        )
        return {"learn_s": t1 - t0, "layout_s": t2 - t1}

    def do_query(self, i: int) -> float:
        from repro.sparkops.layout import run_range_query

        q = self.test[i]
        t0 = time.perf_counter()
        s = self.tracer.begin("sparkops.layout.query")
        df = run_range_query(self.spark, self.path, COLS, q)
        rows = df.collect()
        self.tracer.end(s)
        dt = time.perf_counter() - t0
        xs = [r[0] for r in rows]
        ys = [r[1] for r in rows]
        self.answers[i] = (len(rows), int(sum(xs)), int(sum(ys)))
        if i not in self.scans:
            self.scans[i] = scan_metrics(df)
        return dt

    def run(self):
        t0 = time.perf_counter()
        self.spark = start_spark()
        session_s = time.perf_counter() - t0
        try:
            ref_path = os.path.abspath(os.path.join(OUT_DIR, "spark", "ref_table"))
            write_ref_table(self.spark, ref_path)
            self.ref.add_part("spark", lambda: ref_query(self.spark, ref_path))
            return self._run(session_s)
        finally:
            stop_spark(self.spark)

    def _run(self, session_s: float):
        sc = self.spark.sparkContext
        setup, (self.points, self.learn, self.test) = repeated(
            SETUP_REPS, self.make_inputs, self.ref
        )
        log(f"[spark] session {session_s:.1f} s, set-up {np.median([t for t, _ in setup]):.2f} s; warming up")
        self.tracer.unit = "warmup"
        self.tracer.enabled = False
        self.do_round(-1)
        self.results.clear()
        for i in range(WARMUP_QUERIES):
            self.do_query(i)
        self.answers.clear()
        log("[spark] warmed up; measuring")
        sc.setJobGroup("curvebench-pass", "test queries")
        smp = measure(
            self.tracer, self.ref, self.seconds, self.trace, self._round_outside_group,
            self.do_query, N_TEST, CHUNK, ROUND_SHARE, MIN_ROUNDS,
        )
        pass_jobs = len(sc.statusTracker().getJobIdsForGroup("curvebench-pass"))
        jvm = jvm_process()
        rss = peak_rss_mb() + (jvm_peak_mb(jvm.pid) if jvm else 0.0)
        log(
            f"[spark] {len(smp.rounds)} rounds in {smp.round_wall_s:.1f} s, "
            f"{smp.passes} passes in {smp.pass_wall_s:.1f} s; checking"
        )
        checker, facts = self.check()
        log("[spark] checked; stopping")
        facts["jobs_per_query"] = pass_jobs / len(smp.query_s)
        facts["peak_rss_mb"] = rss
        if self.trace:
            metrics = self.layer_metrics(smp, facts)
        else:
            metrics = e2e_metrics(smp, setup, facts, TAIL_PCT, NORMALISE_BY)
        record = {
            "params": {"d": D, "ell": ELL, "delta": DELTA, "n_points": N_POINTS,
                       "n_learn": N_LEARN, "n_test": N_TEST, "n_files": N_FILES,
                       "cores": CORES, "dataset_seed": DATASET_SEED, "seeds": seeds(self.seed)},
            "raw": {"session_s": session_s, **raw_record(smp, setup, self.ref)},
            "facts": facts,
            "checks": checker.messages,
        }
        if self.trace:
            record["spans"] = self.tracer.as_records()
        return checker, metrics, record

    def _round_outside_group(self, i: int) -> dict[str, float]:
        sc = self.spark.sparkContext
        sc.setJobGroup("curvebench-round", "learn and layout")
        try:
            return self.do_round(i)
        finally:
            sc.setJobGroup("curvebench-pass", "test queries")

    def check(self):
        from repro.core.bmc import BMC
        from repro.core.cost_model import WorkloadCostEstimator

        checker = Checker()
        last = self.results[-1]
        local = WorkloadCostEstimator(self.learn, D, ELL)
        curves = last["candidates"] + checks.random_curves(D, ELL, RANDOM_CURVES, self.seed)
        for r in self.results:
            checks.check_same_estimates(checker, r["est"], local, curves, "distributed vs local")
        zc = BMC.zc(D, ELL)
        checks.check_estimator(checker, last["est"], [last["best"], zc], self.learn, "estimator")
        oracle = checks.RangeOracle(self.points)
        try:
            checks.check_answers(checker, oracle, self.test, self.answers, "spark")
        finally:
            oracle.close()
        files = [
            os.path.join(self.path, f) for f in os.listdir(self.path) if f.endswith(".parquet")
        ]
        scans = [self.scans[i] for i in sorted(self.scans)]
        returned = sum(self.answers[i][0] for i in self.scans)
        facts = {
            "chosen": last["best"].to_string(),
            "chosen_cost": last["est"].cost(last["best"]),
            "zc_cost": last["est"].cost(zc),
            "n_files_written": len(files),
            "bytes_per_row": sum(os.path.getsize(f) for f in files) / N_POINTS,
            "rows_read_per_query": float(np.mean([s["numOutputRows"] for s in scans])),
            "files_per_query": float(np.mean([s["numFiles"] for s in scans])),
            "scan_ms": float(np.median([s["scanTime"] for s in scans])),
            "scan_rows_per_row_returned": sum(s["numOutputRows"] for s in scans) / max(1, returned),
            "rows_per_query": returned / len(scans),
            "answered": len(self.answers),
        }
        return checker, facts

    def layer_metrics(self, smp, facts) -> dict:
        rep = LayerReport(self.tracer, smp.rounds, [r["traced"] for r in self.results], self.ref)
        rep.out.update({
            "learn.quilts.candidates": float(len(self.results[-1]["candidates"])),
            "sparkops.estimator.to_spark_s": rep.per_round("sparkops.estimator.to_spark"),
            "sparkops.estimator.fit_s": rep.per_round("sparkops.estimator.fit"),
            "sparkops.layout.choose_s": rep.per_round("sparkops.layout.choose"),
            "sparkops.curve_udf.values_s": rep.per_round("sparkops.curve_udf.values"),
            "sparkops.layout.write_s": rep.per_round("sparkops.layout.write"),
            "sparkops.layout.query_ms": rep.per_call_ms("sparkops.layout.query"),
            "sparkops.layout.jobs_per_query": facts["jobs_per_query"],
            "sparkops.layout.scan_ms": facts["scan_ms"],
            "sparkops.layout.scan_rows_per_row_returned": facts["scan_rows_per_row_returned"],
            "sparkops.layout.files_per_query": facts["files_per_query"],
            "sparkops.layout.bytes_per_row": facts["bytes_per_row"],
        })
        return rep.metrics()


def run(name: str, seed: int, seconds: float, trace: bool):
    return SparkWorkload(seed, seconds, trace).run()

"""Measurement machinery shared by every workload.

* ``RefKernel`` — a fixed reference kernel that imports nothing from
  ``repro``, in parts timed apart: ``cpu`` (interpreter, sort and random
  gather: latency-bound), ``stream`` (a compare-and-mask over two columns
  of a 16 MB point-like table: bandwidth- and cache-bound) and, added by
  a workload, parts of its own (``spark``: a fixed Spark range query).
  It runs after every unit of work; each timing sample is scaled by
  ``REF_MS_NOMINAL[part] / w``, with ``w`` the median time of the part
  in the window around the sample and ``part`` the one the workload
  names for that kind of sample (set-up, round or query).
* ``Tracer`` — spans (name, start, end, parent, unit) kept in memory and
  written with the run record; ``self_time`` is a span's duration minus
  the part of its interval its children cover.
* ``Scheduler`` — interleaves rounds (learn -> layout) and chunks of a
  pass (every test query in turn) until the run's time is used, so that
  samples of both kinds spread over the whole run.
* ``Checker`` — counts output checks (attempted / failed).
* ``write_record`` — one JSON record per run under ``curvebench/out/``.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: R0 per reference part: its median time, in ms, on the 4-vCPU VM the
#: bounds were tuned on.  Normalised timings read as if measured at that speed.
REF_MS_NOMINAL = {"cpu": 3.0, "stream": 11.0, "spark": 250.0}

OUT_DIR = os.path.join("curvebench", "out")
REF_RUNS_PER_UNIT = 3  # runs of the cpu and stream parts after each unit of work


# ---------------------------------------------------------------------------
# Reference kernel
# ---------------------------------------------------------------------------


class RefKernel:
    """Fixed units of machine work whose median times track the machine's
    speed during a run: ``cpu`` (~3 ms of interpreter, sort and
    cache-missing gather) and ``stream`` (~11 ms scanning 16 MB the way a
    block-store query scans its points), ``REF_RUNS_PER_UNIT`` times after
    each unit of work, and any parts added with ``add_part`` once."""

    PARTS = ("cpu", "stream")

    def __init__(self) -> None:
        rng = np.random.default_rng(20240917)
        self._keys = rng.integers(0, 1 << 40, size=1 << 16, dtype=np.int64)
        self._table = rng.integers(0, 1 << 20, size=1 << 20, dtype=np.int64)
        self._idx = rng.integers(0, 1 << 20, size=1 << 16, dtype=np.int64)
        # (n, 2) uint64 rows, like a point table: each column is a strided view
        self._cols = rng.integers(0, 1 << 16, size=(1 << 20, 2), dtype=np.uint64)
        self._lo, self._hi = np.uint64(20000), np.uint64(40000)
        self._extra: dict[str, object] = {}
        self.samples_ms: dict[str, list[float]] = {p: [] for p in self.PARTS}

    def add_part(self, name: str, fn) -> None:
        """Time ``fn()`` as one more part, once after each later unit of work."""
        self._extra[name] = fn
        self.samples_ms[name] = []

    def run(self, times: int = 1) -> int:
        acc = 0
        for _ in range(times):
            t0 = time.perf_counter()
            for i in range(6000):  # interpreter-bound part
                acc = (acc * 31 + i) & 0xFFFFFFFF
            srt = np.sort(self._keys)  # compare-and-move part
            gathered = self._table[self._idx]  # cache-missing part
            acc ^= int(srt[::4096].sum() & 0xFFFF) ^ int(gathered.sum() & 0xFFFF)
            t1 = time.perf_counter()
            mask = np.ones(len(self._cols), dtype=bool)
            for c in range(self._cols.shape[1]):
                col = self._cols[:, c]
                mask &= (col >= self._lo) & (col <= self._hi)
            acc ^= int(mask.sum())
            t2 = time.perf_counter()
            self.samples_ms["cpu"].append((t1 - t0) * 1e3)
            self.samples_ms["stream"].append((t2 - t1) * 1e3)
        return acc

    def between(self) -> None:
        """The runs that follow one unit of work."""
        self.run(REF_RUNS_PER_UNIT)
        for name, fn in self._extra.items():
            t0 = time.perf_counter()
            fn()
            self.samples_ms[name].append((time.perf_counter() - t0) * 1e3)

    def median_ms(self, part: str) -> float:
        if not self.samples_ms[part]:
            raise RuntimeError("reference kernel never ran")
        return float(np.median(self.samples_ms[part]))

    def window_ms(self) -> dict[str, float]:
        """Per part, the median of the samples taken just before and just
        after the latest unit of work: the machine's speed while it ran."""
        return {
            p: float(np.median(v[-2 * (1 if p in self._extra else REF_RUNS_PER_UNIT):]))
            for p, v in self.samples_ms.items()
        }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    unit: str
    t0: float
    t1: float = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def covered(t0: float, t1: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of ``[t0, t1]`` that the union of ``intervals`` covers."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Duration of ``span`` minus the part of it its children cover."""
    return span.duration - covered(span.t0, span.t1, [(c.t0, c.t1) for c in children])


class Tracer:
    """In-memory span recorder; disabled tracers record nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.unit = "setup"  # which round / pass / phase a span belongs to
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span | None:
        if not self.enabled:
            return None
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self.unit, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        return s

    def end(self, s: Span | None) -> None:
        if s is None:
            return
        s.t1 = time.perf_counter()
        popped = self._stack.pop()
        if popped is not s:
            raise RuntimeError(f"span {s.name} closed out of order")

    def span(self, name: str) -> "_SpanCtx":
        return _SpanCtx(self, name)

    # -- queries over the recorded spans -----------------------------------
    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def named(self, name: str, units: set[str] | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (units is None or s.unit in units)
        ]

    def per_unit_total(
        self, name: str, units: list[str], self_only: bool = False
    ) -> list[float]:
        """For each unit, the summed (self) time of spans called ``name``."""
        kids = self.children() if self_only else {}
        totals = dict.fromkeys(units, 0.0)
        for s in self.spans:
            if s.name == name and s.unit in totals:
                totals[s.unit] += self_time(s, kids.get(s.id, [])) if self_only else s.duration
        return [totals[u] for u in units]

    def as_records(self) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "name": s.name, "unit": s.unit,
             "t0": s.t0, "t1": s.t1}
            for s in self.spans
        ]


class _SpanCtx:
    __slots__ = ("tracer", "name", "s")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.s = self.tracer.begin(self.name)
        return self.s

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.s)


# ---------------------------------------------------------------------------
# Scheduling rounds and passes
# ---------------------------------------------------------------------------


@dataclass
class Samples:
    """Raw (unnormalised) samples of one measured run."""

    rounds: list[dict] = field(default_factory=list)  # with "ref_ms": the window per part
    query_s: list[float] = field(default_factory=list)  # per-query latency
    query_chunk: list[int] = field(default_factory=list)  # chunk of each query
    chunk_qps: list[float] = field(default_factory=list)  # queries/s per chunk
    chunk_ref_ms: list[dict[str, float]] = field(default_factory=list)  # window per part
    passes: int = 0
    round_wall_s: float = 0.0
    pass_wall_s: float = 0.0
    measure_wall_s: float = 0.0


class Scheduler:
    """Interleave rounds and pass chunks until ``seconds`` have elapsed.

    The next unit is a round when rounds have used no more than
    ``round_share`` of the time spent so far, else the next chunk of the
    current pass.  Time is up only at a pass boundary, once at least
    ``min_rounds`` rounds and one full pass have run.  The reference
    kernel runs after every unit.
    """

    def __init__(self, seconds: float, ref: RefKernel, tracer: Tracer) -> None:
        self.seconds, self.ref, self.tracer = seconds, ref, tracer

    def run(
        self,
        do_round,
        do_query,
        n_queries: int,
        chunk: int,
        round_share: float,
        min_rounds: int,
    ) -> Samples:
        smp = Samples()
        start = time.perf_counter()
        nxt = 0  # next query index of the current pass
        while True:
            elapsed = time.perf_counter() - start
            if (
                elapsed >= self.seconds
                and nxt == 0
                and smp.passes >= 1
                and len(smp.rounds) >= min_rounds
            ):
                break
            if elapsed >= self.seconds:  # time is up: finish what is owed
                want_round = nxt == 0 and smp.passes >= 1
            else:
                busy = smp.round_wall_s + smp.pass_wall_s
                want_round = smp.round_wall_s <= round_share * busy
            t0 = time.perf_counter()
            if want_round:
                self.tracer.unit = f"round{len(smp.rounds)}"
                smp.rounds.append(do_round(len(smp.rounds)))
                smp.round_wall_s += time.perf_counter() - t0
                self.ref.between()
                smp.rounds[-1]["ref_ms"] = self.ref.window_ms()
            else:
                self.tracer.unit = f"pass{smp.passes}"
                lat = [do_query(i) for i in range(nxt, min(n_queries, nxt + chunk))]
                smp.query_s.extend(lat)
                smp.query_chunk.extend([len(smp.chunk_qps)] * len(lat))
                smp.chunk_qps.append(len(lat) / sum(lat))
                nxt += len(lat)
                if nxt >= n_queries:
                    nxt = 0
                    smp.passes += 1
                smp.pass_wall_s += time.perf_counter() - t0
                self.ref.between()
                smp.chunk_ref_ms.append(self.ref.window_ms())
        smp.measure_wall_s = time.perf_counter() - start
        return smp


def repeated(n: int, fn, ref: RefKernel) -> tuple[list[tuple[float, dict]], object]:
    """Run ``fn`` ``n`` times with the reference kernel between; returns
    ((raw seconds, reference window per part) per repetition, last result)."""
    ref.between()
    reps, out = [], None
    for _ in range(n):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        ref.between()
        reps.append((dt, ref.window_ms()))
    return reps, out


def timing_metrics(
    smp: Samples, setup: list[tuple[float, dict]], tail_pct: float,
    parts: dict[str, tuple[str, ...]],
) -> dict:
    """The end-to-end timings.  Each sample is scaled by R0 / w before the
    median or percentile is taken: w is the time around the sample of the
    reference parts that ``parts`` names for its kind (``setup``,
    ``rounds`` or ``queries``), and with several parts R0 / w is the
    geometric mean of their ratios."""

    def scale(kind: str, ref: dict) -> float:
        ratios = [REF_MS_NOMINAL[p] / ref[p] for p in parts[kind]]
        return float(np.prod(ratios)) ** (1.0 / len(ratios))

    def med(kind: str, pairs) -> float:
        return float(np.median([raw * scale(kind, ref) for raw, ref in pairs]))

    lat = np.array([
        q * scale("queries", smp.chunk_ref_ms[c]) for q, c in zip(smp.query_s, smp.query_chunk)
    ])
    qps = [q / scale("queries", r) for q, r in zip(smp.chunk_qps, smp.chunk_ref_ms)]
    return {
        "setup_s": (med("setup", setup), "s"),
        "learn_s": (med("rounds", [(r["learn_s"], r["ref_ms"]) for r in smp.rounds]), "s"),
        "layout_s": (med("rounds", [(r["layout_s"], r["ref_ms"]) for r in smp.rounds]), "s"),
        "query_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "query_tail_ms": (float(np.percentile(lat, tail_pct)) * 1e3, "ms"),
        "queries_per_s": (float(np.median(qps)), "1/s"),
    }


def e2e_metrics(
    smp: Samples, setup: list[tuple[float, dict]], facts: dict, tail_pct: float,
    parts: dict[str, tuple[str, ...]],
) -> dict:
    """Every end-to-end metric: the normalised timings and the run's facts."""
    return {
        **timing_metrics(smp, setup, tail_pct, parts),
        "rows_read_per_query": (facts["rows_read_per_query"], "rows"),
        "chosen_cost_vs_zc": (facts["chosen_cost"] / facts["zc_cost"], "ratio"),
        "peak_rss_mb": (facts["peak_rss_mb"], "MB"),
    }


def raw_record(smp: Samples, setup: list[tuple[float, dict]], ref: RefKernel) -> dict:
    """The unnormalised timings of a run, for its record."""
    return {
        "setup_s": [t for t, _ in setup],
        "setup_ref_ms": [r for _, r in setup],
        "rounds": smp.rounds,
        "query_s": smp.query_s,
        "chunk_qps": smp.chunk_qps,
        "chunk_ref_ms": smp.chunk_ref_ms,
        "ref_ms": ref.samples_ms,
        "passes": smp.passes,
        "round_wall_s": smp.round_wall_s,
        "pass_wall_s": smp.pass_wall_s,
        "measure_wall_s": smp.measure_wall_s,
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checker:
    """Counts output checks; keeps the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


# ---------------------------------------------------------------------------
# Environment and run records
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    try:
        import pyspark

        spark_version = pyspark.__version__
    except ImportError:
        spark_version = None
    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": spark_version,
        "platform": platform.platform(),
        "ref_ms_nominal": REF_MS_NOMINAL,
    }


def write_record(record: dict) -> str:
    """Write one run record; returns its path."""
    os.makedirs(os.path.join(OUT_DIR, "records"), exist_ok=True)
    name = (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    path = os.path.join(OUT_DIR, "records", name)
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=float)
    return path


def result_line(checker: Checker, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


_T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"[{time.perf_counter() - _T0:6.1f} s] {msg}", file=sys.stderr, flush=True)

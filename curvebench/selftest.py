"""Tests of the benchmark's own machinery (not of ``repro``).

    python3 curvebench/selftest.py

Covers the self-time arithmetic of spans, the scheduler, that the metric
names and units match ``BENCHMARK.json``, and that a failed output check
makes ``run.py`` exit non-zero.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(harness.covered(0, 10, []), 0)
        self.assertEqual(harness.covered(0, 10, [(1, 3), (2, 5)]), 4)
        self.assertEqual(harness.covered(0, 10, [(6, 7), (1, 2)]), 2)
        self.assertEqual(harness.covered(0, 10, [(-5, 2), (9, 20)]), 3)
        self.assertEqual(harness.covered(0, 10, [(2, 8), (3, 4)]), 6)
        self.assertEqual(harness.covered(0, 10, [(11, 12)]), 0)

    def test_self_time_subtracts_children(self):
        parent = harness.Span(0, None, "p", "u", 0.0, 10.0)
        kids = [harness.Span(1, 0, "c", "u", 1.0, 4.0), harness.Span(2, 0, "c", "u", 3.0, 6.0)]
        self.assertAlmostEqual(harness.self_time(parent, kids), 5.0)
        self.assertAlmostEqual(harness.self_time(parent, []), 10.0)

    def test_tracer_nests_and_totals_per_unit(self):
        tr = harness.Tracer(True)
        tr.unit = "round0"
        outer = tr.begin("outer")
        inner = tr.begin("inner")
        tr.end(inner)
        tr.end(outer)
        tr.unit = "round1"
        with tr.span("outer"):
            pass
        self.assertEqual(inner.parent, outer.id)
        self.assertIsNone(outer.parent)
        total = tr.per_unit_total("outer", ["round0", "round1"])
        own = tr.per_unit_total("outer", ["round0", "round1"], self_only=True)
        self.assertAlmostEqual(total[0] - own[0], inner.duration)
        self.assertAlmostEqual(total[1], own[1])

    def test_disabled_tracer_records_nothing(self):
        tr = harness.Tracer(False)
        with tr.span("x"):
            pass
        self.assertEqual(tr.spans, [])

    def test_spans_closed_out_of_order_raise(self):
        tr = harness.Tracer(True)
        a = tr.begin("a")
        tr.begin("b")
        with self.assertRaises(RuntimeError):
            tr.end(a)


class SchedulerTest(unittest.TestCase):
    def test_runs_whole_passes_and_min_rounds(self):
        seen = []
        tr = harness.Tracer(False)
        smp = harness.Scheduler(0.0, harness.RefKernel(), tr).run(
            do_round=lambda i: {"learn_s": 1.0},
            do_query=lambda i: seen.append(i) or 1e-4,
            n_queries=25, chunk=10, round_share=0.5, min_rounds=3,
        )
        self.assertEqual(smp.passes, 1)
        self.assertEqual(sorted(seen), list(range(25)))
        self.assertEqual(len(smp.rounds), 3)
        self.assertEqual(len(smp.query_s), 25)
        self.assertEqual(len(smp.chunk_qps), 3)


class ProbeTargetTest(unittest.TestCase):
    def test_missing_probe_target_raises(self):
        owner, leaf = layers._resolve("json", "JSONDecoder.decode")
        self.assertIs(owner, json.JSONDecoder)
        with self.assertRaises(AttributeError):
            layers._resolve("json", "JSONDecoder.no_such_method")
        with self.assertRaises(AttributeError):
            layers._resolve("json", "NoSuchClass.decode")


class ReferenceKernelTest(unittest.TestCase):
    def test_both_parts_are_timed_and_scale_their_samples(self):
        ref = harness.RefKernel()
        ref.run(2)
        self.assertEqual({p: len(v) for p, v in ref.samples_ms.items()}, {"cpu": 2, "stream": 2})
        smp = harness.Samples(
            rounds=[{"learn_s": 2.0, "layout_s": 1.0, "ref_ms": {"cpu": 6.0, "stream": 1.0}}],
            query_s=[0.010, 0.020], query_chunk=[0, 0], chunk_qps=[100.0],
            chunk_ref_ms=[{"cpu": 1.0, "stream": 22.0}],
        )
        setup = [(4.0, {"cpu": 1.5, "stream": 1.0})]
        for part in ("cpu", "stream"):
            parts = dict.fromkeys(("setup", "rounds", "queries"), (part,))
            m = harness.timing_metrics(smp, setup, 50, parts)
            r0 = harness.REF_MS_NOMINAL[part]
            self.assertAlmostEqual(m["learn_s"][0], 2.0 * r0 / smp.rounds[0]["ref_ms"][part])
            self.assertAlmostEqual(m["setup_s"][0], 4.0 * r0 / setup[0][1][part])
            w = smp.chunk_ref_ms[0][part]
            self.assertAlmostEqual(m["query_p50_ms"][0], 15.0 * r0 / w)
            self.assertAlmostEqual(m["queries_per_s"][0], 100.0 * w / r0)

    def test_several_parts_scale_by_the_geometric_mean_of_their_ratios(self):
        smp = harness.Samples(
            rounds=[{"learn_s": 2.0, "layout_s": 1.0, "ref_ms": {"cpu": 6.0, "stream": 44.0}}],
            query_s=[0.010], query_chunk=[0], chunk_qps=[100.0],
            chunk_ref_ms=[{"cpu": 1.0, "stream": 22.0}],
        )
        setup = [(4.0, {"cpu": 1.5, "stream": 1.0})]
        parts = {"setup": ("cpu",), "rounds": ("cpu", "stream"), "queries": ("stream",)}
        m = harness.timing_metrics(smp, setup, 50, parts)
        r0 = harness.REF_MS_NOMINAL
        want = 2.0 * ((r0["cpu"] / 6.0) * (r0["stream"] / 44.0)) ** 0.5
        self.assertAlmostEqual(m["learn_s"][0], want)
        self.assertAlmostEqual(m["setup_s"][0], 4.0 * r0["cpu"] / 1.5)
        self.assertAlmostEqual(m["query_p50_ms"][0], 10.0 * r0["stream"] / 22.0)

    def test_added_part_runs_once_per_unit_with_a_window_of_two(self):
        calls = []
        ref = harness.RefKernel()
        ref.add_part("extra", lambda: calls.append(1))
        ref.between()
        ref.between()
        self.assertEqual(len(calls), 2)
        self.assertEqual(len(ref.samples_ms["cpu"]), 2 * harness.REF_RUNS_PER_UNIT)
        ref.samples_ms["extra"] = [10.0, 20.0, 40.0]
        self.assertAlmostEqual(ref.window_ms()["extra"], 30.0)


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_end_to_end_names_and_units(self):
        want = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual(layers.E2E_UNITS, want)

    def test_per_layer_names_and_units(self):
        want = {m["name"]: m["unit"] for m in self.bench["per_layer"]}
        self.assertEqual(layers.LAYER_UNITS, want)

    def test_run_refuses_metrics_outside_the_tables(self):
        with self.assertRaises(ValueError):
            run.check_names({"setup_s": (1.0, "s")}, trace=False)
        full = {k: (1.0, u) for k, u in layers.E2E_UNITS.items()}
        run.check_names(full, trace=False)
        full["learn_s"] = (1.0, "ms")
        with self.assertRaises(ValueError):
            run.check_names(full, trace=False)


def _fake_workload(failed: bool):
    def fake_run(name, seed, seconds, trace):
        checker = harness.Checker()
        checker.check(True, "fine")
        checker.check(not failed, "deliberately failed")
        metrics = {k: (1.0, u) for k, u in layers.E2E_UNITS.items()}
        return checker, metrics, {}

    return types.SimpleNamespace(run=fake_run)


class ExitCodeTest(unittest.TestCase):
    def _main(self, failed: bool) -> tuple[int, str]:
        saved = sys.modules.get("local")
        sys.modules["local"] = _fake_workload(failed)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        try:
            os.chdir(ROOT)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run.main(["--workload", "learn", "--seed", "1", "--seconds", "1"])
        finally:
            os.chdir(cwd)
            if saved is None:
                sys.modules.pop("local", None)
            else:
                sys.modules["local"] = saved
        return code, out.getvalue()

    def test_failed_check_exits_non_zero(self):
        code, out = self._main(failed=True)
        self.assertNotEqual(code, 0)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (False, 2, 1))

    def test_passing_checks_exit_zero(self):
        code, out = self._main(failed=False)
        self.assertEqual(code, 0)
        result = json.loads(out.strip().splitlines()[-1])
        self.assertEqual((result["correct"], result["failed"]), (True, 0))

    def test_without_the_program_it_fails_without_a_result(self):
        scratch = os.path.join(ROOT, harness.OUT_DIR, "selftest-bare")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "curvebench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "curvebench/run.py", "--workload", "learn", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

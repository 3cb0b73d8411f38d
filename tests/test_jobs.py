"""Smoke tests: every jobs/ entrypoint runs and prints its table."""
import re
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.datasets import make_dataset
from repro.workloads.queries import data_following

JOBS = Path(__file__).resolve().parent.parent / "jobs"
sys.path.insert(0, str(JOBS))


def _load(name):
    return runpy.run_path(str(JOBS / name))


class TestDriverJobs:
    def test_table6_quick(self, capsys):
        mod = _load("table6_init_costs.py")
        assert mod["main"](["--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 6" in out and "NGC_ms" in out

    def test_table7_quick(self, capsys):
        mod = _load("table7_learning_time.py")
        # tiny scale through the module's run() to keep the test fast
        from repro.experiments import table7
        from repro.experiments.common import render_table

        rows = table7.run(n_values=[2000], ell=10, n_learn=40, delta=64,
                          h=3, sample_rate=5e-2, lbmc_episodes=2)
        print(render_table("Table 7 — SFC learning time (seconds)", rows))
        out = capsys.readouterr().out
        assert "BMTree_s" in out and "LBMC_s" in out
        assert mod["main"] is not None

    def test_cost_efficiency_single_sweep(self, capsys):
        mod = _load("cost_efficiency.py")
        assert mod["main"](["--sweep", "d"]) == 0
        assert "gain_LC" in capsys.readouterr().out

    def test_bmtree_variants_help(self):
        mod = _load("bmtree_variants.py")
        with pytest.raises(SystemExit):
            mod["main"](["--figure", "bogus"])

    def test_block_access_fig14_small(self, capsys):
        # the exact table, so that any change in a block count shows
        assert _load("block_access.py")["main"](["--figure", "14", "--n-pts", "2000"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "== Fig 14 — all datasets ==",
            "dataset | LBMC | BMTree | QUILTS | ZC   | HC   | LC  ",
            "--------+------+--------+--------+------+------+-----",
            "OSM     | 1.05 | 1.07   | 1.08   | 1.35 | 1.32 | 1.08",
            "NYC     | 1.19 | 1.19   | 1.19   | 1.96 | 2.12 | 1.19",
            "UNI     | 1.01 | 1.0    | 1.01   | 1.01 | 1.02 | 1.01",
            "SKEW    | 1.65 | 1.67   | 1.64   | 3.25 | 3.07 | 1.64",
            "",
        ]

    def test_block_access_all_computes_twelve_configurations(self, monkeypatch, capsys):
        # Figs 14-17 share the star configuration: 15 rows, 12 distinct
        from repro.experiments import fig14_17

        calls = []
        monkeypatch.setattr(fig14_17, "rows", lambda **config: calls.append(config) or [{}])
        assert _load("block_access.py")["main"]([]) == 0
        assert len(calls) == len({tuple(sorted(c.items())) for c in calls}) == 12
        assert capsys.readouterr().out.count("== Fig 1") == 4


class TestLayoutDemo:
    @pytest.fixture(scope="class")
    def returned(self):
        """The rows inside each of the demo's 50 report queries at
        ``n_pts=5_000, ell=10``, counted in numpy."""
        points = make_dataset("OSM", 5_000, 10, seed=0)
        queries = data_following(points, 300, 10, delta=1024, aspect=1 / 16.0, seed=1)[:50]
        return [int(np.all((points >= q.lo) & (points <= q.hi), axis=1).sum()) for q in queries]

    def test_run_end_to_end(self, spark, tmp_path, returned):
        mod = _load("layout_demo.py")
        best, scores, stats = mod["run"](
            spark, n_pts=5_000, ell=10, out_dir=str(tmp_path)
        )
        assert best.d == 2 and best.ell == 10
        assert len({s.slots for s, _ in scores}) == len(scores)
        assert stats["rows_returned"] == returned
        assert all(f <= stats["n_files"] for f in stats["files_read"])
        assert all(r >= k for r, k in zip(stats["rows_read"], returned))
        # the chosen curve has the minimum estimated cost
        assert min(c for _, c in scores) == dict((s.slots, c) for s, c in scores)[best.slots]

    def test_main_prints_the_scan_summary(self, spark, arrow_off, tmp_path, capsys, returned):
        # with the Arrow setting off, as in ``python jobs/layout_demo.py``
        mod = _load("layout_demo.py")
        assert mod["main"](["--n-pts", "5000", "--ell", "10", "--out", str(tmp_path)]) == 0
        m = re.fullmatch(
            r"files: (\d+), avg files read/query: ([\d.]+), "
            r"avg rows read: ([\d.]+), avg rows returned: ([\d.]+)",
            capsys.readouterr().out.splitlines()[-1],
        )
        assert m
        assert float(m[2]) <= int(m[1])
        assert float(m[3]) >= float(m[4])
        assert m[4] == f"{np.mean(returned):.1f}"

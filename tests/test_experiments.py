"""Tests for the experiment harnesses (shape claims at small scale)."""
import numpy as np
import pytest

from repro.core.query import Workload
from repro.experiments import fig9_10, fig11_13, fig14_17, table6, table7
from repro.experiments.common import render_table, time_call


class TestCommon:
    def test_time_call_returns_result(self):
        t, r = time_call(lambda a, b: a + b, 2, 3, repeats=2)
        assert r == 5 and t >= 0

    def test_render_table(self):
        out = render_table("T", [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        assert "== T ==" in out and "22" in out

    def test_render_empty(self):
        assert "(no rows)" in render_table("T", [])


class TestTable6:
    def test_rows_and_speed_claims(self):
        rows = table6.run(n_values=[8, 64, 256], repeats=2)
        assert [r["n"] for r in rows] == [8, 64, 256]
        # the efficient initializations beat the naive evaluations at
        # moderate n (the paper's Table 6 claim)
        big = rows[-1]
        assert big["IGC<NGC"] and big["ILC<NLC"]
        # NLC grows with n
        assert rows[-1]["NLC_s"] > rows[0]["NLC_s"]


class TestFig9_10:
    def test_vary_n_gc_flat_ngc_grows(self):
        rows = fig9_10.vary_n(n_values=[4, 64, 1024])
        # NGC time grows ~linearly with n; GC stays flat (within 10x)
        assert rows[-1]["NGC_us"] > 5 * rows[0]["NGC_us"]
        assert rows[-1]["GC_us"] < 10 * max(rows[0]["GC_us"], 1e-2)
        # the efficient path wins at n = 1024
        assert rows[-1]["gain_GC"] > 1 and rows[-1]["gain_LC"] > 1

    def test_vary_delta_lc_flat_nlc_grows(self):
        rows = fig9_10.vary_delta(deltas=[8, 64, 256], n=8)
        assert rows[-1]["NLC_us"] > rows[0]["NLC_us"]
        assert rows[-1]["LC_us"] < 50 * max(rows[0]["LC_us"], 1e-2)

    def test_vary_ell_shapes(self):
        rows = fig9_10.vary_ell(ells=[8, 12], n=8)
        assert len(rows) == 2 and all("gain_LC" in r for r in rows)

    def test_vary_d_gains_positive(self):
        rows = fig9_10.vary_d(ds=(2, 3), n=8, ell=6, delta=4)
        assert all(r["gain_LC"] > 1 for r in rows)


class TestTable7:
    def test_learning_time_shape(self):
        rows = table7.run(
            n_values=[2_000, 100_000], ell=10, n_learn=60, delta=64,
            h=4, sample_rate=2e-1, lbmc_episodes=2,
        )
        assert len(rows) == 2
        # BMTree-SP learning time grows with N (50x more sampled
        # points); LBMC/QUILTS do not grow with N
        assert rows[1]["BMTree_s"] > rows[0]["BMTree_s"]
        assert rows[1]["LBMC_s"] < 5 * rows[0]["LBMC_s"] + 1.0
        assert rows[1]["QUILTS_s"] < 1.0


class TestFig11_13:
    def test_vary_cardinality_shape(self):
        rows = fig11_13.vary_cardinality(
            n_values=[2_000, 100_000], ell=10, n_learn=60, n_test=40,
            delta=64, h=3, sample_rate=1e-1,
        )
        assert len(rows) == 6
        sp = {r["N"]: r for r in rows if r["variant"] == "BMTree-SP"}
        lc = {r["N"]: r for r in rows if r["variant"] == "BMTree-LC"}
        # SP reward time grows with N (50x more sampled points);
        # LC's stays below SP's at the large N
        assert sp[100_000]["reward_time_s"] > sp[2_000]["reward_time_s"]
        assert lc[100_000]["reward_time_s"] < sp[100_000]["reward_time_s"]
        # equal number of reward evaluations across variants at fixed N
        evals = {r["n_reward_evals"] for r in rows if r["N"] == 2_000}
        assert len(evals) == 1

    def test_vary_queries_shape(self):
        rows = fig11_13.vary_queries(
            n_learn_values=[20, 80], n_pts=5_000, ell=10, n_test=30,
            delta=64, h=3, sample_rate=5e-2,
        )
        assert len(rows) == 6
        assert all(r["block_accesses"] > 0 for r in rows)

    def test_vary_rho_and_h_shape(self):
        rows = fig11_13.vary_rho_and_h(
            rhos=[1e-2, 5e-2], hs=[3], n_pts=5_000, ell=10,
            n_learn=30, n_test=30, delta=64,
        )
        # 2 SP rows + GC + LC
        assert len(rows) == 4
        sp_rows = [r for r in rows if r["variant"] == "BMTree-SP"]
        assert sp_rows[1]["reward_time_s"] >= sp_rows[0]["reward_time_s"]


class TestFig14_17:
    def test_overall_small(self):
        rows = fig14_17.overall(
            datasets=("UNI", "SKEW"), n_pts=4_000, ell=10,
            n_learn=30, n_test=30, delta=64, block_size=32,
        )
        assert len(rows) == 2
        for r in rows:
            for t in fig14_17.TECHNIQUES:
                assert r[t] > 0

    def test_unknown_technique_rejected(self):
        learn_q = Workload([[0, 0]], [[3, 3]])
        with pytest.raises(ValueError, match="unknown technique"):
            fig14_17.order_values("??", np.zeros((1, 2), dtype=np.uint64), learn_q, 4)

    def test_vary_aspect_labels(self):
        rows = fig14_17.vary_aspect(
            aspects=(4.0, 1 / 4.0), n_pts=3_000, ell=10,
            n_learn=20, n_test=20, delta=32, block_size=32,
        )
        assert [r["aspect"] for r in rows] == ["4:1", "1:4"]

    def test_vary_edge_length_grows(self):
        rows = fig14_17.vary_edge_length(
            deltas=(16, 128), n_pts=5_000, ell=10,
            n_learn=20, n_test=20, block_size=32,
        )
        # bigger queries touch more blocks for every technique
        assert rows[1]["ZC"] >= rows[0]["ZC"]
        assert rows[1]["HC"] >= rows[0]["HC"]

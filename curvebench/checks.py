"""Output checks, run outside every timed region.

Each comparison is one ``Checker.check``: it counts toward ``attempted``
and, when it fails, toward ``failed``.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from harness import Checker


class RangeOracle:
    """DuckDB answers (count, sum x, sum y) of 2-d range queries."""

    def __init__(self, points: np.ndarray) -> None:
        self.con = duckdb.connect()
        self.con.execute("SET threads = 1")
        pdf = pd.DataFrame(
            {"x": points[:, 0].astype(np.int64), "y": points[:, 1].astype(np.int64)}
        )
        self.con.register("points_df", pdf)
        # Sorted on x so DuckDB's zone maps skip most of the table per query.
        self.con.execute("CREATE TABLE pts AS SELECT x, y FROM points_df ORDER BY x")
        self.con.unregister("points_df")

    def answer(self, q) -> tuple[int, int, int]:
        c, sx, sy = self.con.execute(
            "SELECT count(*), coalesce(sum(x), 0), coalesce(sum(y), 0) FROM pts "
            "WHERE x BETWEEN ? AND ? AND y BETWEEN ? AND ?",
            [int(q.lo[0]), int(q.hi[0]), int(q.lo[1]), int(q.hi[1])],
        ).fetchone()
        return int(c), int(sx), int(sy)

    def close(self) -> None:
        self.con.close()


def check_answers(
    checker: Checker, oracle: RangeOracle, queries, answers: dict, what: str
) -> None:
    """``answers[i]`` is (count, sum x, sum y) or (count,) for query i."""
    for i in sorted(answers):
        got = answers[i]
        want = oracle.answer(queries[i])[: len(got)]
        checker.check(tuple(got) == want, f"{what} query {i}: got {got}, want {want}")


def check_estimator(checker: Checker, est, curves, queries, what: str) -> None:
    """Cg against ``naive_global_cost`` and Cl against the Python-int sum
    of ``sections_via_patterns``, for each curve."""
    from repro.core.global_cost import naive_global_cost
    from repro.core.local_cost import sections_via_patterns

    for sigma in curves:
        cg = naive_global_cost(sigma, queries)
        checker.check(
            est.global_cost(sigma) == cg,
            f"{what} Cg({sigma}) = {est.global_cost(sigma)}, naive {cg}",
        )
        cl = sum(int(sections_via_patterns(sigma, q)) for q in queries)
        checker.check(
            est.local_cost(sigma) == cl,
            f"{what} Cl({sigma}) = {est.local_cost(sigma)}, sections {cl}",
        )


def random_curves(d: int, ell: int, n: int, seed: int) -> list:
    """``n`` random bit-merging curves (random dimension order of the bits)."""
    from repro.core.bmc import BMC

    rng = np.random.default_rng(seed)
    base = np.repeat(np.arange(d), ell)
    return [BMC(tuple(int(x) for x in rng.permutation(base))) for _ in range(n)]


def check_same_estimates(checker: Checker, got, want, curves, what: str) -> None:
    """Two estimators agree on Cg and Cl of every curve."""
    for sigma in curves:
        a = (got.global_cost(sigma), got.local_cost(sigma))
        b = (want.global_cost(sigma), want.local_cost(sigma))
        checker.check(a == b, f"{what} {sigma}: (Cg, Cl) {a} vs {b}")

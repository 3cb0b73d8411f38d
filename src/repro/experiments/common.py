"""Shared experiment utilities: timing, table rendering, defaults.

Scaled-down defaults relative to the paper (Table 5) are centralised
here and documented in EXPERIMENTS.md §0.
"""
from __future__ import annotations

import time
from typing import Callable

# Paper defaults (Table 5) -> our scaled defaults
DEFAULT_ELL = 10          # paper: 10 for cost-estimation, 20 for query exps
DEFAULT_ELL_QUERY = 16    # paper: 20
DEFAULT_N_QUERIES = 16    # paper: 2^4 for cost-estimation efficiency
DEFAULT_DELTA = 16        # paper: delta x 2^4


def time_call(fn: Callable, *args, repeats: int = 3, **kwargs) -> tuple[float, object]:
    """Best-of-``repeats`` wall time in seconds, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def render_table(title: str, rows: list[dict], columns: list[str] | None = None) -> str:
    """Plain-text table: one dict per row."""
    if not rows:
        return f"== {title} ==\n(no rows)\n"
    cols = columns or list(rows[0].keys())
    widths = {c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    lines = [f"== {title} ==", " | ".join(str(c).ljust(widths[c]) for c in cols)]
    lines.append("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(" | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(lines) + "\n"

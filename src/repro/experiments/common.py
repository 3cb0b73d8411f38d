"""Shared experiment utilities: the figure sweep, timing, table rendering.

Each figure family is a *star configuration* (its scaled-down Table 5
default, documented in EXPERIMENTS.md §0) plus, per figure, the one
star field the figure moves and the values it moves it through.
"""
from __future__ import annotations

import time
from typing import Callable, NamedTuple

DEFAULT_ELL_QUERY = 16    # paper: 20


class Figure(NamedTuple):
    """One figure of a family: the star field it moves (``axis``) and
    the values it takes there.

    ``column`` names the axis in the rows (default: the field's name) and
    ``label`` prints its values; ``columns`` keeps only those result
    columns; ``fixed`` sets other star fields for this figure alone."""

    title: str
    axis: str
    values: tuple
    column: str | None = None
    label: Callable[[object], object] = lambda v: v
    columns: tuple[str, ...] | None = None
    fixed: dict | None = None


def sweep(
    rows: Callable[..., list[dict]], star: dict, figures: dict[str, Figure]
) -> dict[str, list[dict]]:
    """The rows of each figure, by name: every value ``v`` of a figure
    contributes ``rows(**config)``, where ``config`` is ``star`` with the
    figure's fixed fields and ``axis = v``, each row led by the labelled
    value.  A configuration several figures share is computed once."""
    done: dict[tuple, list[dict]] = {}
    out = {}
    for name, fig in figures.items():
        out[name] = []
        for v in fig.values:
            config = {**star, **(fig.fixed or {}), fig.axis: v}
            key = tuple(sorted(config.items()))
            if key not in done:
                done[key] = rows(**config)
            for r in done[key]:
                kept = {c: r[c] for c in fig.columns or r}
                out[name].append({fig.column or fig.axis: fig.label(v), **kept})
    return out


def time_call(fn: Callable, *args, repeats: int = 3, **kwargs) -> tuple[float, object]:
    """Best-of-``repeats`` wall time in seconds, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def render_table(title: str, rows: list[dict]) -> str:
    """Plain-text table: one dict per row, columns in the first row's order."""
    if not rows:
        return f"== {title} ==\n(no rows)\n"
    cols = list(rows[0].keys())
    widths = {c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    lines = [f"== {title} ==", " | ".join(str(c).ljust(widths[c]) for c in cols)]
    lines.append("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(" | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(lines) + "\n"

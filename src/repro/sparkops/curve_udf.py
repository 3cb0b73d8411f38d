"""Curve values as native Spark Column expressions.

``with_curve_value`` adds a ``curve_value`` column computed by Catalyst
itself from integer grid coordinates: Eq. 1 moves each run of a BMC's
equal adjacent slots (``BMC.runs``) as one shift-and-mask, so the value
is an OR of ``shiftleft(shiftright(x_i, j) & (2^k - 1), r)`` terms.  No
Python worker runs.  All BMCs fit in <= 63 bits, so every term and the
value fit a signed long and can be range-partitioned and sorted natively.
"""
from __future__ import annotations

from functools import reduce

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.core.bmc import BMC


def bmc_value_column(sigma: BMC, cols: list[str]) -> Column:
    """A Column computing F_sigma over the given coordinate columns."""
    if len(cols) != sigma.d:
        raise ValueError(f"need {sigma.d} coordinate columns, got {len(cols)}")
    # the cast keeps INT32 coordinates from overflowing at shifts past 31
    coords = [F.col(c).cast("long") for c in cols]
    terms = [
        F.shiftleft(F.shiftright(coords[i], j).bitwiseAND(F.lit((1 << k) - 1)), r)
        for i, j, r, k in sigma.runs
    ]
    return reduce(Column.bitwiseOR, terms)


def with_curve_value(
    df: DataFrame, sigma: BMC, cols: list[str], out: str = "curve_value"
) -> DataFrame:
    """Append the BMC curve value of each row as column ``out``."""
    return df.withColumn(out, bmc_value_column(sigma, cols))

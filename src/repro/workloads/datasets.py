"""Spatial point datasets — substitutes for the paper's OSM/NYC/UNI/SKEW.

The paper evaluates on 100M-point real datasets (OSM North America
locations, NYC yellow-taxi pick-ups) plus uniform and skewed synthetic
data following the BMTree study.  The real datasets are not available
offline, so we generate synthetic stand-ins that mimic their *spatial
structure* (which is what drives curve choice and block accesses):

* ``uni``       — uniform over the grid (the paper's UNI).
* ``skew``      — lognormal-distance cluster around a corner (SKEW).
* ``osm_like``  — Gaussian mixture of ~64 city clusters plus sparse
                  uniform background (road-network population pattern).
* ``nyc_like``  — axis-aligned street-grid clusters: points concentrate
                  on a lattice of "avenues"/"streets" with hotspots.

All generators return (n, 2) ``uint64`` grid coordinates in
``[0, 2^ell)`` and are deterministic in ``seed``.  ``to_spark`` wraps a
dataset as a DataFrame (columns ``x``, ``y``) for the Spark layers.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession


def _clip(coords: np.ndarray, ell: int) -> np.ndarray:
    top = (1 << ell) - 1
    return np.clip(np.round(coords), 0, top).astype(np.uint64)


def uni(n: int, ell: int, seed: int = 0) -> np.ndarray:
    """Uniform points over the full grid (paper dataset UNI)."""
    g = np.random.default_rng(seed)
    return g.integers(0, 1 << ell, size=(n, 2), dtype=np.int64).astype(np.uint64)


def skew(n: int, ell: int, seed: int = 0) -> np.ndarray:
    """Heavily skewed points (paper dataset SKEW): lognormal distances
    from the origin corner, mimicking the BMTree study's skewed data."""
    g = np.random.default_rng(seed)
    scale = (1 << ell) / 64.0
    xs = g.lognormal(mean=0.0, sigma=1.6, size=n) * scale
    ys = g.lognormal(mean=0.0, sigma=1.6, size=n) * scale
    return np.stack([_clip(xs, ell), _clip(ys, ell)], axis=1)


def osm_like(n: int, ell: int, seed: int = 0, n_clusters: int = 64) -> np.ndarray:
    """OSM-style point cloud: city-sized Gaussian clusters of very
    different populations plus a thin uniform background."""
    g = np.random.default_rng(seed)
    side = float(1 << ell)
    n_bg = n // 10
    n_clustered = n - n_bg
    centers = g.random((n_clusters, 2)) * side
    # Zipf-ish cluster populations: a few big cities, many towns
    w = 1.0 / np.arange(1, n_clusters + 1) ** 1.2
    w /= w.sum()
    assign = g.choice(n_clusters, size=n_clustered, p=w)
    spread = side * g.uniform(0.002, 0.03, n_clusters)
    pts = centers[assign] + g.standard_normal((n_clustered, 2)) * spread[assign, None]
    bg = g.random((n_bg, 2)) * side
    return _clip(np.concatenate([pts, bg]), ell)


def nyc_like(n: int, ell: int, seed: int = 0) -> np.ndarray:
    """NYC-taxi-style points: a dense axis-aligned street grid — x snaps
    near one of ~40 'avenues', y spreads along them, with Manhattan-like
    hotspots holding most of the mass."""
    g = np.random.default_rng(seed)
    side = float(1 << ell)
    n_hot = int(n * 0.6)
    n_grid = n - n_hot
    # street grid: snap x to avenue lines with small jitter
    avenues = np.linspace(0.2 * side, 0.5 * side, 40)
    ax = g.choice(avenues, size=n_grid)
    x_grid = ax + g.standard_normal(n_grid) * side * 0.001
    y_grid = g.uniform(0.1 * side, 0.9 * side, n_grid)
    # hotspots (airports, midtown): tight 2-D Gaussians
    hotspots = np.array([[0.35, 0.55], [0.42, 0.62], [0.7, 0.3], [0.3, 0.4]]) * side
    hw = np.array([0.5, 0.3, 0.1, 0.1])
    hw /= hw.sum()
    assign = g.choice(len(hotspots), size=n_hot, p=hw)
    pts_hot = hotspots[assign] + g.standard_normal((n_hot, 2)) * side * 0.01
    xs = np.concatenate([x_grid, pts_hot[:, 0]])
    ys = np.concatenate([y_grid, pts_hot[:, 1]])
    return np.stack([_clip(xs, ell), _clip(ys, ell)], axis=1)


DATASETS = {"UNI": uni, "SKEW": skew, "OSM": osm_like, "NYC": nyc_like}


def make_dataset(name: str, n: int, ell: int, seed: int = 0) -> np.ndarray:
    """Dispatch by paper dataset name (OSM / NYC / UNI / SKEW)."""
    try:
        fn = DATASETS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    return fn(n, ell, seed)


def to_spark(spark: SparkSession, points: np.ndarray, n_partitions: int = 8) -> DataFrame:
    """Wrap an (n, 2) coordinate array as a Spark DataFrame of BIGINT
    columns (x, y), built from a ``pyarrow.Table`` so that it takes
    Arrow's path whatever ``spark.sql.execution.arrow.pyspark.enabled``
    says."""
    table = pa.table({"x": points[:, 0].astype(np.int64), "y": points[:, 1].astype(np.int64)})
    return spark.createDataFrame(table).repartition(n_partitions)

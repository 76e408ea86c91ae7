"""Box-counting dimension estimation for graphs of the lacunary series.

Scales are powers of 1/b so that column boundaries line up with the series'
self-affine structure.  All columns of every level are read off one master
grid of base-b rational points; on that grid each series argument reduces
mod 1 to an exact rational, and every term beyond the grid depth is phi(0)
exactly, so the sampled values carry no truncation error at all.  The
oscillation inside a column is bracketed by sampling (min/max over the grid
points including both endpoints), which can undercount boxes in y but is
exact in x; doubling the sample density never removes a counted box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import DimFit, _linear_fit
from .parallel import map_ordered
from .series import Params, PhiSpec, _graph_sum

_MAX_GRID = 1 << 26


@dataclass(frozen=True)
class BoxCountTable:
    """Counts of boxes of size eps hit by the graph, per level."""

    levels: tuple[tuple[float, int], ...]  # (eps, boxes_hit), eps decreasing
    params: Params
    samples_per_column: int

    def __post_init__(self):
        eps = [e for e, _ in self.levels]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon levels must be strictly decreasing")


def theoretical_dimension(p: Params) -> float:
    """The self-affinity exponent 2 + log(lam)/log(b)."""
    return p.affinity_dim


def _grid_values(p: Params, phi: PhiSpec, grid_depth: int) -> np.ndarray:
    """f at every x = t / b**grid_depth, t = 0..b**grid_depth, exactly."""
    total = p.b ** grid_depth

    def chunk_values(bounds):
        t = np.arange(*bounds, dtype=np.int64)
        acc, lam_pow = _graph_sum(t, total, p.b, p.lam, phi, grid_depth)
        # all deeper terms see the argument 0
        acc += lam_pow * float(phi.eval(0.0)) / (1.0 - p.lam)
        return acc

    step = 1 << 18
    bounds = [(t0, min(t0 + step, total + 1)) for t0 in range(0, total + 1, step)]
    return np.concatenate(map_ordered(chunk_values, bounds))


def box_count(
    p: Params,
    phi: PhiSpec,
    levels: int = 12,
    samples_per_column: int = 32,
) -> BoxCountTable:
    """Count eps-boxes hit by the graph for eps = b^-1 .. b^-levels.

    Within each x-column the spanned y-range is bracketed by sampling at
    least samples_per_column interior points plus both endpoints (actual
    density is the next power of b, shared across levels via one master
    grid).
    """
    if levels < 4:
        raise ValueError("need at least 4 levels for a meaningful table")
    if samples_per_column < 2:
        raise ValueError("samples_per_column must be at least 2")
    b = p.b
    extra = max(1, math.ceil(math.log(samples_per_column) / math.log(b)))
    grid_depth = levels + extra
    if b ** grid_depth > _MAX_GRID:
        raise ValueError(
            f"grid of b^{grid_depth} points exceeds the sampling budget; "
            "reduce levels or samples_per_column"
        )
    vals = _grid_values(p, phi, grid_depth)
    rows = []
    for j in range(1, levels + 1):
        eps = float(b) ** (-j)
        cols = b ** j
        span = b ** (grid_depth - j)
        seg = vals[:-1].reshape(cols, span)
        right = vals[span::span]
        col_min = np.minimum(seg.min(axis=1), right)
        col_max = np.maximum(seg.max(axis=1), right)
        k_min = np.floor(col_min / eps).astype(np.int64)
        k_max = np.floor(col_max / eps).astype(np.int64)
        rows.append((eps, int((k_max - k_min + 1).sum())))
    return BoxCountTable(tuple(rows), p, samples_per_column)


def fit_box_dimension(table: BoxCountTable, drop_coarsest: int = 2) -> DimFit:
    """Least-squares slope of log(boxes) against log(1/eps).

    The coarsest drop_coarsest levels are excluded (transient scales bias
    the fit); at least 4 levels must remain.
    """
    rows = table.levels[drop_coarsest:]
    if len(rows) < 4:
        raise ValueError("too few levels left after dropping the coarsest")
    eps = np.array([e for e, _ in rows])
    hits = np.array([h for _, h in rows], dtype=np.float64)
    slope, intercept, stderr = _linear_fit(np.log(1.0 / eps), np.log(hits))
    return DimFit(
        slope=slope,
        intercept=intercept,
        stderr=stderr,
        radii=tuple(float(e) for e in eps),
        values=tuple(float(h) for h in hits),
    )

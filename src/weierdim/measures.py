"""Monte Carlo sampling of the pushforward measures and dimension diagnostics.

Samplers draw digit words (and base points) from the counter-based generator,
so a SampleSet is a pure function of (params, seed, depth, count) and is
identical for any worker count: each sampler states a task fill that writes
its own rows for one row range, and _sample runs it over tasks of at most
_TASK_ROWS rows on the worker pool.  A sample holds one float per point: the
SBR and graph-lift x is a pure function of (seed, row), drawn into a
task-local array and re-drawn block by block by SampleSet.rows wherever a pass
needs it.  The transversal sampler's rows all start at x, so it runs every
short digit prefix's orbit once, in one tree built before the pool, and its
tasks gather their rows' prefix states from it.  The value column is the only
count-sized array: every count-sized pass (summary(), density_histogram, local
dimension, CSV) walks the sample in blocks, so the byte budget on 8 bytes per
point bounds the peak up to the per-task temporaries.
Local dimension is estimated by a finite ladder of radii with a least-squares
slope of log-mass against log-radius; no convergence claim is attached, the
estimates are regression-stable diagnostics with a reported standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng
from .parallel import _check_bytes, map_ordered, worker_count
from .series import (
    _TAIL_TARGET,
    COSINE_DERIV,
    Params,
    PhiSpec,
    _check_int,
    _graph_terms,
    _orbit_sums,
    _prefix_states,
    _terms_for,
    eval_weierstrass,
    orbit_tail,
)


_TASK_ROWS = 1 << 15  # most sample rows per pooled task or pass block: a few such columns
_BLOCK = 1 << 13  # values per summary() and histogram block (numpy's buffer size), CSV rows
_BIN_BYTES = 512  # per histogram bin: its arrays, output row and JSON text (410 B measured)


def _check_count(count: int) -> int:
    """count as an int, refused below 1 or when its one float per point is over budget."""
    count = _check_int("count", count, 1)
    _check_bytes(count * 8, f"{count} samples")
    return count


def _check_bins(bins: int) -> int:
    """bins as an int, refused below 2 or when the histogram and its rows are over budget."""
    bins = _check_int("bins", bins, 2)
    _check_bytes(bins * _BIN_BYTES, f"{bins} histogram bins")
    return bins


def _check_scales(name: str, scales: Sequence[float], least: int = 4) -> None:
    """Refuse fewer than `least` scales, or scales that do not strictly decrease."""
    if len(scales) < least or any(b >= a for a, b in zip(scales, scales[1:])):
        got = [float(s) for s in scales]
        raise ValueError(f"{name} must be >= {least} strictly decreasing scales, got {got}")


def _squared_deviations(vals: np.ndarray, mean) -> float:
    """sum((vals - mean)^2) as vals.var sums it: numpy's pairwise tree splits n > 128 values at
    n//2 rounded down to a multiple of 8, so splitting down to nodes of at most _BLOCK values
    and reducing each with np.add.reduce gives the same bits with bounded temporaries."""
    n = len(vals)
    if n > _BLOCK:
        n2 = n // 2 - (n // 2) % 8
        return _squared_deviations(vals[:n2], mean) + _squared_deviations(vals[n2:], mean)
    d = vals - mean
    return np.add.reduce(np.multiply(d, d, out=d))


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Reproducible sample of one measure.

    kind is "transversal" (values of the stable slope at a fixed x, one real
    per sample), "sbr" (pairs (x, fiber sum)), "graph" (pairs (x, f(x))) or
    "synthetic".  points holds the stored columns: one value per sample, or a
    (count, k) array.  When x_stream is set, points is the value column alone
    and each row's x is rng.uniform_vector(seed, x_stream, ...) at its index,
    re-drawn by rows(), the one accessor of whole rows.  tail_bound is the
    per-sample truncation error bound.
    """

    points: np.ndarray
    seed: int
    depth: int
    kind: str
    tail_bound: float = 0.0
    x_stream: Optional[int] = None

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def values(self) -> np.ndarray:
        """The measure coordinate: the value column, or the y column of stored pairs."""
        return self.points if self.points.ndim == 1 else self.points[:, 1]

    def rows(self, r0: int, r1: int) -> np.ndarray:
        """Rows r0..r1-1, r1 capped at count: a view of the stored points, or fresh (x, value)
        pairs with x re-drawn from its counter stream."""
        held = self.points[r0:r1]
        if self.x_stream is None:
            return held
        out = np.empty((len(held), 2))
        out[:, 0] = rng.uniform_vector(self.seed, self.x_stream, len(held), r0)
        out[:, 1] = held
        return out

    def to_csv(self, path) -> None:
        """One row per sample, each value as %.17g, in blocks of _BLOCK rows."""
        with open(path, "w") as fh:
            for r0 in range(0, self.count, _BLOCK):
                block = self.rows(r0, r0 + _BLOCK)
                row = ",".join(["%.17g"] * (block.size // len(block))) + "\n"
                fh.write(row * len(block) % tuple(block.ravel().tolist()))

    def summary(self) -> dict:
        """Count, mean, std (ddof=1), min and max: numpy's values, without a count-sized copy."""
        vals = self.values()
        n = self.count
        mean = np.add.reduce(vals) / n  # numpy's mean
        return {
            "kind": self.kind,
            "count": n,
            "seed": self.seed,
            "depth": self.depth,
            "tail_bound": self.tail_bound,
            "mean": float(mean),
            "std": float(np.sqrt(_squared_deviations(vals, mean) / (n - 1))) if n > 1 else 0.0,
            "min": float(vals.min()),
            "max": float(vals.max()),
        }


@dataclass(frozen=True)
class DimFit:
    """Least-squares dimension fit over a decreasing ladder of scales."""

    slope: float
    stderr: float


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line through (x, y): (slope, intercept, slope stderr).

    The statistics-library formulas (the tests compare bit for bit): population
    covariances, r clamped to [-1, 1], stderr = sqrt((1 - r^2) ssy / ssx / (n - 2)).
    """
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(1.0, max(-1.0, ssxym / np.sqrt(ssxm * ssym)))
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / (len(x) - 2))
    return float(slope), float(intercept), float(stderr)


def _sample(kind: str, count: int, seed: int, depth: int, tail_bound: float,
            fill: Callable[[np.ndarray, int, int], None],
            x_stream: Optional[int] = None) -> SampleSet:
    """The SampleSet of one preallocated value column, with fill(values, r0, r1) writing rows
    r0..r1-1 over consecutive ranges on the worker pool: _TASK_ROWS rows, or fewer when that
    leaves a worker idle.  Every row is its own counter-RNG stream and its arithmetic is
    elementwise, so the bits do not depend on the chunking."""
    values = np.empty(count)
    rows = min(_TASK_ROWS, -(-count // worker_count()))
    map_ordered(lambda r0: fill(values, r0, min(r0 + rows, count)), range(0, count, rows))
    return SampleSet(values, seed, depth, kind, tail_bound, x_stream)


def sample_transversal(
    p: Params,
    x: float,
    count: int,
    depth: Optional[int] = None,
    seed: int = 0,
) -> SampleSet:
    """Draw `count` stable-slope values at x with i.i.d. uniform digits.

    Every row starts at x, so the orbit of each digit prefix in one _prefix_states tree
    runs once, before the pool; a task reads its rows' prefixes off their first digits and
    steps each row from there."""
    count = _check_count(count)
    seed = _check_int("seed", seed)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    gamma = p.gamma
    tail = orbit_tail("Y", p.b, gamma)
    depth = _terms_for(_TAIL_TARGET, tail, 1, depth, "depth")
    prefixes = _prefix_states(float(x), p.b, gamma, count, depth, ("Y",))

    def slopes(values, r0, r1):
        columns = rng.digit_columns(seed, rng.STREAM_TRANSVERSAL, r1 - r0, depth, p.b, r0)
        values[r0:r1] = _orbit_sums(float(x), p.b, gamma, columns, ("Y",), rows=r1 - r0,
                                    prefixes=prefixes)["Y"]

    return _sample("transversal", count, seed, depth, tail(depth), slopes)


def sample_sbr(
    p: Params,
    psi: PhiSpec = COSINE_DERIV,
    count: int = 1,
    depth: Optional[int] = None,
    seed: int = 0,
) -> SampleSet:
    """Sample the skew-product invariant measure: pairs (x, S(x, word)).

    x is uniform on [0, 1), digits are i.i.d. uniform.  The constant part of
    psi is summed in closed form, so adding a constant c to psi translates
    every sample by exactly c/(1-gamma).  The sample holds S; rows() re-draws x.
    """
    count = _check_count(count)
    seed = _check_int("seed", seed)
    gamma = p.gamma
    tail = orbit_tail("S", p.b, gamma, psi)
    depth = _terms_for(_TAIL_TARGET, tail, 1, depth, "depth")

    def fibers(values, r0, r1):
        x = rng.uniform_vector(seed, rng.STREAM_SBR_X, r1 - r0, r0)
        columns = rng.digit_columns(seed, rng.STREAM_SBR_DIGITS, r1 - r0, depth, p.b, r0)
        values[r0:r1] = _orbit_sums(x, p.b, gamma, columns, ("S",), psi)["S"]

    return _sample("sbr", count, seed, depth, tail(depth), fibers, rng.STREAM_SBR_X)


def sample_graph_lift(
    p: Params,
    phi: PhiSpec,
    count: int,
    seed: int = 0,
) -> SampleSet:
    """Sample the lift of Lebesgue measure to the graph: pairs (x, f(x)), tail <= 1e-9.

    The sample holds f(x); rows() re-draws x.  terms x count over the graph series' term
    budget is refused before any draw."""
    count = _check_count(count)
    seed = _check_int("seed", seed)
    terms, tail = _graph_terms(p.lam, phi, count, _TAIL_TARGET)

    def heights(values, r0, r1):
        x = rng.uniform_vector(seed, rng.STREAM_GRAPH_X, r1 - r0, r0)
        values[r0:r1] = eval_weierstrass(p, phi, x, terms=terms).value

    return _sample("graph", count, seed, terms, tail, heights, rng.STREAM_GRAPH_X)


def _count_hits(block: np.ndarray, centers: list, radii: list[float], hits: np.ndarray) -> None:
    """hits[c, k] += the rows of block within radii[k] of centers[c]: each distance is
    |d| or sqrt((d ** 2).sum(axis=1)), formed in one scratch per block."""
    d = np.empty_like(block)
    dist = d if d.ndim == 1 else np.empty(len(d))
    for c, point in enumerate(centers):
        np.subtract(block, point, out=d)
        if d.ndim == 1:
            np.abs(d, out=d)
        else:
            np.add.reduce(np.multiply(d, d, out=d), axis=1, out=dist)
            np.sqrt(dist, out=dist)
        hits[c] += [np.count_nonzero(dist <= r) for r in radii]


def local_dim_estimate(
    s: SampleSet,
    radii: Sequence[float],
    centers: int = 100,
    seed: int = 0,
) -> DimFit:
    """Average local-dimension slope over randomly chosen sample centers.

    For each center the mass of the ball of radius r is the fraction of
    samples within r; the per-center slope of log-mass against log-radius is
    averaged, with the standard error across centers.  The smallest radius
    must stay well above the truncation tail of the sample set.
    """
    radii = [float(r) for r in radii]
    _check_scales("radii", radii)
    if s.tail_bound > 0.0 and radii[-1] < 10.0 * s.tail_bound:
        raise ValueError(
            f"smallest radius {radii[-1]} is below the resolvable scale "
            f"(10 x tail bound {s.tail_bound})"
        )
    centers = _check_int("centers", centers, 1)
    seed = _check_int("seed", seed)
    n = s.count
    idx = rng.digit_vector(seed, rng.STREAM_CENTERS, 0, centers, n)  # value64(seed, stream, t) % n
    points = [s.rows(i, i + 1)[0] for i in idx.tolist()]  # each center's row
    hits = np.zeros((centers, len(radii)), dtype=np.int64)
    for r0 in range(0, n, _TASK_ROWS):  # no count-sized distances; each block drawn once
        _count_hits(s.rows(r0, r0 + _TASK_ROWS), points, radii, hits)
    log_r = np.log(radii)
    slopes = np.array([_linear_fit(log_r, np.log(h / n))[0] for h in hits])
    stderr = float(slopes.std(ddof=1) / math.sqrt(centers)) if centers > 1 else 0.0
    return DimFit(slope=float(slopes.mean()), stderr=stderr)


def dimension_from_transversal(dim_nu: float, p: Params) -> float:
    """Graph-measure dimension from the transversal dimension:
    1 + (affinity_dim - 1) * dim_nu."""
    if not (0.0 <= dim_nu <= 1.0):
        raise ValueError(f"dim_nu must lie in [0, 1], got {dim_nu!r}")
    return 1.0 + (p.affinity_dim - 1.0) * dim_nu


def density_histogram(s: SampleSet, bins: int) -> list[tuple[float, float]]:
    """Normalized histogram of the measure coordinate: (bin center, mass).

    np.histogram's counts, summed over blocks of values: every block bins on the whole
    sample's range, so no block copies the sample; a block holds at least one value per
    bin, so its edges and bin counts cost no more than its values."""
    bins = _check_bins(bins)
    vals = s.values()
    if vals.size == 0:
        raise ValueError("empty sample set")
    lo, hi = vals.min(), vals.max()
    step = max(_BLOCK, bins)
    counts = 0
    for r0 in range(0, vals.size, step):
        block, edges = np.histogram(vals[r0 : r0 + step], bins=bins, range=(lo, hi))
        counts = counts + block
    mass = counts / counts.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    return [(float(c), float(m)) for c, m in zip(centers, mass)]

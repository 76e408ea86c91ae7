"""Monte Carlo sampling of the pushforward measures and dimension diagnostics.

Samplers draw digit words (and base points) from the counter-based generator,
so a SampleSet is a pure function of (params, seed, depth, count) and is
identical for any worker count: rows run in chunks on the worker pool, each
chunk a pure function of (seed, stream, row range).  Local dimension is
estimated by a finite ladder of radii with a least-squares slope of log-mass
against log-radius; no convergence claim is attached, the estimates are
regression-stable diagnostics with a reported standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng
from .parallel import _CHUNK_CELLS, _check_bytes, map_ordered
from .series import (
    _TAIL_TARGET,
    COSINE_DERIV,
    Params,
    PhiSpec,
    _check_int,
    _graph_terms,
    _orbit_sums,
    _terms_for,
    eval_weierstrass,
    orbit_tail,
)


_BIN_BYTES = 512  # per histogram bin: its arrays, output row and JSON text (410 B measured)


def _check_count(count: int, columns: int) -> int:
    """count as an int, refused below 1 or when the count x columns result is over budget."""
    count = _check_int("count", count, 1)
    _check_bytes(count * 8 * columns, f"{count} samples")
    return count


def _check_bins(bins: int) -> int:
    """bins as an int, refused below 2 or when the histogram and its rows are over budget."""
    bins = _check_int("bins", bins, 2)
    _check_bytes(bins * _BIN_BYTES, f"{bins} histogram bins")
    return bins


def _pooled_rows(out: np.ndarray, rows: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """out, with out[r0:r1] = rows(r0, r1) over consecutive ranges of _CHUNK_CELLS rows on the
    worker pool.  Every row is its own counter-RNG stream and its arithmetic is elementwise,
    so the bits do not depend on the chunking."""
    def task(r0):
        r1 = min(r0 + _CHUNK_CELLS, len(out))
        out[r0:r1] = rows(r0, r1)

    map_ordered(task, range(0, len(out), _CHUNK_CELLS))
    return out


def _check_scales(name: str, scales: Sequence[float], least: int = 4) -> None:
    """Refuse fewer than `least` scales, or scales that do not strictly decrease."""
    if len(scales) < least or any(b >= a for a, b in zip(scales, scales[1:])):
        got = [float(s) for s in scales]
        raise ValueError(f"{name} must be >= {least} strictly decreasing scales, got {got}")


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Reproducible sample of one measure.

    kind is "transversal" (values of the stable slope at a fixed x, one real
    per sample), "sbr" (pairs (x, fiber sum)), "graph" (pairs (x, f(x))) or
    "synthetic".  tail_bound is the per-sample truncation error bound.
    """

    points: np.ndarray
    seed: int
    depth: int
    kind: str
    tail_bound: float = 0.0

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def values(self) -> np.ndarray:
        """The measure coordinate: the points themselves, or the y column."""
        return self.points if self.points.ndim == 1 else self.points[:, 1]

    def to_csv(self, path) -> None:
        """One row per sample, each value as %.17g, in blocks of _CHUNK_CELLS rows."""
        cols = 1 if self.points.ndim == 1 else self.points.shape[1]
        pts = self.points.reshape(-1, cols)
        row = ",".join(["%.17g"] * cols) + "\n"
        with open(path, "w") as fh:
            for r0 in range(0, self.count, _CHUNK_CELLS):
                block = pts[r0 : r0 + _CHUNK_CELLS]
                fh.write(row * len(block) % tuple(block.ravel().tolist()))

    def summary(self) -> dict:
        vals = self.values()
        return {
            "kind": self.kind,
            "count": int(self.count),
            "seed": self.seed,
            "depth": self.depth,
            "tail_bound": self.tail_bound,
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if self.count > 1 else 0.0,
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


def sample_transversal(
    p: Params,
    x: float,
    count: int,
    depth: Optional[int] = None,
    seed: int = 0,
) -> SampleSet:
    """Draw `count` stable-slope values at x with i.i.d. uniform digits."""
    count = _check_count(count, 1)
    seed = _check_int("seed", seed)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    gamma = p.gamma
    tail = orbit_tail("Y", p.b, gamma)
    depth = _terms_for(_TAIL_TARGET, tail, 1, depth, "depth")

    def slopes(r0, r1):
        columns = rng.digit_columns(seed, rng.STREAM_TRANSVERSAL, r1 - r0, depth, p.b, r0)
        # one start for every row: _orbit_sums runs each digit prefix's orbit once
        return _orbit_sums(float(x), p.b, gamma, columns, ("Y",))["Y"]

    return SampleSet(
        points=_pooled_rows(np.empty(count), slopes),
        seed=seed,
        depth=depth,
        kind="transversal",
        tail_bound=tail(depth),
    )


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
    every sample by exactly c/(1-gamma).
    """
    count = _check_count(count, 2)
    seed = _check_int("seed", seed)
    gamma = p.gamma
    tail = orbit_tail("S", p.b, gamma, psi)
    depth = _terms_for(_TAIL_TARGET, tail, 1, depth, "depth")
    points = np.empty((count, 2))
    xs = points[:, 0]
    xs[:] = rng.uniform_vector(seed, rng.STREAM_SBR_X, count)

    def fibers(r0, r1):
        columns = rng.digit_columns(seed, rng.STREAM_SBR_DIGITS, r1 - r0, depth, p.b, r0)
        return _orbit_sums(xs[r0:r1], p.b, gamma, columns, ("S",), psi)["S"]

    _pooled_rows(points[:, 1], fibers)
    return SampleSet(
        points=points,
        seed=seed,
        depth=depth,
        kind="sbr",
        tail_bound=tail(depth),
    )


def sample_graph_lift(
    p: Params,
    phi: PhiSpec,
    count: int,
    seed: int = 0,
) -> SampleSet:
    """Sample the lift of Lebesgue measure to the graph: pairs (x, f(x)), tail <= 1e-9.

    terms x count over the graph series' term budget is refused before any draw."""
    count = _check_count(count, 2)
    seed = _check_int("seed", seed)
    terms, tail = _graph_terms(p.lam, phi, count, _TAIL_TARGET)
    points = np.empty((count, 2))
    xs = points[:, 0]
    xs[:] = rng.uniform_vector(seed, rng.STREAM_GRAPH_X, count)

    def heights(r0, r1):
        return eval_weierstrass(p, phi, xs[r0:r1], terms=terms).value

    _pooled_rows(points[:, 1], heights)
    return SampleSet(
        points=points,
        seed=seed,
        depth=terms,
        kind="graph",
        tail_bound=tail,
    )


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
    pts = s.points
    n = s.count
    idx = np.array(
        [rng.value64(seed, rng.STREAM_CENTERS, t) % n for t in range(centers)],
        dtype=np.int64,
    )
    log_r = np.log(radii)
    slopes = np.empty(centers)
    for c, i in enumerate(idx):
        if pts.ndim == 1:
            dist = np.abs(pts - pts[i])
        else:
            dist = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        masses = np.array([(dist <= r).sum() / n for r in radii])
        slopes[c] = _linear_fit(log_r, np.log(masses))[0]
    stderr = float(slopes.std(ddof=1) / math.sqrt(centers)) if centers > 1 else 0.0
    return DimFit(slope=float(slopes.mean()), stderr=stderr)


def dimension_from_transversal(dim_nu: float, p: Params) -> float:
    """Graph-measure dimension from the transversal dimension:
    1 + (affinity_dim - 1) * dim_nu."""
    if not (0.0 <= dim_nu <= 1.0):
        raise ValueError(f"dim_nu must lie in [0, 1], got {dim_nu!r}")
    return 1.0 + (p.affinity_dim - 1.0) * dim_nu


def density_histogram(s: SampleSet, bins: int) -> list[tuple[float, float]]:
    """Normalized histogram of the measure coordinate: (bin center, mass)."""
    bins = _check_bins(bins)
    vals = s.values()
    if vals.size == 0:
        raise ValueError("empty sample set")
    counts, edges = np.histogram(vals, bins=bins)
    mass = counts / counts.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    return [(float(c), float(m)) for c, m in zip(centers, mass)]

"""Monte Carlo sampling of the pushforward measures and dimension diagnostics.

Samplers draw digit words (and base points) from the counter-based generator,
so a SampleSet is a pure function of (params, seed, depth, count) and is
identical for any worker count.  Local dimension is estimated by a finite
ladder of radii with a least-squares slope of log-mass against log-radius;
no convergence claim is attached, the estimates are regression-stable
diagnostics with a reported standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng
from .series import (
    COSINE_DERIV,
    TWO_PI,
    Params,
    PhiSpec,
    _orbit_sums,
    default_depth,
    eval_weierstrass,
    tail_bound_geometric,
    tail_bound_slope,
)


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
    params: Optional[Params] = None
    tail_bound: float = 0.0
    x: Optional[float] = None

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def values(self) -> np.ndarray:
        """The measure coordinate: the points themselves, or the y column."""
        return self.points if self.points.ndim == 1 else self.points[:, 1]

    def to_csv(self, path) -> None:
        cols = 1 if self.points.ndim == 1 else self.points.shape[1]
        np.savetxt(path, self.points, delimiter=",", fmt=["%.17g"] * cols)

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
    intercept: float
    stderr: float
    radii: tuple[float, ...]
    values: tuple[float, ...]  # mean ball masses, or box counts

    def __post_init__(self):
        if len(self.radii) < 4:
            raise ValueError("a dimension fit needs at least 4 scales")
        if any(b >= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly decreasing")


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
    if count < 1:
        raise ValueError("count must be positive")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    gamma = p.gamma
    if depth is None:
        depth = default_depth(gamma)
    columns = rng.digit_columns(seed, rng.STREAM_TRANSVERSAL, count, depth, p.b)
    return SampleSet(
        points=_orbit_sums(np.full(count, float(x)), p.b, gamma, columns, ("y",))["y"],
        seed=seed,
        depth=depth,
        kind="transversal",
        params=p,
        tail_bound=tail_bound_slope(gamma, depth),
        x=float(x),
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
    if count < 1:
        raise ValueError("count must be positive")
    gamma = p.gamma
    sup = psi.oscillating_sup()
    if depth is None:
        depth = default_depth(gamma, 1e-9 / max(sup / TWO_PI, 1e-12))
    xs = rng.uniform_vector(seed, rng.STREAM_SBR_X, count)
    columns = rng.digit_columns(seed, rng.STREAM_SBR_DIGITS, count, depth, p.b)
    vals = _orbit_sums(xs, p.b, gamma, columns, ("s",), psi)["s"]
    return SampleSet(
        points=np.column_stack([xs, vals]),
        seed=seed,
        depth=depth,
        kind="sbr",
        params=p,
        tail_bound=tail_bound_geometric(gamma, sup, depth),
    )


def sample_graph_lift(
    p: Params,
    phi: PhiSpec,
    count: int,
    seed: int = 0,
    abs_tol: float = 1e-9,
) -> SampleSet:
    """Sample the lift of Lebesgue measure to the graph: pairs (x, f(x))."""
    if count < 1:
        raise ValueError("count must be positive")
    xs = rng.uniform_vector(seed, rng.STREAM_GRAPH_X, count)
    sv = eval_weierstrass(p, phi, xs, abs_tol=abs_tol)
    return SampleSet(
        points=np.column_stack([xs, sv.value]),
        seed=seed,
        depth=sv.terms_used,
        kind="graph",
        params=p,
        tail_bound=abs_tol,
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
    if len(radii) < 4:
        raise ValueError("need at least 4 radii")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    if s.tail_bound > 0.0 and radii[-1] < 10.0 * s.tail_bound:
        raise ValueError(
            f"smallest radius {radii[-1]} is below the resolvable scale "
            f"(10 x tail bound {s.tail_bound})"
        )
    if centers < 1:
        raise ValueError("centers must be positive")
    pts = s.points
    n = s.count
    idx = np.array(
        [rng.value64(seed, rng.STREAM_CENTERS, t) % n for t in range(centers)],
        dtype=np.int64,
    )
    log_r = np.log(radii)
    slopes = np.empty(centers)
    intercepts = np.empty(centers)
    mass_sum = np.zeros(len(radii))
    for c, i in enumerate(idx):
        if pts.ndim == 1:
            dist = np.abs(pts - pts[i])
        else:
            dist = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        masses = np.array([(dist <= r).sum() / n for r in radii])
        mass_sum += masses
        slopes[c], intercepts[c], _ = _linear_fit(log_r, np.log(masses))
    stderr = float(slopes.std(ddof=1) / math.sqrt(centers)) if centers > 1 else 0.0
    return DimFit(
        slope=float(slopes.mean()),
        intercept=float(intercepts.mean()),
        stderr=stderr,
        radii=tuple(radii),
        values=tuple(mass_sum / centers),
    )


def dimension_from_transversal(dim_nu: float, p: Params) -> float:
    """Graph-measure dimension from the transversal dimension:
    1 + (affinity_dim - 1) * dim_nu."""
    if not (0.0 <= dim_nu <= 1.0):
        raise ValueError(f"dim_nu must lie in [0, 1], got {dim_nu!r}")
    return 1.0 + (p.affinity_dim - 1.0) * dim_nu


def density_histogram(s: SampleSet, bins: int) -> list[tuple[float, float]]:
    """Normalized histogram of the measure coordinate: (bin center, mass)."""
    if bins < 2:
        raise ValueError("bins must be at least 2")
    vals = s.values()
    if vals.size == 0:
        raise ValueError("empty sample set")
    counts, edges = np.histogram(vals, bins=bins)
    mass = counts / counts.sum()
    centers = 0.5 * (edges[:-1] + edges[1:])
    return [(float(c), float(m)) for c, m in zip(centers, mass)]

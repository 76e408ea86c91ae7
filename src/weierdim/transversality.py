"""Numerical transversality checks for the stable-slope functions.

Two slope functions indexed by digit words with distinct first digits are
transversal when, at every x, either their values or their x-derivatives
stay separated.  empirical_delta estimates the best uniform separation by
minimizing over sampled word pairs and a grid of x, always subtracting the
rigorous truncation slack so a positive result is trustworthy on the sampled
set.  tangency_count estimates the cylinder-pair tangency count e(n, m) that
controls absolute continuity of the skew-product invariant measure, adding
the same slack to the thresholds so that sampled representatives may be
overcounted as tangent but never undercounted.  two_var_delta runs the
two-variable (x, gamma) variant on a certified sub-rectangle.

Grid minima are reported with their argmin witnesses so a failure can be
reproduced directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .parallel import map_ordered
from .series import (
    DigitWord,
    Params,
    _check_base,
    slope_grid,
    tail_bound_slope,
    tail_bound_slope_dgamma,
    tail_bound_slope_dx,
)
from .thresholds import (
    _defect_gamma_base2,
    solve_ae_critical_lambda,
    transversality_defect,
)

_PAIR_CHUNK = 256


class WorkBudgetError(ValueError):
    """Requested enumeration exceeds the allowed work budget."""


@dataclass(frozen=True)
class TangencyQuery:
    """Parameters of one tangency-count estimate.

    n is the cylinder depth, m the dyadic interval depth; eps and delta are
    the value and derivative thresholds for the fiber-sum functions.  Words
    are truncated at `depth`; each cylinder is represented by its all-zero
    completion plus `random_tails` sampled completions.
    """

    n: int
    m: int
    eps: float
    delta: float
    depth: int = 30
    grid_per_interval: int = 200
    random_tails: int = 3

    def __post_init__(self):
        for name in ("n", "m", "depth", "grid_per_interval"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if not (self.eps > 0.0 and self.delta > 0.0):
            raise ValueError("eps and delta must be positive")
        if self.random_tails < 0:
            raise ValueError("random_tails must be nonnegative")


@dataclass(frozen=True)
class DeltaEstimate:
    """Estimated separation with the witness where the minimum occurred."""

    delta_hat: float
    argmin_x: float
    argmin_pair: tuple[DigitWord, DigitWord]
    tail_slack: float
    argmin_gamma: Optional[float] = None


def analytic_transversality_check(b: int, lam: float) -> tuple[bool, float]:
    """Closed-form transversality test: holds iff the defect is negative.

    Returns (holds, margin) with margin the negated defect.
    """
    d = transversality_defect(b, lam)
    return d < 0.0, -d


def case_bounds_base2(gamma: float) -> tuple[float, float, float, float]:
    """Upper bounds for the four second-digit cases of the base-2 analysis.

    Cases are ordered (0,0), (1,1), (1,0), (0,1); the largest (the last) is
    exactly the base-2 defect in the gamma variable.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    core = gamma ** 4 / (1.0 - gamma) ** 2 + gamma ** 4 / (4.0 * (2.0 - gamma) ** 2)
    c_00 = core - gamma ** 2 / 8.0 + gamma / 2.0 - 1.0
    c_11 = core - gamma ** 2 / 8.0 + gamma / 2.0 - 1.0
    c_10 = core - 5.0 * gamma ** 2 / 16.0 - gamma / 2.0 - 1.0
    c_01 = _defect_gamma_base2(gamma)
    return c_00, c_11, c_10, c_01


def _exhaustive_depth(b: int, depth: int, pair_budget: int) -> int:
    cap = max(1, min(depth, int(12 / math.log2(b))))
    d_ex = 1
    for d in range(1, cap + 1):
        if b ** (2 * d - 1) * (b - 1) <= pair_budget:
            d_ex = d
        else:
            break
    return d_ex


def _pair_words(
    b: int, depth: int, pair_budget: int, seed: int
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Digit rows and index pairs with distinct first digits.

    All prefix pairs up to the exhaustive depth (kept within the pair budget)
    come first, completed by zeros; the remaining budget is filled with pairs
    drawn from a pool of counter-sampled full-depth words whose first digits
    cycle through the alphabet, so distinct-first-digit pairs always exist.
    """
    d_ex = _exhaustive_depth(b, depth, pair_budget)
    prefixes = list(itertools.product(range(b), repeat=d_ex))
    n_ex = len(prefixes)
    words = [np.zeros((n_ex, depth), dtype=np.int64)]
    for i, pref in enumerate(prefixes):
        words[0][i, :d_ex] = pref
    pairs = [
        (i, j)
        for i in range(n_ex)
        for j in range(n_ex)
        if prefixes[i][0] != prefixes[j][0]
    ]
    n_sampled = max(0, pair_budget - len(pairs))
    if n_sampled:
        pool = math.ceil(math.sqrt(n_sampled / (1.0 - 1.0 / b))) + 1
        raw = rng.digit_matrix(seed, rng.STREAM_PAIR_WORDS, pool, depth, b)
        raw[:, 0] = np.arange(pool, dtype=np.int64) % b
        taken = 0
        for i in range(pool):
            for j in range(pool):
                if taken >= n_sampled:
                    break
                if i != j and raw[i, 0] != raw[j, 0]:
                    pairs.append((n_ex + i, n_ex + j))
                    taken += 1
            if taken >= n_sampled:
                break
        words.append(raw)
    return np.vstack(words), pairs


def _chunk_min(score: np.ndarray) -> tuple[float, int]:
    flat = int(np.argmin(score))
    return float(score.flat[flat]), flat


def empirical_delta(
    b: int,
    gamma: float,
    x_grid: int = 2000,
    depth: int = 30,
    pair_budget: int = 2048,
    seed: int = 0,
) -> DeltaEstimate:
    """Empirical one-variable separation estimate at fixed (b, gamma).

    Minimizes max(|dY| - 2 tY, |dY'| - 2 tY') over sampled word pairs with
    distinct first digits and a uniform x grid on [0, 1], clamped at zero.
    The subtracted terms are the truncation tail bounds at `depth`, so any
    positive value is a sound separation for the sampled representatives.
    """
    b = _check_base(b)
    if not (1.0 / b < gamma < 1.0):
        raise ValueError(f"gamma must lie in (1/{b}, 1), got {gamma!r}")
    if x_grid < 2:
        raise ValueError("x_grid must be at least 2")
    words, pairs = _pair_words(b, depth, pair_budget, seed)
    xs = np.linspace(0.0, 1.0, x_grid)
    y, ydx, _ = slope_grid(b, gamma, xs, words)
    t_y = tail_bound_slope(gamma, depth)
    t_ydx = tail_bound_slope_dx(b, gamma, depth)

    chunks = [pairs[c : c + _PAIR_CHUNK] for c in range(0, len(pairs), _PAIR_CHUNK)]

    def score_chunk(chunk):
        ii = np.fromiter((p[0] for p in chunk), dtype=np.int64)
        jj = np.fromiter((p[1] for p in chunk), dtype=np.int64)
        d_y = np.abs(y[ii] - y[jj]) - 2.0 * t_y
        d_ydx = np.abs(ydx[ii] - ydx[jj]) - 2.0 * t_ydx
        return _chunk_min(np.maximum(d_y, d_ydx))

    best_val = math.inf
    best_pair = pairs[0]
    best_x = float(xs[0])
    for chunk, (val, flat) in zip(chunks, map_ordered(score_chunk, chunks)):
        if val < best_val:
            best_val = val
            local_pair, x_idx = divmod(flat, xs.size)
            best_pair = chunk[local_pair]
            best_x = float(xs[x_idx])
    i, j = best_pair
    witness = (DigitWord(tuple(words[i])), DigitWord(tuple(words[j])))
    return DeltaEstimate(
        delta_hat=max(0.0, best_val),
        argmin_x=best_x,
        argmin_pair=witness,
        tail_slack=2.0 * max(t_y, t_ydx),
    )


def tangency_count(
    p: Params, q: TangencyQuery, seed: int = 0, max_work: float = 5e7
) -> int:
    """Conservative estimate of the tangency count e(n, m; eps, delta).

    Enumerates all cylinder-prefix pairs of length n, represents each
    cylinder by its all-zero completion plus sampled random completions, and
    scans a grid over every depth-m dyadic interval.  A pair counts as
    tangent on an interval when some sampled point has both the value and
    derivative differences inside the thresholds, with truncation slack added
    so the decision errs toward tangency.  The thresholds apply to the fiber
    sums; their slope-series equivalents are gamma * eps and gamma * delta.
    """
    b, gamma = p.b, p.gamma
    reps = 1 + q.random_tails
    work = b ** (2 * q.n) * b ** q.m * q.grid_per_interval * reps * reps
    if work > max_work:
        raise WorkBudgetError(
            f"tangency enumeration needs ~{work:.2e} comparisons, over the "
            f"budget of {max_work:.2e}; reduce n, m or the grid"
        )
    depth = max(q.depth, q.n + 1)
    n_cyl = b ** q.n
    prefixes = list(itertools.product(range(b), repeat=q.n))
    digits = rng.digit_matrix(
        seed, rng.STREAM_TANGENCY_TAILS, n_cyl * reps, depth, b
    )
    for c, pref in enumerate(prefixes):
        digits[c * reps : (c + 1) * reps, : q.n] = pref
        digits[c * reps, q.n :] = 0
    g = q.grid_per_interval
    n_int = b ** q.m
    xs = np.concatenate(
        [np.linspace(k / n_int, (k + 1) / n_int, g) for k in range(n_int)]
    )
    y, ydx, _ = slope_grid(b, gamma, xs, digits)
    thr_y = gamma * q.eps + 2.0 * tail_bound_slope(gamma, depth)
    thr_ydx = gamma * q.delta + 2.0 * tail_bound_slope_dx(b, gamma, depth)

    def tangent_table(ci: int) -> np.ndarray:
        rows_i = y[ci * reps : (ci + 1) * reps]
        rows_i_dx = ydx[ci * reps : (ci + 1) * reps]
        table = np.zeros((n_cyl, n_int), dtype=bool)
        for cj in range(n_cyl):
            rows_j = y[cj * reps : (cj + 1) * reps]
            rows_j_dx = ydx[cj * reps : (cj + 1) * reps]
            d_y = np.abs(rows_i[:, None, :] - rows_j[None, :, :])
            d_ydx = np.abs(rows_i_dx[:, None, :] - rows_j_dx[None, :, :])
            near = ((d_y < thr_y) & (d_ydx < thr_ydx)).any(axis=(0, 1))
            table[cj] = near.reshape(n_int, g).any(axis=1)
        return table

    tables = map_ordered(tangent_table, range(n_cyl))
    counts = np.stack([t.sum(axis=0) for t in tables])
    return int(counts.max())


def two_var_delta(
    b: int,
    eps_margin: float,
    x_grid: int = 400,
    gamma_grid: int = 24,
    depth: int = 40,
    pair_budget: int = 512,
    seed: int = 0,
) -> DeltaEstimate:
    """Two-variable separation estimate over a certified (x, gamma) rectangle.

    The gamma interval is (1/b + eps_margin, gamma_top - eps_margin) with
    gamma_top derived from the certified upper bound on the almost-everywhere
    critical scale (a sub-rectangle of the true region, hence conservative).
    The score is max(|dY| - slack, |dY_x| + |dY_gamma| - slack).  Gamma runs
    over a lattice anchored at 1/b whose step ignores eps_margin, so grids
    for nested margins are themselves nested.
    """
    b = _check_base(b)
    if not (eps_margin > 0.0):
        raise ValueError("eps_margin must be positive")
    ae = solve_ae_critical_lambda(b)
    gamma_top = 1.0 / (b * ae.hi)
    lo = 1.0 / b + eps_margin
    hi = gamma_top - eps_margin
    if lo >= hi:
        raise ValueError(
            f"empty gamma interval: ({lo}, {hi}) for b={b}, eps={eps_margin}"
        )
    step = (gamma_top - 1.0 / b) / (gamma_grid + 1.0)
    gammas = [
        1.0 / b + j * step
        for j in range(1, int((gamma_top - 1.0 / b) / step) + 2)
        if lo <= 1.0 / b + j * step <= hi
    ]
    if not gammas:
        raise ValueError("gamma lattice has no points inside the margin window")
    xs = (np.arange(x_grid) + 0.5) / x_grid
    words, pairs = _pair_words(b, depth, pair_budget, seed)
    ii = np.fromiter((p[0] for p in pairs), dtype=np.int64)
    jj = np.fromiter((p[1] for p in pairs), dtype=np.int64)

    best_val = math.inf
    best_pair = pairs[0]
    best_x = float(xs[0])
    best_gamma = gammas[0]
    best_slack = 0.0
    for gamma in gammas:
        y, ydx, ydg = slope_grid(b, gamma, xs, words, want_dgamma=True)
        t_y = tail_bound_slope(gamma, depth)
        t_ydx = tail_bound_slope_dx(b, gamma, depth)
        t_ydg = tail_bound_slope_dgamma(gamma, depth)
        for c in range(0, len(pairs), _PAIR_CHUNK):
            si, sj = ii[c : c + _PAIR_CHUNK], jj[c : c + _PAIR_CHUNK]
            d_y = np.abs(y[si] - y[sj]) - 2.0 * t_y
            d_dd = (
                np.abs(ydx[si] - ydx[sj])
                + np.abs(ydg[si] - ydg[sj])
                - 2.0 * (t_ydx + t_ydg)
            )
            val, flat = _chunk_min(np.maximum(d_y, d_dd))
            if val < best_val:
                best_val = val
                local_pair, x_idx = divmod(flat, xs.size)
                best_pair = pairs[c + local_pair]
                best_x = float(xs[x_idx])
                best_gamma = gamma
                best_slack = 2.0 * max(t_y, t_ydx + t_ydg)
    i, j = best_pair
    witness = (DigitWord(tuple(words[i])), DigitWord(tuple(words[j])))
    return DeltaEstimate(
        delta_hat=max(0.0, best_val),
        argmin_x=best_x,
        argmin_pair=witness,
        tail_slack=best_slack,
        argmin_gamma=best_gamma,
    )

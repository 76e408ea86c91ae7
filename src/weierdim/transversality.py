"""Numerical transversality checks for the stable-slope functions.

Two slope functions indexed by digit words with distinct first digits are
transversal when, at every x, either their values or their x-derivatives
stay separated.  empirical_delta estimates the best uniform separation by
minimizing over sampled word pairs and a grid of x, always subtracting the
truncation slack, so a positive result clears the series tails on the sampled
set.  tangency_count estimates the cylinder-pair tangency count e(n, m) that
controls absolute continuity of the skew-product invariant measure, adding
the same slack to the thresholds, so that as far as truncation goes sampled
representatives may be overcounted as tangent but not undercounted.
two_var_delta runs the two-variable (x, gamma) variant on a certified
sub-rectangle.  The slack covers truncation only; float rounding is not
charged, and in Y_x it can exceed the tail (1.2e-14 against 1.9e-15 at b = 2,
lam = 0.85, depth 30), so no result here is a proof.

Word pairs are one (n, 2) int64 array from draw to score.  Grid minima are
reported with their argmin witnesses so a failure can be reproduced directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import rng
from .parallel import _CHUNK_CELLS, WorkBudgetError, _check_bytes, map_ordered
from .series import (
    DigitWord,
    Params,
    _check_int,
    _terms_for,
    orbit_tail,
    slope_grid,
)
from .thresholds import solve_ae_critical_lambda

_MAX_TANGENCY_WORK = 5e7  # b^(2n) b^m grid reps^2 comparisons per tangency count
_PAIR_BYTES = 48  # per budgeted pair: the index-array draw's traced peak (23-36 B measured, b 2-10)


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
        for name, least in (("n", 1), ("m", 1), ("grid_per_interval", 1), ("random_tails", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), least))
        object.__setattr__(self, "depth", _terms_for(None, None, 1, self.depth, "depth"))
        if not (self.eps > 0.0 and self.delta > 0.0):
            raise ValueError("eps and delta must be positive")


@dataclass(frozen=True)
class DeltaEstimate:
    """Estimated separation with the witness where the minimum occurred."""

    delta_hat: float
    argmin_x: float
    argmin_pair: tuple[DigitWord, DigitWord]
    tail_slack: float
    argmin_gamma: Optional[float] = None


def case_bounds_base2(gamma: float) -> tuple[float, float, float, float]:
    """Upper bounds for the four second-digit cases of the base-2 analysis.

    Cases are ordered (0,0), (1,1), (1,0), (0,1); the largest (the last) is
    exactly the base-2 defect in the gamma variable.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    core = gamma ** 4 / (1.0 - gamma) ** 2 + gamma ** 4 / (4.0 * (2.0 - gamma) ** 2)
    c_00 = c_11 = core - gamma ** 2 / 8.0 + gamma / 2.0 - 1.0
    c_10 = core - 5.0 * gamma ** 2 / 16.0 - gamma / 2.0 - 1.0
    c_01 = core - gamma ** 2 / 2.0 + math.sqrt(2.0) * gamma - 1.0
    return c_00, c_11, c_10, c_01


def _prefixes(b: int, d: int, reps: int = 1) -> np.ndarray:
    """The b**d digit words of length d in lexicographic order, each `reps` times."""
    return np.repeat(np.arange(b ** d), reps)[:, None] // b ** np.arange(d - 1, -1, -1) % b


def _pair_counts(b: int, depth: int, pair_budget: int, points: int = 0, outputs: int = 0):
    """(exhaustive depth d, sampled ordered pairs, pool rows) of _pair_words, refused when
    the word rows (rows x depth) and pairs, plus a work bound of one grid cell per row,
    point and output, are over the byte budget.  The scan holds one x block of that grid at
    a time, so its term bounds work, not resident bytes.  The b^d prefixes hold
    b^(2d-1) (b-1) ordered distinct-first-digit pairs."""
    d_ex = max((d for d in range(2, min(depth, int(12 / math.log2(b))) + 1)
                if b ** (2 * d - 1) * (b - 1) <= pair_budget), default=1)
    n_sampled = max(0, pair_budget - b ** (2 * d_ex - 1) * (b - 1))
    pool = math.ceil(math.sqrt(n_sampled / (1.0 - 1.0 / b))) + 1 if n_sampled else 0
    _check_bytes(8 * (b ** d_ex + pool) * (depth + points * outputs) + _PAIR_BYTES * pair_budget,
                 "the separation scan's words, pairs and slope grid")
    return d_ex, n_sampled, pool


def _pair_words(
    b: int, depth: int, pair_budget: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Digit rows, and one (n, 2) int64 array of row pairs i < j with distinct first digits.

    All prefix pairs up to the exhaustive depth (kept within the pair budget)
    come first, completed by zeros; the remaining budget is filled with pairs
    drawn from a pool of counter-sampled full-depth words whose first digits
    cycle through the alphabet, so distinct-first-digit pairs always exist.
    The budget counts ordered pairs in row-major order; the depth-1 prefix
    pairs are always scored, even above the budget.  Only the i < j member
    of each is returned: the separation scores are symmetric, and that
    member comes first, so the first minimiser is unchanged.
    """
    d_ex, n_sampled, pool = _pair_counts(b, depth, pair_budget)
    n_ex = b ** d_ex
    words = np.zeros((n_ex + pool, depth), dtype=np.int64)
    words[:n_ex, :d_ex] = _prefixes(b, d_ex)
    if n_sampled:
        words[n_ex:] = rng.digit_matrix(seed, rng.STREAM_PAIR_WORDS, pool, depth, b)
        words[n_ex:, 0] = np.arange(pool, dtype=np.int64) % b
    pairs = []
    for r0, r1, limit in ((0, n_ex, None), (n_ex, n_ex + pool, n_sampled)):
        first = words[r0:r1, 0]  # the block's first `limit` ordered pairs, i < j kept
        i, j = (k[:limit] for k in np.nonzero(first[:, None] != first))
        pairs.append(np.stack((i[i < j], j[i < j]), axis=1) + r0)
    return words, np.concatenate(pairs)


def _x_blocks(fn, n: int, cells: int) -> list:
    """fn(i0, i1) on the worker pool, in order, over consecutive blocks [i0, i1) of the
    caller's n grid units (points, or whole intervals of points): as many units as hold
    about _CHUNK_CELLS cells of `cells` per unit, and at least one."""
    width = max(1, _CHUNK_CELLS // cells)
    return map_ordered(lambda i0: fn(i0, min(i0 + width, n)), range(0, n, width))


def _gap(grid: np.ndarray, si: np.ndarray, sj: np.ndarray, out: np.ndarray,
         scratch: np.ndarray) -> np.ndarray:
    """|grid[..., si, :] - grid[..., sj, :]| into out, using scratch.  The indices must
    lie in 0..rows-1: the unbuffered mode="clip" gather would clip one that does not."""
    np.take(grid, si, axis=-2, out=out, mode="clip")
    np.take(grid, sj, axis=-2, out=scratch, mode="clip")
    np.subtract(out, scratch, out=out)
    return np.abs(out, out=out)


def _min_separation(
    b: int, gamma, xs: np.ndarray, words: np.ndarray,
    pairs: np.ndarray, depth: int, with_dgamma: bool,
) -> tuple:
    """(score, (i, j), x, slack) at the first minimiser in pair-major order.

    The score is max(|dY| - 2 tY, |dY_x| [+ |dY_gamma|] - 2 tD), tD being the
    Y_x tail bound plus, `with_dgamma`, the Y_gamma one; slack = 2 max(tY, tD).
    A 1-D gamma appends the gamma index to the tuple.  Each _x_blocks task
    sums the slope grids of every gamma and word on one x block of about
    _CHUNK_CELLS cells and scores every row of the (n, 2) pair array, through
    its column views, as many rows at a time as there are words, in three
    buffers of one grid's size reused for every chunk; the least (score, gamma
    index, pair index, x index) over all blocks is the first minimiser, and
    the full grid is never held.  A pair index outside 0..rows-1 raises
    IndexError before any orbit work.
    """
    gammas = np.atleast_1d(gamma).tolist()

    def tail(what):  # each gamma's tail bound, broadcast over (pair, x)
        return np.reshape([orbit_tail(what, b, g)(depth) for g in gammas], np.shape(gamma) + (1, 1))

    t_y, t_d = tail("Y"), tail("Ydx")
    if with_dgamma:
        t_d += tail("Ydgamma")
    ii, jj = pairs.T
    rows = words.shape[0]
    if pairs.min() < 0 or pairs.max() >= rows:
        raise IndexError(f"pair indices must lie in 0..{rows - 1}")

    def block_min(x0, x1):
        xb = xs[x0:x1]
        y, ydx, ydg = slope_grid(b, gamma, xb, words, want_dgamma=with_dgamma)
        bufs = [np.empty(y.size) for _ in range(3)]
        best = []
        for p0 in range(0, ii.size, rows):
            si, sj = ii[p0 : p0 + rows], jj[p0 : p0 + rows]
            shape = y.shape[:-2] + (si.size, xb.size)
            d, e, scratch = (buf[: math.prod(shape)].reshape(shape) for buf in bufs)
            _gap(ydx, si, sj, d, scratch)
            if with_dgamma:
                d += _gap(ydg, si, sj, e, scratch)
            d -= 2.0 * t_d
            score = _gap(y, si, sj, e, scratch)
            score -= 2.0 * t_y
            np.maximum(score, d, out=score)
            k = int(np.argmin(score))
            g_i, c = divmod(k, si.size * xb.size)
            best.append((float(score.flat[k]), g_i, p0 + c // xb.size, x0 + c % xb.size))
        return min(best)

    score, g_i, k, x_idx = min(_x_blocks(block_min, xs.size, rows * len(gammas)))
    slack = 2.0 * float(max(t_y.flat[g_i], t_d.flat[g_i]))
    found = score, (int(ii[k]), int(jj[k])), float(xs[x_idx]), slack
    return found + (g_i,) if np.ndim(gamma) else found


def _estimate(words: np.ndarray, found, gamma: Optional[float] = None) -> DeltaEstimate:
    """DeltaEstimate with the witness words of a _min_separation result."""
    score, (i, j), x, slack = found
    return DeltaEstimate(
        delta_hat=max(0.0, score),
        argmin_x=x,
        argmin_pair=(DigitWord(tuple(words[i])), DigitWord(tuple(words[j]))),
        tail_slack=slack,
        argmin_gamma=gamma,
    )


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
    The subtracted terms are the truncation tail bounds at `depth`; float
    rounding is not charged, so a positive value is not yet a proof.
    The depth-1 prefix pairs are always scored, even above pair_budget.
    """
    b = _check_int("base", b, 2)
    if not (1.0 / b < gamma < 1.0):
        raise ValueError(f"gamma must lie in (1/{b}, 1), got {gamma!r}")
    depth = _terms_for(None, None, 1, depth, "depth")
    x_grid = _check_int("x_grid", x_grid, 2)
    pair_budget = _check_int("pair_budget", pair_budget, 0)
    seed = _check_int("seed", seed)
    _pair_counts(b, depth, pair_budget, x_grid, 2)  # the byte budget, before any draw
    words, pairs = _pair_words(b, depth, pair_budget, seed)
    xs = np.linspace(0.0, 1.0, x_grid)
    return _estimate(words, _min_separation(b, gamma, xs, words, pairs, depth, False))


def tangency_count(p: Params, q: TangencyQuery, seed: int = 0) -> int:
    """Conservative estimate of the tangency count e(n, m; eps, delta).

    Enumerates all cylinder-prefix pairs of length n, represents each
    cylinder by its all-zero completion plus sampled random completions, and
    scans a grid over every depth-m dyadic interval.  A pair counts as
    tangent on an interval when some sampled point has both the value and
    derivative differences inside the thresholds, with truncation slack added
    (float rounding is not charged) so the decision errs toward tangency as
    far as truncation goes.  The thresholds apply to the fiber
    sums; their slope-series equivalents are gamma * eps and gamma * delta.
    The x grid is built once, before the pool; each task sums the slope grids
    of every word on a block of whole intervals and marks the pairs tangent on
    each, so the full slope grid is never held.  An interval too wide for one
    task's _CHUNK_CELLS comparisons is scanned in pieces inside its task,
    OR-ed into its own slice of the table, so no two threads write one cell.
    """
    seed = _check_int("seed", seed)
    b, gamma = p.b, p.gamma
    reps = 1 + q.random_tails
    n_cyl, n_int, g = b ** q.n, b ** q.m, q.grid_per_interval
    work = n_cyl * n_cyl * n_int * g * reps * reps
    if work > _MAX_TANGENCY_WORK:
        raise WorkBudgetError(
            f"tangency enumeration needs ~{work:.2e} comparisons, over the "
            f"budget of {_MAX_TANGENCY_WORK:.2e}; reduce n, m or the grid"
        )
    depth = max(q.depth, q.n + 1)
    # the slope-grid term bounds work, as in _pair_counts: a task holds one block of it
    _check_bytes(8 * n_cyl * reps * (depth + 2 * n_int * g), "the tangency words and slope grid")
    digits = rng.digit_matrix(seed, rng.STREAM_TANGENCY_TAILS, n_cyl * reps, depth, b)
    digits[:, : q.n] = _prefixes(b, q.n, reps)  # cylinder c's rows c*reps .. c*reps+reps-1
    digits[::reps, q.n :] = 0  # the all-zero completion first
    # interval k's g points at k * g .. k * g + g - 1, as np.linspace(k / n_int, (k + 1) / n_int, g)
    xs = np.linspace(np.arange(n_int) / n_int, np.arange(1, n_int + 1) / n_int, g, axis=1).ravel()
    thr_y = gamma * q.eps + 2.0 * orbit_tail("Y", b, gamma)(depth)
    thr_ydx = gamma * q.delta + 2.0 * orbit_tail("Ydx", b, gamma)(depth)
    table = np.zeros((n_cyl, n_cyl, n_int), dtype=bool)

    cells = n_cyl * reps * reps  # a task's largest arrays: one row's comparisons per point
    width = max(1, _CHUNK_CELLS // cells)  # points per piece; a block of whole intervals fits

    def near_block(k0, k1):  # the intervals k0 .. k1-1
        xb = xs[k0 * g : k1 * g]
        # one piece for the whole block, or pieces of its one interval when that is too wide
        for p0 in range(0, xb.size, width):
            y, ydx, _ = slope_grid(b, gamma, xb[p0 : p0 + width], digits)
            y, ydx = y.reshape(n_cyl, reps, -1), ydx.reshape(n_cyl, reps, -1)
            for ci in range(n_cyl):  # the pairs ci <= cj: |y_i - y_j| is symmetric
                d_y = np.abs(y[ci][:, None] - y[ci:, None])
                d_ydx = np.abs(ydx[ci][:, None] - ydx[ci:, None])
                near = ((d_y < thr_y) & (d_ydx < thr_ydx)).any(axis=(1, 2))
                near = near.reshape(n_cyl - ci, k1 - k0, -1).any(axis=2)
                table[ci, ci:, k0:k1] |= near
                table[ci:, ci, k0:k1] |= near

    _x_blocks(near_block, n_int, cells * g)
    return int(table.sum(axis=1).max())


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
    b = _check_int("base", b, 2)
    depth = _terms_for(None, None, 1, depth, "depth")
    if not (eps_margin > 0.0):
        raise ValueError("eps_margin must be positive")
    x_grid = _check_int("x_grid", x_grid, 1)
    gamma_grid = _check_int("gamma_grid", gamma_grid, 1)
    pair_budget = _check_int("pair_budget", pair_budget, 0)
    seed = _check_int("seed", seed)
    # the byte budget, before any draw or lattice: at most gamma_grid + 1 gammas in it
    _pair_counts(b, depth, pair_budget, x_grid * (gamma_grid + 1), 3)
    ae = solve_ae_critical_lambda(b)
    gamma_top = 1.0 / (b * ae.hi)
    lo = 1.0 / b + eps_margin
    hi = gamma_top - eps_margin
    step = (gamma_top - 1.0 / b) / (gamma_grid + 1.0)
    gammas = 1.0 / b + np.arange(1, int((gamma_top - 1.0 / b) / step) + 2) * step
    gammas = gammas[(lo <= gammas) & (gammas <= hi)]
    if not gammas.size:
        raise ValueError(f"no gamma lattice point in [{lo}, {hi}] for b={b}, eps={eps_margin}")
    xs = (np.arange(x_grid) + 0.5) / x_grid
    words, pairs = _pair_words(b, depth, pair_budget, seed)
    *found, g_i = _min_separation(b, gammas, xs, words, pairs, depth, True)
    return _estimate(words, found, float(gammas[g_i]))

"""Box-counting dimension estimation for graphs of the lacunary series.

Scales are powers of 1/b so that column boundaries line up with the series'
self-affine structure.  The finest columns are read off a grid of base-b
rational points; on that grid each series argument reduces mod 1 to an exact
rational, and every term beyond the grid depth is phi(0) exactly, so the
sampled values carry no truncation error at all.  Term n reads phi at
s / b**(grid_depth - n).  Let k be the first level whose period fits in
_TABLE points (4 MiB of float64).  From k on, every argument is bit for bit a
level-k argument, so one table of phi serves every such level.  The table
and each level before k run phi on contiguous pieces of at most _PIECE
points, but a level of at most _RESIDUES residues mod b**(k - n) reads the
table at its multiples and runs phi on its other residues.  The grid is
streamed in chunks that keep only the min, max and first value of each
finest column, and each coarser level takes the min/max over its b child
columns.  The oscillation inside a column is bracketed by sampling (min/max
over the grid points including both endpoints), which can undercount boxes
in y but is exact in x; doubling the sample density never removes a counted
box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DimFit, _check_scales, _linear_fit
from .parallel import _CHUNK_CELLS, WorkBudgetError, map_ordered
from .series import Params, PhiSpec, _check_int

_MAX_GRID = 1 << 26
_TABLE = 1 << 19  # points of the shared phi table: 4 MiB of float64
_TILE = 1 << 12  # narrowest row a periodic level is added in
_PIECE = 1 << 13  # most points one phi call takes: it bounds phi's temporaries
_RESIDUES = 4  # a level of m <= this many residues reads the table at its multiples
_KEPT = "levels left after dropping the coarsest"


@dataclass(frozen=True)
class BoxCountTable:
    """Counts of boxes of size eps hit by the graph, per level."""

    levels: tuple[tuple[float, int], ...]  # (eps, boxes_hit), eps decreasing

    def __post_init__(self):
        _check_scales("epsilon levels", [e for e, _ in self.levels], 0)


def _grid_values(p: Params, phi: PhiSpec, grid_depth: int, span: int) -> np.ndarray:
    """Min (row 0) and max (row 1) of f over each column of `span` steps of
    the grid x = t / b**grid_depth, both end points included, exactly.

    Term n of _graph_sum at t is lam^n phi(s / P_n) with P_n = b**(grid_depth - n)
    and s = t mod P_n, so each level is periodic in t.  Where P_n = m * P_k, s = m * j
    is the rational j / P_k: both quotients are correctly rounded, with integer
    operands below 2^53, so they are one double.  So one table T[j] = phi(j / P_k),
    k the first level with P_k <= _TABLE (at most 4 MiB), serves every level from k
    on at its strides.  The pool fills the table, and each level before k its row,
    with phi on contiguous pieces of at most _PIECE points; a level of m <= _RESIDUES
    reads its multiples of m off the table and runs phi per residue.  A level whose
    period fits in a chunk is one periodic row, tiled to at least _TILE points, added
    to every chunk; a wider level is scaled into the task's scratch row and added
    from there.  The operands and the order of the additions are _graph_sum's, so
    the values are its bits.  A chunk holds whole columns (span is a power of b) and
    writes their min, max and first value into one (3, columns) array.
    """
    b, total = p.b, p.b ** grid_depth
    step = span  # whole columns: the largest span * b**i within _CHUNK_CELLS, at least span
    while step * b <= min(_CHUNK_CELLS, total):
        step *= b
    lam_pows = []
    lam_pow = 1.0  # the running product of _graph_sum
    for _ in range(grid_depth):
        lam_pows.append(lam_pow)
        lam_pow *= p.lam
    # all deeper terms see the argument 0
    tail = lam_pow * float(phi.eval(0.0)) / (1.0 - p.lam)
    periods = [b ** (grid_depth - n) for n in range(grid_depth)]
    k = next((n for n, period in enumerate(periods) if period <= _TABLE), grid_depth)
    table = np.empty(b ** (grid_depth - k))  # P_k points; just phi(0) when k = grid_depth

    def phi_into(out, start, period):
        """out[i] = phi((start + i) / period), _PIECE points per phi call."""
        for a in range(0, out.size, _PIECE):
            part = out[a:a + _PIECE]
            part[:] = phi.eval(np.arange(start + a, start + a + part.size) / period)
        return out

    map_ordered(lambda j0: phi_into(table[j0:j0 + _CHUNK_CELLS], j0, table.size),
                range(0, table.size, _CHUNK_CELLS))

    def phi_at(n, start, row):
        """phi(s / P_n) for s = start .. start + row.size - 1, all below P_n: a strided
        view of the table from level k on, else written into row.  m and row.size are
        powers of b, and start is a multiple of row.size, so for m <= row.size, m divides
        both; at m <= _RESIDUES the row reads the table at its multiples of m and runs
        phi one residue at a time, in strided slices of _PIECE points."""
        if n >= k:
            stride = table.size // periods[n]
            return table[start * stride:(start + row.size) * stride:stride]
        m = periods[n] // table.size
        if m > min(_RESIDUES, row.size):
            return phi_into(row, start, periods[n])
        for i in range(0, row.size // m, _PIECE):  # points i .. i + _PIECE - 1 of each residue
            stop = min(m * (i + _PIECE), row.size)
            for c in range(1, m):
                row[m * i + c:stop:m] = phi.eval(np.arange(start + m * i + c, start + stop, m)
                                                 / periods[n])
        row[::m] = table[start // m:(start + row.size) // m]
        return row

    tiles = {}
    for n, period in enumerate(periods):
        if period <= step:  # periods divide step: both are powers of b
            width = period
            while width < _TILE and width * b <= step:
                width *= b
            tiles[n] = np.tile(lam_pows[n] * phi_at(n, 0, np.empty(period)), width // period)

    ext = np.empty((3, total // span))  # min, max and first value of each column

    def chunk_extremes(t0):
        acc = np.zeros(step)
        row = np.empty(step)
        for n, period in enumerate(periods):
            if n in tiles:
                rows = acc.reshape(-1, tiles[n].size)  # a view: tile widths divide step
                rows += tiles[n]
            else:
                acc += np.multiply(lam_pows[n], phi_at(n, t0 % period, row), out=row)
        acc += tail
        cols = acc.reshape(-1, span)
        c0, c1 = t0 // span, (t0 + step) // span
        cols.min(axis=1, out=ext[0, c0:c1])
        cols.max(axis=1, out=ext[1, c0:c1])
        ext[2, c0:c1] = cols[:, 0]

    map_ordered(chunk_extremes, range(0, total, step))
    # column c ends where column c + 1 starts; t = b**grid_depth reduces to t = 0
    first = ext[2]
    for extreme, pick in ((ext[0], np.minimum), (ext[1], np.maximum)):
        pick(extreme[:-1], first[1:], out=extreme[:-1])
        pick(extreme[-1:], first[:1], out=extreme[-1:])
    return ext[:2]


def box_count(
    p: Params,
    phi: PhiSpec,
    levels: int = 12,
    samples_per_column: int = 32,
) -> BoxCountTable:
    """Count eps-boxes hit by the graph for eps = b^-1 .. b^-levels.

    Each finest x-column spans b**extra >= samples_per_column grid steps, the
    least such power of b, so its y-range is bracketed by sampling at least
    samples_per_column - 1 interior points plus both endpoints (63 and 2 at
    64 samples).  A coarser column's closed x-range is the union of its b
    children's, so its min and max are theirs.
    """
    levels = _check_int("levels", levels, 4)
    samples_per_column = _check_int("samples_per_column", samples_per_column, 2)
    b = p.b
    extra = 1
    while b ** extra < samples_per_column:
        extra += 1
    grid_depth = levels + extra
    if b ** grid_depth > _MAX_GRID:
        raise WorkBudgetError(
            f"grid of b^{grid_depth} points exceeds the sampling budget; "
            "reduce levels or samples_per_column"
        )
    lo, hi = _grid_values(p, phi, grid_depth, b ** extra)
    rows = []
    for j in range(levels, 0, -1):
        eps = float(b) ** (-j)
        boxes = lo.size  # a column's boxes: floor(hi / eps) - floor(lo / eps) + 1
        for c0 in range(0, lo.size, _CHUNK_CELLS):  # in blocks: no column-sized temporaries
            k_min = np.floor(lo[c0:c0 + _CHUNK_CELLS] / eps).astype(np.int64)
            k_max = np.floor(hi[c0:c0 + _CHUNK_CELLS] / eps).astype(np.int64)
            boxes += int((k_max - k_min).sum())
        rows.append((eps, boxes))
        lo = lo.reshape(-1, b).min(axis=1)
        hi = hi.reshape(-1, b).max(axis=1)
    return BoxCountTable(tuple(rows[::-1]))


def _check_fit(b: int, levels: int, drop_coarsest: int) -> None:
    """Refuse, before the grid, the drop_coarsest that fit_box_dimension would refuse on
    box_count's table of scales b^-1 .. b^-levels (a bad `levels` is refused first)."""
    levels = _check_int("levels", levels, 4)
    kept = range(_check_int("drop_coarsest", drop_coarsest, 0) + 1, levels + 1)
    if len(kept) < 4:
        _check_scales(_KEPT, [float(b) ** (-j) for j in kept])


def fit_box_dimension(table: BoxCountTable, drop_coarsest: int = 2) -> DimFit:
    """Least-squares slope of log(boxes) against log(1/eps).

    The coarsest drop_coarsest levels are excluded (transient scales bias
    the fit); at least 4 levels must remain.
    """
    rows = table.levels[_check_int("drop_coarsest", drop_coarsest, 0):]
    eps = np.array([e for e, _ in rows])
    _check_scales(_KEPT, eps)
    hits = np.array([h for _, h in rows], dtype=np.float64)
    slope, _, stderr = _linear_fit(np.log(1.0 / eps), np.log(hits))
    return DimFit(slope=slope, stderr=stderr)

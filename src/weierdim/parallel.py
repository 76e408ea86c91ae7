"""Deterministic worker-pool helpers.

WEIERDIM_THREADS caps the number of worker threads (default 1); values above
os.cpu_count() are lowered to it.  All callers chunk their work by index and
reduce in a fixed order, so results are byte-identical for any worker count.
A task never opens a pool of its own.
Estimators that refuse work beyond a fixed budget raise WorkBudgetError.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkBudgetError(ValueError):
    """Requested work exceeds the allowed budget."""


_MAX_BYTES = 1 << 28  # bytes one sample set, digit matrix or slope grid may hold
_CHUNK_CELLS = 1 << 16  # cells per task or block: slope-grid and box-grid cells, digit remainders


def _check_bytes(nbytes: int, what: str) -> None:
    """Refuse `what` when its arrays, sized from the arithmetic alone, need over _MAX_BYTES."""
    if nbytes > _MAX_BYTES:
        raise WorkBudgetError(f"{what} need {nbytes:.2e} bytes, over the budget of {_MAX_BYTES:.2e}")


def worker_count() -> int:
    raw = os.environ.get("WEIERDIM_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, min(int(raw), os.cpu_count() or 1))
    except ValueError:
        return 1


def map_ordered(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Map preserving input order; parallel only when WEIERDIM_THREADS > 1."""
    seq: Sequence[T] = list(items)
    workers = worker_count()
    if workers <= 1 or len(seq) <= 1:
        return [fn(it) for it in seq]
    from concurrent.futures import ThreadPoolExecutor  # it imports logging: only a pool pays

    with ThreadPoolExecutor(max_workers=min(workers, len(seq))) as pool:
        return list(pool.map(fn, seq))

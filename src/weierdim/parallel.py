"""Deterministic worker-pool helpers.

WEIERDIM_THREADS caps the number of worker threads (default 1); values above
os.cpu_count() are lowered to it.  All callers chunk their work by index and
reduce in a fixed order, so results are byte-identical for any worker count.
Estimators that refuse work beyond a fixed budget raise WorkBudgetError.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkBudgetError(ValueError):
    """Requested work exceeds the allowed budget."""


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
    with ThreadPoolExecutor(max_workers=min(workers, len(seq))) as pool:
        return list(pool.map(fn, seq))

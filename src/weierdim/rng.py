"""Counter-based deterministic random values.

Every draw is a pure function of (seed, stream, index...), built from the
splitmix64 finalizer.  Sampling is therefore order independent: the same
coordinates give the same value no matter how work is split across workers,
which is what makes the samplers and estimators bit-reproducible.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Stream tags keep independent sampling domains from colliding.
STREAM_WORD_TAIL = 1
STREAM_TRANSVERSAL = 2
STREAM_SBR_X = 3
STREAM_SBR_DIGITS = 4
STREAM_GRAPH_X = 5
STREAM_PAIR_WORDS = 6
STREAM_TANGENCY_TAILS = 7
STREAM_CENTERS = 8


def _finalize(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def value64(seed: int, *indices: int) -> int:
    """64-bit hash of (seed, indices...); each extra index is one fold."""
    h = _finalize(((seed & _MASK) + _GOLDEN) & _MASK)
    for k in indices:
        h = _finalize((h + (k & _MASK) * _GOLDEN) & _MASK)
    return h


def _finalize_np(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2**64, matching the scalar path
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _hashes(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """value64(seed, stream, i) for i = start .. start+count-1."""
    idx = np.arange(start, start + count, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _finalize_np(np.uint64(value64(seed, stream)) + idx)


def _digits(h: np.ndarray, base: int) -> np.ndarray:
    return (h % np.uint64(base)).astype(np.int64)


def digit_vector(seed: int, stream: int, start: int, count: int, base: int) -> np.ndarray:
    """Digits in {0, .., base-1} at positions start .. start+count-1."""
    return _digits(_hashes(seed, stream, start, count), base)


def digit_matrix(seed: int, stream: int, rows: int, cols: int, base: int) -> np.ndarray:
    """(rows, cols) digit matrix; entry (r, c) == value64(seed, stream, r, c) % base."""
    c = np.arange(cols, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _digits(_finalize_np(_hashes(seed, stream, 0, rows)[:, None] + c), base)


def digit_columns(seed: int, stream: int, rows: int, cols: int, base: int):
    """Yield the columns of digit_matrix(seed, stream, rows, cols, base), hashing rows once."""
    h = _hashes(seed, stream, 0, rows)
    for c in range(cols):
        yield _digits(_finalize_np(h + np.uint64((c * _GOLDEN) & _MASK)), base)


def uniform_vector(seed: int, stream: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform floats in [0, 1); entry i derives from value64(seed, stream, start+i)."""
    h = _hashes(seed, stream, start, count)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

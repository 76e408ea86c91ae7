import numpy as np
import pytest

from weierdim import rng


def test_scalar_vector_consistency():
    m = rng.digit_matrix(42, 3, 7, 11, 5)
    for r in (0, 3, 6):
        for c in (0, 5, 10):
            assert m[r, c] == rng.value64(42, 3, r, c) % 5
    columns = list(rng.digit_columns(42, 3, 7, 11, 5))
    assert len(columns) == 11
    for c, column in enumerate(columns):
        assert np.array_equal(column, m[:, c])
    v = rng.digit_vector(42, 3, 4, 6, 5)
    for i in range(6):
        assert v[i] == rng.value64(42, 3, 4 + i) % 5


def test_determinism_and_extension():
    a = rng.digit_matrix(7, 1, 100, 20, 3)
    b = rng.digit_matrix(7, 1, 100, 20, 3)
    assert np.array_equal(a, b)
    wider = rng.digit_matrix(7, 1, 100, 40, 3)
    assert np.array_equal(wider[:, :20], a)
    taller = rng.digit_matrix(7, 1, 200, 20, 3)
    assert np.array_equal(taller[:100], a)


def test_streams_and_seeds_differ():
    a = rng.digit_matrix(7, 1, 50, 10, 4)
    assert not np.array_equal(a, rng.digit_matrix(7, 2, 50, 10, 4))
    assert not np.array_equal(a, rng.digit_matrix(8, 1, 50, 10, 4))


def test_uniform_range_and_rough_uniformity():
    u = rng.uniform_vector(123, 9, 200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    digits = rng.digit_matrix(5, 2, 50_000, 4, 7).ravel()
    counts = np.bincount(digits, minlength=7) / digits.size
    assert np.all(np.abs(counts - 1 / 7) < 0.01)


@pytest.mark.parametrize("base", (2, 4, 2 ** 20, 3, 5))  # masked, then divided
def test_digits_are_hash_remainders(base):
    m = rng.digit_matrix(8, 2, 5, 7, base)
    assert m.tolist() == [[rng.value64(8, 2, r, c) % base for c in range(7)] for r in range(5)]
    columns = list(rng.digit_columns(8, 2, 5, 7, base, start=3))
    assert [col.tolist() for col in columns] == [
        [rng.value64(8, 2, 3 + r, c) % base for r in range(5)] for c in range(7)]
    assert rng.digit_vector(8, 2, 4, 9, base).tolist() == [
        rng.value64(8, 2, 4 + i) % base for i in range(9)]


_EDGE_WORDS = [0, 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 2, 2 ** 64 - 1]


@pytest.mark.parametrize("base", (3, 5, 6, 10, 1000, 2 ** 40 + 1, 3 ** 40))
def test_digits_by_division_equal_remainders(base):
    # _digits subtracts (h // base) * base for a base that is not a power of two
    words = np.random.default_rng(base % 2 ** 32).integers(
        0, 2 ** 64 - 1, 3 * 2 ** 16 + 5, dtype=np.uint64, endpoint=True)
    h = np.concatenate([np.array(_EDGE_WORDS, dtype=np.uint64), words])
    want = h % np.uint64(base)
    assert np.array_equal(rng._digits(h.copy(), base).view(np.uint64), want)
    grid = h[: 900 * 197].reshape(900, 197)
    assert np.array_equal(rng._digits(grid.copy(), base).view(np.uint64), want[: grid.size].reshape(grid.shape))

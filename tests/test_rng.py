import numpy as np

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

"""Box counting and dimension fits."""

import hashlib

import numpy as np
import pytest
from conftest import counted_trig, traced_peak

from weierdim import (
    COSINE,
    BoxCountTable,
    Params,
    PhiSpec,
    box_count,
    fit_box_dimension,
)
from weierdim import WorkBudgetError, boxdim
from weierdim.boxdim import _grid_values
from weierdim.series import _graph_sum

MIX = PhiSpec(cosine_coeffs=((1, 0.5), (3, -0.25)), sine_coeffs=((2, 0.3),), constant=0.7)
SINE = PhiSpec(sine_coeffs=((1, 1.0),))
CONST = PhiSpec(constant=0.7)


def _exact_grid(p, phi, depth):
    """f at every t / b**depth, t = 0..b**depth, from the graph-series kernel."""
    total = p.b ** depth
    vals, lam_pow = _graph_sum(np.arange(total + 1), total, p.b, p.lam, phi, depth)
    return vals + lam_pow * float(phi.eval(0.0)) / (1.0 - p.lam)


def _column_extremes(vals, span):
    """Min and max over each column of span steps, both end points included."""
    right = vals[span::span]
    cols = vals[:-1].reshape(-1, span)
    return np.stack([np.minimum(cols.min(axis=1), right), np.maximum(cols.max(axis=1), right)])


def _master_grid_counts(p, phi, levels, samples_per_column):
    """The box counts read level by level off one array of every grid value."""
    extra = 1
    while p.b ** extra < samples_per_column:
        extra += 1
    vals = _exact_grid(p, phi, levels + extra)
    rows = []
    for j in range(1, levels + 1):
        eps = float(p.b) ** (-j)
        lo, hi = _column_extremes(vals, p.b ** (levels + extra - j))
        k_min = np.floor(lo / eps).astype(np.int64)
        k_max = np.floor(hi / eps).astype(np.int64)
        rows.append((eps, int((k_max - k_min + 1).sum())))
    return tuple(rows)


class _DepthRecorded(Exception):
    """Stops box_count once the grid depth it chose is known."""


class TestTheoreticalDimension:
    def test_half_at_base4(self):
        assert Params(4, 0.5).affinity_dim == pytest.approx(1.5, abs=1e-15)

    def test_near_lower_boundary(self):
        assert Params(2, 0.5 + 1e-9).affinity_dim == pytest.approx(1.0, abs=1e-8)

    def test_classic_point(self):
        assert Params(2, 0.9).affinity_dim == pytest.approx(1.8480, abs=5e-5)


class TestBoxCount:
    def test_flat_graph_exact_counts(self):
        p = Params(2, 0.9)
        table = box_count(p, PhiSpec(), levels=10, samples_per_column=8)
        for j, (eps, hits) in enumerate(table.levels, start=1):
            assert eps == 2.0 ** -j
            assert hits == 2 ** j

    def test_flat_slope_exactly_one(self):
        table = box_count(Params(2, 0.9), PhiSpec(), levels=8, samples_per_column=4)
        fit = fit_box_dimension(table, drop_coarsest=2)
        assert abs(fit.slope - 1.0) < 1e-6

    def test_every_column_hit(self):
        table = box_count(Params(2, 0.9), COSINE, levels=10, samples_per_column=16)
        for j, (_, hits) in enumerate(table.levels, start=1):
            assert hits >= 2 ** j

    def test_classic_weierstrass_slope(self):
        p = Params(2, 0.9)
        table = box_count(p, COSINE, levels=14, samples_per_column=64)
        fit = fit_box_dimension(table, drop_coarsest=2)
        assert abs(fit.slope - 1.8480) < 0.1
        # deterministic integer counts, frozen on first run
        assert table.levels[4] == (0.03125, 8276)
        assert table.levels[13][1] == 540337768

    def test_slope_within_plane_limits(self):
        for b, lam in ((2, 0.8), (3, 0.7), (2, 0.95)):
            table = box_count(Params(b, lam), COSINE, levels=9, samples_per_column=16)
            fit = fit_box_dimension(table)
            assert 1.0 <= fit.slope <= 2.0

    def test_doubling_samples_never_decreases_counts(self):
        p = Params(2, 0.9)
        coarse = box_count(p, COSINE, levels=9, samples_per_column=16)
        fine = box_count(p, COSINE, levels=9, samples_per_column=32)
        for (_, h1), (_, h2) in zip(coarse.levels, fine.levels):
            assert h2 >= h1

    def test_errors(self):
        p = Params(2, 0.9)
        with pytest.raises(ValueError):
            box_count(p, COSINE, levels=3)
        with pytest.raises(ValueError):
            box_count(p, COSINE, levels=10, samples_per_column=1)
        with pytest.raises(WorkBudgetError, match="sampling budget"):
            box_count(p, COSINE, levels=40, samples_per_column=64)

    @pytest.mark.parametrize("b, samples, extra, levels", [
        (5, 125, 3, 8),  # log(125)/log(5) rounds above 3; 5^11 fits the budget
        (6, 216, 3, 4),
        (3, 27, 3, 4),
        (2, 64, 6, 4),
        (2, 65, 7, 4),
    ])
    def test_grid_depth_is_next_power_of_b(self, monkeypatch, b, samples, extra, levels):
        depths = []

        def record(p, phi, grid_depth, span):
            depths.append((grid_depth, span))
            raise _DepthRecorded

        monkeypatch.setattr(boxdim, "_grid_values", record)
        with pytest.raises(_DepthRecorded):
            box_count(Params(b, 0.9), COSINE, levels=levels, samples_per_column=samples)
        assert depths == [(levels + extra, b ** extra)]

    @pytest.mark.parametrize("b, lam, phi, levels, samples", [
        (2, 0.9, COSINE, 10, 16),
        (2, 0.6, SINE, 8, 5),
        (2, 0.95, MIX, 9, 64),
        (3, 0.7, MIX, 6, 9),
        (3, 0.5, PhiSpec(), 5, 4),
        (5, 0.7, CONST, 4, 25),
        (5, 0.3, COSINE, 5, 6),
        (6, 0.8, MIX, 4, 36),
        (7, 0.5, SINE, 4, 10),
        (10, 0.9, COSINE, 4, 10),
        (10, 0.2, MIX, 4, 2),
    ])
    def test_matches_master_grid(self, b, lam, phi, levels, samples):
        p = Params(b, lam)
        table = box_count(p, phi, levels=levels, samples_per_column=samples)
        assert table.levels == _master_grid_counts(p, phi, levels, samples)

    @pytest.mark.parametrize("b, lam, phi, levels, samples", [
        (2, 0.9, COSINE, 8, 16),
        (3, 0.7, MIX, 5, 9),
    ])
    def test_chunk_size_independent(self, monkeypatch, b, lam, phi, levels, samples):
        tables = []
        for chunk in (boxdim._CHUNK_CELLS, 1, 1 << 30):  # 1: every chunk one column, span > chunk
            monkeypatch.setattr(boxdim, "_CHUNK_CELLS", chunk)
            tables.append(box_count(Params(b, lam), phi, levels=levels, samples_per_column=samples))
        assert tables[0].levels == tables[1].levels == tables[2].levels

    @pytest.mark.parametrize("b, lam, phi, levels, samples, depth", [
        (2, 0.9, COSINE, 8, 16, 12),
        (3, 0.7, MIX, 5, 9, 7),
        (5, 0.6, SINE, 4, 25, 6),
        (2, 0.6, MIX, 4, 2, 5),  # chunk 1: rows of 2 points on levels of m = 4 residues
    ])
    def test_table_size_independent(self, monkeypatch, b, lam, phi, levels, samples, depth):
        p, span = Params(b, lam), b ** (depth - levels)
        results = set()
        # 1: no level fits, every level calls phi; then the table is level 3's, level 1's
        # (k = 3, 1), and the whole grid's (k = 0) at the default and at 1 << 30
        for table in (1, b ** (depth - 3), b ** (depth - 1), boxdim._TABLE, 1 << 30):
            for chunk in (boxdim._CHUNK_CELLS, 1, 1 << 30):
                monkeypatch.setattr(boxdim, "_TABLE", table)
                monkeypatch.setattr(boxdim, "_CHUNK_CELLS", chunk)
                results.add((_grid_values(p, phi, depth, span).tobytes(),
                             box_count(p, phi, levels=levels, samples_per_column=samples).levels))
        assert len(results) == 1

    def test_table_stays_bounded(self, monkeypatch):
        # level 1's period, 2^19 points, is over the table: 3.9 MiB measured; a table
        # of the whole 2^20-point grid alone would take 8 MiB
        monkeypatch.setenv("WEIERDIM_THREADS", "1")
        monkeypatch.setattr(boxdim, "_TABLE", 1 << 10)
        peak = traced_peak(lambda: box_count(Params(2, 0.9), COSINE, levels=10,
                                             samples_per_column=2 ** 10))
        assert peak < 5 * 2 ** 20

    @pytest.mark.parametrize("b, levels, samples, depth, k, chunk", [
        (2, 8, 16, 12, 4, 2 ** 6),  # chunks of 64 points; level 3's period is 512
        (3, 5, 9, 7, 3, 3 ** 3),  # chunks of 27 points; level 2's period is 243
        # the benchmark's boxdim ops at the default 2^19-point table, k = 3: 9,961,473 cos
        # calls (m = 8, 4, 2) and 12,931,732 (m = 27, 9, 3)
        (2, 16, 64, 22, 3, boxdim._CHUNK_CELLS),
        (3, 11, 27, 14, 3, boxdim._CHUNK_CELLS),
        # the same at the former 2^20-point table, k = 2: 6,291,457 (m = 4, 2) and
        # 8,503,057 (m = 9, 3)
        (2, 16, 64, 22, 2, boxdim._CHUNK_CELLS),
        (3, 11, 27, 14, 2, boxdim._CHUNK_CELLS),
    ])
    def test_phi_work_count(self, monkeypatch, b, levels, samples, depth, k, chunk):
        # the table's P_k points, then each level n < k on every grid point, but a level
        # of m = b**(k - n) <= _RESIDUES skips its multiples of m, which read the table;
        # + 1 is the tail's phi(0)
        table = b ** (depth - k)
        monkeypatch.setenv("WEIERDIM_THREADS", "1")
        monkeypatch.setattr(boxdim, "_TABLE", table)
        monkeypatch.setattr(boxdim, "_CHUNK_CELLS", chunk)
        calls = counted_trig(monkeypatch)
        box_count(Params(b, 0.9), COSINE, levels=levels, samples_per_column=samples)
        skipped = sum(b ** (depth - k + n) for n in range(k) if b ** (k - n) <= boxdim._RESIDUES)
        assert calls == {"sin": 0, "cos": table + k * b ** depth - skipped + 1}

    def test_benchmark_grid_peak(self, monkeypatch):
        # the 2^19-point table takes 4 MiB: 8.0 MiB measured; the 2^20-point table took
        # 12.0 MiB, and a 2^21-point table with whole-chunk phi calls 20.8 MiB
        monkeypatch.setenv("WEIERDIM_THREADS", "1")
        peak = traced_peak(lambda: box_count(Params(2, 0.9), COSINE, levels=16,
                                             samples_per_column=64))
        assert peak < 10 * 2 ** 20

    def test_count_phase_peak(self, monkeypatch):
        # the count walks the 2^18 columns in blocks: 4.0 MiB measured, the first coarser
        # level's lo and hi and a few blocks; column-sized quotients and floors took 8.0
        rnd = np.random.default_rng(5)
        lo = rnd.uniform(-3.0, 3.0, 1 << 18)
        ext = np.stack([lo, lo + rnd.uniform(0.0, 1.0, lo.size)])
        monkeypatch.setattr(boxdim, "_grid_values", lambda *args: ext)
        peak = traced_peak(lambda: box_count(Params(2, 0.9), COSINE, levels=18,
                                             samples_per_column=2))
        assert peak < 1.25 * ext.nbytes

    def test_streams_the_grid(self):
        # the 2^22-point grid alone would take 32 MB
        peak = traced_peak(lambda: box_count(Params(2, 0.9), COSINE, levels=10,
                                             samples_per_column=2 ** 12))
        assert peak < 32 * 2 ** 20


class TestGridValues:
    def test_regression_pin(self):
        # SHA-256 of the column extremes of the values the full-grid
        # _grid_values returned, reduced with both end points per column
        pins = {
            1: "cc172bb2dd875a5ed0201fcb431b5a7710ff191336b3838f318d33ec72367fe7",
            3: "8744263c5446070005eda30a646035d62d29adbb8fceda45dfac5161bf47836c",
            27: "81465fa717cd1ffd695d8beaecbf498cde48373d311895edf5a436626e4930f1",
        }
        for span, digest in pins.items():
            ext = _grid_values(Params(3, 0.7), MIX, 6, span)
            assert ext.shape == (2, 3 ** 6 // span)
            assert hashlib.sha256(ext.tobytes()).hexdigest() == digest

    def test_right_end_reduces_to_zero(self):
        # x = 1 must see phi(0), not phi(1.0) = sin(2 pi) != 0
        p, depth = Params(2, 0.6), 10
        lo, hi = _grid_values(p, SINE, depth, 1)
        before_end = _exact_grid(p, SINE, depth)[-2]
        assert before_end != 0.0
        assert (lo[-1], hi[-1]) == (min(before_end, 0.0), max(before_end, 0.0))

    @pytest.mark.parametrize("b, lam, depth, phi", [
        (3, 0.7, 6, MIX),  # one chunk, every level a table
        (2, 0.9, 20, COSINE),  # four chunks, two levels wider than a chunk
        (3, 0.8, 12, COSINE),
        (4099, 0.5, 1, COSINE),  # one level, period b
        (2, 0.6, 19, SINE),
        (1030, 0.5, 2, MIX),  # level 0 is over the default table: m = 1030 > _RESIDUES
    ])
    def test_matches_graph_sum_kernel(self, b, lam, depth, phi):
        vals = _exact_grid(Params(b, lam), phi, depth)
        # span b**depth is one column, wider than a chunk when depth > 18 at b = 2
        for span in sorted({1, b, b ** (depth // 2), b ** depth}):
            ext = _grid_values(Params(b, lam), phi, depth, span)
            assert ext.tobytes() == _column_extremes(vals, span).tobytes(), span


class TestFit:
    def test_synthetic_power_law(self):
        levels = tuple((2.0 ** -j, int(round(2 ** (1.5 * j)))) for j in range(4, 14))
        table = BoxCountTable(levels)
        fit = fit_box_dimension(table, drop_coarsest=0)
        assert abs(fit.slope - 1.5) < 2e-4

    def test_exact_power_law(self):
        levels = tuple((4.0 ** -j, 8 ** j) for j in range(1, 9))
        table = BoxCountTable(levels)
        fit = fit_box_dimension(table, drop_coarsest=0)
        assert abs(fit.slope - 1.5) < 1e-9

    def test_negative_drop_rejected(self):
        levels = tuple((2.0 ** -j, 2 ** j) for j in range(1, 13))
        table = BoxCountTable(levels)
        with pytest.raises(ValueError, match="drop_coarsest"):
            fit_box_dimension(table, drop_coarsest=-5)

    def test_too_few_levels(self):
        table = box_count(Params(2, 0.9), COSINE, levels=5, samples_per_column=4)
        with pytest.raises(ValueError):
            fit_box_dimension(table, drop_coarsest=2)

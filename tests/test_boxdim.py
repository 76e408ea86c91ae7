"""Box counting and dimension fits."""

import numpy as np
import pytest

from weierdim import (
    COSINE,
    BoxCountTable,
    Params,
    PhiSpec,
    box_count,
    fit_box_dimension,
    theoretical_dimension,
)
from weierdim import boxdim
from weierdim.boxdim import _grid_values
from weierdim.series import _graph_sum

MIX = PhiSpec(cosine_coeffs=((1, 0.5), (3, -0.25)), sine_coeffs=((2, 0.3),), constant=0.7)
SINE = PhiSpec(sine_coeffs=((1, 1.0),))


class _DepthRecorded(Exception):
    """Stops box_count once the grid depth it chose is known."""


class TestTheoreticalDimension:
    def test_half_at_base4(self):
        assert theoretical_dimension(Params(4, 0.5)) == pytest.approx(1.5, abs=1e-15)

    def test_near_lower_boundary(self):
        assert theoretical_dimension(Params(2, 0.5 + 1e-9)) == pytest.approx(1.0, abs=1e-8)

    def test_classic_point(self):
        assert theoretical_dimension(Params(2, 0.9)) == pytest.approx(1.8480, abs=5e-5)


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
        with pytest.raises(ValueError):
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

        def record(p, phi, grid_depth):
            depths.append(grid_depth)
            raise _DepthRecorded

        monkeypatch.setattr(boxdim, "_grid_values", record)
        with pytest.raises(_DepthRecorded):
            box_count(Params(b, 0.9), COSINE, levels=levels, samples_per_column=samples)
        assert depths == [levels + extra]


class TestGridValues:
    def test_regression_pin(self):
        vals = _grid_values(Params(3, 0.7), MIX, 6)
        assert vals.size == 3 ** 6 + 1
        pins = {0: 3.166666666666666, 1: 3.2332353079709173, 100: 2.857281460861287,
                364: 1.493414606923663, 728: 3.008852087344744, 729: 3.166666666666666}
        for i, v in pins.items():
            assert vals[i] == pytest.approx(v, abs=0)
        assert float(vals.sum()) == pytest.approx(1745.0076766666662, abs=0)

    def test_right_end_reduces_to_zero(self):
        # x = 1 must see phi(0), not phi(1.0) = sin(2 pi) != 0
        vals = _grid_values(Params(2, 0.6), SINE, 10)
        assert vals[-1] == vals[0] == 0.0

    @pytest.mark.parametrize("b, lam, depth, phi", [
        (3, 0.7, 6, MIX),  # one chunk, every level a table
        (2, 0.9, 20, COSINE),  # four chunks, two levels wider than a chunk
        (3, 0.8, 12, COSINE),
        (4099, 0.5, 1, COSINE),  # one level, period b
        (2, 0.6, 19, SINE),
    ])
    def test_matches_graph_sum_kernel(self, b, lam, depth, phi):
        total = b ** depth
        ref, lam_pow = _graph_sum(np.arange(total + 1), total, b, lam, phi, depth)
        ref += lam_pow * float(phi.eval(0.0)) / (1.0 - lam)
        assert _grid_values(Params(b, lam), phi, depth).tobytes() == ref.tobytes()


class TestFit:
    def test_synthetic_power_law(self):
        levels = tuple((2.0 ** -j, int(round(2 ** (1.5 * j)))) for j in range(4, 14))
        table = BoxCountTable(levels, Params(2, 0.9), 8)
        fit = fit_box_dimension(table, drop_coarsest=0)
        assert abs(fit.slope - 1.5) < 2e-4

    def test_exact_power_law(self):
        levels = tuple((4.0 ** -j, 8 ** j) for j in range(1, 9))
        table = BoxCountTable(levels, Params(4, 0.5), 8)
        fit = fit_box_dimension(table, drop_coarsest=0)
        assert abs(fit.slope - 1.5) < 1e-9

    def test_too_few_levels(self):
        table = box_count(Params(2, 0.9), COSINE, levels=5, samples_per_column=4)
        with pytest.raises(ValueError):
            fit_box_dimension(table, drop_coarsest=2)

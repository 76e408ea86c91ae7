"""Measure samplers, local-dimension estimation and histograms."""

import itertools
import math
import struct

import numpy as np
import pytest
from conftest import counted_trig

from weierdim import (
    COSINE,
    COSINE_DERIV,
    DigitWord,
    Params,
    PhiSpec,
    SampleSet,
    WorkBudgetError,
    box_count,
    density_histogram,
    dimension_from_transversal,
    eval_orbit_sum,
    eval_weierstrass,
    local_dim_estimate,
    sample_graph_lift,
    sample_sbr,
    sample_transversal,
)
from weierdim import rng
from weierdim.measures import _linear_fit
from weierdim.parallel import _CHUNK_CELLS
from weierdim.series import _orbit_sums


def test_sample_budget_before_any_draw():
    p = Params(2, 0.9)
    for sample in (lambda n: sample_transversal(p, 0.5, n), lambda n: sample_sbr(p, count=n),
                   lambda n: sample_graph_lift(p, COSINE, n)):
        with pytest.raises(WorkBudgetError, match="budget"):
            sample(10 ** 11)


C = _CHUNK_CELLS  # rows per pooled sampler task


class TestPooledRows:
    """Each sampler's rows, run in chunks on the worker pool, match one whole-count evaluation."""

    @pytest.mark.parametrize("threads", ("1", "2"))
    @pytest.mark.parametrize("count", (1, C - 1, C, C + 1, 3 * C + 1))
    def test_matches_whole_count_reference(self, monkeypatch, threads, count):
        monkeypatch.setenv("WEIERDIM_THREADS", threads)
        p, depth, seed = Params(3, 0.6), 9, 5
        s = sample_transversal(p, 0.3, count, depth=depth, seed=seed)
        digits = rng.digit_matrix(seed, rng.STREAM_TRANSVERSAL, count, depth, p.b)
        ref = _orbit_sums(np.full(count, 0.3), p.b, p.gamma, digits.T, ("Y",))["Y"]
        assert s.points.tobytes() == ref.tobytes()

        s = sample_sbr(p, COSINE_DERIV, count, depth=depth, seed=seed)
        xs = rng.uniform_vector(seed, rng.STREAM_SBR_X, count)
        digits = rng.digit_matrix(seed, rng.STREAM_SBR_DIGITS, count, depth, p.b)
        ref = _orbit_sums(xs, p.b, p.gamma, digits.T, ("S",), COSINE_DERIV)["S"]
        assert s.points.tobytes() == np.column_stack([xs, ref]).tobytes()

        s = sample_graph_lift(p, COSINE, count, seed=seed)
        xs = rng.uniform_vector(seed, rng.STREAM_GRAPH_X, count)
        ref = eval_weierstrass(p, COSINE, xs, abs_tol=1e-9)
        assert s.points.tobytes() == np.column_stack([xs, ref.value]).tobytes()
        assert (s.depth, s.tail_bound) == (ref.terms_used, ref.tail_bound)


def _prefix_levels(b, rows):
    """T = floor(log_b rows), in integers: the shared-prefix steps of a chunk of rows."""
    t = 0
    while b ** (t + 1) <= rows:
        t += 1
    return t


class TestSharedStart:
    """The transversal sampler runs each digit prefix's orbit once, for rows that share
    a start x; every sample keeps the bits of a start array with one entry per row,
    which never shares (the TestPooledRows reference)."""

    @pytest.mark.parametrize("b", (2, 3, 4, 5, 7))
    def test_matches_per_row_orbits(self, monkeypatch, b):
        p, seed, t = Params(b, 1.2 / b), 7, _prefix_levels(b, C)
        counts = sorted({1, b, b + 1, b ** t - 1, b ** t, b ** t + 1, C - 1, C, C + 1, 3 * C + 1})
        for x, depth in itertools.product((0.0, 0.3, 1.0), (3, t + 2)):  # depth below and above T
            # row r of every count is the same counter stream, so one reference serves all
            digits = rng.digit_matrix(seed, rng.STREAM_TRANSVERSAL, counts[-1], depth, b)
            ref = _orbit_sums(np.full(counts[-1], x), b, p.gamma, digits.T, ("Y",))["Y"]
            for count in counts:
                for threads in ("1", "2") if count > C else ("1",):  # one chunk runs serially
                    monkeypatch.setenv("WEIERDIM_THREADS", threads)
                    s = sample_transversal(p, x, count, depth=depth, seed=seed)
                    assert s.points.tobytes() == ref[:count].tobytes(), (x, count, depth, threads)

    @pytest.mark.parametrize("b, depth", ((2, 36), (3, 25)))
    def test_trig_count(self, monkeypatch, b, depth):
        # one 2^16-row chunk: the b^n prefixes of the first T levels once each, then the
        # later steps per row (at b = 2 a level fewer costs the same, at b = 3 it does not)
        monkeypatch.setenv("WEIERDIM_THREADS", "1")
        calls = counted_trig(monkeypatch)
        sample_transversal(Params(b, 1.2 / b), 0.3, C, depth=depth, seed=1)
        t = _prefix_levels(b, C)
        assert t == {2: 16, 3: 10}[b]
        assert calls == {"sin": sum(b ** n for n in range(1, t + 1)) + (depth - t) * C, "cos": 0}


class TestCsv:
    @pytest.mark.parametrize("sample", (
        lambda: sample_transversal(Params(2, 0.95), 0.3, C + 3, depth=12, seed=1),
        lambda: sample_sbr(Params(3, 0.6), count=C + 3, depth=12, seed=2),
        lambda: SampleSet(points=np.array([[0.0, -0.0], [np.nan, np.inf], [5e-324, -1e300],
                                           [1.0 / 3, 2.0 ** 60]]), seed=0, depth=0,
                          kind="synthetic"),
        lambda: SampleSet(points=np.array([]), seed=0, depth=0, kind="synthetic"),
    ), ids=("1-D", "2-D", "edge-values", "empty"))
    def test_bytes_match_savetxt(self, tmp_path, sample):
        s = sample()
        s.to_csv(tmp_path / "got.csv")
        cols = 1 if s.points.ndim == 1 else s.points.shape[1]
        np.savetxt(tmp_path / "ref.csv", s.points, delimiter=",", fmt=["%.17g"] * cols)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestTransversalSampler:
    def test_mean_within_four_sigma(self):
        s = sample_transversal(Params(2, 0.95), 0.3, 100_000, seed=1)
        se = s.points.std(ddof=1) / math.sqrt(s.count)
        assert abs(s.points.mean()) < 4 * se

    def test_samples_inside_geometric_bound(self):
        p = Params(2, 0.95)
        s = sample_transversal(p, 0.3, 20_000, seed=2)
        bound = 2 * math.pi * p.gamma / (1 - p.gamma)
        assert np.abs(s.points).max() <= bound

    def test_histogram_regression_pin(self):
        s = sample_transversal(Params(2, 0.95), 0.3, 10_000, seed=1)
        assert s.points[0] == pytest.approx(-0.013726298641525822, abs=0)
        assert s.points[1] == pytest.approx(0.5688364025615563, abs=0)
        assert float(s.points.mean()) == pytest.approx(0.05485963639577943, abs=0)
        h = density_histogram(s, 32)
        assert max(m for _, m in h) == pytest.approx(0.0972, abs=0)

    def test_determinism(self):
        a = sample_transversal(Params(3, 0.8), 0.1, 5000, seed=9)
        b = sample_transversal(Params(3, 0.8), 0.1, 5000, seed=9)
        assert np.array_equal(a.points, b.points)
        c = sample_transversal(Params(3, 0.8), 0.1, 5000, seed=10)
        assert not np.array_equal(a.points, c.points)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_transversal(Params(2, 0.9), 1.5, 10)
        with pytest.raises(ValueError):
            sample_transversal(Params(2, 0.9), 0.5, 0)
        for depth in (0, -3, 2.5):
            with pytest.raises(ValueError, match="depth"):
                sample_transversal(Params(2, 0.9), 0.5, 10, depth=depth)


class TestSbrSampler:
    def test_depth_must_be_positive(self):
        for depth in (0, -3):
            with pytest.raises(ValueError, match="depth"):
                sample_sbr(Params(2, 0.9), count=10, depth=depth)

    def test_default_depth_meets_fiber_tail(self):
        s = sample_sbr(Params(3, 0.6), count=10)
        assert s.tail_bound <= 1e-9

    def test_zero_psi_gives_zero_fibers(self):
        s = sample_sbr(Params(2, 0.9), PhiSpec(), count=100, depth=20, seed=3)
        assert np.all(s.points[:, 1] == 0.0)

    def test_translation_equivariance_exact(self):
        p = Params(2, 0.95)
        base = sample_sbr(p, COSINE_DERIV, count=2000, seed=2)
        shifted_psi = PhiSpec(
            cosine_coeffs=COSINE_DERIV.cosine_coeffs,
            sine_coeffs=COSINE_DERIV.sine_coeffs,
            constant=1.7,
        )
        moved = sample_sbr(p, shifted_psi, count=2000, seed=2)
        shift = 1.7 / (1 - p.gamma)
        assert np.array_equal(moved.points[:, 0], base.points[:, 0])
        assert np.array_equal(moved.points[:, 1], base.points[:, 1] + shift)

    def test_fibers_match_negated_slope_over_gamma(self):
        p = Params(2, 1.0 / (2 * 0.6))
        count, seed = 50, 2
        s = sample_sbr(p, COSINE_DERIV, count=count, seed=seed)
        xs = rng.uniform_vector(seed, rng.STREAM_SBR_X, count)
        digits = rng.digit_matrix(seed, rng.STREAM_SBR_DIGITS, count, s.depth, p.b)
        for i in range(count):
            word = DigitWord(tuple(int(d) for d in digits[i]))
            y = eval_orbit_sum(p, word, float(xs[i]), terms=s.depth)
            expect = -y.value / p.gamma
            assert s.points[i, 1] == pytest.approx(expect, abs=1e-12)


class TestGraphLift:
    def test_zero_phi_flat(self):
        s = sample_graph_lift(Params(2, 0.9), PhiSpec(), 200, seed=3)
        assert np.all(s.points[:, 1] == 0.0)

    def test_reports_the_series_tail(self):
        p = Params(2, 0.9)
        s = sample_graph_lift(p, COSINE, 20, seed=3)
        sv = eval_weierstrass(p, COSINE, 0.3)
        assert (s.depth, s.tail_bound) == (sv.terms_used, sv.tail_bound)
        assert s.tail_bound <= 1e-9

    def test_bounded_by_geometric_sum(self):
        p = Params(2, 0.95)
        s = sample_graph_lift(p, COSINE, 500, seed=3)
        assert np.abs(s.points[:, 1]).max() <= 1.0 / (1 - 0.95) + 1e-6

    def test_summary_regression_pin(self):
        s = sample_graph_lift(Params(2, 0.9), COSINE, 2000, seed=3)
        assert float(s.points[:, 1].mean()) == pytest.approx(0.0952272994652484, abs=0)
        assert float(s.points[:, 1].max()) == pytest.approx(6.344386662685107, abs=0)


class TestLocalDimension:
    RADII5 = tuple(0.1 * 2 ** -j for j in range(5))

    def test_uniform_recovers_one(self):
        pts = rng.uniform_vector(123, 99, 100_000)
        s = SampleSet(points=pts, seed=123, depth=0, kind="synthetic")
        fit = local_dim_estimate(s, self.RADII5, centers=100, seed=5)
        assert abs(fit.slope - 1.0) < 0.05

    def test_point_mass_recovers_zero(self):
        s = SampleSet(points=np.zeros(10_000), seed=0, depth=0, kind="synthetic")
        fit = local_dim_estimate(s, self.RADII5, centers=50, seed=5)
        assert abs(fit.slope) < 0.05

    def test_planar_uniform_recovers_two(self):
        xs = rng.uniform_vector(5, 51, 200_000)
        ys = rng.uniform_vector(5, 52, 200_000)
        s = SampleSet(points=np.column_stack([xs, ys]), seed=5, depth=0, kind="synthetic")
        fit = local_dim_estimate(s, self.RADII5, centers=100, seed=6)
        assert abs(fit.slope - 2.0) < 0.1

    def test_transversal_measure_near_one(self):
        s = sample_transversal(Params(2, 0.95), 0.3, 400_000, seed=1)
        radii = [0.01 * 2 ** -j for j in range(5)]
        fit = local_dim_estimate(s, radii, centers=200, seed=7)
        assert abs(fit.slope - 1.0) < 0.1

    def test_radii_validation(self):
        s = SampleSet(points=np.zeros(100), seed=0, depth=0, kind="synthetic")
        with pytest.raises(ValueError):
            local_dim_estimate(s, [0.1, 0.2, 0.05, 0.01], centers=5)
        with pytest.raises(ValueError):
            local_dim_estimate(s, [0.1, 0.05, 0.025], centers=5)
        rough = sample_transversal(Params(2, 0.9), 0.2, 100, depth=8, seed=0)
        with pytest.raises(ValueError):
            local_dim_estimate(rough, [0.1, 0.05, 0.025, 0.0125 * rough.tail_bound], centers=5)


class TestLinearFit:
    def test_matches_scipy_linregress_bitwise(self):
        stats = pytest.importorskip("scipy.stats")
        cases = []
        for b, lam, levels in ((2, 0.9, 10), (3, 0.7, 7), (2, 0.6, 9)):
            table = box_count(Params(b, lam), COSINE, levels=levels, samples_per_column=8)
            eps = np.array([e for e, _ in table.levels])
            hits = np.array([h for _, h in table.levels], dtype=np.float64)
            cases.append((np.log(1.0 / eps), np.log(hits)))
        s = sample_transversal(Params(2, 0.95), 0.3, 20_000, seed=1)
        log_r = np.log([0.05 * 2.0 ** -j for j in range(6)])
        for i in range(0, 20_000, 500):
            dist = np.abs(s.points - s.points[i])
            masses = np.array([(dist <= r).sum() / s.count for r in np.exp(log_r)])
            cases.append((log_r, np.log(masses)))
        cases.append((log_r, np.zeros(log_r.size)))  # a point mass: r and stderr are nan

        def bits(v):
            return struct.pack("<d", v)

        for x, y in cases:
            ref = stats.linregress(x, y)
            got = _linear_fit(x, y)
            assert [bits(v) for v in got] == [bits(ref.slope), bits(ref.intercept), bits(ref.stderr)]


class TestDimensionFormula:
    def test_endpoints(self):
        p = Params(2, 0.9)
        assert dimension_from_transversal(1.0, p) == pytest.approx(p.affinity_dim, abs=0)
        assert dimension_from_transversal(0.0, p) == 1.0

    def test_midpoint(self):
        p = Params(2, 0.9)
        expect = 1.0 + 0.5 * (2 + math.log(0.9) / math.log(2) - 1)
        assert dimension_from_transversal(0.5, p) == pytest.approx(expect, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            dimension_from_transversal(1.5, Params(2, 0.9))


class TestHistogram:
    def test_total_mass_one(self):
        s = sample_transversal(Params(2, 0.95), 0.3, 50_000, seed=4)
        h = density_histogram(s, 64)
        assert sum(m for _, m in h) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_bins_balanced(self):
        pts = rng.uniform_vector(77, 3, 100_000)
        s = SampleSet(points=pts, seed=77, depth=0, kind="synthetic")
        bins = 20
        h = density_histogram(s, bins)
        sigma = math.sqrt((1 / bins) * (1 - 1 / bins) / 100_000)
        assert all(abs(m - 1 / bins) < 5 * sigma for _, m in h)

    def test_max_bin_regression_pin(self):
        s = sample_transversal(Params(2, 0.95), 0.3, 100_000, seed=1)
        h = density_histogram(s, 64)
        assert max(m for _, m in h) == pytest.approx(0.04681, abs=0)

    def test_empty_and_bad_bins(self):
        s = SampleSet(points=np.array([]), seed=0, depth=0, kind="synthetic")
        with pytest.raises(ValueError):
            density_histogram(s, 8)
        s2 = SampleSet(points=np.ones(5), seed=0, depth=0, kind="synthetic")
        with pytest.raises(ValueError):
            density_histogram(s2, 1)

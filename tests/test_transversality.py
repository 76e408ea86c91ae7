"""Transversality estimators: separation, tangency counts, two-variable."""

import concurrent.futures
import hashlib
import itertools
import threading

import numpy as np
import pytest
from conftest import counted_trig, traced_peak

from weierdim import (
    DigitWord,
    Params,
    TangencyQuery,
    WorkBudgetError,
    case_bounds_base2,
    empirical_delta,
    eval_orbit_sum,
    orbit_tail,
    solve_critical_lambda,
    tangency_count,
    transversality_defect,
    two_var_delta,
)
from weierdim import parallel, rng, series, transversality
from weierdim.series import slope_grid
from weierdim.transversality import _pair_words


class TestAnalyticCheck:
    @pytest.mark.parametrize("b", (2, 3, 5))
    def test_agrees_with_bracket(self, b):
        br = solve_critical_lambda(b, tol=1e-12)
        gap = 10 * 1e-12
        assert transversality_defect(b, br.hi + gap) < 0
        assert transversality_defect(b, br.lo - gap) > 0


class TestCaseBounds:
    def test_max_equals_gamma_defect(self):
        rnd = np.random.default_rng(100)
        for _ in range(100):
            g = float(rnd.uniform(0.51, 0.999))
            assert max(case_bounds_base2(g)) == pytest.approx(
                transversality_defect(2, 1.0 / (2.0 * g)), rel=1e-12
            )

    def test_matching_second_digit_cases_equal(self):
        for g in (0.1, 0.5, 0.9):
            c = case_bounds_base2(g)
            assert c[0] == c[1]

    def test_mixed_case_ordering(self):
        for g in np.linspace(0.01, 0.99, 99):
            c = case_bounds_base2(float(g))
            assert c[2] < c[3]

    def test_domain(self):
        with pytest.raises(ValueError):
            case_bounds_base2(1.0)


class TestEmpiricalDelta:
    def test_positive_above_threshold_base3(self):
        p = Params(3, 0.8)
        est = empirical_delta(3, p.gamma, x_grid=2000, depth=30, pair_budget=2048, seed=1)
        assert est.delta_hat > 0
        assert est.argmin_pair[0].digits[0] != est.argmin_pair[1].digits[0]

    def test_positive_above_threshold_base2(self):
        p = Params(2, 0.95)
        est = empirical_delta(2, p.gamma, x_grid=2000, depth=30, pair_budget=2048, seed=1)
        assert est.delta_hat > 0

    def test_depth_stabilization(self):
        p = Params(2, 0.95)
        kw = dict(x_grid=500, pair_budget=512, seed=3)
        e40 = empirical_delta(2, p.gamma, depth=40, **kw)
        e60 = empirical_delta(2, p.gamma, depth=60, **kw)
        slack = e40.tail_slack + e60.tail_slack
        assert abs(e40.delta_hat - e60.delta_hat) <= 2 * slack + 1e-12

    def test_regime_grid(self):
        # separation stays positive on a grid above the critical scale
        for b in range(2, 9):
            lam0 = solve_critical_lambda(b).hi + 0.01
            for lam in np.linspace(lam0, 0.98, 3):
                p = Params(b, float(lam))
                est = empirical_delta(b, p.gamma, x_grid=400, depth=25, pair_budget=256, seed=1)
                assert est.delta_hat > 0, (b, lam)

    def test_domain(self):
        with pytest.raises(ValueError):
            empirical_delta(2, 0.3)
        # a fractional base is rejected, not truncated to b = 2
        with pytest.raises(ValueError, match="integer >= 2"):
            empirical_delta(2.7, 0.6)
        with pytest.raises(ValueError, match="integer >= 2"):
            two_var_delta(2.7, 0.05)
        for depth in (0, -2):
            with pytest.raises(ValueError, match="depth"):
                empirical_delta(2, 0.6, depth=depth)
            with pytest.raises(ValueError, match="depth"):
                two_var_delta(2, 0.05, depth=depth)


class TestDeltaPins:
    """Estimates pinned bit for bit: scoring each unordered word pair once
    must not move the minimiser or reorder its witness words."""

    def test_empirical_base2(self):
        est = empirical_delta(2, Params(2, 0.95).gamma, x_grid=2000, depth=30,
                              pair_budget=16384, seed=1)
        assert est.delta_hat == pytest.approx(1.6500735078652848, abs=0)
        assert est.argmin_x == pytest.approx(0.528264132066033, abs=0)
        assert est.argmin_pair[0].digits == (0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1, 1,
                                             0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1)
        assert est.argmin_pair[1].digits == (1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1,
                                             1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0)
        assert est.tail_slack == pytest.approx(6.058419281434918e-08, abs=0)
        assert est.argmin_gamma is None

    def test_empirical_base3(self):
        est = empirical_delta(3, Params(3, 0.8).gamma, x_grid=2000, depth=30,
                              pair_budget=2048, seed=1)
        assert est.delta_hat == pytest.approx(1.4728721718476272, abs=0)
        assert est.argmin_x == pytest.approx(0.9129564782391195, abs=0)
        assert est.argmin_pair[0].digits == (0, 2, 1, 2, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0,
                                             2, 1, 0, 1, 0, 1, 1, 0, 2, 1, 1, 2, 2, 2, 0)
        assert est.argmin_pair[1].digits == (1, 0, 0, 1, 1, 0, 0, 1, 2, 2, 1, 2, 1, 0, 0,
                                             0, 0, 1, 1, 1, 2, 1, 2, 2, 0, 2, 0, 0, 2, 2)
        assert est.tail_slack == pytest.approx(3.521636909644651e-11, abs=0)

    def test_two_var_base2(self):
        est = two_var_delta(2, 0.05, seed=1)
        assert est.delta_hat == pytest.approx(2.9522842462106924, abs=0)
        assert est.argmin_x == pytest.approx(0.49875, abs=0)
        assert est.argmin_gamma == pytest.approx(0.551604938271605, abs=0)
        assert est.argmin_pair[0].digits == (0, 1, 1, 0, 1) + (0,) * 35
        assert est.argmin_pair[1].digits == (1, 0, 0, 1, 1) + (0,) * 35
        assert est.tail_slack == pytest.approx(5.4739113437189846e-08, abs=0)

    def test_each_unordered_pair_once(self):
        # the budget counts ordered pairs: 16384 ordered pairs, 8255 unordered
        words, pairs = _pair_words(2, 30, 16384, 1)
        assert len(pairs) == len(np.unique(pairs, axis=0)) == 8255
        i, j = pairs.T
        assert (i < j).all() and (words[i, 0] != words[j, 0]).all()

    def test_two_var_base3(self):
        # the gamma lattice tops out at 1/(b lambda0), the b = 3 certificate's lambda0 = 0.55
        est = two_var_delta(3, 0.05, seed=1)
        assert est.delta_hat == pytest.approx(1.9731391878916003, abs=0)
        assert est.argmin_x == pytest.approx(0.99375, abs=0)
        assert est.argmin_gamma == pytest.approx(0.39878787878787875, abs=0)
        assert est.argmin_pair[0].digits == (0, 2, 1) + (0,) * 37
        assert est.argmin_pair[1].digits == (1, 0, 1) + (0,) * 37
        assert est.tail_slack == pytest.approx(9.324248625636862e-14, abs=0)

    @pytest.mark.parametrize("case, n_words, n_pairs, words_sha, pairs_sha", [
        ((2, 30, 16384, 1), 257, 8255,
         "850e9ff1a49c74533db40ca82c7f52f8e64b93c3812268e0148c9f2012a14bd2",
         "f0dfaada89c46d16c9930ec1087225565388f46bdd560ac9737f6f39d587ede6"),
        ((5, 30, 4096, 1), 94, 2148,
         "ad02613515cf095f0105e239b11dcb7c61846079e105176726faead45cee775e",
         "0f7c8f860ec2c22961363a7cb27e8520927dd124021ea416c5daba570e49dee8"),
        ((3, 20, 5000, 7), 113, 2525,
         "8cbaf2c5767565bc160f15985a94a26b4a3eba8c48fb2a8eabc88ef5d7b2d311",
         "85546a7796b5c10839cf7292858e730a96a2ece28b54f555c6f2433936bdf772"),
    ])
    def test_pair_words(self, case, n_words, n_pairs, words_sha, pairs_sha):
        words, pairs = _pair_words(*case)
        assert words.shape == (n_words, case[1]) and words.dtype == np.int64
        assert pairs.shape == (n_pairs, 2) and pairs.dtype == np.int64
        i, j = pairs.T
        assert (i < j).all() and (words[i, 0] != words[j, 0]).all()
        assert hashlib.sha256(words.tobytes()).hexdigest() == words_sha
        # the pin of the list of (int, int) tuples this array replaces
        listed = repr([tuple(p) for p in pairs.tolist()])
        assert hashlib.sha256(listed.encode()).hexdigest() == pairs_sha

    def test_draw_working_set(self, monkeypatch):
        # the index array draw at 1.0M unordered pairs: 53.7 MiB measured; the list of
        # (int, int) tuples it replaces took 153.0 MiB
        monkeypatch.setenv("WEIERDIM_THREADS", "1")
        assert traced_peak(lambda: _pair_words(2, 30, 2_000_000, 1)) < 76.5 * 2 ** 20


def _reference_pairs(words, n_ex, pair_budget):
    """The ordered-pair loops that _pair_words replaces with np.nonzero, as (n, 2) int64."""
    first = [int(d) for d in words[:, 0]]
    pairs = [(i, j) for i in range(n_ex) for j in range(i + 1, n_ex) if first[i] != first[j]]
    left = max(0, pair_budget - 2 * len(pairs))
    for i in range(n_ex, len(first)):
        for j in range(n_ex, len(first)):
            if left and i != j and first[i] != first[j]:
                left -= 1
                if i < j:
                    pairs.append((i, j))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("b", (2, 3, 5, 10))
@pytest.mark.parametrize("pair_budget", (7, 513, 5000))
def test_pair_words_match_loop_reference(b, pair_budget):
    words, pairs = _pair_words(b, 12, pair_budget, 3)
    n_ex = b ** transversality._pair_counts(b, 12, pair_budget)[0]
    want = _reference_pairs(words, n_ex, pair_budget)
    assert pairs.dtype == want.dtype and np.array_equal(pairs, want)


class TestPairChunks:
    """The first minimiser, and the tangency count, do not depend on where the x blocks break."""

    @pytest.mark.parametrize("estimate, small", [
        (lambda: empirical_delta(2, Params(2, 0.95).gamma, x_grid=300, depth=30,
                                 pair_budget=2048, seed=1), 3 * 300),
        (lambda: empirical_delta(3, Params(3, 0.8).gamma, x_grid=200, depth=20,
                                 pair_budget=1024, seed=2), 3 * 200),
        (lambda: two_var_delta(2, 0.05, x_grid=100, gamma_grid=5, pair_budget=300,
                               seed=4), 3 * 100),
        (lambda: tangency_count(Params(2, 0.95), TangencyQuery(
            n=3, m=2, eps=0.5, delta=0.5, depth=20, grid_per_interval=20,
            random_tails=2), seed=3), 1),
    ], ids=("delta-b2", "delta-b3", "two-var-b2", "tangency-b2"))
    def test_chunk_size_independent(self, monkeypatch, estimate, small):
        ests = []
        for threads in ("1", "2"):  # the small blocks, and tangency's pieces, under the pool too
            monkeypatch.setenv("WEIERDIM_THREADS", threads)
            for cells in (parallel._CHUNK_CELLS, small, 2 ** 30):
                monkeypatch.setattr(transversality, "_CHUNK_CELLS", cells)
                ests.append(estimate())
        assert ests == ests[:1] * 6


def _reference_min_separation(b, gamma, xs, words, pairs, depth, with_dgamma):
    """_min_separation as the whole slope grid, every pair scored at once over every x.
    A 1-D gamma scores every gamma too and appends the gamma index."""

    def tail(what):  # each gamma's bound, broadcast over (pair, x)
        return np.reshape([orbit_tail(what, b, g)(depth) for g in np.atleast_1d(gamma)],
                          np.shape(gamma) + (1, 1))

    y, ydx, ydg = slope_grid(b, gamma, xs, words, want_dgamma=with_dgamma)
    t_y, t_d = tail("Y"), tail("Ydx")
    if with_dgamma:
        t_d += tail("Ydgamma")
    ii, jj = pairs.T
    d = np.abs(ydx[..., ii, :] - ydx[..., jj, :])
    if with_dgamma:
        d += np.abs(ydg[..., ii, :] - ydg[..., jj, :])
    d -= 2.0 * t_d
    score = np.abs(y[..., ii, :] - y[..., jj, :])
    score -= 2.0 * t_y
    np.maximum(score, d, out=score)
    # the first minimiser in (gamma, pair, x) order
    at = np.unravel_index(int(np.argmin(score)), score.shape)
    g_i, k, x_idx = (0,) * (3 - len(at)) + tuple(int(i) for i in at)
    found = (float(score[at]), tuple(pairs[k].tolist()), float(xs[x_idx]),
             2.0 * max(float(t_y.flat[g_i]), float(t_d.flat[g_i])))
    return found + (g_i,) if np.ndim(gamma) else found


def _separation_queries(count, seed):
    """Random (b, gamma, xs, words, pairs, depth, with_dgamma) scans, the last one tied."""
    rnd = np.random.default_rng(seed)
    queries = []
    for q in range(count):
        b = int(rnd.integers(2, 6))
        gamma = float(rnd.uniform(1.0 / b + 0.01, 0.99))
        depth = int(rnd.integers(3, 31))
        budget = 0 if q % 4 == 0 else int(rnd.integers(1, 400))
        words, pairs = _pair_words(b, depth, budget, int(rnd.integers(0, 100)))
        n_x = int(rnd.integers(2, 60))
        xs = np.linspace(0.0, 1.0, n_x) if q % 2 else (np.arange(n_x) + 0.5) / n_x
        queries.append((b, gamma, xs, words, pairs, depth, bool(rnd.integers(0, 2))))
    # a tie: each word with its first digit raised by one scores at x - 1 as the
    # word does at x, exactly so on a dyadic grid.  The raised pairs come first in
    # pair order and their x - 1 copies come last in x order; in the first window
    # of four grid points whose minimum is such a tie, the first minimiser in
    # pair-major order comes after another one in x order.
    words, pairs = _pair_words(3, 12, 300, 5)
    low = pairs[words[pairs, 0].max(axis=1) == 1]
    raised, n = words.copy(), words.shape[0]
    raised[:, 0] = np.minimum(raised[:, 0] + 1, 2)  # words of first digit 2 are in no pair
    tie_words, tie_pairs = np.vstack([words, raised]), np.concatenate([low + n, low])
    for k in range(61):
        xs = (k + np.arange(4)) / 64.0
        tie = (3, 0.8, np.concatenate([xs, xs - 1.0]), tie_words, tie_pairs, 12, True)
        _, (i, _), x, _ = _reference_min_separation(*tie)
        if i >= n and x < 0.0:
            return queries + [tie]
    raise AssertionError("no tied window")


def _gamma_queries(count, seed):
    """Two-var-style scans: a 1-D gamma of 2-5 values, the Y_gamma term, and a pair count
    that leaves a ragged last chunk of pairs."""
    rnd = np.random.default_rng(seed)
    queries = []
    while len(queries) < count:
        b = int(rnd.integers(2, 5))
        gammas = np.sort(rnd.uniform(1.0 / b + 0.01, 0.99, size=int(rnd.integers(2, 6))))
        depth = int(rnd.integers(3, 25))
        words, pairs = _pair_words(b, depth, int(rnd.integers(20, 300)), int(rnd.integers(0, 100)))
        if pairs.shape[0] > words.shape[0] and pairs.shape[0] % words.shape[0]:
            xs = np.linspace(0.0, 1.0, int(rnd.integers(2, 40)))
            queries.append((b, gammas, xs, words, pairs, depth, True))
    return queries


class TestFusedScan:
    """The x-block scan finds the minimiser that scoring the whole slope grid finds."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_matches_whole_grid_scan(self, monkeypatch, threads):
        monkeypatch.setenv("WEIERDIM_THREADS", threads)
        queries = _separation_queries(100, 11)
        expect = [_reference_min_separation(*q) for q in queries]
        tie = queries[-1]
        assert expect[-1][1][0] >= tie[3].shape[0] // 2  # a raised pair, on the second half
        assert expect[-1][0] == _reference_min_separation(*tie[:2], tie[2][:4], *tie[3:])[0]
        assert len({e[1] for e in expect}) > 50  # the witnesses vary
        rnd = np.random.default_rng(12)
        for cells in (1, None, transversality._CHUNK_CELLS, 2 ** 30):
            for q, want in zip(queries, expect):
                # None: a block width that leaves a ragged last block
                width = int(rnd.integers(2, 17)) if cells is None else 0
                monkeypatch.setattr(transversality, "_CHUNK_CELLS",
                                    cells or q[3].shape[0] * width + 1)
                assert transversality._min_separation(*q) == want, (cells, q[:2], q[5:])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_matches_whole_grid_scan_over_gamma(self, monkeypatch, threads):
        monkeypatch.setenv("WEIERDIM_THREADS", threads)
        queries = _gamma_queries(4, 19)
        expect = [_reference_min_separation(*q) for q in queries]
        assert len({e[-1] for e in expect}) > 1  # the minimising gamma varies
        for cells in (1, None, 2 ** 30):
            for q, want in zip(queries, expect):
                # None: blocks of 2-5 x points
                width = len(q[1]) * q[3].shape[0] * (2 + len(q[4]) % 4)
                monkeypatch.setattr(transversality, "_CHUNK_CELLS", cells or width)
                assert transversality._min_separation(*q) == want, (cells, q[0], q[5])

    def test_pair_index_out_of_range(self):
        words, pairs = _pair_words(2, 6, 20, 1)
        xs = np.linspace(0.0, 1.0, 5)
        for bad in ((0, words.shape[0]), (-1, 1)):
            with pytest.raises(IndexError):
                transversality._min_separation(2, 0.6, xs, words, np.vstack([pairs, bad]), 6,
                                               False)

    def test_streams_the_grid(self):
        # the whole 257 x 8000 slope grid and its derivative alone would take 33 MB
        peak = traced_peak(lambda: empirical_delta(2, 1 / 1.9, x_grid=8000, pair_budget=16384,
                                                   seed=1))
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("scan, bound", [
        # the words' prefix tree is dropped at the gather: 3.8 MiB measured; a tree held
        # through every orbit step took 5.3 MiB
        (lambda: empirical_delta(2, 1 / 1.9, x_grid=8000, pair_budget=16384, seed=1), 4.5),
        # the pairs are scored in three buffers reused per chunk: 2.6 MiB measured; fresh
        # (gamma, pairs, x) temporaries per chunk took 3.2 MiB
        (lambda: two_var_delta(2, 0.05, seed=1), 2.9),
    ], ids=["delta-x8000", "two-var"])
    def test_scan_working_set(self, monkeypatch, scan, bound):
        monkeypatch.setenv("WEIERDIM_THREADS", "1")
        assert traced_peak(scan) < bound * 2 ** 20


class TestScaleIdentity:
    def test_shared_prefix_rescaling(self):
        rnd = np.random.default_rng(17)
        for _ in range(10):
            b = int(rnd.integers(2, 5))
            lam = float(rnd.uniform(1.0 / b + 0.05, 0.98))
            p = Params(b, lam)
            n = int(rnd.integers(1, 5))
            prefix = tuple(int(d) for d in rnd.integers(0, b, size=n))
            wa = DigitWord(prefix + tuple(int(d) for d in rnd.integers(0, b, size=4)))
            wb = DigitWord(prefix + tuple(int(d) for d in rnd.integers(0, b, size=4)))
            x = float(rnd.uniform(0, 1))
            terms = 60
            ya = eval_orbit_sum(p, wa, x, terms=terms)
            yb = eval_orbit_sum(p, wb, x, terms=terms)
            v = x
            for d in prefix:
                v = (v + d) / b
            sa = eval_orbit_sum(p, DigitWord(wa.digits[n:]), v, terms=terms - n)
            sb = eval_orbit_sum(p, DigitWord(wb.digits[n:]), v, terms=terms - n)
            lhs = abs(ya.value - yb.value)
            rhs = p.gamma ** n * abs(sa.value - sb.value)
            tol = ya.tail_bound + yb.tail_bound + p.gamma ** n * (sa.tail_bound + sb.tail_bound)
            assert abs(lhs - rhs) <= tol + 1e-12


def _reference_tangency(p, q, seed):
    """tangency_count as one task per cylinder with a loop over every other one."""
    b, gamma, reps = p.b, p.gamma, 1 + q.random_tails
    depth, n_cyl, g, n_int = max(q.depth, q.n + 1), b ** q.n, q.grid_per_interval, b ** q.m
    digits = rng.digit_matrix(seed, rng.STREAM_TANGENCY_TAILS, n_cyl * reps, depth, b)
    for c, pref in enumerate(itertools.product(range(b), repeat=q.n)):
        digits[c * reps : (c + 1) * reps, : q.n] = pref
        digits[c * reps, q.n :] = 0
    xs = np.concatenate([np.linspace(k / n_int, (k + 1) / n_int, g) for k in range(n_int)])
    y, ydx, _ = slope_grid(b, gamma, xs, digits)
    thr_y = gamma * q.eps + 2.0 * orbit_tail("Y", b, gamma)(depth)
    thr_ydx = gamma * q.delta + 2.0 * orbit_tail("Ydx", b, gamma)(depth)
    counts = np.zeros((n_cyl, n_int), dtype=np.int64)
    for ci in range(n_cyl):
        rows_i, rows_i_dx = y[ci * reps : (ci + 1) * reps], ydx[ci * reps : (ci + 1) * reps]
        for cj in range(n_cyl):
            rows_j, rows_j_dx = y[cj * reps : (cj + 1) * reps], ydx[cj * reps : (cj + 1) * reps]
            d_y = np.abs(rows_i[:, None, :] - rows_j[None, :, :])
            d_ydx = np.abs(rows_i_dx[:, None, :] - rows_j_dx[None, :, :])
            near = ((d_y < thr_y) & (d_ydx < thr_ydx)).any(axis=(0, 1))
            counts[ci] += near.reshape(n_int, g).any(axis=1)
    return int(counts.max())


class TestTangencyCount:
    def test_huge_thresholds_count_everything(self):
        p = Params(2, 0.95)
        q = TangencyQuery(n=2, m=1, eps=1e6, delta=1e6, depth=20, grid_per_interval=50)
        assert tangency_count(p, q) == 2 ** 2

    def test_isolated_above_threshold(self):
        p = Params(2, solve_critical_lambda(2).hi + 0.05)
        est = empirical_delta(2, p.gamma, x_grid=2000, depth=30, pair_budget=2048, seed=1)
        q = TangencyQuery(
            n=1, m=1, eps=est.delta_hat / p.gamma, delta=est.delta_hat / p.gamma,
            depth=30, grid_per_interval=500,
        )
        e = tangency_count(p, q, seed=1)
        assert e == 1
        assert e < p.gamma * 2

    def test_regression_pin_depth2(self):
        p = Params(2, 0.95)
        q = TangencyQuery(n=2, m=2, eps=0.05, delta=0.05, depth=25, grid_per_interval=500)
        assert tangency_count(p, q, seed=1) == 1

    def test_monotone_in_thresholds(self):
        p = Params(2, 0.96)
        base = dict(n=1, m=1, depth=20, grid_per_interval=100)
        es = [
            tangency_count(p, TangencyQuery(eps=e, delta=d, **base), seed=2)
            for e, d in ((0.01, 0.01), (0.5, 0.01), (0.5, 3.0), (8.0, 8.0))
        ]
        assert all(a <= b for a, b in zip(es, es[1:]))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_matches_per_cylinder_loop(self, monkeypatch, threads):
        monkeypatch.setenv("WEIERDIM_THREADS", threads)
        rnd = np.random.default_rng(8)
        counts = []
        for _ in range(100):
            b = int(rnd.integers(2, 5))
            p = Params(b, float(rnd.uniform(1.0 / b + 0.02, 0.98)))
            q = TangencyQuery(
                n=int(rnd.integers(1, 6 - b)), m=int(rnd.integers(1, 3)),
                eps=float(10 ** rnd.uniform(-3, 1)), delta=float(10 ** rnd.uniform(-3, 1)),
                depth=int(rnd.integers(5, 30)), grid_per_interval=int(rnd.integers(5, 20)),
                random_tails=int(rnd.integers(0, 3)),
            )
            seed = int(rnd.integers(0, 10))
            e = tangency_count(p, q, seed=seed)
            assert e == _reference_tangency(p, q, seed), (p, q, seed)
            counts.append(e)
        assert len(set(counts)) > 3  # the sweep is not all ones

    @pytest.mark.parametrize("q, table_bytes", [
        # the whole 16 x 64000 slope grid with its pair differences took 40 MB
        (TangencyQuery(n=2, m=6, eps=0.5, delta=0.5, grid_per_interval=1000), 0),
        # at the work cap, 8.4M cylinder pairs: no pair index beside the 32 MB table
        (TangencyQuery(n=12, m=1, eps=0.5, delta=0.5, grid_per_interval=1, random_tails=0),
         2 ** 25),
        # one interval's grid and comparisons took 86 MB: it is scanned in pieces
        (TangencyQuery(n=1, m=1, eps=0.5, delta=0.5, grid_per_interval=100000), 0),
    ], ids=["n2-m6", "n12-m1", "wide"])
    def test_streams_the_grid(self, q, table_bytes):
        peak = traced_peak(lambda: tangency_count(Params(2, 0.95), q))
        assert peak < table_bytes + 16 * 2 ** 20

    def test_budget_guard(self):
        p = Params(2, 0.9)
        q = TangencyQuery(n=10, m=10, eps=0.1, delta=0.1)
        with pytest.raises(WorkBudgetError):
            tangency_count(p, q)
        # one budget error type for every estimator, still a ValueError
        assert WorkBudgetError is transversality.WorkBudgetError is parallel.WorkBudgetError
        assert issubclass(WorkBudgetError, ValueError)


def test_scan_bytes_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work before the byte budget")

    # the scan's words, its pool, its block kernel and the orbit sums under it, and the
    # critical scale that the gamma lattice is built from
    for target in ("_pair_words", "map_ordered", "slope_grid", "solve_ae_critical_lambda"):
        monkeypatch.setattr(transversality, target, no_work)
    monkeypatch.setattr(series, "_orbit_sums", no_work)
    monkeypatch.setattr(rng, "digit_matrix", no_work)
    p = Params(2, 0.95)
    calls = (
        lambda: empirical_delta(2, p.gamma, x_grid=10 ** 8, pair_budget=16),
        lambda: two_var_delta(2, 0.05, x_grid=10 ** 8, pair_budget=16),
        lambda: two_var_delta(2, 0.05, x_grid=2, gamma_grid=10 ** 8, pair_budget=2),
        lambda: empirical_delta(2, p.gamma, pair_budget=10 ** 7),
        lambda: tangency_count(p, TangencyQuery(n=1, m=1, eps=0.5, delta=0.5, depth=10 ** 7)),
    )
    for call in calls:
        with pytest.raises(WorkBudgetError, match="over the budget"):
            call()
    # the largest benchmark scan, 257 words x 8000 points x 2 grids, fits
    d_ex, _, pool = transversality._pair_counts(2, 30, 16384, 8000, 2)
    assert 2 ** d_ex + pool == 257


def test_no_pool_inside_a_pool(monkeypatch):
    # the estimator that owns the work pools it; slope_grid, run in its tasks, does not
    monkeypatch.setenv("WEIERDIM_THREADS", "2")
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    pools = []

    class Probe(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(threading.current_thread() is threading.main_thread())
            super().__init__(*args, **kwargs)

    # map_ordered imports the pool class when it runs threaded
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Probe)
    two_var_delta(2, 0.05, x_grid=4, gamma_grid=5000, pair_budget=16384)
    empirical_delta(2, Params(2, 0.95).gamma, x_grid=2000, pair_budget=2048, seed=1)
    tangency_count(Params(2, 0.95), TangencyQuery(n=3, m=3, eps=0.5, delta=0.5,
                                                  grid_per_interval=200), seed=1)
    assert pools and all(pools)  # pools ran, each from the main thread


class TestTwoVariable:
    @pytest.mark.parametrize("b", (2, 3))
    def test_positive_on_certified_rectangle(self, b):
        est = two_var_delta(b, 0.05, seed=1)
        assert est.delta_hat > 0
        assert est.argmin_gamma is not None

    def test_monotone_in_margin(self):
        # smaller margin widens the rectangle over a nested lattice
        wide = two_var_delta(2, 0.02, seed=1)
        narrow = two_var_delta(2, 0.05, seed=1)
        assert wide.delta_hat <= narrow.delta_hat + 1e-12

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            two_var_delta(2, 0.2)

    def test_first_gamma_on_ties(self):
        words, pairs = _pair_words(2, 20, 200, 3)
        xs = np.linspace(0.0, 1.0, 50)
        one = transversality._min_separation(2, 0.6, xs, words, pairs, 20, True)
        assert transversality._min_separation(2, np.array([0.6, 0.6]), xs, words, pairs, 20,
                                              True) == one + (0,)

    def test_one_orbit_for_every_gamma(self, monkeypatch):
        # one sin and one cos per orbit point, however many gammas share the orbit: the
        # first L steps once per digit prefix (b^L <= words), then once per word
        monkeypatch.setenv("WEIERDIM_THREADS", "1")
        calls, blocks = counted_trig(monkeypatch), []

        def spy(b, gamma, x, digits, want_dgamma=False):
            blocks.append((np.size(gamma), digits.size * x.size))
            return slope_grid(b, gamma, x, digits, want_dgamma)

        monkeypatch.setattr(transversality, "slope_grid", spy)
        two_var_delta(2, 0.05, x_grid=300, seed=1)
        assert {g for g, _ in blocks} == {4}
        words = _pair_words(2, 40, 512, 1)[0].shape[0]
        assert sum(c for _, c in blocks) == 40 * 300 * words  # words x points x depth
        tree = int(np.log2(words))
        points = 300 * (sum(2 ** n for n in range(1, tree + 1)) + (40 - tree) * words)
        assert calls == {"sin": points, "cos": points}


class TestTailSlackAccounting:
    def test_slack_matches_bounds(self):
        p = Params(2, 0.95)
        est = empirical_delta(2, p.gamma, x_grid=100, depth=20, pair_budget=64, seed=0)
        expect = 2 * max(orbit_tail("Y", 2, p.gamma)(20), orbit_tail("Ydx", 2, p.gamma)(20))
        assert est.tail_slack == pytest.approx(expect, abs=0)

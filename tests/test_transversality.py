"""Transversality estimators: separation, tangency counts, two-variable."""

import numpy as np
import pytest

from weierdim import (
    DigitWord,
    Params,
    TangencyQuery,
    WorkBudgetError,
    analytic_transversality_check,
    case_bounds_base2,
    empirical_delta,
    eval_stable_slope,
    solve_critical_lambda,
    tangency_count,
    tail_bound_slope,
    tail_bound_slope_dx,
    transversality_defect_gamma,
    two_var_delta,
)


class TestAnalyticCheck:
    def test_published_points(self):
        holds, margin = analytic_transversality_check(2, 0.9352)
        assert holds and margin > 0
        holds, _ = analytic_transversality_check(2, 0.9)
        assert not holds
        assert analytic_transversality_check(3, 0.7269)[0]

    def test_margin_is_negated_defect(self):
        _, margin = analytic_transversality_check(2, 0.95)
        assert margin == pytest.approx(-_defect(2, 0.95), abs=0)

    @pytest.mark.parametrize("b", (2, 3, 5))
    def test_agrees_with_bracket(self, b):
        br = solve_critical_lambda(b)
        gap = 10 * br.tol
        assert analytic_transversality_check(b, br.hi + gap)[0]
        assert not analytic_transversality_check(b, br.lo - gap)[0]


def _defect(b, lam):
    from weierdim import transversality_defect

    return transversality_defect(b, lam)


class TestCaseBounds:
    def test_max_equals_gamma_defect(self):
        rnd = np.random.default_rng(100)
        for _ in range(100):
            g = float(rnd.uniform(0.51, 0.999))
            assert max(case_bounds_base2(g)) == pytest.approx(
                transversality_defect_gamma(2, g), abs=1e-12
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
            ya = eval_stable_slope(p, wa, x, terms=terms)
            yb = eval_stable_slope(p, wb, x, terms=terms)
            v = x
            for d in prefix:
                v = (v + d) / b
            sa = eval_stable_slope(p, wa.shifted(n), v, terms=terms - n)
            sb = eval_stable_slope(p, wb.shifted(n), v, terms=terms - n)
            lhs = abs(ya.value - yb.value)
            rhs = p.gamma ** n * abs(sa.value - sb.value)
            tol = ya.tail_bound + yb.tail_bound + p.gamma ** n * (sa.tail_bound + sb.tail_bound)
            assert abs(lhs - rhs) <= tol + 1e-12


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

    def test_budget_guard(self):
        p = Params(2, 0.9)
        q = TangencyQuery(n=10, m=10, eps=0.1, delta=0.1)
        with pytest.raises(WorkBudgetError):
            tangency_count(p, q)


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


class TestTailSlackAccounting:
    def test_slack_matches_bounds(self):
        p = Params(2, 0.95)
        est = empirical_delta(2, p.gamma, x_grid=100, depth=20, pair_budget=64, seed=0)
        expect = 2 * max(tail_bound_slope(p.gamma, 20), tail_bound_slope_dx(2, p.gamma, 20))
        assert est.tail_slack == pytest.approx(expect, abs=0)

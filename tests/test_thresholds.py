"""Threshold functions: sign facts, monotonicity, brackets and bounds."""

import math

import numpy as np
import pytest

from weierdim import (
    CLOSED_FORM_BETA,
    StarCertificate,
    ae_defect,
    ae_defect_majorant,
    builtin_certificate,
    coeff_bound,
    coeff_bound_to_lambda,
    defect_majorant,
    double_root_bounds,
    solve_ae_critical_lambda,
    solve_critical_lambda,
    transversality_defect,
    transversality_defect_gamma,
)


class TestDefectSigns:
    def test_published_sign_facts(self):
        assert transversality_defect(2, 0.9352) < 0
        assert transversality_defect(2, 0.9) > 0
        assert transversality_defect(3, 0.7269) < 0
        assert transversality_defect(4, 0.6083) < 0

    def test_majorant_sign_facts(self):
        assert defect_majorant(3, 1.0) < 0
        assert defect_majorant(5, 0.5448) < 0
        assert ae_defect_majorant(5, 1.04 / math.sqrt(5)) < 0

    def test_pole_at_lower_endpoint(self):
        assert transversality_defect(3, 1.0 / 3.0 + 1e-8) > 1e6

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            transversality_defect(2, 0.4)
        with pytest.raises(ValueError):
            transversality_defect(3, 1.2)
        with pytest.raises(ValueError):
            transversality_defect_gamma(3, 0.2)
        # a fractional base is rejected, not looked up as b = 2
        with pytest.raises(ValueError, match="integer >= 2"):
            builtin_certificate(2.7)


class TestGammaFormIdentity:
    def test_identity_on_random_pairs(self):
        rnd = np.random.default_rng(50)
        for _ in range(50):
            b = int(rnd.integers(2, 10))
            lam = float(rnd.uniform(1.0 / b + 0.1 * (1 - 1.0 / b), 0.999))
            lhs = transversality_defect_gamma(b, 1.0 / (b * lam))
            rhs = transversality_defect(b, lam)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_sign_matches_at_published_point(self):
        g = 1.0 / (2 * 0.9352)
        assert transversality_defect_gamma(2, g) < 0


class TestMonotonicity:
    @pytest.mark.parametrize("b", range(2, 13))
    def test_strictly_decreasing_on_grid(self, b):
        lams = np.linspace(1.0 / b + 1e-6, 1.0, 1000)
        vals = [transversality_defect(b, float(t)) for t in lams]
        assert all(u > v for u, v in zip(vals, vals[1:]))

    def test_ae_defect_below_defect(self):
        for b in (3, 4, 5, 8):
            for lam in np.linspace(2.0 / b + 1e-6, 1.0, 50):
                assert ae_defect(b, float(lam)) < transversality_defect(b, float(lam))


class TestCriticalBrackets:
    def test_base2_bracket(self):
        br = solve_critical_lambda(2)
        assert 0.9 < br.lo < br.hi < 0.9352
        assert br.hi - br.lo <= br.tol
        assert br.f_lo * br.f_hi < 0

    def test_base5_below_published_bound(self):
        assert solve_critical_lambda(5).hi < 0.5448

    def test_large_base_limit(self):
        br = solve_critical_lambda(10_000)
        assert abs(br.midpoint - 1.0 / math.pi) < 0.01

    def test_decreasing_in_base(self):
        mids = [solve_critical_lambda(b).midpoint for b in range(3, 13)]
        assert all(u > v for u, v in zip(mids, mids[1:]))


class TestCoeffBound:
    def test_boundary_value(self):
        assert coeff_bound(2, 1.0) == pytest.approx(3 * math.sqrt(2) / 4, abs=1e-14)

    def test_published_certificate_scale(self):
        expect = 1.0 / math.sqrt(1.0 - 1.0 / 2.24 ** 2)
        assert coeff_bound(2, 0.81) == pytest.approx(expect, abs=1e-12)

    def test_always_above_one(self):
        rnd = np.random.default_rng(7)
        for _ in range(50):
            b = int(rnd.integers(2, 12))
            lam = float(rnd.uniform(1.0 / b * (1 + 1e-6), 1.0))
            assert coeff_bound(b, lam) > 1.0

    def test_inverse_round_trip(self):
        for b, lam in ((2, 0.81), (3, 0.55), (4, 0.44), (7, 0.3)):
            beta = coeff_bound(b, lam)
            assert coeff_bound_to_lambda(b, beta) == pytest.approx(lam, abs=1e-12)


class TestDoubleRootBounds:
    def test_known_point(self):
        bd = double_root_bounds(2.0)
        assert bd.lower == 0.5 and bd.upper == 0.5

    def test_closed_form_regime(self):
        bd = double_root_bounds(6.0)
        assert bd.method == "closed-form"
        assert bd.lower == bd.upper == pytest.approx(1.0 / (1.0 + math.sqrt(6.0)), abs=1e-15)

    def test_certificate_raises_lower_bound(self):
        beta = coeff_bound(2, 0.81)
        _, cert = builtin_certificate(2)
        bd = double_root_bounds(beta, [cert])
        assert bd.method == "certificate"
        assert bd.lower >= 0.62

    def test_generic_bound_everywhere(self):
        for beta in (1.0, 1.5, 3.0, 5.0, 10.0):
            bd = double_root_bounds(beta)
            assert 1.0 / (1.0 + math.sqrt(beta)) <= bd.lower <= bd.upper <= 1.0

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            double_root_bounds(0.5)


class TestAeCritical:
    @pytest.mark.parametrize("b,bound", [(2, 0.81), (3, 0.55), (4, 0.44)])
    def test_published_certificate_bounds(self, b, bound):
        ae = solve_ae_critical_lambda(b)
        assert ae.method == "certificate"
        assert ae.lo == pytest.approx(1.0 / b)
        assert ae.hi <= bound + 1e-12

    def test_closed_form_regime_base25(self):
        ae = solve_ae_critical_lambda(25)
        assert ae.method == "closed-form"
        assert ae.hi < 1.04 / math.sqrt(25)
        # closed form applies only when the coefficient bound is large enough
        assert coeff_bound(25, ae.hi) >= CLOSED_FORM_BETA

    def test_large_base_scaling(self):
        ae = solve_ae_critical_lambda(10_000)
        assert abs(math.sqrt(10_000) * ae.hi - 1.0 / math.sqrt(math.pi)) < 0.02

    @pytest.mark.parametrize("b", range(2, 13))
    def test_always_below_critical(self, b):
        ae = solve_ae_critical_lambda(b)
        crit = solve_critical_lambda(b)
        assert ae.hi < crit.lo

    def test_explicit_certificate_list(self):
        _, cert = builtin_certificate(2)
        ae = solve_ae_critical_lambda(2, certs=[cert])
        assert ae.hi <= 0.81 + 1e-12

    def test_rejects_non_licensing_certificate(self):
        # a certificate whose t is below 1/(b*lambda0) proves nothing here
        beta = coeff_bound(2, 0.81)
        weak = StarCertificate(beta, 1, 0.0, 0.3)
        ae = solve_ae_critical_lambda(2, certs=[weak])
        assert ae.method == "monotone"

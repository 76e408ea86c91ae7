"""Star-certificate closed form, verification and search."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import traced_peak

from weierdim import (
    CLOSED_FORM_BETA,
    SIGN_MARGIN,
    StarCertificate,
    WorkBudgetError,
    builtin_certificate,
    coeff_bound,
    search_certificate,
    verify_certificate,
)
from weierdim import certificates
from weierdim.certificates import _g, _g_prime


def direct_series(cert, n_terms=1000):
    beta, k, eta, t = cert.beta, cert.k, cert.eta, cert.t
    total = 1.0
    for n in range(1, n_terms + 1):
        if n < k:
            total -= beta * t ** n
        elif n == k:
            total += eta * t ** n
        else:
            total += beta * t ** n
    return total


def exact_signs(*cert):
    """The signs of g and g' at (beta, k, eta, t) as floats, in exact arithmetic."""
    beta, k, eta, t = (Fraction(v) for v in cert)
    g = 1 - beta * sum(t ** n for n in range(1, cert[1])) + eta * t ** k
    g += beta * t ** (k + 1) / (1 - t)
    gp = -beta * sum(n * t ** (n - 1) for n in range(1, cert[1])) + eta * k * t ** (k - 1)
    gp += beta * ((k + 1) * t ** k * (1 - t) + t ** (k + 1)) / (1 - t) ** 2
    return (g > 0) - (g < 0), (gp > 0) - (gp < 0)


def g_of(cert):
    return verify_certificate(cert).g_value


def g_prime_of(cert):
    return verify_certificate(cert).g_prime_value


def random_certs(count, seed):
    rnd = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(
            StarCertificate(
                beta=float(rnd.uniform(1.0, 5.0)),
                k=int(rnd.integers(1, 7)),
                eta=float(rnd.uniform(-6.0, 6.0)),
                t=float(rnd.uniform(0.05, 0.9)),
            )
        )
    return out


class TestClosedForm:
    def test_limit_at_zero(self):
        for cert in random_certs(5, 1):
            near0 = StarCertificate(cert.beta, cert.k, cert.eta, 1e-9)
            assert g_of(near0) == pytest.approx(1.0, abs=1e-6)

    def test_matches_direct_series(self):
        for cert in random_certs(30, 2):
            tail = cert.beta * cert.t ** 1001 / (1.0 - cert.t)
            assert abs(g_of(cert) - direct_series(cert)) <= tail + 1e-9

    def test_published_positive_values(self):
        assert g_of(StarCertificate(coeff_bound(2, 0.81), 4, 0.81, 0.62)) > 0
        assert g_of(StarCertificate(coeff_bound(3, 0.55), 4, 1.43398, 0.6061)) > 0

    def test_published_negative_derivatives(self):
        assert g_prime_of(StarCertificate(coeff_bound(2, 0.81), 4, 0.81, 0.62)) < 0
        assert g_prime_of(StarCertificate(coeff_bound(4, 0.44), 3, -0.298, 0.569)) < 0

    def test_derivative_matches_finite_difference(self):
        h = 1e-7
        for cert in random_certs(50, 3):
            if not (h < cert.t < 1.0 - h):
                continue
            up = StarCertificate(cert.beta, cert.k, cert.eta, cert.t + h)
            dn = StarCertificate(cert.beta, cert.k, cert.eta, cert.t - h)
            fd = (g_of(up) - g_of(dn)) / (2 * h)
            assert g_prime_of(cert) == pytest.approx(fd, abs=1e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            StarCertificate(2.0, 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            StarCertificate(0.9, 1, 0.0, 0.5)
        with pytest.raises(ValueError):
            StarCertificate(2.0, 0, 0.0, 0.5)


class TestVerify:
    @pytest.mark.parametrize("b", (2, 3, 4))
    def test_published_certificates_valid(self, b):
        _, cert = builtin_certificate(b)
        rep = verify_certificate(cert)
        assert rep.valid
        assert rep.margin > 1e-6

    def test_regression_low_order(self):
        # k=1: no head sum, derivative dominated by the tail, so invalid
        rep = verify_certificate(StarCertificate(2.0, 1, 0.0, 0.5))
        assert rep.g_value == pytest.approx(2.0, abs=1e-12)
        assert rep.g_prime_value == pytest.approx(6.0, abs=1e-12)
        assert not rep.valid

    def test_invalid_via_positive_derivative(self):
        rep = verify_certificate(StarCertificate(10.0, 2, 0.0, 0.9))
        assert not rep.valid
        assert rep.g_prime_value > 0

    def test_borderline_margin_noted(self):
        # at k=2, beta=1, t=1/2 the derivative is exactly 1 + eta, so this
        # eta puts the margin a hair above zero but under the strictness bar
        rep = verify_certificate(StarCertificate(1.0, 2, -1.0 - 5e-10, 0.5))
        assert 0 < rep.margin <= 1e-9
        assert not rep.valid
        assert rep.note == "borderline"

    def test_overflowing_certificate_refused(self):
        # g' overflows in floats; exactly it is about +32.9 beta, so this is no certificate
        overflowing = (4e307, 4, -8e307, 0.8590999999999605)
        assert exact_signs(*overflowing)[1] == 1
        with pytest.raises(ValueError, match="beta=4e[+]307"):
            StarCertificate(*overflowing)

    @pytest.mark.parametrize("g, gp", [(1.0, math.nan), (math.inf, -math.inf),
                                       (math.nan, -1.0), (math.inf, -1.0)])
    def test_non_finite_never_valid(self, monkeypatch, g, gp):
        monkeypatch.setattr(certificates, "_g", lambda *args: g)
        monkeypatch.setattr(certificates, "_g_prime", lambda *args: gp)
        rep = verify_certificate(StarCertificate(2.0, 2, 0.1, 0.5))
        assert not rep.valid and rep.note == ""


class TestSearch:
    def test_recovers_published_level(self):
        found = search_certificate(coeff_bound(2, 0.81), 0.62)
        assert found is not None
        assert found.t >= 0.62
        assert verify_certificate(found).valid

    def test_nothing_above_closed_form_value(self):
        # the double-root value at beta=6 is 1/(1+sqrt(6)) ~ 0.29, below 0.5
        assert search_certificate(6.0, 0.5, k_max=4, eta_grid=801) is None

    def test_feasibility_probe_regression(self):
        found = search_certificate(2.0, 0.49)
        assert found is not None
        assert (found.k, found.t) == (2, 0.49)
        assert found.eta == pytest.approx(-2.004, abs=1e-9)

    def test_soundness_in_closed_form_regime(self):
        # any certificate that verifies at beta >= 3+sqrt(8) must sit below
        # the exact double-root value there
        beta = 6.0
        found = search_certificate(beta, 0.2, k_max=4, eta_grid=801)
        if found is not None:
            assert beta >= CLOSED_FORM_BETA
            assert found.t < 1.0 / (1.0 + math.sqrt(beta))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            search_certificate(0.5, 0.3)
        with pytest.raises(ValueError):
            search_certificate(2.0, 1.5)

    def test_k_max_past_underflow_refused(self):
        # 0.3 ** 588 is the last power of 0.3 above the smallest normal float
        with pytest.raises(WorkBudgetError):
            search_certificate(50.0, 0.3, k_max=589)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowed eta bound is +-inf, not a warning
            assert search_certificate(50.0, 0.3, k_max=588) is None

    @pytest.mark.parametrize("t_target", (0.01, 0.5, 0.99, 0.9999))
    def test_overflowing_beta_refused(self, t_target):
        # every found certificate has the exact signs; an overflowing beta is refused before
        # any grid work, and no beta leaks a RuntimeWarning
        betas = (1e270, 1e280, 1e290, 1e298, 1e299, 1e303, 4e307, 4.5e307, 1e308, 1.7e308)
        refused = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in betas:
                try:
                    found = search_certificate(beta, t_target, k_max=6, eta_grid=401)
                except ValueError as exc:
                    assert f"beta={beta!r}" in str(exc)
                    refused.append(beta)
                    continue
                assert found is None or exact_signs(*vars(found).values()) == (1, -1)
        assert 4e307 in refused and refused == list(betas[-len(refused):])


def _reference_search(beta, t_target, k_max, eta_grid):
    """search_certificate over the dense eta x t hit matrix of each k."""
    ts = np.arange(t_target, 1.0, 1e-4)
    ts = ts[ts < 1.0]
    etas = np.linspace(-2.0 * beta, 2.0 * beta, eta_grid)
    for k in range(1, k_max + 1):
        eta_lo = (2.0 * SIGN_MARGIN - _g(beta, k, 0.0, ts)) / ts ** k
        eta_hi = (-2.0 * SIGN_MARGIN - _g_prime(beta, k, 0.0, ts)) / (k * ts ** (k - 1))
        hit = (etas[:, None] > eta_lo[None, :]) & (etas[:, None] < eta_hi[None, :])
        for e in np.flatnonzero(hit.any(axis=1)):
            for j in np.flatnonzero(hit[e]):
                cand = StarCertificate(beta, k, float(etas[e]), float(ts[j]))
                if verify_certificate(cand).valid:
                    return cand
    return None


class TestIntervalSearch:
    """Each t's eta interval visits the candidates of the dense hit matrix, in order."""

    def test_matches_dense_search(self):
        betas = (1.0, 2.0, coeff_bound(2, 0.81), coeff_bound(3, 0.55), coeff_bound(4, 0.44), 6.0)
        cases = [(beta, t, k_max, eta_grid)
                 for beta in betas
                 for t in (0.3, 0.49, 0.56, 0.62, 0.9)
                 for k_max, eta_grid in ((1, 1), (2, 2), (4, 401), (6, 1601))]
        cases += [(coeff_bound(3, 0.55), 0.6, 6, 4001), (coeff_bound(4, 0.44), 0.56, 6, 4001)]
        found = [search_certificate(*case) for case in cases]
        assert found == [_reference_search(*case) for case in cases]
        assert 20 < sum(f is None for f in found) < len(cases) - 20
        assert any(f is not None for (_, _, _, eta_grid), f in zip(cases, found) if eta_grid == 1)

    def test_holds_no_hit_matrix(self):
        # the dense search held a 4001 x 4400 boolean matrix per k
        peak = traced_peak(lambda: search_certificate(coeff_bound(4, 0.44), 0.56))
        assert peak < 4 * 2 ** 20

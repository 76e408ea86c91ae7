"""Core series evaluators against trivial values and high-precision oracles.

Frozen reference values were computed by the mpmath partial-sum oracles
defined below; each test re-runs its oracle so the constants cannot drift.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from weierdim import (
    COSINE,
    COSINE_DERIV,
    DigitWord,
    Params,
    PhiSpec,
    eval_fiber_sum,
    eval_phi,
    eval_phi_prime,
    eval_stable_slope,
    eval_stable_slope_dgamma,
    eval_stable_slope_dx,
    eval_weierstrass,
    rng,
    slope_grid,
    tail_bound_slope,
    tail_bound_slope_dgamma,
    tail_bound_slope_dx,
)
from weierdim.measures import sample_transversal
from weierdim.series import tail_bound_geometric

mp.mp.dps = 40
TWO_PI = 2.0 * math.pi

# frozen outputs of the mpmath oracles below
F_REF = 0.4845910396679920265541  # f at b=3, lam=0.7, x=0.31, 200 terms
Y_REF = 3.6696101764226521624  # slope at b=2, gamma=0.6, x=0, word (1,0,0,...), 150 terms
YDX_REF = -5.626539428829701571  # b=3, gamma=0.5, x=0.1, random word seed 7, 100 terms
YDG_REF = -10.731945611031872877  # b=4, gamma=0.3, x=0.2, random word seed 11, 100 terms
S_REF = 0.18247425610196148109  # b=2, gamma=0.55, psi=sin(4 pi x), x=0.37, word (1,1,0,...), 120 terms


def params_for_gamma(b, gamma):
    return Params(b, 1.0 / (b * gamma))


def orbit_args(x, digits, b, n):
    u = mp.mpf(x)
    for i in range(n):
        d = digits[i] if i < len(digits) else 0
        u = (u + d) / b
        yield u


def f_oracle(b, lam, x, n):
    # b**k * x needs ~ n*log10(b) extra digits for sound argument reduction
    with mp.workdps(150):
        return float(
            sum(mp.mpf(lam) ** k * mp.cos(2 * mp.pi * mp.mpf(b) ** k * mp.mpf(x)) for k in range(n))
        )


def y_oracle(b, gamma, x, digits, n):
    s = sum(
        mp.mpf(gamma) ** (k + 1) * mp.sin(2 * mp.pi * u)
        for k, u in enumerate(orbit_args(x, digits, b, n))
    )
    return float(2 * mp.pi * s)


def ydx_oracle(b, gamma, x, digits, n):
    s = sum(
        (mp.mpf(gamma) / b) ** (k + 1) * mp.cos(2 * mp.pi * u)
        for k, u in enumerate(orbit_args(x, digits, b, n))
    )
    return float(4 * mp.pi ** 2 * s)


def ydg_oracle(b, gamma, x, digits, n):
    s = sum(
        (k + 1) * mp.mpf(gamma) ** k * mp.sin(2 * mp.pi * u)
        for k, u in enumerate(orbit_args(x, digits, b, n))
    )
    return float(2 * mp.pi * s)


def s_oracle(b, gamma, x, digits, n, freq=2):
    s = sum(
        mp.mpf(gamma) ** k * mp.sin(2 * mp.pi * freq * u)
        for k, u in enumerate(orbit_args(x, digits, b, n))
    )
    return float(s)


class TestPhi:
    def test_classic_values(self):
        assert eval_phi(COSINE, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert eval_phi(COSINE, 0.25) == pytest.approx(0.0, abs=1e-15)
        assert eval_phi_prime(COSINE, 0.25) == pytest.approx(-TWO_PI, abs=1e-12)

    def test_periodicity(self):
        phi = PhiSpec(cosine_coeffs=((1, 0.3), (3, -0.7)), sine_coeffs=((2, 1.1),), constant=0.4)
        for x in (0.0, 0.13, 0.77, -0.4):
            assert eval_phi(phi, x) == pytest.approx(eval_phi(phi, x + 1.0), abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        phi = PhiSpec(cosine_coeffs=((1, 0.5),), sine_coeffs=((2, -0.25),), constant=2.0)
        h = 1e-6
        for x in (0.1, 0.37, 0.62):
            fd = (eval_phi(phi, x + h) - eval_phi(phi, x - h)) / (2 * h)
            assert eval_phi_prime(phi, x) == pytest.approx(fd, abs=1e-7)

    def test_bad_frequency_rejected(self):
        with pytest.raises(ValueError):
            PhiSpec(cosine_coeffs=((0, 1.0),))


class TestWeierstrassSeries:
    def test_all_ones_at_zero(self):
        sv = eval_weierstrass((2, 0.5), COSINE, 0.0, abs_tol=1e-10)
        assert abs(sv.value - 2.0) <= sv.tail_bound + 1e-12

    def test_alternating_at_half(self):
        # first term -1, later terms +1: -1 + sum 2^-n = 0
        sv = eval_weierstrass((2, 0.5), COSINE, 0.5, abs_tol=1e-10)
        assert abs(sv.value) <= sv.tail_bound + 1e-12

    def test_against_reference_sum(self):
        assert f_oracle(3, 0.7, 0.31, 200) == pytest.approx(F_REF, abs=1e-15)
        sv = eval_weierstrass(Params(3, 0.7), COSINE, 0.31, abs_tol=1e-11)
        assert sv.value == pytest.approx(F_REF, abs=1e-10)

    def test_phases(self):
        # a quarter-period shift on the first term only
        sv0 = eval_weierstrass((2, 0.5), COSINE, 0.0, phases=[0.25], abs_tol=1e-10)
        sv1 = eval_weierstrass((2, 0.5), COSINE, 0.0, abs_tol=1e-10)
        assert sv0.value == pytest.approx(sv1.value - 1.0, abs=1e-9)

    def test_tail_respects_tolerance(self):
        for tol in (1e-3, 1e-6, 1e-12):
            sv = eval_weierstrass(Params(2, 0.9), COSINE, 0.3, abs_tol=tol)
            assert sv.tail_bound <= tol

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            eval_weierstrass(Params(2, 0.9), COSINE, 0.3, abs_tol=0.0)

    def test_array_matches_scalar_bitwise(self):
        phi = PhiSpec(cosine_coeffs=((1, 0.5),), sine_coeffs=((3, 0.3),), constant=0.2)
        xs = rng.uniform_vector(9, 1, 100)
        for b in (2, 3, 10, 4099):
            for phases in (None, [0.1, -0.4]):
                sv = eval_weierstrass((b, 0.6), phi, xs, phases=phases, abs_tol=1e-10)
                for x, v in zip(xs, sv.value):
                    one = eval_weierstrass((b, 0.6), phi, float(x), phases=phases, abs_tol=1e-10)
                    assert v == one.value
                assert (sv.tail_bound, sv.terms_used) == (one.tail_bound, one.terms_used)

    def test_off_grid_array_rejected(self):
        for xs in ([0.1], [0.5, 0.1], [[0.5]], [1.0], [-0.5], [np.nan], 0.5):
            with pytest.raises(ValueError):
                eval_weierstrass((2, 0.9), COSINE, np.array(xs))

    def test_params_domain(self):
        with pytest.raises(ValueError):
            Params(2, 0.5)
        with pytest.raises(ValueError):
            Params(1, 0.9)
        with pytest.raises(ValueError):
            eval_weierstrass((2, 1.0), COSINE, 0.0)


class TestStableSlope:
    def test_zero_word_zero_x(self):
        for b in (2, 3, 5):
            p = Params(b, (1.0 / b + 1.0) / 2)
            assert eval_stable_slope(p, DigitWord(), 0.0).value == 0.0

    def test_against_reference_sum(self):
        assert y_oracle(2, 0.6, 0.0, [1, 0, 0], 150) == pytest.approx(Y_REF, abs=1e-15)
        p = params_for_gamma(2, 0.6)
        sv = eval_stable_slope(p, DigitWord((1, 0, 0)), 0.0, abs_tol=1e-11)
        assert sv.value == pytest.approx(Y_REF, abs=1e-10)

    def test_monte_carlo_mean_near_zero(self):
        s = sample_transversal(Params(2, 0.95), 0.3, 100_000, seed=11)
        se = s.points.std(ddof=1) / math.sqrt(s.count)
        assert abs(s.points.mean()) < 4 * se

    def test_digit_shift_identity(self):
        p = Params(3, 0.8)
        word = DigitWord((2, 1, 0, 2))
        x, n = 0.77, 60
        lhs = eval_stable_slope(p, word, x, terms=n).value
        head = TWO_PI * p.gamma * math.sin(TWO_PI * (x + 2) / 3)
        rhs = head + p.gamma * eval_stable_slope(p, word.shifted(1), (x + 2) / 3, terms=n - 1).value
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_bad_digit_for_base(self):
        p = Params(2, 0.9)
        with pytest.raises(ValueError):
            eval_stable_slope(p, DigitWord((2,)), 0.0)


class TestSlopeDerivatives:
    def test_dx_all_zero_closed_form(self):
        p = params_for_gamma(2, 0.6)
        r = 0.6 / 2
        sv = eval_stable_slope_dx(p, DigitWord(), 0.0, abs_tol=1e-12)
        assert abs(sv.value - 4 * math.pi ** 2 * r / (1 - r)) <= sv.tail_bound + 1e-12

    def test_dx_matches_finite_difference(self):
        p = params_for_gamma(2, 0.7)
        word = DigitWord((1, 0, 1, 0))
        h = 1e-6
        fd = (
            eval_stable_slope(p, word, 0.3 + h, abs_tol=1e-13).value
            - eval_stable_slope(p, word, 0.3 - h, abs_tol=1e-13).value
        ) / (2 * h)
        assert eval_stable_slope_dx(p, word, 0.3, abs_tol=1e-12).value == pytest.approx(fd, abs=1e-5)

    def test_dx_against_reference_sum(self):
        word = DigitWord(tail_seed=7)
        digits = list(word.digit_array(100, 3))
        assert ydx_oracle(3, 0.5, 0.1, digits, 100) == pytest.approx(YDX_REF, abs=1e-15)
        sv = eval_stable_slope_dx(params_for_gamma(3, 0.5), word, 0.1, abs_tol=1e-11)
        assert sv.value == pytest.approx(YDX_REF, abs=1e-10)

    def test_dgamma_all_zero(self):
        p = params_for_gamma(2, 0.6)
        assert eval_stable_slope_dgamma(p, DigitWord(), 0.0).value == 0.0

    def test_dgamma_matches_finite_difference(self):
        word = DigitWord((0, 1, 1))
        g, h = 0.65, 1e-6
        fd = (
            eval_stable_slope(params_for_gamma(2, g + h), word, 0.4, abs_tol=1e-13).value
            - eval_stable_slope(params_for_gamma(2, g - h), word, 0.4, abs_tol=1e-13).value
        ) / (2 * h)
        an = eval_stable_slope_dgamma(params_for_gamma(2, g), word, 0.4, abs_tol=1e-12).value
        assert an == pytest.approx(fd, abs=1e-5)

    def test_dgamma_against_reference_sum(self):
        word = DigitWord(tail_seed=11)
        digits = list(word.digit_array(100, 4))
        assert ydg_oracle(4, 0.3, 0.2, digits, 100) == pytest.approx(YDG_REF, abs=1e-15)
        sv = eval_stable_slope_dgamma(params_for_gamma(4, 0.3), word, 0.2, abs_tol=1e-11)
        assert sv.value == pytest.approx(YDG_REF, abs=1e-10)


class TestFiberSum:
    def test_constant_psi_geometric(self):
        p = params_for_gamma(2, 0.55)
        sv = eval_fiber_sum(p, PhiSpec(constant=3.0), DigitWord((1, 0)), 0.2, abs_tol=1e-12)
        assert sv.value == pytest.approx(3.0 / (1 - 0.55), abs=1e-12)
        assert sv.tail_bound == 0.0

    def test_slope_relation_20_random(self):
        rnd = np.random.default_rng(20)
        for _ in range(20):
            b = int(rnd.integers(2, 6))
            lam = float(rnd.uniform(1.0 / b + 0.05, 0.99))
            p = Params(b, lam)
            word = DigitWord(tuple(int(d) for d in rnd.integers(0, b, size=8)))
            x = float(rnd.uniform(0, 1))
            y = eval_stable_slope(p, word, x, abs_tol=1e-10)
            s = eval_fiber_sum(p, COSINE_DERIV, word, x, abs_tol=1e-10)
            assert abs(y.value + p.gamma * s.value) <= y.tail_bound + p.gamma * s.tail_bound + 1e-12

    def test_against_reference_sum(self):
        psi = PhiSpec(sine_coeffs=((2, 1.0),))
        assert s_oracle(2, 0.55, 0.37, [1, 1, 0], 120) == pytest.approx(S_REF, abs=1e-15)
        sv = eval_fiber_sum(params_for_gamma(2, 0.55), psi, DigitWord((1, 1, 0)), 0.37, abs_tol=1e-11)
        assert sv.value == pytest.approx(S_REF, abs=1e-10)


class TestSlopeGrid:
    def test_regression_pin(self):
        # pinned bit for bit: the shared orbit kernel must not change grid values
        x = np.linspace(0.0, 1.0, 5)
        d = rng.digit_matrix(3, rng.STREAM_PAIR_WORDS, 4, 30, 2)
        y, ydx, ydg = slope_grid(2, 0.6, x, d, want_dgamma=True)
        assert y[1, 2] == pytest.approx(-4.0745692421585495, abs=0)
        assert y[0, 4] == pytest.approx(-2.996086999338868, abs=0)
        assert ydx[3, 1] == pytest.approx(5.005539348415592, abs=0)
        assert ydg[2, 3] == pytest.approx(11.95468828024025, abs=0)
        d = rng.digit_matrix(5, rng.STREAM_PAIR_WORDS, 3, 25, 3)
        y, ydx, ydg = slope_grid(3, 0.45, x, d)
        assert y[2, 1] == pytest.approx(0.8418136249693893, abs=0)
        assert ydx[0, 3] == pytest.approx(-0.7014623679951769, abs=0)
        assert ydg is None

    def test_rows_match_single_word_evaluators(self):
        p = params_for_gamma(3, 0.55)
        x = np.array([0.0, 0.31, 0.9])
        d = rng.digit_matrix(8, rng.STREAM_PAIR_WORDS, 2, 35, 3)
        y, ydx, ydg = slope_grid(3, p.gamma, x, d, want_dgamma=True)
        for i in range(2):
            word = DigitWord(tuple(int(t) for t in d[i]))
            for j, xj in enumerate(x):
                for grid, fn in ((y, eval_stable_slope), (ydx, eval_stable_slope_dx),
                                 (ydg, eval_stable_slope_dgamma)):
                    assert grid[i, j] == fn(p, word, float(xj), terms=35).value


class TestTailSoundness:
    def test_value_differences_within_tail(self):
        rnd = np.random.default_rng(4)
        p = Params(2, 0.8)
        word = DigitWord(tail_seed=5)
        for _ in range(10):
            x = float(rnd.uniform(0, 1))
            n1 = int(rnd.integers(3, 30))
            n2 = n1 + int(rnd.integers(1, 40))
            for fn in (eval_stable_slope, eval_stable_slope_dx, eval_stable_slope_dgamma):
                a = fn(p, word, x, terms=n1)
                b = fn(p, word, x, terms=n2)
                assert abs(a.value - b.value) <= a.tail_bound * (1 + 1e-9) + 1e-15

    def test_tail_decreases_with_terms(self):
        p = Params(3, 0.6)
        word = DigitWord((1, 2))
        tails = [eval_stable_slope(p, word, 0.2, terms=n).tail_bound for n in range(1, 25)]
        assert all(b > a for b, a in zip(tails, tails[1:]))

    def test_weierstrass_partial_sums(self):
        p = Params(2, 0.9)
        a = eval_weierstrass(p, COSINE, 0.31, terms=40)
        b = eval_weierstrass(p, COSINE, 0.31, terms=220)
        assert abs(a.value - b.value) <= a.tail_bound * (1 + 1e-9)


class TestMinimalTerms:
    def test_tolerance_equal_to_a_tail_gives_that_count(self):
        rnd = np.random.default_rng(8)
        psi = PhiSpec(sine_coeffs=((2, 1.5),), constant=0.5)
        for _ in range(200):
            b = int(rnd.integers(2, 12))
            lam = float(rnd.uniform(1.0 / b, 1.0))
            n = int(rnd.integers(0, 60))
            p, word, x = Params(b, lam), DigitWord(tail_seed=1), 0.3
            g = p.gamma
            graph = eval_weierstrass(p, COSINE, x, abs_tol=tail_bound_geometric(lam, 1.0, n))
            assert graph.terms_used == n
            # the word-series evaluators use at least one term
            for fn, tol in (
                (eval_stable_slope, tail_bound_slope(g, n)),
                (eval_stable_slope_dx, tail_bound_slope_dx(b, g, n)),
                (eval_stable_slope_dgamma, tail_bound_slope_dgamma(g, n)),
            ):
                assert fn(p, word, x, abs_tol=tol).terms_used == max(1, n)
            fiber = eval_fiber_sum(p, psi, word, x, abs_tol=tail_bound_geometric(g, 1.5, n))
            assert fiber.terms_used == max(1, n)


class TestDigitWord:
    def test_tail_policies(self):
        w = DigitWord((1, 0), tail_seed=None)
        assert list(w.digit_array(6, 2)) == [1, 0, 0, 0, 0, 0]
        r = DigitWord((1, 0), tail_seed=3)
        arr = r.digit_array(40, 2)
        assert list(arr[:2]) == [1, 0]
        assert arr[2:].max() >= 1  # random tail is not all zeros at this depth

    def test_shift_consistency_with_random_tail(self):
        r = DigitWord((1, 0, 1), tail_seed=9)
        full = list(r.digit_array(30, 2))
        assert list(r.shifted(2).digit_array(28, 2)) == full[2:]
        assert list(r.shifted(5).digit_array(25, 2)) == full[5:]

    def test_negative_digit_rejected(self):
        with pytest.raises(ValueError):
            DigitWord((-1,))

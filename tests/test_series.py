"""Core series evaluators against trivial values and high-precision oracles.

Frozen reference values were computed by the mpmath partial-sum oracles
defined below; each test re-runs its oracle so the constants cannot drift.
"""

import math
import sys
from functools import partial

import mpmath as mp
import numpy as np
import pytest

from weierdim import (
    COSINE,
    COSINE_DERIV,
    DigitWord,
    Params,
    PhiSpec,
    eval_orbit_sum,
    eval_weierstrass,
    orbit_tail,
    rng,
    slope_grid,
)
from weierdim.measures import sample_graph_lift, sample_sbr, sample_transversal
from weierdim.parallel import WorkBudgetError
from weierdim.transversality import TangencyQuery, empirical_delta, two_var_delta
from weierdim.series import (
    _MAX_TERMS,
    FOUR_PI_SQ,
    _orbit_sums,
    _prefix_states,
    orbit_lipschitz,
    _terms_for,
    tail_bound_geometric,
)

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


def parent_oscillating(phi, x):
    """PhiSpec.oscillating as first written: x * 0.0 plus a * f(2 pi k x), cos terms first."""
    total = x * 0.0
    for k, a in phi.cosine_coeffs:
        total = total + a * np.cos(TWO_PI * k * x)
    for k, a in phi.sine_coeffs:
        total = total + a * np.sin(TWO_PI * k * x)
    return total


def random_spec(rnd, case) -> PhiSpec:
    """A trig polynomial of up to three cos and three sin harmonics; every third case gives
    one coefficient exactly 1.0 and every other case a constant."""
    coeffs = [[(int(k), float(a)) for k, a in zip(rnd.integers(1, 9, size=int(rnd.integers(0, 4))),
                                                  rnd.normal(size=3))] for _ in range(2)]
    if case % 3 == 0 and coeffs[case % 2]:
        coeffs[case % 2][-1] = (coeffs[case % 2][-1][0], 1.0)
    constant = float(rnd.normal()) if case % 2 else 0.0
    return PhiSpec(cosine_coeffs=tuple(coeffs[0]), sine_coeffs=tuple(coeffs[1]), constant=constant)


class TestPhi:
    def test_keeps_the_parent_bits(self):
        # eval keeps every bit; oscillating too, up to the sign of a zero (+ 0.0 removes it)
        rnd = np.random.default_rng(41)
        x = np.concatenate([rnd.uniform(-2.0, 2.0, 300), [0.0, -0.0, 0.25, -0.5, 0.5, 1.0]])
        for case in range(400):
            phi = random_spec(rnd, case)
            for xs in (x, x.reshape(2, -1), float(x[case % x.size]), -0.0):
                got, ref = phi.oscillating(xs), parent_oscillating(phi, xs)
                assert type(got) is type(ref) and np.shape(got) == np.shape(xs), (phi, xs)
                assert np.asarray(got + 0.0).tobytes() == np.asarray(ref + 0.0).tobytes(), phi
                assert (np.asarray(phi.eval(xs)).tobytes()
                        == np.asarray(ref + phi.constant).tobytes()), phi

    def test_no_terms_give_zeros_of_the_shape_of_x(self):
        for x in (0.3, np.linspace(0.0, 1.0, 7), np.ones((3, 4))):
            for value in (PhiSpec().oscillating(x), PhiSpec().eval(x)):
                assert np.shape(value) == np.shape(x) and not np.any(value)

    def test_classic_values(self):
        assert COSINE.eval(0.0) == pytest.approx(1.0, abs=1e-15)
        assert COSINE.eval(0.25) == pytest.approx(0.0, abs=1e-15)
        assert COSINE.derivative().eval(0.25) == pytest.approx(-TWO_PI, abs=1e-12)

    def test_periodicity(self):
        phi = PhiSpec(cosine_coeffs=((1, 0.3), (3, -0.7)), sine_coeffs=((2, 1.1),), constant=0.4)
        for x in (0.0, 0.13, 0.77, -0.4):
            assert phi.eval(x) == pytest.approx(phi.eval(x + 1.0), abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        phi = PhiSpec(cosine_coeffs=((1, 0.5),), sine_coeffs=((2, -0.25),), constant=2.0)
        h = 1e-6
        for x in (0.1, 0.37, 0.62):
            fd = (phi.eval(x + h) - phi.eval(x - h)) / (2 * h)
            assert phi.derivative().eval(x) == pytest.approx(fd, abs=1e-7)

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
        # subnormal tails underflow and are not monotone in the term count
        for tol in (0.0, -1e-9, math.nan, 1.6e-319):
            with pytest.raises(ValueError, match="abs_tol"):
                eval_weierstrass(Params(2, 0.9), COSINE, 0.3, abs_tol=tol)

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

    def test_non_finite_scalar_rejected(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                eval_weierstrass((2, 0.9), COSINE, x)

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
            assert eval_orbit_sum(p, DigitWord(), 0.0).value == 0.0

    def test_against_reference_sum(self):
        assert y_oracle(2, 0.6, 0.0, [1, 0, 0], 150) == pytest.approx(Y_REF, abs=1e-15)
        p = params_for_gamma(2, 0.6)
        sv = eval_orbit_sum(p, DigitWord((1, 0, 0)), 0.0, abs_tol=1e-11)
        assert sv.value == pytest.approx(Y_REF, abs=1e-10)

    def test_monte_carlo_mean_near_zero(self):
        s = sample_transversal(Params(2, 0.95), 0.3, 100_000, seed=11)
        se = s.points.std(ddof=1) / math.sqrt(s.count)
        assert abs(s.points.mean()) < 4 * se

    def test_digit_shift_identity(self):
        p = Params(3, 0.8)
        word = DigitWord((2, 1, 0, 2))
        x, n = 0.77, 60
        lhs = eval_orbit_sum(p, word, x, terms=n).value
        head = TWO_PI * p.gamma * math.sin(TWO_PI * (x + 2) / 3)
        tail = DigitWord(word.digits[1:])  # a zero-tail word: its shift drops the first digit
        rhs = head + p.gamma * eval_orbit_sum(p, tail, (x + 2) / 3, terms=n - 1).value
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_bad_digit_for_base(self):
        p = Params(2, 0.9)
        with pytest.raises(ValueError):
            eval_orbit_sum(p, DigitWord((2,)), 0.0)


class TestSlopeDerivatives:
    def test_dx_all_zero_closed_form(self):
        p = params_for_gamma(2, 0.6)
        r = 0.6 / 2
        sv = eval_orbit_sum(p, DigitWord(), 0.0, "Ydx", abs_tol=1e-12)
        assert abs(sv.value - 4 * math.pi ** 2 * r / (1 - r)) <= sv.tail_bound + 1e-12

    def test_dx_matches_finite_difference(self):
        p = params_for_gamma(2, 0.7)
        word = DigitWord((1, 0, 1, 0))
        h = 1e-6
        fd = (
            eval_orbit_sum(p, word, 0.3 + h, abs_tol=1e-13).value
            - eval_orbit_sum(p, word, 0.3 - h, abs_tol=1e-13).value
        ) / (2 * h)
        an = eval_orbit_sum(p, word, 0.3, "Ydx", abs_tol=1e-12).value
        assert an == pytest.approx(fd, abs=1e-5)

    def test_dx_against_reference_sum(self):
        word = DigitWord(tail_seed=7)
        digits = list(word.digit_array(100, 3))
        assert ydx_oracle(3, 0.5, 0.1, digits, 100) == pytest.approx(YDX_REF, abs=1e-15)
        sv = eval_orbit_sum(params_for_gamma(3, 0.5), word, 0.1, "Ydx", abs_tol=1e-11)
        assert sv.value == pytest.approx(YDX_REF, abs=1e-10)

    def test_dgamma_all_zero(self):
        p = params_for_gamma(2, 0.6)
        assert eval_orbit_sum(p, DigitWord(), 0.0, "Ydgamma").value == 0.0

    def test_dgamma_matches_finite_difference(self):
        word = DigitWord((0, 1, 1))
        g, h = 0.65, 1e-6
        fd = (
            eval_orbit_sum(params_for_gamma(2, g + h), word, 0.4, abs_tol=1e-13).value
            - eval_orbit_sum(params_for_gamma(2, g - h), word, 0.4, abs_tol=1e-13).value
        ) / (2 * h)
        an = eval_orbit_sum(params_for_gamma(2, g), word, 0.4, "Ydgamma", abs_tol=1e-12).value
        assert an == pytest.approx(fd, abs=1e-5)

    def test_dgamma_against_reference_sum(self):
        word = DigitWord(tail_seed=11)
        digits = list(word.digit_array(100, 4))
        assert ydg_oracle(4, 0.3, 0.2, digits, 100) == pytest.approx(YDG_REF, abs=1e-15)
        sv = eval_orbit_sum(params_for_gamma(4, 0.3), word, 0.2, "Ydgamma", abs_tol=1e-11)
        assert sv.value == pytest.approx(YDG_REF, abs=1e-10)


class TestFiberSum:
    def test_constant_psi_geometric(self):
        p = params_for_gamma(2, 0.55)
        sv = eval_orbit_sum(p, DigitWord((1, 0)), 0.2, "S", PhiSpec(constant=3.0), abs_tol=1e-12)
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
            y = eval_orbit_sum(p, word, x, abs_tol=1e-10)
            s = eval_orbit_sum(p, word, x, "S", COSINE_DERIV, abs_tol=1e-10)
            assert abs(y.value + p.gamma * s.value) <= y.tail_bound + p.gamma * s.tail_bound + 1e-12

    def test_against_reference_sum(self):
        psi = PhiSpec(sine_coeffs=((2, 1.0),))
        assert s_oracle(2, 0.55, 0.37, [1, 1, 0], 120) == pytest.approx(S_REF, abs=1e-15)
        p = params_for_gamma(2, 0.55)
        sv = eval_orbit_sum(p, DigitWord((1, 1, 0)), 0.37, "S", psi, abs_tol=1e-11)
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
                for grid, what in ((y, "Y"), (ydx, "Ydx"), (ydg, "Ydgamma")):
                    assert grid[i, j] == eval_orbit_sum(p, word, float(xj), what, terms=35).value


def _reference_slope_grid(b, gamma, x, digits, want_dgamma=False):
    """slope_grid with one start per (word, point): every row steps from x, sharing no prefix."""
    want = ("Y", "Ydx", "Ydgamma") if want_dgamma else ("Y", "Ydx")
    u = np.broadcast_to(x, (digits.shape[0], x.size))
    out = _orbit_sums(u, b, gamma, digits.T[:, :, None], want)
    return out["Y"], out["Ydx"], out.get("Ydgamma")


class TestSharedPrefixes:
    """Words that share first digits share those orbit steps, with the bits of the per-row path."""

    def test_matches_per_row_reference(self):
        rnd = np.random.default_rng(23)
        for case in range(120):
            b, depth = int(rnd.integers(2, 6)), int(rnd.integers(1, 41))
            rows = int(rnd.integers(1, b)) if case % 5 == 0 else int(rnd.integers(1, 301))
            digits = rnd.integers(0, b, size=(rows, depth))
            gammas = rnd.uniform(1.0 / b + 0.01, 0.99, size=int(rnd.integers(1, 4)))
            gamma = float(gammas[0]) if case % 2 else gammas
            x = rnd.uniform(0.0, 1.0, size=int(rnd.integers(1, 12)))
            want_dgamma = bool(case % 4 < 2)
            got = slope_grid(b, gamma, x, digits, want_dgamma)
            assert (got[2] is None) != want_dgamma
            for grid, one in zip(got, _reference_slope_grid(b, gamma, x, digits, want_dgamma)):
                assert grid is one is None or np.array_equal(grid, one), (case, b, depth, rows)

    @pytest.mark.parametrize("gamma", (0.6, np.array([0.55, 0.7, 0.93])))
    def test_caller_tree_left_intact(self, gamma):
        # the transversal sampler's tasks share one tree: a call only reads it, and a
        # call without one builds and drops its own, with the same bits
        d = rng.digit_matrix(4, rng.STREAM_PAIR_WORDS, 200, 25, 3)
        want = ("Y", "Ydx", "Ydgamma", "S")
        tree = _prefix_states(0.3, 3, gamma, 200, 25, want, COSINE_DERIV)
        assert tree.levels == 4
        before = tree.u.tobytes(), {k: v.tobytes() for k, v in tree.acc.items()}
        calls = [_orbit_sums(0.3, 3, gamma, d.T, want, COSINE_DERIV, rows=200, prefixes=tree)
                 for _ in range(2)]
        calls.append(_orbit_sums(0.3, 3, gamma, d.T, want, COSINE_DERIV, rows=200))
        assert (tree.u.tobytes(), {k: v.tobytes() for k, v in tree.acc.items()}) == before
        for key in want:
            assert calls[0][key].tobytes() == calls[1][key].tobytes() == calls[2][key].tobytes()

    def test_depth_zero_refused(self):
        with pytest.raises(ValueError, match="^depth must be an integer >= 1"):
            slope_grid(2, 0.6, np.linspace(0.0, 1.0, 4), np.zeros((3, 0), dtype=np.int64))


class TestGammaAxis:
    """A gamma vector shares each orbit point's sin and cos; every gamma's sums keep
    the bits of a call with that gamma alone."""

    gammas = np.array([0.55, 0.6, 0.6, 0.7, 0.93])

    @pytest.mark.parametrize("start", ("grid", "shared", "per-row"))
    def test_orbit_sums_match_scalar_calls(self, start):
        d = rng.digit_matrix(2, rng.STREAM_PAIR_WORDS, 40, 25, 3)
        u, cols = {"grid": (np.broadcast_to(np.linspace(0.0, 1.0, 7), (40, 7)), d.T[:, :, None]),
                   "shared": (0.3, d.T), "per-row": (np.full(40, 0.3), d.T)}[start]
        want = ("Y", "Ydx", "Ydgamma", "S")
        rows = 40 if start == "shared" else 0

        def sums(gamma):  # a shared start gathers its rows' first steps from the gamma's tree
            tree = _prefix_states(u, 3, gamma, rows, 25, want, COSINE_DERIV) if rows else None
            return _orbit_sums(u, 3, gamma, cols, want, COSINE_DERIV, rows=rows, prefixes=tree)

        got = sums(self.gammas)
        for k, g in enumerate(self.gammas.tolist()):
            one = sums(g)
            for key in want:
                assert got[key][k].tobytes() == one[key].tobytes(), (start, g, key)

    def test_slope_grid_matches_scalar_calls(self):
        x = np.linspace(0.0, 1.0, 500)
        d = rng.digit_matrix(6, rng.STREAM_PAIR_WORDS, 30, 20, 3)
        grids = slope_grid(3, self.gammas, x, d, want_dgamma=True)
        for k, g in enumerate(self.gammas.tolist()):
            for grid, one in zip(grids, slope_grid(3, g, x, d, want_dgamma=True)):
                assert grid.shape == (5, 30, 500)
                assert grid[k].tobytes() == one.tobytes()


def parent_orbit_sums(u, b, gamma, columns, psi):
    """The four-branch step that _orbit_sums' one step body replaced, written out as the
    reference: all four sums, one start per row (each column broadcasts against u)."""
    u = np.array(u, dtype=np.float64)
    lead = np.shape(gamma)
    gamma = np.reshape(gamma, lead + (1,) * u.ndim) if lead else gamma
    sy, sdx, sdg, ss = (np.zeros(lead + u.shape) for _ in range(4))
    g, r, n = 1.0, 1.0, 0
    for digit in columns:
        n += 1
        u += digit
        u /= b
        ss += g * parent_oscillating(psi, u)
        sin_u = np.sin(TWO_PI * u)
        sdg += (n * g) * sin_u
        g *= gamma
        sy += g * sin_u
        r *= gamma / b
        sdx += r * np.cos(TWO_PI * u)
    return {"Y": sy * TWO_PI, "Ydx": sdx * FOUR_PI_SQ, "Ydgamma": sdg * TWO_PI,
            "S": ss * 1.0 + psi.constant / (1.0 - gamma)}


class TestStepBody:
    """Every row of _ORBIT_SUMS, alone or with the others, keeps the bits of the parent's
    four-branch step, for shared and per-row starts and a scalar or 1-D gamma."""

    psis = {"cos-deriv": COSINE_DERIV, "sin2": PhiSpec(sine_coeffs=((2, 1.0),)),
            "harmonics": PhiSpec(cosine_coeffs=((1, 0.3), (3, -1.25)),
                                 sine_coeffs=((2, 1.0), (5, 0.7)), constant=0.4)}

    @pytest.mark.parametrize("psi", psis, ids=str)
    @pytest.mark.parametrize("start", ("per-row", "grid", "shared", "shared-grid"))
    def test_matches_parent_step(self, psi, start):
        rnd, psi = np.random.default_rng(53), self.psis[psi]
        for case in range(24):
            b, depth, rows = int(rnd.integers(2, 6)), int(rnd.integers(1, 30)), 40
            digits = rnd.integers(0, b, size=(rows, depth))
            if case % 4 == 3 and start in ("per-row", "grid"):  # rows that share no tree
                digits[rnd.random(digits.shape) < 0.1] = b + 1
                digits[rnd.random(digits.shape) < 0.05] = -1
            gamma = rnd.uniform(1.0 / b + 0.01, 0.99, size=3)
            gamma = float(gamma[0]) if case % 2 else gamma
            x = rnd.uniform(0.0, 1.0, size=5)
            u, cols, shared = {"per-row": (rnd.uniform(0.0, 1.0, size=rows), digits.T, 0),
                               "grid": (np.tile(x, (rows, 1)), digits.T[:, :, None], 0),
                               "shared": (float(x[0]), digits.T, rows),
                               "shared-grid": (x, digits.T[:, :, None], rows)}[start]
            ref = parent_orbit_sums(np.broadcast_to(u, cols.shape[1:2] + np.shape(u)[-1:])
                                    if shared else u, b, gamma, cols, psi)

            def sums(want):  # a shared start gathers its rows' first steps from want's tree
                tree = _prefix_states(u, b, gamma, shared, depth, want, psi) if shared else None
                return _orbit_sums(u, b, gamma, cols, want, psi, rows=shared, prefixes=tree)

            every = sums(tuple(ref))
            for what in ref:
                alone = sums((what,))[what]
                for got in (every[what], alone):
                    assert got.tobytes() == ref[what].tobytes(), (case, start, what)


class TestTailSoundness:
    def test_value_differences_within_tail(self):
        rnd = np.random.default_rng(4)
        p = Params(2, 0.8)
        word = DigitWord(tail_seed=5)
        for _ in range(10):
            x = float(rnd.uniform(0, 1))
            n1 = int(rnd.integers(3, 30))
            n2 = n1 + int(rnd.integers(1, 40))
            for what in ("Y", "Ydx", "Ydgamma"):
                a = eval_orbit_sum(p, word, x, what, terms=n1)
                b = eval_orbit_sum(p, word, x, what, terms=n2)
                assert abs(a.value - b.value) <= a.tail_bound * (1 + 1e-9) + 1e-15

    def test_tail_decreases_with_terms(self):
        p = Params(3, 0.6)
        word = DigitWord((1, 2))
        tails = [eval_orbit_sum(p, word, 0.2, terms=n).tail_bound for n in range(1, 25)]
        assert all(b > a for b, a in zip(tails, tails[1:]))

    def test_weierstrass_partial_sums(self):
        p = Params(2, 0.9)
        a = eval_weierstrass(p, COSINE, 0.31, terms=40)
        b = eval_weierstrass(p, COSINE, 0.31, terms=220)
        assert abs(a.value - b.value) <= a.tail_bound * (1 + 1e-9)


class TestOrbitTail:
    """The table's tails keep the bits of the closed forms they replaced, written out here."""

    def test_matches_closed_forms(self):
        rnd = np.random.default_rng(31)
        psi = PhiSpec(cosine_coeffs=((1, 0.75),), sine_coeffs=((3, -2.0),), constant=4.0)
        subnormal = 0
        for case in range(3000):
            b = int(rnd.integers(2, 12))
            lam = float(rnd.uniform(1.0 / b, 1.0))
            if case % 5 == 1:  # gamma just above 1/b
                lam = float(np.nextafter(1.0, 0.0)) - float(rnd.uniform(0.0, 1e-9))
            elif case % 5 == 2:  # gamma just below 1
                lam = 1.0 / b + float(rnd.uniform(1e-15, 1e-9))
            g = Params(b, lam).gamma
            r = g / b
            n = [int(rnd.integers(0, 200)), int(rnd.integers(0, _MAX_TERMS + 1)), _MAX_TERMS,
                 # at the edge of underflow, where the tails are subnormal
                 min(_MAX_TERMS, int(-708 / math.log(g)) + int(rnd.integers(-5, 40)))][case % 4]
            expect = {
                "Y": TWO_PI * g ** (n + 1) / (1.0 - g),
                "Ydx": FOUR_PI_SQ * r ** (n + 1) / (1.0 - r),
                "Ydgamma": TWO_PI * g ** n * ((n + 1) - n * g) / (1.0 - g) ** 2,
                "S": 2.75 * g ** n / (1.0 - g),
            }
            for what, ref in expect.items():
                got = orbit_tail(what, b, g, psi)(n)
                assert got.hex() == ref.hex(), (what, b, lam, n)
                subnormal += 0.0 < ref < sys.float_info.min
        assert subnormal >= 500

    def test_unknown_sum_refused_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("series work before the name check")

        monkeypatch.setattr("weierdim.series._orbit_sums", no_work)
        monkeypatch.setattr(DigitWord, "digit_array", no_work)
        for what in ("y", "s", "f", "Yx", ""):
            with pytest.raises(ValueError, match="^what must be one of Y, Ydx, Ydgamma, S"):
                eval_orbit_sum(Params(2, 0.9), DigitWord(), 0.3, what)
            with pytest.raises(ValueError, match="^what must be one of"):
                orbit_tail(what, 2, 0.6)


class TestOrbitLipschitz:
    """orbit_lipschitz bounds how far each orbit sum, truncated at any depth, moves with x."""

    def test_bounds_every_truncated_sum(self):
        rnd = np.random.default_rng(41)
        tightest = dict.fromkeys(("Y", "Ydx", "Ydgamma", "S"), 0.0)
        for case in range(400):
            b = 10 if case % 8 == 0 else int(rnd.integers(2, 11))
            g = 0.99 if case % 6 == 0 else float(rnd.uniform(1.0 / b + 0.01, 0.99))
            depth = int(rnd.integers(1, 41))
            digits = rnd.integers(0, b, size=(3, depth))
            x = np.concatenate([[0.0, 1.0], rnd.uniform(0.0, 1.0, size=4)])
            # close points inside [0, 1]: right of x = 0, left of x = 1
            near = x + np.array([1, -1, 1, -1, 1, -1]) * 10.0 ** rnd.uniform(-7, -2, size=6)
            psi = random_spec(rnd, case)
            sums = []
            for at in (x, near):
                y, ydx, ydg = slope_grid(b, g, at, digits, want_dgamma=True)
                s = _orbit_sums(at, b, g, digits.T[:, :, None], ("S",), psi, rows=3)["S"]
                sums.append(dict(zip(tightest, (y, ydx, ydg, s))))
            for what in tightest:
                moved = np.abs(sums[0][what] - sums[1][what])
                room = orbit_lipschitz(what, b, g, psi) * np.abs(x - near)
                assert np.all(moved <= room + 1e-12), (what, b, g, depth)  # 1e-12: rounding
                ratio = moved / np.maximum(room, 1e-300)
                tightest[what] = max(tightest[what], float(ratio.max()))
        # and close: where every term's derivative is near its sup, the bound is all but met
        assert all(t > 0.99 for t in tightest.values())


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
            tol = tail_bound_geometric(lam, 1.0, n)
            graph = eval_weierstrass(p, COSINE, x, abs_tol=tol)
            assert graph.terms_used == n
            assert graph.tail_bound <= tol
            # the orbit sums use at least one term
            for what in ("Y", "Ydx", "Ydgamma", "S"):
                tol = orbit_tail(what, b, g, psi)(n)
                assert eval_orbit_sum(p, word, x, what, psi, abs_tol=tol).terms_used == max(1, n)


def _stepping_terms(abs_tol, tail, ratio, coef, shift):
    """The earlier term search, kept as the reference: start from the
    closed-form estimate of coef * ratio^(n+shift) / (1-ratio) and step."""
    n = 0
    target = abs_tol * (1.0 - ratio) / coef if coef != 0.0 else math.inf
    if target < ratio ** shift:
        n = max(0, math.ceil(math.log(target) / math.log(ratio)) - shift)
    while n > 0 and tail(n - 1) <= abs_tol:
        n -= 1
    while tail(n) > abs_tol:
        n += 1
    return n


class TestTermSearch:
    def test_matches_stepping_search(self):
        rnd = np.random.default_rng(17)
        cases = 0
        for _ in range(4500):
            b = int(rnd.integers(2, 12))
            lam = float(rnd.uniform(1.0 / b, 1.0))
            g, sup = 1.0 / (b * lam), float(rnd.uniform(0.1, 10.0))
            series = (  # (tail, ratio, coef, shift, least) as each evaluator used them
                (partial(tail_bound_geometric, lam, sup), lam, sup, 0, 0),
                (orbit_tail("Y", b, g), g, TWO_PI, 1, 1),
                (orbit_tail("Ydx", b, g), g / b, FOUR_PI_SQ, 1, 1),
                (orbit_tail("Ydgamma", b, g), g, TWO_PI, 1, 1),
                (orbit_tail("S", b, g, PhiSpec(cosine_coeffs=((1, sup),))), g, sup, 0, 1),
            )
            tail, ratio, coef, shift, least = series[int(rnd.integers(0, 5))]
            tie = tail(int(rnd.integers(0, 200)))
            tols = [10.0 ** rnd.uniform(-300, 1)]
            if tie >= 1e-300:
                tols += [tie, *(np.nextafter(tie, side) for side in (0.0, 1.0))]
                tols += [float(np.nextafter(t, side)) for t, side in zip(tols[2:], (0.0, 1.0))]
            for tol in map(float, tols):
                ref = max(least, _stepping_terms(tol, tail, ratio, coef, shift))
                assert _terms_for(tol, tail, least) == ref, (b, lam, sup, tol)
                cases += 1
        assert cases >= 20_000

    def test_budget_before_any_series_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("series work before the budget check")

        for target in ("series._graph_sum", "series._orbit_sums", "measures._orbit_sums",
                       "rng.digit_matrix", "rng.digit_columns"):
            monkeypatch.setattr(f"weierdim.{target}", no_work)
        monkeypatch.setattr(DigitWord, "digit_array", no_work)
        p, word, psi = Params(2, 0.5000001), DigitWord(), COSINE_DERIV
        over = _MAX_TERMS + 1  # an explicit count over the cap
        calls = (
            lambda: eval_weierstrass((2, 0.9999999), COSINE, 0.3, abs_tol=1e-12),
            lambda: eval_orbit_sum(p, word, 0.3),
            lambda: eval_orbit_sum(p, word, 0.3, "Ydgamma"),
            lambda: eval_orbit_sum(p, word, 0.3, "S", psi),
            lambda: eval_weierstrass((2, 0.9), COSINE, 0.3, terms=over),
            lambda: eval_orbit_sum(p, word, 0.3, terms=over),
            lambda: eval_orbit_sum(p, word, 0.3, "Ydx", terms=over),
            lambda: eval_orbit_sum(p, word, 0.3, "S", psi, terms=over),
            lambda: sample_transversal(p, 0.3, 10, depth=over),
            lambda: sample_sbr(p, count=10, depth=over),
            lambda: empirical_delta(2, 0.6, depth=over),
            lambda: two_var_delta(2, 0.05, depth=over),
            lambda: TangencyQuery(n=1, m=1, eps=0.5, delta=0.5, depth=over),
        )
        for call in calls:
            with pytest.raises(WorkBudgetError, match=str(_MAX_TERMS)):
                call()

    def test_graph_work_budget_before_any_series_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("series work before the budget check")

        for target in ("series._graph_sum", "series._frac_mod1", "rng.uniform_vector"):
            monkeypatch.setattr(f"weierdim.{target}", no_work)
        calls = (
            # about 3.2e6 terms per point at the 1e-9 tail
            lambda: sample_graph_lift(Params(2, 0.99999), COSINE, 10_000),
            lambda: eval_weierstrass((2, 0.99), COSINE, np.zeros(1_000_000)),
        )
        for call in calls:
            with pytest.raises(WorkBudgetError, match="term evaluations"):
                call()

    def test_graph_work_budget_is_terms_times_points(self, monkeypatch):
        p = Params(2, 0.6)
        terms = eval_weierstrass(p, COSINE, 0.3).terms_used
        monkeypatch.setattr("weierdim.series._MAX_TERM_POINTS", 10 * terms)
        assert sample_graph_lift(p, COSINE, 10).depth == terms
        assert eval_weierstrass(p, COSINE, np.zeros(10)).terms_used == terms
        with pytest.raises(WorkBudgetError, match=f"11 points x {terms} terms"):
            sample_graph_lift(p, COSINE, 11)
        with pytest.raises(WorkBudgetError, match=f"11 points x {terms} terms"):
            eval_weierstrass(p, COSINE, np.zeros(11))


class TestDigitWord:
    def test_tail_policies(self):
        w = DigitWord((1, 0), tail_seed=None)
        assert list(w.digit_array(6, 2)) == [1, 0, 0, 0, 0, 0]
        r = DigitWord((1, 0), tail_seed=3)
        arr = r.digit_array(40, 2)
        assert list(arr[:2]) == [1, 0]
        assert arr[2:].max() >= 1  # random tail is not all zeros at this depth

    def test_negative_digit_rejected(self):
        with pytest.raises(ValueError):
            DigitWord((-1,))

"""Lacunary series evaluation with rigorous truncation tails.

Evaluates the graph series f(x) = sum_n lam^n phi(b^n x + theta_n) and four
sums along the backward orbit u_n = (u_{n-1} + i_n)/b = x/b^n + i_1/b^n + ... + i_n/b
of a digit word (i_1, i_2, ...) over {0, .., b-1}, with gamma = 1/(b*lam):

    Y(x)        = 2 pi sum_{n>=1} gamma^n sin(2 pi u_n)        the stable slope
    Y_x(x)      = 4 pi^2 sum_{n>=1} (gamma/b)^n cos(2 pi u_n)  its x-derivative
    Y_gamma(x)  = 2 pi sum_{n>=1} n gamma^(n-1) sin(2 pi u_n)  its gamma-derivative
    S(x)        = sum_{n>=1} gamma^(n-1) psi(u_n)              the skew product's fiber sum

Each is a row of _ORBIT_SUMS (Y, Ydx, Ydgamma, S): a scale, a trig polynomial, a weight,
its tail and its x-slope.  _steps is the one step body for every row; _orbit_sums runs it
over digit columns, eval_orbit_sum evaluates one row, orbit_tail's one rule gives the row's
tail at coefficient scale * sup|polynomial|, and orbit_lipschitz bounds the x-derivative
of the row truncated at any depth.  Rows that all start at one x share their first
steps: _prefix_states runs every digit prefix's orbit once, over the most levels t <= depth
with b^t <= min(rows, _PREFIX_LEAVES), and each row gathers its prefix's orbit point
and partial sums by index.  The transversal sampler builds one tree per sample and
holds it while its pool tasks read it; a slope grid leaves its x block's tree to
_orbit_sums, which drops it right after the gather, before the remaining steps.
Every result carries an absolute bound on the omitted remainder, derived from
the closed-form tail, so truncation depth is always chosen from the requested
tolerance rather than a fixed count.

The orbit recurrence contracts, so it is numerically stable.  The graph
series arguments b^n x are reduced mod 1 in exact integer arithmetic (x is a
dyadic rational), so deep terms do not lose the fractional part to
floating-point cancellation.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Collection, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import rng
from .parallel import WorkBudgetError

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi ** 2
_MAX_TERMS = 10_000_000
_TAIL_TARGET = 1e-9  # series tail of the samplers' default depths
_MAX_TERM_POINTS = 1 << 30  # terms x points one graph-series evaluation may sum
_PREFIX_LEAVES = 1 << 16  # most digit prefixes of a shared-start tree: 1 MiB of u and Y


def _check_int(name: str, value, least: Optional[int] = None) -> int:
    """value as an int; a non-integral value, or one below least when given, is refused."""
    if int(value) != value or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Params:
    """Base/scale pair (b, lam) for one graph, with derived quantities.

    Requires integer b >= 2 and 1/b < lam < 1.  The contraction ratio of the
    stable direction is gamma = 1/(b*lam) and the self-affinity exponent is
    2 + log(lam)/log(b).
    """

    b: int
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "b", _check_int("base", self.b, 2))
        if not (1.0 / self.b < self.lam < 1.0):
            raise ValueError(
                f"lam must lie in (1/{self.b}, 1), got {self.lam!r}"
            )

    @property
    def gamma(self) -> float:
        return 1.0 / (self.b * self.lam)

    @property
    def affinity_dim(self) -> float:
        return 2.0 + math.log(self.lam) / math.log(self.b)


@dataclass(frozen=True)
class PhiSpec:
    """Z-periodic trigonometric polynomial.

    phi(x) = constant + sum a_k cos(2 pi k x) + sum c_k sin(2 pi k x), with
    integer frequencies k >= 1.  Derivatives and sup-norm bounds are exact,
    which is what makes the series tail bounds closed-form.
    """

    cosine_coeffs: tuple[tuple[int, float], ...] = ()
    sine_coeffs: tuple[tuple[int, float], ...] = ()
    constant: float = 0.0

    def __post_init__(self):
        for k, _ in (*self.cosine_coeffs, *self.sine_coeffs):
            _check_int("frequency", k, 1)

    def oscillating(self, x):
        """Trigonometric part only (no constant), cos terms first; scalars or arrays."""
        total = None
        for f, coeffs in ((np.cos, self.cosine_coeffs), (np.sin, self.sine_coeffs)):
            for k, a in coeffs:
                term = f(TWO_PI * k * x) if a == 1.0 else a * f(TWO_PI * k * x)  # 1.0 * t is t
                total = term if total is None else total + term
        return x * 0.0 if total is None else total

    def eval(self, x):
        return self.oscillating(x) + self.constant

    def derivative(self) -> "PhiSpec":
        cos = tuple((k, TWO_PI * k * a) for k, a in self.sine_coeffs)
        sin = tuple((k, -TWO_PI * k * a) for k, a in self.cosine_coeffs)
        return PhiSpec(cosine_coeffs=cos, sine_coeffs=sin, constant=0.0)

    def oscillating_sup(self) -> float:
        return sum(abs(a) for _, a in self.cosine_coeffs) + sum(
            abs(a) for _, a in self.sine_coeffs
        )

    def sup_bound(self) -> float:
        """Upper bound for sup |phi| (exact for a single term)."""
        return abs(self.constant) + self.oscillating_sup()


#: The classical choice phi(x) = cos(2 pi x).
COSINE = PhiSpec(cosine_coeffs=((1, 1.0),))

#: Its derivative, psi(x) = -2 pi sin(2 pi x), the default fiber function.
COSINE_DERIV = COSINE.derivative()


@dataclass(frozen=True)
class DigitWord:
    """Infinite digit word: an explicit finite prefix plus a tail policy.

    tail_seed None reproduces the all-zero tail (0, 0, ...); an integer seed
    selects a reproducible counter-based random tail.
    """

    digits: tuple[int, ...] = ()
    tail_seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(_check_int("digit", d, 0) for d in self.digits))
        if self.tail_seed is not None:
            object.__setattr__(self, "tail_seed", _check_int("tail_seed", self.tail_seed))

    def validate_base(self, b: int) -> None:
        b = _check_int("base", b, 2)
        if self.digits and max(self.digits) >= b:
            raise ValueError(f"word {self.digits} has digits >= base {b}")

    def digit_array(self, count: int, b: int) -> np.ndarray:
        """First `count` digits (1-based positions 1..count) for base b."""
        self.validate_base(b)
        head = np.asarray(self.digits[:count], dtype=np.int64)
        n_tail = count - len(head)
        if n_tail <= 0:
            return head
        if self.tail_seed is None:
            tail = np.zeros(n_tail, dtype=np.int64)
        else:
            tail = rng.digit_vector(self.tail_seed, rng.STREAM_WORD_TAIL, 1, n_tail, b)
        return np.concatenate([head, tail])


@dataclass(frozen=True)
class SeriesValue:
    """A value (or array of values) with an absolute bound on the omitted tail.

    tail_bound covers truncation only: the float rounding of the summed terms is
    not charged, and at tight tolerances it can exceed the bound, so
    |value - true sum| <= tail_bound is not guaranteed.
    """

    value: float | np.ndarray
    tail_bound: float
    terms_used: int

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")


def _terms_for(abs_tol: Optional[float], tail: Optional[Callable[[int], float]], least: int = 0,
               terms: Optional[int] = None, name: str = "terms") -> int:
    """Every term count: the explicit `terms` (an integer >= least), else the
    least n >= least with tail(n) <= abs_tol, for a decreasing tail.

    Either is refused over _MAX_TERMS before any series work.  A subnormal
    abs_tol is refused: tails that small underflow and are not monotone in n.
    """
    if terms is not None:
        terms = _check_int(name, terms, least)
        if terms > _MAX_TERMS:
            raise WorkBudgetError(f"{name} {terms} is over the cap of {_MAX_TERMS} terms")
        return terms
    if not (abs_tol >= sys.float_info.min):
        raise ValueError(f"abs_tol must be a positive normal float, got {abs_tol!r}")
    if tail(_MAX_TERMS) > abs_tol:
        raise WorkBudgetError(f"abs_tol {abs_tol!r} needs more than {_MAX_TERMS} terms")
    return bisect_left(range(_MAX_TERMS + 1), True, least, key=lambda n: tail(n) <= abs_tol)


def tail_bound_slope_dgamma(gamma: float, coef: float, n: int) -> float:
    """Tail of coef * sum_{k>n} k gamma^(k-1), summed in closed form."""
    return coef * gamma ** n * ((n + 1) - n * gamma) / (1.0 - gamma) ** 2


def tail_bound_geometric(ratio: float, coef: float, n: int) -> float:
    """Tail of coef * sum_{k>=n} ratio^k (the graph series and the fiber sum)."""
    return coef * ratio ** n / (1.0 - ratio)


def _frac_mod1(x):
    """Exact fractional part of x as (numerator, power-of-two denominator); an
    array must hold multiples of 2^-53 in [0, 1) and gets uint64 numerators."""
    if not isinstance(x, np.ndarray):
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x!r}")
        f = Fraction(x) % 1
        return f.numerator, f.denominator
    scaled = x * 2.0 ** 53
    if x.ndim != 1 or not np.all((x >= 0.0) & (x < 1.0) & (scaled == np.floor(scaled))):
        raise ValueError("an array x must be 1-D multiples of 2^-53 in [0, 1)")
    return scaled.astype(np.uint64), 2 ** 53


def _graph_sum(num, den: int, b: int, lam: float, phi: PhiSpec, n_terms: int, phases=None):
    """(sum_{n<n_terms} lam^n phi(b^n num/den + theta_n), lam^n_terms) for int or int-array num.

    Reducing mod den first keeps arguments exact: num = den sees phi(0), not phi(1.0).  An
    array's num * b may wrap mod 2^64 only where den divides 2^64."""
    acc = np.zeros(np.shape(num))
    lam_pow = 1.0
    b %= den
    for n in range(n_terms):
        num = num % den
        t = num / den
        if phases is not None and n < len(phases):
            t = (t + phases[n]) % 1.0
        acc += lam_pow * phi.eval(t)
        lam_pow *= lam
        num = num * b
    return acc, lam_pow


def _series_scale(p) -> tuple[int, float]:
    # The graph series converges for any lam in (0, 1); a plain (b, lam) pair
    # covers boundary scales that the Params invariant excludes.
    if isinstance(p, Params):
        return p.b, p.lam
    b, lam = p
    b = _check_int("base", b, 2)
    if not (0.0 < lam < 1.0):
        raise ValueError(f"lam must lie in (0, 1), got {lam!r}")
    return b, float(lam)


def _graph_terms(lam: float, phi: PhiSpec, points: int, abs_tol: Optional[float],
                 terms: Optional[int] = None) -> tuple[int, float]:
    """(n, tail(n)): the graph series' term count by _terms_for and its tail bound.

    n x points is refused over _MAX_TERM_POINTS before any series work."""
    tail = partial(tail_bound_geometric, lam, phi.sup_bound())
    n = _terms_for(abs_tol, tail, 0, terms)
    if n * points > _MAX_TERM_POINTS:
        raise WorkBudgetError(f"{points} points x {n} terms is over the budget of "
                              f"{_MAX_TERM_POINTS:.2e} term evaluations")
    return n, tail(n)


def eval_weierstrass(
    p,
    phi: PhiSpec,
    x,
    phases: Optional[Sequence[float]] = None,
    abs_tol: float = 1e-9,
    terms: Optional[int] = None,
) -> SeriesValue:
    """Evaluate f(x) = sum_{n>=0} lam^n phi(b^n x + theta_n).

    Parameters
    ----------
    p : Params, or a plain (b, lam) pair with any lam in (0, 1).
    x : a float, or a 1-D array of multiples of 2^-53 in [0, 1) (the points
        rng.uniform_vector draws); for an array the value is an array too.
    phases : optional per-term offsets theta_n; terms beyond the list use 0.
    abs_tol : requested bound on the omitted tail; the number of terms is the
        minimal N with sup|phi| * lam^N / (1 - lam) <= abs_tol.
    terms : explicit term count (at most _MAX_TERMS) overriding the tolerance-driven choice.
        Terms x points over _MAX_TERM_POINTS is refused with WorkBudgetError.

    The argument b^n x is reduced mod 1 exactly (integer arithmetic on the
    dyadic representation of x), so every summed term is accurate to rounding.
    The returned tail_bound covers the omitted terms only, not that rounding.
    """
    b, lam = _series_scale(p)
    n_terms, tail = _graph_terms(lam, phi, np.size(x), abs_tol, terms)
    acc, _ = _graph_sum(*_frac_mod1(x), b, lam, phi, n_terms, phases)
    return SeriesValue(acc if acc.ndim else float(acc), tail, n_terms)


_SIN = PhiSpec(sine_coeffs=((1, 1.0),))

#: The orbit sums by name: (scale, polynomial, weight, tail, slope).  Term n is scale *
#: polynomial(u_n) * weight(n, gamma^(n-1), gamma^n, (gamma/b)^n), None being the caller's psi;
#: tail(b, gamma, scale * sup|polynomial|, n) bounds the terms after the first n.  u_n moves by
#: dx / b^n, so term n's x-derivative is b^-n scale polynomial'(u_n) weight; slope(b, gamma,
#: scale * sup|polynomial'|) sums those bounds over every n >= 1 in closed form.
_ORBIT_SUMS = {
    "Y": (TWO_PI, _SIN, lambda n, g0, g, r: g,
          lambda b, g, c, n: tail_bound_geometric(g, c, n + 1), lambda b, g, c: c * g / (b - g)),
    "Ydx": (FOUR_PI_SQ, COSINE, lambda n, g0, g, r: r,
            lambda b, g, c, n: tail_bound_geometric(g / b, c, n + 1),
            lambda b, g, c: c * g / (b * b - g)),
    "Ydgamma": (TWO_PI, _SIN, lambda n, g0, g, r: n * g0,
                lambda b, g, c, n: tail_bound_slope_dgamma(g, c, n),
                lambda b, g, c: c * b / (b - g) ** 2),
    "S": (1.0, None, lambda n, g0, g, r: g0, lambda b, g, c, n: tail_bound_geometric(g, c, n),
          lambda b, g, c: c / (b - g)),
}


class _Prefixes(NamedTuple):
    """Every digit prefix's orbit point u and unscaled partial sums acc after `levels` steps,
    and the step body's weights there.  Prefix j has the base-b digits of j, step 1's digit
    most significant; u has shape (prefixes,) + the start's shape and each sum a leading
    gamma axis before it."""

    u: np.ndarray
    acc: dict
    weights: tuple
    levels: int


def _gamma_axes(gamma, ndim: int):
    """A 1-D gamma on a leading axis before ndim axes of orbit points; a scalar as it is."""
    lead = np.shape(gamma)
    return np.reshape(gamma, lead + (1,) * ndim) if lead else gamma


def _steps(u: np.ndarray, b: int, gamma, columns: Iterable, acc: dict,
           psi: Optional[PhiSpec], weights: tuple) -> tuple:
    """The one step body, once per digit column: u <- (u + digit) / b in place, then each sum
    of acc gains weight * polynomial(u), evaluating each distinct polynomial once (Y and
    Ydgamma share one sin).  weights are n, gamma^n and (gamma/b)^n after step n, returned
    after the last column; gamma has its axes (_gamma_axes) against u."""
    polys = {}  # each distinct polynomial: the sums that read it
    for k in acc:
        polys.setdefault(_ORBIT_SUMS[k][1] or psi, []).append(k)
    n, g, r = weights
    for digit in columns:
        n += 1
        u += digit
        del digit  # free a sampler's column before the sums (enumerate would keep it)
        u /= b
        g0, g, r = g, g * gamma, r * (gamma / b)
        for poly, keys in polys.items():
            value = poly.oscillating(u)
            for k in keys:
                acc[k] += _ORBIT_SUMS[k][2](n, g0, g, r) * value
    return n, g, r


def _prefix_states(u, b: int, gamma, rows: int, depth: int, want: Collection[str],
                   psi: Optional[PhiSpec] = None) -> _Prefixes:
    """The _Prefixes of a start u shared by `rows` rows of `depth` digits, over the most
    levels t <= depth with b^t <= min(rows, _PREFIX_LEAVES): level by level, every prefix
    branches into one state per digit, and the step body runs on all states of the level."""
    u = np.array(u, dtype=np.float64)[None]
    gamma_axes, axis = _gamma_axes(gamma, u.ndim), np.ndim(gamma)
    acc = {k: np.zeros(np.shape(gamma) + u.shape) for k in want}
    weights, levels = (0, 1.0, 1.0), 0
    # each prefix's last digit, in the narrowest dtype: it adds to u exactly
    last = np.arange(b, dtype=np.min_scalar_type(b))
    while levels < depth and b ** (levels + 1) <= min(rows, _PREFIX_LEAVES):
        levels += 1
        u = np.repeat(u, b, axis=0)
        acc = {k: np.repeat(v, b, axis=axis) for k, v in acc.items()}
        digit = np.tile(last, len(u) // b).reshape((-1,) + (1,) * (u.ndim - 1))
        weights = _steps(u, b, gamma_axes, (digit,), acc, psi, weights)
    return _Prefixes(u, acc, weights, levels)


def _orbit_sums(
    u: np.ndarray,
    b: int,
    gamma,
    columns: Iterable,
    want: Collection[str],
    psi: Optional[PhiSpec] = None,
    rows: int = 0,
    prefixes: Optional[_Prefixes] = None,
) -> dict[str, np.ndarray]:
    """Weighted sums along the backward orbit u_n = (u_{n-1} + i_n)/b.

    u holds the start values x; columns yields the digits i_1, i_2, ... as
    arrays that broadcast against u (one digit column per orbit step).  want
    names the sums of _ORBIT_SUMS to return, truncated after the last column:

        "Y"        2 pi sum gamma^n sin(2 pi u_n)
        "Ydx"      4 pi^2 sum (gamma/b)^n cos(2 pi u_n)
        "Ydgamma"  2 pi sum n gamma^(n-1) sin(2 pi u_n)
        "S"        sum gamma^(n-1) psi(u_n), the constant of psi summed exactly

    A 1-D gamma stacks the sums on a leading axis, sharing each polynomial value.
    rows > 0 starts all `rows` rows at u (the transversal sampler's 0-d x, a
    slope grid's x points): each column then has one more leading axis than u,
    of length rows, and `prefixes` is the _prefix_states tree of this u, gamma,
    want and psi.  Each row's first prefixes.levels digits, all in 0..b-1,
    index its prefix's state, and every later column steps per row.  With no
    `prefixes`, columns is a sequence of digit columns; the tree is built from
    it and dropped as soon as every row has gathered its state.  A caller's
    tree is only read.

    Every path runs each cell through _steps in the same order, so the slope
    grids, samplers and single-word evaluators share their rounding.
    """
    u = np.array(u, dtype=np.float64)
    lead = np.shape(gamma)
    weights = (0, 1.0, 1.0)
    if rows:
        if prefixes is None:
            prefixes = _prefix_states(u, b, gamma, rows, len(columns), want, psi)
        columns = iter(columns)
        idx = np.zeros(rows, dtype=np.int64)  # each row's prefix: its first digits in base b
        for _ in range(prefixes.levels):
            idx *= b
            idx += next(columns).reshape(rows)
        u, weights = prefixes.u[idx], prefixes.weights
        acc = {k: np.take(v, idx, axis=len(lead)) for k, v in prefixes.acc.items()}
        del idx, prefixes  # a tree built here is freed now, before the remaining steps
    else:
        acc = {k: np.zeros(lead + u.shape) for k in want}
    gamma = _gamma_axes(gamma, u.ndim)
    _steps(u, b, gamma, columns, acc, psi, weights)
    for k, v in acc.items():
        v *= _ORBIT_SUMS[k][0]
    if "S" in acc:
        acc["S"] += psi.constant / (1.0 - gamma)
    return acc


def _orbit_row(what: str) -> tuple:
    """The _ORBIT_SUMS row of `what`; an unknown name is refused with ValueError."""
    if what not in _ORBIT_SUMS:
        raise ValueError(f"what must be one of {', '.join(_ORBIT_SUMS)}, got {what!r}")
    return _ORBIT_SUMS[what]


def orbit_tail(what: str, b: int, gamma: float,
               psi: PhiSpec = COSINE_DERIV) -> Callable[[int], float]:
    """n -> bound on the orbit sum `what` (a key of _ORBIT_SUMS) after its first n terms.

    psi is the polynomial of S; the slope sums do not read it.  An unknown
    `what` is refused with ValueError.
    """
    scale, poly, _, tail, _ = _orbit_row(what)
    return partial(tail, b, gamma, scale * (poly or psi).oscillating_sup())


def orbit_lipschitz(what: str, b: int, gamma: float, psi: PhiSpec = COSINE_DERIV) -> float:
    """Bound on sup |d/dx| of the orbit sum `what` truncated after any number of terms.

    So |f(x) - f(x')| <= orbit_lipschitz(...) |x - x'| for one word's truncated sum,
    and twice that for the difference of two words'.  S's constant does not move with x.
    """
    scale, poly, _, _, slope = _orbit_row(what)
    return slope(b, gamma, scale * (poly or psi).derivative().oscillating_sup())


def eval_orbit_sum(
    p: Params,
    word: DigitWord,
    x: float,
    what: str = "Y",
    psi: PhiSpec = COSINE_DERIV,
    abs_tol: float = 1e-9,
    terms: Optional[int] = None,
) -> SeriesValue:
    """The orbit sum `what` ("Y", "Ydx", "Ydgamma" or "S") at (x, word).

    It is truncated after n terms: `terms` if given, else the least n >= 1 with
    orbit_tail(what, ...)(n) <= abs_tol, which is also the returned tail bound;
    it covers the omitted terms only, not the float rounding of the summed ones.
    The vector (1, Y) spans the stable line at x for this word.  S sums the
    constant of psi in closed form (exactly constant/(1-gamma)), so only its
    oscillating part is truncated; with psi = COSINE_DERIV, Y = -gamma * S.
    """
    tail = orbit_tail(what, p.b, p.gamma, psi)
    n = _terms_for(abs_tol, tail, 1, terms)
    value = _orbit_sums(x, p.b, p.gamma, word.digit_array(n, p.b), (what,), psi)[what]
    return SeriesValue(float(value), tail(n), n)


def slope_grid(
    b: int,
    gamma,
    x: np.ndarray,
    digits: np.ndarray,
    want_dgamma: bool = False,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Vectorized slope series for many words over a grid of x.

    digits has shape (words, depth); x has shape (points,).  Returns arrays of
    shape (words, points), or (gammas, words, points) for a 1-D gamma: the
    slope, its x- and (optionally) gamma-derivatives, truncated at the full
    depth.  One _orbit_sums call with no pool: the estimators call it from
    their own pool tasks, one x block each, and each cell's arithmetic is
    elementwise, so the bits do not depend on the blocks.  Every word starts
    at x, so words with the same first digits share those steps in one
    _prefix_states tree, which _orbit_sums builds and drops once every word
    has gathered its prefix's state.  Digits outside
    0..b-1 are refused before any orbit work.
    """
    b = _check_int("base", b, 2)
    rows, depth = digits.shape
    _check_int("depth", depth, 1)  # a slope of no terms is not a truncated series
    if rows and (digits.min() < 0 or digits.max() >= b):
        raise ValueError(f"words have digits < 0 or >= base {b}")
    want = ("Y", "Ydx", "Ydgamma") if want_dgamma else ("Y", "Ydx")
    out = _orbit_sums(x, b, gamma, digits.T[:, :, None], want, rows=rows)
    return out["Y"], out["Ydx"], out.get("Ydgamma")

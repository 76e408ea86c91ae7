"""Lacunary series evaluation with rigorous truncation tails.

Evaluates the graph series f(x) = sum_n lam^n phi(b^n x + theta_n), the
stable-direction slope series

    Y(x) = 2 pi sum_{n>=1} gamma^n sin(2 pi (x/b^n + i_1/b^n + ... + i_n/b)),

its x- and gamma-derivatives, and the skew-product fiber sum

    S(x) = sum_{n>=1} gamma^{n-1} psi(x/b^n + i_1/b^n + ... + i_n/b),

where gamma = 1/(b*lam) and (i_1, i_2, ...) is a digit word over
{0, .., b-1}.  Every result carries an absolute bound on the omitted
remainder, derived from the closed-form geometric tail, so truncation depth
is always chosen from the requested tolerance rather than a fixed count.

The slope arguments follow the contracting recurrence u_n = (u_{n-1}+i_n)/b,
which is numerically stable.  The graph series arguments b^n x are reduced
mod 1 in exact integer arithmetic (x is a dyadic rational), so deep terms do
not lose the fractional part to floating-point cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Collection, Iterable, Optional, Sequence

import numpy as np

from . import rng

TWO_PI = 2.0 * math.pi
FOUR_PI_SQ = 4.0 * math.pi ** 2
_MAX_TERMS = 10_000_000


def _check_base(b) -> int:
    if int(b) != b or b < 2:
        raise ValueError(f"base must be an integer >= 2, got {b!r}")
    return int(b)


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
        object.__setattr__(self, "b", _check_base(self.b))
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
            if int(k) != k or k < 1:
                raise ValueError(f"frequencies must be integers >= 1, got {k!r}")

    def oscillating(self, x):
        """Trigonometric part only (no constant); accepts scalars or arrays."""
        total = x * 0.0
        for k, a in self.cosine_coeffs:
            total = total + a * np.cos(TWO_PI * k * x)
        for k, a in self.sine_coeffs:
            total = total + a * np.sin(TWO_PI * k * x)
        return total

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
    selects a reproducible counter-based random tail.  tail_offset shifts the
    tail indexing and exists so that shifted() stays exact for random tails.
    """

    digits: tuple[int, ...] = ()
    tail_seed: Optional[int] = None
    tail_offset: int = 0

    def __post_init__(self):
        for d in self.digits:
            if int(d) != d or d < 0:
                raise ValueError(f"digits must be nonnegative integers, got {d!r}")
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))

    def validate_base(self, b: int) -> None:
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
            tail = rng.digit_vector(
                self.tail_seed, rng.STREAM_WORD_TAIL,
                self.tail_offset + 1, n_tail, b,
            )
        return np.concatenate([head, tail])

    def shifted(self, k: int = 1) -> "DigitWord":
        """Drop the first k digits (the left shift sigma^k)."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if k <= len(self.digits):
            return DigitWord(self.digits[k:], self.tail_seed, self.tail_offset)
        return DigitWord((), self.tail_seed, self.tail_offset + k - len(self.digits))


@dataclass(frozen=True)
class SeriesValue:
    """A value (or array of values) with an absolute bound on the omitted tail."""

    value: float | np.ndarray
    tail_bound: float
    terms_used: int

    def __post_init__(self):
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be nonnegative")


def eval_phi(phi: PhiSpec, x: float) -> float:
    """Exact finite trigonometric sum phi(x)."""
    return float(phi.eval(x))


def eval_phi_prime(phi: PhiSpec, x: float) -> float:
    """Term-wise derivative phi'(x)."""
    return float(phi.derivative().eval(x))


def _terms_for(
    abs_tol: float, tail: Callable[[int], float], ratio: float, coef: float, shift: int
) -> int:
    """Least term count n >= 0 with tail(n) <= abs_tol, for a decreasing tail.

    The search starts from the closed-form estimate for the geometric tail
    coef * ratio^(n+shift) / (1-ratio), which tail equals or lies above.
    """
    if not (abs_tol > 0.0):
        raise ValueError(f"abs_tol must be positive, got {abs_tol!r}")
    n = 0
    target = abs_tol * (1.0 - ratio) / coef if coef != 0.0 else math.inf
    if target < ratio ** shift:
        n = max(0, math.ceil(math.log(target) / math.log(ratio)) - shift)
    while n > 0 and tail(n - 1) <= abs_tol:
        n -= 1
    while tail(n) > abs_tol:
        n += 1
        if n > _MAX_TERMS:
            raise ValueError("tolerance requires an unreasonable number of terms")
    return n


def tail_bound_slope(gamma: float, n: int) -> float:
    """Tail of 2 pi sum_{k>n} gamma^k."""
    return TWO_PI * gamma ** (n + 1) / (1.0 - gamma)


def tail_bound_slope_dx(b: int, gamma: float, n: int) -> float:
    """Tail of 4 pi^2 sum_{k>n} (gamma/b)^k."""
    r = gamma / b
    return FOUR_PI_SQ * r ** (n + 1) / (1.0 - r)


def tail_bound_slope_dgamma(gamma: float, n: int) -> float:
    """Tail of 2 pi sum_{k>n} k gamma^(k-1), summed in closed form."""
    return TWO_PI * gamma ** n * ((n + 1) - n * gamma) / (1.0 - gamma) ** 2


def tail_bound_geometric(ratio: float, coef: float, n: int) -> float:
    """Tail of coef * sum_{k>=n} ratio^k (the graph series and the fiber sum)."""
    return coef * ratio ** n / (1.0 - ratio)


def _frac_mod1(x):
    """Exact fractional part of x as (numerator, power-of-two denominator); an
    array must hold multiples of 2^-53 in [0, 1) and gets uint64 numerators."""
    if not isinstance(x, np.ndarray):
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
    b = _check_base(b)
    if not (0.0 < lam < 1.0):
        raise ValueError(f"lam must lie in (0, 1), got {lam!r}")
    return b, float(lam)


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
    terms : explicit term count overriding the tolerance-driven choice.

    The argument b^n x is reduced mod 1 exactly (integer arithmetic on the
    dyadic representation of x), so every summed term is accurate to rounding.
    """
    b, lam = _series_scale(p)
    sup = phi.sup_bound()
    tail = partial(tail_bound_geometric, lam, sup)
    n_terms = int(terms) if terms is not None else _terms_for(abs_tol, tail, lam, sup, 0)
    acc, lam_pow = _graph_sum(*_frac_mod1(x), b, lam, phi, n_terms, phases)
    return SeriesValue(acc if acc.ndim else float(acc), sup * lam_pow / (1.0 - lam), n_terms)


def _orbit_sums(
    u: np.ndarray,
    b: int,
    gamma: float,
    columns: Iterable,
    want: Collection[str],
    psi: Optional[PhiSpec] = None,
) -> dict[str, np.ndarray]:
    """Weighted sums along the backward orbit u_n = (u_{n-1} + i_n)/b.

    u holds the start values x; columns yields the digits i_1, i_2, ... as
    arrays that broadcast against u (one digit column per orbit step).  want
    names the sums to return, truncated after the last column:

        "y"        2 pi sum gamma^n sin(2 pi u_n)
        "ydx"      4 pi^2 sum (gamma/b)^n cos(2 pi u_n)
        "ydgamma"  2 pi sum n gamma^(n-1) sin(2 pi u_n)
        "s"        sum gamma^(n-1) psi(u_n), the constant of psi summed exactly

    Every caller accumulates in this one order, so the slope grids, samplers
    and single-word evaluators share their rounding.
    """
    u = np.array(u, dtype=np.float64)
    acc = {k: np.zeros_like(u) for k in want}
    sy, sdx, sdg, ss = map(acc.get, ("y", "ydx", "ydgamma", "s"))
    g = 1.0  # gamma^(n-1) before the update below, gamma^n after it
    r = 1.0  # (gamma/b)^n
    n = 0
    for digit in columns:
        n += 1
        u += digit
        del digit  # free a sampler's column before the sums (enumerate would keep it)
        u /= b
        if ss is not None:
            ss += g * psi.oscillating(u)
        if sy is not None or sdg is not None:
            sin_u = np.sin(TWO_PI * u)
        if sdg is not None:
            sdg += (n * g) * sin_u
        g *= gamma
        if sy is not None:
            sy += g * sin_u
        if sdx is not None:
            r *= gamma / b
            sdx += r * np.cos(TWO_PI * u)
    scale = {"y": TWO_PI, "ydx": FOUR_PI_SQ, "ydgamma": TWO_PI}
    out = {k: scale[k] * v for k, v in acc.items() if k != "s"}
    if ss is not None:
        out["s"] = ss + psi.constant / (1.0 - gamma)
    return out


def eval_stable_slope(
    p: Params,
    word: DigitWord,
    x: float,
    abs_tol: float = 1e-9,
    terms: Optional[int] = None,
) -> SeriesValue:
    """Slope of the strong-stable direction at (x, word).

    Returns 2 pi sum_{n=1}^{N} gamma^n sin(2 pi u_n) with the geometric tail
    bound 2 pi gamma^(N+1) / (1 - gamma).  The vector (1, value) spans the
    stable line at x for this word.
    """
    gamma = p.gamma
    tail = partial(tail_bound_slope, gamma)
    n = int(terms) if terms is not None else max(1, _terms_for(abs_tol, tail, gamma, TWO_PI, 1))
    y = _orbit_sums(x, p.b, gamma, word.digit_array(n, p.b), ("y",))["y"]
    return SeriesValue(float(y), tail(n), n)


def eval_stable_slope_dx(
    p: Params,
    word: DigitWord,
    x: float,
    abs_tol: float = 1e-9,
    terms: Optional[int] = None,
) -> SeriesValue:
    """x-derivative of the stable slope: 4 pi^2 sum (gamma/b)^n cos(2 pi u_n)."""
    b, gamma = p.b, p.gamma
    tail = partial(tail_bound_slope_dx, b, gamma)
    n = int(terms) if terms is not None else max(1, _terms_for(abs_tol, tail, gamma / b, FOUR_PI_SQ, 1))
    ydx = _orbit_sums(x, b, gamma, word.digit_array(n, b), ("ydx",))["ydx"]
    return SeriesValue(float(ydx), tail(n), n)


def eval_stable_slope_dgamma(
    p: Params,
    word: DigitWord,
    x: float,
    abs_tol: float = 1e-9,
    terms: Optional[int] = None,
) -> SeriesValue:
    """gamma-derivative of the stable slope: 2 pi sum n gamma^(n-1) sin(2 pi u_n)."""
    gamma = p.gamma
    # steps up from the slope-series estimate; the dgamma tail lies above it
    tail = partial(tail_bound_slope_dgamma, gamma)
    n = int(terms) if terms is not None else max(1, _terms_for(abs_tol, tail, gamma, TWO_PI, 1))
    ydg = _orbit_sums(x, p.b, gamma, word.digit_array(n, p.b), ("ydgamma",))["ydgamma"]
    return SeriesValue(float(ydg), tail(n), n)


def eval_fiber_sum(
    p: Params,
    psi: PhiSpec,
    word: DigitWord,
    x: float,
    abs_tol: float = 1e-9,
    terms: Optional[int] = None,
) -> SeriesValue:
    """Fiber sum S(x) = sum_{n>=1} gamma^(n-1) psi(u_n) of the skew product.

    The constant component of psi is summed in closed form (it contributes
    exactly constant/(1-gamma)), so only the oscillating part is truncated.
    With psi equal to the derivative of the graph's phi, the identity
    Y = -gamma * S holds.
    """
    gamma, sup = p.gamma, psi.oscillating_sup()
    tail = partial(tail_bound_geometric, gamma, sup)
    n = int(terms) if terms is not None else max(1, _terms_for(abs_tol, tail, gamma, sup, 0))
    s = _orbit_sums(x, p.b, gamma, word.digit_array(n, p.b), ("s",), psi)["s"]
    return SeriesValue(float(s), tail(n), n)


def default_depth(gamma: float, tail_target: float = 1e-9) -> int:
    """Truncation depth making the slope-series tail at most tail_target."""
    return max(1, _terms_for(tail_target, partial(tail_bound_slope, gamma), gamma, TWO_PI, 1))


def slope_grid(
    b: int,
    gamma: float,
    x: np.ndarray,
    digits: np.ndarray,
    want_dgamma: bool = False,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Vectorized slope series for many words over a grid of x.

    digits has shape (words, depth); x has shape (points,).  Returns arrays of
    shape (words, points): the slope, its x-derivative, and (optionally) its
    gamma-derivative, each truncated at the full depth.
    """
    u = np.broadcast_to(x, (digits.shape[0], x.size))
    want = ("y", "ydx", "ydgamma") if want_dgamma else ("y", "ydx")
    out = _orbit_sums(u, b, gamma, digits.T[:, :, None], want)
    return out["y"], out["ydx"], out.get("ydgamma")

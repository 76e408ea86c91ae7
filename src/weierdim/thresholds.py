"""Threshold functions and the critical scales of the graph dimension result.

transversality_defect (two-branch in the base) is strictly decreasing in lam
and its unique zero is the critical scale: for lam above it the stable
directions are transversal and the graph measure has full dimension.  The
almost-everywhere variant has its own defect function whose zero applies only
when the coefficient bound beta(lam) is large enough for the closed-form
double-root value; otherwise upper bounds come from verified star
certificates, from the generic double-root bound, or from monotonicity.

Root finding is plain bisection.  Monotonicity of every bracketed function is
known, so correctness of a bracket needs nothing beyond the sign change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .certificates import StarCertificate, search_certificate, verify_certificate
from .series import _check_base

#: Above this coefficient bound the double-root value is exactly 1/(1+sqrt(beta)).
CLOSED_FORM_BETA = 3.0 + math.sqrt(8.0)

#: (lambda0, k, eta, t) for the published certificate per base.
_BUILTIN_CERT_PARAMS = {
    2: (0.81, 4, 0.81, 0.62),
    3: (0.55, 4, 1.43398, 0.6061),
    4: (0.44, 3, -0.298, 0.569),
}


@dataclass(frozen=True)
class RootBracket:
    """Bisection bracket: f changes sign across [lo, hi], hi - lo <= tol."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    tol: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class DoubleRootBounds:
    """Bounds on the smallest positive double-root value for one beta."""

    beta: float
    lower: float
    upper: float
    method: str  # "closed-form" | "generic-bound" | "certificate"


@dataclass(frozen=True)
class AeCriticalBound:
    """Enclosure of the almost-everywhere critical scale for one base."""

    lo: float
    hi: float
    method: str  # "closed-form" | "certificate" | "generic-bound" | "monotone"
    bracket: Optional[RootBracket] = None
    certificate: Optional[StarCertificate] = None


def _check_lambda(b: int, lam: float, closed_top: bool = True) -> None:
    hi_ok = lam <= 1.0 if closed_top else lam < 1.0
    if not (1.0 / b < lam and hi_ok):
        top = "1]" if closed_top else "1)"
        raise ValueError(f"lam must lie in (1/{b}, {top}, got {lam!r}")


def transversality_defect(b: int, lam: float) -> float:
    """Decreasing function of lam whose unique zero is the critical scale.

    Negative value means the stable-slope transversality condition holds at
    this (b, lam).
    """
    b = _check_base(b)
    _check_lambda(b, lam)
    if b == 2:
        return (
            1.0 / (4.0 * lam ** 2 * (2.0 * lam - 1.0) ** 2)
            + 1.0 / (16.0 * lam ** 2 * (4.0 * lam - 1.0) ** 2)
            - 1.0 / (8.0 * lam ** 2)
            + math.sqrt(2.0) / (2.0 * lam)
            - 1.0
        )
    return (
        1.0 / (b * lam - 1.0) ** 2
        + 1.0 / (b ** 2 * lam - 1.0) ** 2
        - math.sin(math.pi / b) ** 2
    )


def _defect_gamma_base2(gamma: float) -> float:
    # shared with the base-2 case bounds; the worst case equals this expression
    return (
        gamma ** 4 / (1.0 - gamma) ** 2
        + gamma ** 4 / (4.0 * (2.0 - gamma) ** 2)
        - gamma ** 2 / 2.0
        + math.sqrt(2.0) * gamma
        - 1.0
    )


def transversality_defect_gamma(b: int, gamma: float) -> float:
    """The defect written in the contraction ratio gamma = 1/(b*lam).

    Satisfies transversality_defect_gamma(b, 1/(b*lam)) ==
    transversality_defect(b, lam) up to rounding.
    """
    b = _check_base(b)
    if not (1.0 / b < gamma < 1.0):
        raise ValueError(f"gamma must lie in (1/{b}, 1), got {gamma!r}")
    if b == 2:
        return _defect_gamma_base2(gamma)
    return (
        gamma ** 2 / (1.0 - gamma) ** 2
        + gamma ** 2 / (b - gamma) ** 2
        - math.sin(math.pi / b) ** 2
    )


def defect_majorant(b: int, lam: float) -> float:
    """Majorant H with defect < H/b^2; strictly decreasing in the base."""
    b = _check_base(b)
    _check_lambda(b, lam)
    return (
        1.0 / (lam - 1.0 / b) ** 2
        + 1.0 / (b * lam - 1.0 / b) ** 2
        + math.pi ** 4 / (3.0 * b ** 2)
        - math.pi ** 2
    )


def ae_defect(b: int, lam: float) -> float:
    """Closed-form defect for the almost-everywhere threshold.

    Its zero equals the almost-everywhere critical scale whenever the
    coefficient bound there is at least CLOSED_FORM_BETA; negative sign at
    lam certifies lam as an upper bound in every case.
    """
    b = _check_base(b)
    _check_lambda(b, lam)
    return (
        1.0 / (b * lam - 1.0) ** 4
        + 1.0 / (b ** 2 * lam - 1.0) ** 2
        - math.sin(math.pi / b) ** 2
    )


def ae_defect_majorant(b: int, lam: float) -> float:
    """Majorant of the almost-everywhere defect, decreasing in the base."""
    b = _check_base(b)
    _check_lambda(b, lam)
    rb = math.sqrt(b)
    return (
        1.0 / (rb * lam - 1.0 / rb) ** 4
        + 1.0 / (b * lam - 1.0 / b) ** 2
        + math.pi ** 4 / (3.0 * b ** 2)
        - math.pi ** 2
    )


def coeff_bound(b: int, lam: float) -> float:
    """Coefficient bound beta(lam) > 1 for the double-root machinery."""
    b = _check_base(b)
    _check_lambda(b, lam)
    radicand = math.sin(math.pi / b) ** 2 - 1.0 / (b ** 2 * lam - 1.0) ** 2
    if radicand <= 0.0:
        raise ValueError(f"coefficient bound undefined at b={b}, lam={lam}")
    return 1.0 / math.sqrt(radicand)


def coeff_bound_to_lambda(b: int, beta: float) -> Optional[float]:
    """Inverse of coeff_bound in lam; None when beta is out of range for b."""
    b = _check_base(b)
    radicand = math.sin(math.pi / b) ** 2 - 1.0 / beta ** 2
    if radicand <= 0.0:
        return None
    lam = (1.0 + 1.0 / math.sqrt(radicand)) / b ** 2
    if not (1.0 / b < lam <= 1.0):
        return None
    return lam


def _bisect(f, lo: float, hi: float, tol: float, max_iter: int = 400) -> RootBracket:
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo > 0.0 > f_hi or f_lo < 0.0 < f_hi):
        raise ValueError("no sign change on the bracketing interval")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return RootBracket(lo, hi, f_lo, f_hi, tol)


def solve_critical_lambda(b: int, tol: float = 1e-12) -> RootBracket:
    """Bisection bracket of the unique zero of the transversality defect.

    The defect decreases strictly from +inf (at lam just above 1/b) to a
    negative value at lam = 1, so the bracket is correct by monotonicity.
    """
    b = _check_base(b)
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    lo = 1.0 / b + 1e-12 * (1.0 - 1.0 / b)
    return _bisect(lambda t: transversality_defect(b, t), lo, 1.0, tol)


def double_root_bounds(
    beta: float, certs: Sequence[StarCertificate] = ()
) -> DoubleRootBounds:
    """Tightest available bounds on the smallest double-root value y(beta).

    Known facts: y is strictly decreasing with y(2) = 1/2, always satisfies
    1 > y(beta) >= 1/(1+sqrt(beta)), and equals the generic bound once beta is
    at least CLOSED_FORM_BETA.  A verified certificate for beta' >= beta
    raises the lower bound to its t (monotonicity transfers it downward).
    No upper bound below 1 is fabricated outside these mechanisms.
    """
    if beta < 1.0:
        raise ValueError(f"beta must be >= 1, got {beta!r}")
    generic = 1.0 / (1.0 + math.sqrt(beta))
    if beta >= CLOSED_FORM_BETA:
        return DoubleRootBounds(beta, generic, generic, "closed-form")
    lower, method = generic, "generic-bound"
    if beta <= 2.0:
        lower = max(lower, 0.5)
    upper = 0.5 if beta >= 2.0 else 1.0
    for cert in certs:
        if cert.beta < beta - 1e-9:
            continue
        if cert.t > lower and verify_certificate(cert).valid:
            lower, method = cert.t, "certificate"
    if lower > upper:
        raise ValueError(
            f"inconsistent bounds for beta={beta}: lower {lower} > upper {upper}"
        )
    return DoubleRootBounds(beta, lower, upper, method)


def builtin_certificate(b: int) -> Optional[tuple[float, StarCertificate]]:
    """Published certificate (lambda0, certificate) for bases 2, 3, 4."""
    params = _BUILTIN_CERT_PARAMS.get(_check_base(b))
    if params is None:
        return None
    lam0, k, eta, t = params
    return lam0, StarCertificate(coeff_bound(b, lam0), k, eta, t)


@lru_cache(maxsize=None)
def _default_certificates(b: int) -> tuple[StarCertificate, ...]:
    built = builtin_certificate(b)
    if built is not None:
        return (built[1],)
    # for larger bases, try to certify the 1.04/sqrt(b) scale
    lam0 = 1.04 / math.sqrt(b)
    if not (1.0 / b < lam0 < 1.0):
        return ()
    try:
        beta = coeff_bound(b, lam0)
    except ValueError:
        return ()
    if beta >= CLOSED_FORM_BETA:
        return ()
    found = search_certificate(beta, 1.0 / (b * lam0), k_max=6, eta_grid=801)
    return (found,) if found is not None else ()


def solve_ae_critical_lambda(
    b: int,
    tol: float = 1e-12,
    certs: Optional[Sequence[StarCertificate]] = None,
) -> AeCriticalBound:
    """Enclose the almost-everywhere critical scale for one base.

    When the coefficient bound stays at or above CLOSED_FORM_BETA across the
    bracket of the closed-form defect zero, that bracket is the answer.
    Otherwise the result is a certified enclosure: the trivial lower end 1/b
    together with the best available upper bound, which may come from a
    verified certificate at some lambda0 (then the threshold is strictly
    below lambda0), from a negative closed-form defect (the generic
    double-root bound), or from the critical scale itself (the
    almost-everywhere threshold always sits strictly below it).
    """
    b = _check_base(b)
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    bracket = None
    if ae_defect(b, 1.0) < 0.0:
        lo = 1.0 / b + 1e-12 * (1.0 - 1.0 / b)
        bracket = _bisect(lambda t: ae_defect(b, t), lo, 1.0, tol)
        if (
            coeff_bound(b, bracket.lo) >= CLOSED_FORM_BETA
            and coeff_bound(b, bracket.hi) >= CLOSED_FORM_BETA
        ):
            return AeCriticalBound(bracket.lo, bracket.hi, "closed-form", bracket=bracket)

    candidates: list[tuple[float, str, Optional[StarCertificate]]] = []
    if bracket is not None:
        candidates.append((bracket.hi, "generic-bound", None))
    lam_crit = solve_critical_lambda(b, tol)
    candidates.append((lam_crit.hi, "monotone", None))
    cert_list = tuple(certs) if certs is not None else _default_certificates(b)
    for cert in cert_list:
        lam0 = coeff_bound_to_lambda(b, cert.beta)
        if lam0 is None or not (1.0 / b < lam0 < 1.0):
            continue
        if cert.t >= 1.0 / (b * lam0) and verify_certificate(cert).valid:
            candidates.append((lam0, "certificate", cert))
    hi, method, cert = min(candidates, key=lambda c: c[0])
    return AeCriticalBound(1.0 / b, hi, method, bracket=bracket, certificate=cert)

"""Threshold functions and the critical scales of the graph dimension result.

transversality_defect (two-branch in the base) is strictly decreasing in lam
and its unique zero is the critical scale: for lam above it the stable
directions are transversal and the graph measure has full dimension.  The
almost-everywhere variant has its own defect function whose zero applies only
when the coefficient bound beta(lam) is large enough for the closed-form
double-root value; otherwise upper bounds come from verified star
certificates, from the generic double-root bound, or from monotonicity.  A
verified certificate's bound is its own lambda0, the scale it was built at,
reported as stated in _BUILTIN_CERT_PARAMS or by the search, not recovered
from its beta.

Root finding is plain bisection.  Monotonicity of every bracketed function is
known, so correctness of a bracket needs nothing beyond the sign change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .certificates import StarCertificate, search_certificate, verify_certificate
from .series import _check_int

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
    """Bisection bracket: f changes sign across [lo, hi], hi - lo <= the requested tol."""

    lo: float
    hi: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class AeCriticalBound:
    """Upper bound on the almost-everywhere critical scale for one base, and its method."""

    hi: float
    method: str  # "closed-form" | "certificate" | "generic-bound" | "monotone"


def _check_lambda(b: int, lam: float) -> int:
    b = _check_int("base", b, 2)
    if not (1.0 / b < lam <= 1.0):
        raise ValueError(f"lam must lie in (1/{b}, 1], got {lam!r}")
    return b


def transversality_defect(b: int, lam: float) -> float:
    """Decreasing function of lam whose unique zero is the critical scale.

    Negative value means the stable-slope transversality condition holds at
    this (b, lam).
    """
    b = _check_lambda(b, lam)
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


def defect_majorant(b: int, lam: float) -> float:
    """Majorant H with defect < H/b^2; strictly decreasing in the base."""
    b = _check_lambda(b, lam)
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
    b = _check_lambda(b, lam)
    return (
        1.0 / (b * lam - 1.0) ** 4
        + 1.0 / (b ** 2 * lam - 1.0) ** 2
        - math.sin(math.pi / b) ** 2
    )


def ae_defect_majorant(b: int, lam: float) -> float:
    """Majorant of the almost-everywhere defect, decreasing in the base."""
    b = _check_lambda(b, lam)
    rb = math.sqrt(b)
    return (
        1.0 / (rb * lam - 1.0 / rb) ** 4
        + 1.0 / (b * lam - 1.0 / b) ** 2
        + math.pi ** 4 / (3.0 * b ** 2)
        - math.pi ** 2
    )


def coeff_bound(b: int, lam: float) -> float:
    """Coefficient bound beta(lam) > 1 for the double-root machinery."""
    b = _check_lambda(b, lam)
    radicand = math.sin(math.pi / b) ** 2 - 1.0 / (b ** 2 * lam - 1.0) ** 2
    if radicand <= 0.0:
        raise ValueError(f"coefficient bound undefined at b={b}, lam={lam}")
    return 1.0 / math.sqrt(radicand)


def _bisect(defect, b: int, tol: float) -> RootBracket:
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    lo, hi = 1.0 / b + 1e-12 * (1.0 - 1.0 / b), 1.0  # inside (1/b, 1]
    f_lo, f_hi = defect(b, lo), defect(b, hi)
    if not (f_lo > 0.0 > f_hi or f_lo < 0.0 < f_hi):
        raise ValueError("no sign change on the bracketing interval")
    while hi - lo > tol:  # halving reaches adjacent floats in about 60 steps
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise ValueError(f"tol {tol!r} is below the float spacing near the root: the "
                             f"tightest bracket reached is {hi - lo!r} wide")
        f_mid = defect(b, mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return RootBracket(lo, hi)


def solve_critical_lambda(b: int, tol: float = 1e-12) -> RootBracket:
    """Bisection bracket of the unique zero of the transversality defect.

    The defect decreases strictly from +inf (at lam just above 1/b) to a
    negative value at lam = 1, so the bracket is correct by monotonicity.
    A tol below the float spacing near the zero raises ValueError.
    """
    b = _check_int("base", b, 2)
    return _bisect(transversality_defect, b, tol)


def builtin_certificate(b: int) -> Optional[tuple[float, StarCertificate]]:
    """Published certificate (lambda0, certificate) for bases 2, 3, 4."""
    params = _BUILTIN_CERT_PARAMS.get(_check_int("base", b, 2))
    if params is None:
        return None
    lam0, k, eta, t = params
    return lam0, StarCertificate(coeff_bound(b, lam0), k, eta, t)


@lru_cache(maxsize=None)
def _default_certificates(b: int) -> tuple[tuple[float, StarCertificate], ...]:
    """(lambda0, certificate) pairs to try: the published one, else a search at 1.04/sqrt(b)."""
    built = builtin_certificate(b)
    if built is not None:
        return (built,)
    # for larger bases, try to certify the 1.04/sqrt(b) scale; for b >= 5 it lies in
    # (1/b, 1) and sin(pi/b)^2 >= 4/b^2 > 1/(b^2 lam0 - 1)^2, so beta is defined
    lam0 = 1.04 / math.sqrt(b)
    beta = coeff_bound(b, lam0)
    if beta >= CLOSED_FORM_BETA:
        return ()
    found = search_certificate(beta, 1.0 / (b * lam0), k_max=6, eta_grid=801)
    return ((lam0, found),) if found is not None else ()


def solve_ae_critical_lambda(b: int, tol: float = 1e-12) -> AeCriticalBound:
    """Upper bound on the almost-everywhere critical scale for one base.

    When the coefficient bound stays at or above CLOSED_FORM_BETA across the
    bracket of the closed-form defect zero, the bracket's upper end is the
    answer.  Otherwise the result is the best available upper bound, which
    may come from a verified certificate at some lambda0 (then the threshold
    is strictly below lambda0), from a negative closed-form defect (the
    generic double-root bound), or from the critical scale itself (the
    almost-everywhere threshold always sits strictly below it).
    """
    b = _check_int("base", b, 2)
    candidates: list[tuple[float, str]] = []
    if ae_defect(b, 1.0) < 0.0:
        bracket = _bisect(ae_defect, b, tol)
        if (
            coeff_bound(b, bracket.lo) >= CLOSED_FORM_BETA
            and coeff_bound(b, bracket.hi) >= CLOSED_FORM_BETA
        ):
            return AeCriticalBound(bracket.hi, "closed-form")
        candidates.append((bracket.hi, "generic-bound"))
    lam_crit = solve_critical_lambda(b, tol)
    candidates.append((lam_crit.hi, "monotone"))
    for lam0, cert in _default_certificates(b):
        if cert.t >= 1.0 / (b * lam0) and verify_certificate(cert).valid:
            candidates.append((lam0, "certificate"))
    hi, method = min(candidates, key=lambda c: c[0])
    return AeCriticalBound(hi, method)

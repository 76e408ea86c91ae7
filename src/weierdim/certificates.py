"""Star-function certificates for lower bounds on the double-root value y(beta).

A certificate (beta, k, eta, t) names the power series

    g(t) = 1 - beta * (t + ... + t^(k-1)) + eta * t^k + beta * (t^(k+1) + ...),

the extremal member of the coefficient class with |g_n| <= beta and one free
middle coefficient.  If g(t) > 0 and g'(t) < 0 then no series in the class
can have a double root at or below t, so y(beta) > t.  Both conditions are
checked with a strictness margin to rule out sign flips from rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .parallel import WorkBudgetError
from .series import _check_int

#: Validity requires g > SIGN_MARGIN and g' < -SIGN_MARGIN.
SIGN_MARGIN = 1e-9


def _check_beta(beta: float) -> None:
    if not (beta >= 1.0):
        raise ValueError(f"beta must be >= 1, got {beta!r}")


def _check_unit(name: str, t: float) -> None:
    if not (0.0 < t < 1.0):
        raise ValueError(f"{name} must lie in (0, 1), got {t!r}")


@dataclass(frozen=True)
class StarCertificate:
    beta: float
    k: int
    eta: float
    t: float

    def __post_init__(self):
        _check_beta(self.beta)
        object.__setattr__(self, "k", _check_int("k", self.k, 1))
        _check_unit("t", self.t)


@dataclass(frozen=True)
class CertificateReport:
    g_value: float
    g_prime_value: float
    valid: bool
    margin: float
    note: str = ""


def _g(beta: float, k: int, eta: float, t):
    """Closed form of the certificate series at t (a float or an array)."""
    one_minus = 1.0 - t
    head = t * (1.0 - t ** (k - 1)) / one_minus
    tail = t ** (k + 1) / one_minus
    return 1.0 - beta * head + eta * t ** k + beta * tail


def _g_prime(beta: float, k: int, eta: float, t):
    """Exact derivative of the closed form at t (a float or an array)."""
    one_minus_sq = (1.0 - t) ** 2
    head = (1.0 - k * t ** (k - 1) + (k - 1) * t ** k) / one_minus_sq
    tail = ((k + 1) * t ** k - k * t ** (k + 1)) / one_minus_sq
    return -beta * head + eta * k * t ** (k - 1) + beta * tail


def verify_certificate(cert: StarCertificate) -> CertificateReport:
    """Check g > 0 and g' < 0 with margin; a valid report licenses y(beta) > t."""
    g = _g(cert.beta, cert.k, cert.eta, cert.t)
    gp = _g_prime(cert.beta, cert.k, cert.eta, cert.t)
    margin = min(g, -gp)
    valid = margin > SIGN_MARGIN
    note = "borderline" if 0.0 < margin <= SIGN_MARGIN else ""
    return CertificateReport(g, gp, valid, margin, note)


def search_certificate(
    beta: float,
    t_target: float,
    k_max: int = 6,
    eta_grid: int = 4001,
) -> Optional[StarCertificate]:
    """Grid search for a valid certificate with t >= t_target.

    Scans k in 1..k_max, eta over eta_grid uniform points in [-2 beta, 2 beta]
    and t over [t_target, 1) with step 1e-4, returning the first hit in
    lexicographic (k, eta index, t index) order.  Returns None when the grid
    holds no certificate, which is a normal outcome (for beta in the
    closed-form regime no t above 1/(1+sqrt(beta)) can ever verify).  A k_max with
    t_target ** k_max below the smallest normal float is refused with WorkBudgetError:
    there the eta term is far below rounding, so larger k add no certificate.
    """
    _check_beta(beta)
    _check_unit("t_target", t_target)
    k_max = _check_int("k_max", k_max, 1)
    eta_grid = _check_int("eta_grid", eta_grid, 1)
    if t_target ** k_max < np.finfo(float).tiny:
        raise WorkBudgetError(f"k_max {k_max} is over the budget: {t_target!r} ** k_max underflows")
    ts = np.arange(t_target, 1.0, 1e-4)
    ts = ts[ts < 1.0]  # never empty: it starts at t_target < 1
    etas = np.linspace(-2.0 * beta, 2.0 * beta, eta_grid)
    # pre-filter on the grid with a doubled margin, then confirm exactly
    grid_margin = 2.0 * SIGN_MARGIN
    for k in range(1, k_max + 1):
        # g and g' are affine in eta, with slopes t^k and k t^(k-1)
        base = _g(beta, k, 0.0, ts)
        base_p = _g_prime(beta, k, 0.0, ts)
        with np.errstate(over="ignore"):  # an overflowed bound is +-inf, past every eta
            eta_lo = (grid_margin - base) / ts ** k
            eta_hi = (-grid_margin - base_p) / (k * ts ** (k - 1))
        # etas ascend, so t index j hits the eta indices start[j] <= e < stop[j]
        start = np.searchsorted(etas, eta_lo, side="right")
        stop = np.searchsorted(etas, eta_hi, side="left")
        live = start < stop
        edges = np.bincount(start[live], minlength=eta_grid + 1)
        edges -= np.bincount(stop[live], minlength=eta_grid + 1)
        cover = np.cumsum(edges[:-1])  # how many t indices each eta index hits
        for e in np.flatnonzero(cover):
            for j in np.flatnonzero((start <= e) & (e < stop)):
                cand = StarCertificate(beta, k, float(etas[e]), float(ts[j]))
                if verify_certificate(cand).valid:
                    return cand
    return None

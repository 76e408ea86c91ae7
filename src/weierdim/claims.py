"""The package's numeric claims, the rows of `weierdim reproduce`, as one ordered table.

A row is (name, check): check() takes no argument and returns (passed, detail),
so a row does its work only when it is read, in table order.  A published
certificate's lambda0 is read from builtin_certificate, the one place it is
stated, and names both its certificate and its ae-bound row.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .certificates import verify_certificate
from .series import Params
from .thresholds import (
    ae_defect_majorant,
    builtin_certificate,
    defect_majorant,
    solve_ae_critical_lambda,
    solve_critical_lambda,
    transversality_defect,
)
from .transversality import TangencyQuery, case_bounds_base2, empirical_delta, tangency_count

Check = Callable[[], tuple[bool, object]]


def _sign(fn, b: int, lam: float, sign: int) -> Check:
    """The claim sign * fn(b, lam) > 0."""
    def check():
        v = fn(b, lam)
        return sign * v > 0, v
    return check


def _critical_b2():
    br = solve_critical_lambda(2)
    return 0.9 < br.lo and br.hi < 0.9352, [br.lo, br.hi]


def _critical_b5_to_20():
    hi = max(solve_critical_lambda(b).hi for b in range(5, 21))
    return hi < 0.5448, hi


def _critical_b10000():
    mid = solve_critical_lambda(10_000).midpoint
    return abs(mid - 1.0 / math.pi) < 0.01, mid


def _ae_b10000():
    scaled = 100.0 * solve_ae_critical_lambda(10_000).hi
    return abs(scaled - 1.0 / math.sqrt(math.pi)) < 0.02, scaled


def _certificate(b: int, perturb_eta: float) -> Check:
    def check():
        lam0, cert = builtin_certificate(b)
        if perturb_eta:
            cert = replace(cert, eta=cert.eta + perturb_eta)
        rep = verify_certificate(cert)
        ok = rep.valid and rep.margin > 1e-6 and cert.t >= 1.0 / (b * lam0)
        return ok, {"g": rep.g_value, "g_prime": rep.g_prime_value, "margin": rep.margin}
    return check


def _ae_bound(b: int, lam0: float) -> Check:
    def check():
        hi = solve_ae_critical_lambda(b).hi
        return hi <= lam0, hi
    return check


def _tangency_e11(b: int) -> Check:
    def check():
        p = Params(b, solve_critical_lambda(b).hi + 0.05)
        est = empirical_delta(b, p.gamma, x_grid=2000, depth=30, pair_budget=2048, seed=1)
        q = TangencyQuery(n=1, m=1, eps=est.delta_hat / p.gamma,
                          delta=est.delta_hat / p.gamma, depth=30, grid_per_interval=500)
        e = tangency_count(p, q, seed=1)
        return (est.delta_hat > 0 and e == 1 and e < p.gamma * b,
                {"delta_hat": est.delta_hat, "e": e})
    return check


def _case_bounds_b2():
    def gap(g):  # the worst case bound against the independent lambda form
        ref = transversality_defect(2, 1.0 / (2.0 * g))
        return abs(max(case_bounds_base2(g)) - ref) / max(1.0, abs(ref))

    worst = max(gap(g) for g in np.linspace(0.51, 0.99, 100))
    return worst <= 1e-12, float(worst)


def reproduce_rows(perturb_eta: float = 0.0) -> list[tuple[str, Check]]:
    """Every reproduced claim in report order; perturb_eta shifts the b = 3 certificate's eta."""
    rows = [
        ("defect_b2_lam0.9352_negative", _sign(transversality_defect, 2, 0.9352, -1)),
        ("defect_b2_lam0.9_positive", _sign(transversality_defect, 2, 0.9, 1)),
        ("defect_b3_lam0.7269_negative", _sign(transversality_defect, 3, 0.7269, -1)),
        ("defect_b4_lam0.6083_negative", _sign(transversality_defect, 4, 0.6083, -1)),
        ("majorant_b3_lam1_negative", _sign(defect_majorant, 3, 1.0, -1)),
        ("majorant_b5_lam0.5448_negative", _sign(defect_majorant, 5, 0.5448, -1)),
        ("ae_majorant_b5_negative", _sign(ae_defect_majorant, 5, 1.04 / math.sqrt(5), -1)),
        ("critical_b2_bracket_in_(0.9,0.9352)", _critical_b2),
        ("critical_b5_to_20_below_0.5448", _critical_b5_to_20),
        ("critical_b10000_near_inv_pi", _critical_b10000),
        ("ae_b10000_sqrt_scaling", _ae_b10000),
    ]
    for b in (2, 3, 4):
        lam0 = builtin_certificate(b)[0]
        rows += [(f"certificate_b{b}_valid", _certificate(b, perturb_eta if b == 3 else 0.0)),
                 (f"ae_bound_b{b}_at_most_{lam0}", _ae_bound(b, lam0))]
    rows += [(f"tangency_e11_b{b}_equals_1", _tangency_e11(b)) for b in (2, 3, 4)]
    rows.append(("case_bounds_b2_match_gamma_defect", _case_bounds_b2))
    return rows

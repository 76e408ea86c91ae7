"""Acceptance suite: every headline criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s or -rA to see
them) and asserts both the numeric claim and its runtime budget.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

import weierdim as w
from weierdim import rng


@contextmanager
def criterion(name, budget_s):
    t0 = time.time()
    failures = []
    yield failures
    elapsed = time.time() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name} ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert not failures, failures
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def check(failures, ok, label):
    if not ok:
        failures.append(label)


def test_criterion_1_sign_facts():
    with criterion("1: sign facts", 1.0) as bad:
        check(bad, w.transversality_defect(2, 0.9352) < 0, "defect(2, 0.9352) < 0")
        check(bad, w.transversality_defect(2, 0.9) > 0, "defect(2, 0.9) > 0")
        check(bad, w.transversality_defect(3, 0.7269) < 0, "defect(3, 0.7269) < 0")
        check(bad, w.transversality_defect(4, 0.6083) < 0, "defect(4, 0.6083) < 0")
        check(bad, w.defect_majorant(3, 1.0) < 0, "majorant(3, 1) < 0")
        check(bad, w.defect_majorant(5, 0.5448) < 0, "majorant(5, 0.5448) < 0")
        check(bad, w.ae_defect_majorant(5, 1.04 / math.sqrt(5)) < 0, "ae majorant(5) < 0")


def test_criterion_2_threshold_brackets():
    with criterion("2: threshold brackets", 1.0) as bad:
        br2 = w.solve_critical_lambda(2)
        check(bad, 0.9 < br2.lo <= br2.hi < 0.9352, "critical(2) inside (0.9, 0.9352)")
        for b in range(5, 21):
            check(bad, w.solve_critical_lambda(b).hi < 0.5448, f"critical({b}) < 0.5448")
        big = w.solve_critical_lambda(10_000)
        check(bad, abs(big.midpoint - 1.0 / math.pi) < 0.01, "critical(1e4) near 1/pi")
        ae = w.solve_ae_critical_lambda(10_000)
        check(
            bad,
            abs(math.sqrt(10_000) * ae.hi - 1.0 / math.sqrt(math.pi)) < 0.02,
            "sqrt(b) * ae(1e4) near 1/sqrt(pi)",
        )


def test_criterion_3_certificates():
    with criterion("3: certificates", 1.0) as bad:
        expected = {2: 0.81, 3: 0.55, 4: 0.44}
        for b, bound in expected.items():
            lam0, cert = w.builtin_certificate(b)
            rep = w.verify_certificate(cert)
            check(bad, rep.valid and rep.margin > 1e-6, f"certificate({b}) margin > 1e-6")
            check(bad, cert.t >= 1.0 / (b * lam0), f"certificate({b}) t >= 1/(b lam0)")
            ae = w.solve_ae_critical_lambda(b)
            check(bad, ae.hi <= bound + 1e-12, f"ae bound({b}) <= {bound}")


def test_criterion_4_series_identities():
    with criterion("4: series identities", 10.0) as bad:
        rnd = np.random.default_rng(44)
        for _ in range(100):
            b = int(rnd.integers(2, 7))
            lam = float(rnd.uniform(1.0 / b + 0.05, 0.99))
            p = w.Params(b, lam)
            word = w.DigitWord(tuple(int(d) for d in rnd.integers(0, b, size=10)))
            x = float(rnd.uniform(0, 1))
            y = w.eval_orbit_sum(p, word, x, abs_tol=1e-10)
            s = w.eval_orbit_sum(p, word, x, "S", w.COSINE_DERIV, abs_tol=1e-10)
            tol = y.tail_bound + p.gamma * s.tail_bound + 1e-12
            check(bad, abs(y.value + p.gamma * s.value) <= tol, "slope = -gamma * fiber")

        h = 1e-6
        for _ in range(10):
            b = int(rnd.integers(2, 5))
            g = float(rnd.uniform(1.0 / b + 0.05, 0.9))
            p = w.Params(b, 1.0 / (b * g))
            word = w.DigitWord(tuple(int(d) for d in rnd.integers(0, b, size=6)))
            x = float(rnd.uniform(0.1, 0.9))
            fd_x = (
                w.eval_orbit_sum(p, word, x + h, abs_tol=1e-13).value
                - w.eval_orbit_sum(p, word, x - h, abs_tol=1e-13).value
            ) / (2 * h)
            an_x = w.eval_orbit_sum(p, word, x, "Ydx", abs_tol=1e-12).value
            check(bad, abs(an_x - fd_x) <= 1e-5, "x-derivative matches FD")
            fd_g = (
                w.eval_orbit_sum(w.Params(b, 1.0 / (b * (g + h))), word, x, abs_tol=1e-13).value
                - w.eval_orbit_sum(w.Params(b, 1.0 / (b * (g - h))), word, x, abs_tol=1e-13).value
            ) / (2 * h)
            an_g = w.eval_orbit_sum(p, word, x, "Ydgamma", abs_tol=1e-12).value
            check(bad, abs(an_g - fd_g) <= 1e-5, "gamma-derivative matches FD")

        for _ in range(20):
            b = int(rnd.integers(2, 5))
            p = w.Params(b, float(rnd.uniform(1.0 / b + 0.05, 0.98)))
            n = int(rnd.integers(1, 5))
            prefix = tuple(int(d) for d in rnd.integers(0, b, size=n))
            wa = w.DigitWord(prefix + tuple(int(d) for d in rnd.integers(0, b, size=4)))
            wb = w.DigitWord(prefix + tuple(int(d) for d in rnd.integers(0, b, size=4)))
            x = float(rnd.uniform(0, 1))
            terms = 60
            ya = w.eval_orbit_sum(p, wa, x, terms=terms)
            yb = w.eval_orbit_sum(p, wb, x, terms=terms)
            v = x
            for d in prefix:
                v = (v + d) / b
            sa = w.eval_orbit_sum(p, w.DigitWord(wa.digits[n:]), v, terms=terms - n)
            sb = w.eval_orbit_sum(p, w.DigitWord(wb.digits[n:]), v, terms=terms - n)
            tol = (
                ya.tail_bound + yb.tail_bound
                + p.gamma ** n * (sa.tail_bound + sb.tail_bound) + 1e-12
            )
            check(
                bad,
                abs(abs(ya.value - yb.value) - p.gamma ** n * abs(sa.value - sb.value)) <= tol,
                "prefix rescaling identity",
            )


def test_criterion_5_transversality():
    with criterion("5: transversality", 120.0) as bad:
        for b in range(2, 9):
            lam0 = w.solve_critical_lambda(b).hi + 0.02
            for lam in np.linspace(lam0, 0.98, 4):
                p = w.Params(b, float(lam))
                est = w.empirical_delta(
                    b, p.gamma, x_grid=800, depth=30, pair_budget=512, seed=1
                )
                check(bad, est.delta_hat > 0, f"separation({b}, {lam:.3f}) > 0")

        for b in (2, 3, 4):
            lam = w.solve_critical_lambda(b).hi + 0.05
            p = w.Params(b, lam)
            est = w.empirical_delta(b, p.gamma, x_grid=2000, depth=30, pair_budget=2048, seed=1)
            q = w.TangencyQuery(
                n=1, m=1, eps=est.delta_hat / p.gamma, delta=est.delta_hat / p.gamma,
                depth=30, grid_per_interval=500,
            )
            e = w.tangency_count(p, q, seed=1)
            check(bad, e == 1 and e < p.gamma * b, f"tangency count({b}) == 1 < gamma*b")

        rnd = np.random.default_rng(55)
        for _ in range(100):
            g = float(rnd.uniform(0.51, 0.999))
            ref = w.transversality_defect(2, 1.0 / (2.0 * g))
            diff = abs(max(w.case_bounds_base2(g)) - ref) / max(1.0, abs(ref))
            check(bad, diff <= 1e-12, "case bounds match the defect")


def test_criterion_6_dimension_estimation():
    with criterion("6: dimension estimation", 180.0) as bad:
        p = w.Params(2, 0.9)
        table = w.box_count(p, w.COSINE, levels=14, samples_per_column=64)
        fit = w.fit_box_dimension(table, drop_coarsest=2)
        check(bad, abs(fit.slope - 1.8480) < 0.1, "classic graph slope within 0.1 of 1.8480")

        flat = w.box_count(p, w.PhiSpec(), levels=10, samples_per_column=8)
        flat_fit = w.fit_box_dimension(flat, drop_coarsest=2)
        check(bad, abs(flat_fit.slope - 1.0) <= 1e-6, "flat graph slope 1.000")

        slopes = []
        for lam in (0.8, 0.85, 0.9, 0.95):
            t = w.box_count(w.Params(2, lam), w.COSINE, levels=12, samples_per_column=32)
            slopes.append(w.fit_box_dimension(t).slope)
        check(
            bad,
            all(b2 >= b1 - 0.05 for b1, b2 in zip(slopes, slopes[1:])),
            "slope monotone in lam (tolerance 0.05)",
        )


def test_criterion_7_measure_diagnostics():
    with criterion("7: measure diagnostics", 60.0) as bad:
        s = w.sample_transversal(w.Params(2, 0.95), 0.3, 100_000, seed=1)
        se = s.points.std(ddof=1) / math.sqrt(s.count)
        check(bad, abs(s.points.mean()) < 4 * se, "transversal mean within 4 sigma")

        pts = rng.uniform_vector(123, 99, 100_000)
        uniform = w.SampleSet(points=pts, seed=123, depth=0, kind="synthetic")
        radii = [0.1 * 2 ** -j for j in range(5)]
        ufit = w.local_dim_estimate(uniform, radii, centers=100, seed=5)
        check(bad, abs(ufit.slope - 1.0) < 0.05, "uniform local dimension 1.0 +- 0.05")

        point = w.SampleSet(points=np.zeros(10_000), seed=0, depth=0, kind="synthetic")
        pfit = w.local_dim_estimate(point, radii, centers=50, seed=5)
        check(bad, abs(pfit.slope) < 0.05, "point mass local dimension 0.0 +- 0.05")

        p = w.Params(2, 0.95)
        base = w.sample_sbr(p, w.COSINE_DERIV, count=5000, seed=2)
        shifted = w.PhiSpec(
            cosine_coeffs=w.COSINE_DERIV.cosine_coeffs,
            sine_coeffs=w.COSINE_DERIV.sine_coeffs,
            constant=0.9,
        )
        moved = w.sample_sbr(p, shifted, count=5000, seed=2)
        delta = 0.9 / (1 - p.gamma)
        check(
            bad,
            np.array_equal(moved.points[:, 1], base.points[:, 1] + delta)
            and np.array_equal(moved.points[:, 0], base.points[:, 0]),
            "translation equivariance exact per sample",
        )


def test_criterion_8_determinism():
    with criterion("8: determinism", 60.0) as bad:
        cmd = [sys.executable, "-m", "weierdim.cli", "reproduce"]
        outs = []
        for threads in ("1", "8", "1"):
            proc = subprocess.run(
                cmd, capture_output=True, env={**os.environ, "WEIERDIM_THREADS": threads}
            )
            check(bad, proc.returncode == 0, f"reproduce exit 0 (threads={threads})")
            outs.append(proc.stdout)
        check(bad, outs[0] == outs[1] == outs[2], "byte-identical across runs and workers")

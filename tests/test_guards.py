"""One guard path: every integer argument is checked before any series, RNG or grid work."""

import itertools

import numpy as np
import pytest

import weierdim as w
from weierdim import COSINE, DigitWord, Params, SampleSet

P = Params(2, 0.9)
SYNTHETIC = SampleSet(points=np.zeros(10), seed=0, depth=0, kind="synthetic")
RADII = (0.5, 0.25, 0.125, 0.0625)
TABLE = w.BoxCountTable(tuple((2.0 ** -j, 2 ** j) for j in range(1, 9)))

# (parameter, entry point called with the bad value, non-integral value, value below the least)
GUARDS = [
    ("base", lambda v: Params(v, 0.9), 2.5, 1),
    ("frequency", lambda v: w.PhiSpec(cosine_coeffs=((v, 1.0),)), 1.5, 0),
    ("digit", lambda v: DigitWord((1, v)), 0.5, -1),
    ("base", lambda v: w.eval_weierstrass((v, 0.9), COSINE, 0.3), 2.5, 1),
    ("terms", lambda v: w.eval_weierstrass(P, COSINE, 0.3, terms=v), 2.7, -3),
    ("terms", lambda v: w.eval_orbit_sum(P, DigitWord(), 0.3, "Y", terms=v), 2.7, 0),
    ("terms", lambda v: w.eval_orbit_sum(P, DigitWord(), 0.3, "Ydx", terms=v), 2.7, 0),
    ("terms", lambda v: w.eval_orbit_sum(P, DigitWord(), 0.3, "Ydgamma", terms=v), 2.7, 0),
    ("terms", lambda v: w.eval_orbit_sum(P, DigitWord(), 0.3, "S", terms=v), 2.7, 0),
    ("count", lambda v: w.sample_transversal(P, 0.5, v), 2.5, 0),
    ("depth", lambda v: w.sample_transversal(P, 0.5, 10, depth=v), 2.5, 0),
    ("count", lambda v: w.sample_sbr(P, count=v), 2.5, 0),
    ("depth", lambda v: w.sample_sbr(P, count=10, depth=v), 2.5, 0),
    ("count", lambda v: w.sample_graph_lift(P, COSINE, v), 2.5, 0),
    ("centers", lambda v: w.local_dim_estimate(SYNTHETIC, RADII, centers=v), 2.5, 0),
    ("bins", lambda v: w.density_histogram(SYNTHETIC, v), 2.5, 1),
    ("levels", lambda v: w.box_count(P, COSINE, levels=v), 4.5, 3),
    ("samples_per_column", lambda v: w.box_count(P, COSINE, samples_per_column=v), 2.5, 1),
    ("drop_coarsest", lambda v: w.fit_box_dimension(TABLE, v), 1.5, -1),
    ("k", lambda v: w.StarCertificate(2.0, v, 0.5, 0.6), 1.5, 0),
    ("k_max", lambda v: w.search_certificate(2.0, 0.6, k_max=v), 1.5, 0),
    ("eta_grid", lambda v: w.search_certificate(2.0, 0.6, eta_grid=v), 1.5, 0),
    ("base", lambda v: w.transversality_defect(v, 0.9), 2.5, 1),
    ("base", lambda v: w.slope_grid(v, 0.6, np.zeros(2), np.zeros((1, 3), int)), 2.5, 1),
    ("base", lambda v: w.defect_majorant(v, 0.9), 2.5, 1),
    ("base", lambda v: w.ae_defect(v, 0.9), 2.5, 1),
    ("base", lambda v: w.ae_defect_majorant(v, 0.9), 2.5, 1),
    ("base", lambda v: w.coeff_bound(v, 0.9), 2.5, 1),
    ("base", lambda v: w.solve_critical_lambda(v), 2.5, 1),
    ("base", lambda v: w.solve_ae_critical_lambda(v), 2.5, 1),
    ("base", lambda v: w.builtin_certificate(v), 2.5, 1),
    ("base", lambda v: DigitWord((1, 0)).validate_base(v), 2.5, 1),
    *((name, lambda v, name=name: w.TangencyQuery(**{"n": 1, "m": 1, "eps": 0.5, "delta": 0.5,
                                                      name: v}), 1.5, least - 1)
      for name, least in (("n", 1), ("m", 1), ("depth", 1), ("grid_per_interval", 1),
                          ("random_tails", 0))),
    ("base", lambda v: w.empirical_delta(v, 0.6), 2.5, 1),
    ("x_grid", lambda v: w.empirical_delta(2, 0.6, x_grid=v), 2.5, 1),
    ("depth", lambda v: w.empirical_delta(2, 0.6, depth=v), 2.5, 0),
    ("pair_budget", lambda v: w.empirical_delta(2, 0.6, pair_budget=v), 2.5, -1),
    ("base", lambda v: w.two_var_delta(v, 0.05), 2.5, 1),
    ("x_grid", lambda v: w.two_var_delta(2, 0.05, x_grid=v), 2.5, 0),
    ("gamma_grid", lambda v: w.two_var_delta(2, 0.05, gamma_grid=v), 2.5, 0),
    ("depth", lambda v: w.two_var_delta(2, 0.05, depth=v), 2.5, 0),
    ("pair_budget", lambda v: w.two_var_delta(2, 0.05, pair_budget=v), 2.5, -1),
]
CASES = [(name, call, bad) for name, call, *bads in GUARDS for bad in bads]
# Case numbers of deleted rows stay retired, so no remaining case changes its ID.
RETIRED = {6, 7, 8, 9, 60, 61}
IDS = [f"{i}-{name}={bad}" for i, (name, _, bad)
       in zip((i for i in itertools.count() if i not in RETIRED), CASES)]

# Seeds have no lower bound: each seeded entry point refuses only a non-integral seed.
QUERY = w.TangencyQuery(n=1, m=1, eps=0.5, delta=0.5)
SEEDED = {
    "sample_transversal": lambda v: w.sample_transversal(P, 0.5, 10, seed=v),
    "sample_sbr": lambda v: w.sample_sbr(P, count=10, seed=v),
    "sample_graph_lift": lambda v: w.sample_graph_lift(P, COSINE, 10, seed=v),
    "local_dim_estimate": lambda v: w.local_dim_estimate(SYNTHETIC, RADII, centers=2, seed=v),
    "empirical_delta": lambda v: w.empirical_delta(2, 0.6, x_grid=10, pair_budget=4, seed=v),
    "two_var_delta": lambda v: w.two_var_delta(2, 0.05, x_grid=10, pair_budget=4, seed=v),
    "tangency_count": lambda v: w.tangency_count(P, QUERY, seed=v),
    "DigitWord": lambda v: DigitWord((1, 0), tail_seed=v),
}


def _forbid_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work before the argument check")

    for target in ("series._orbit_sums", "measures._orbit_sums", "series._graph_sum",
                   "rng.digit_matrix", "rng.digit_columns", "rng.uniform_vector", "rng.value64",
                   "boxdim._grid_values", "certificates._g", "thresholds._bisect"):
        monkeypatch.setattr(f"weierdim.{target}", no_work)


@pytest.mark.parametrize("name, call, bad", CASES, ids=IDS)
def test_integer_arguments_checked_before_any_work(monkeypatch, name, call, bad):
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        call(bad)


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_seeds_checked_before_any_work(monkeypatch, call):
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=r"^(tail_)?seed must be an integer, got 1\.5$"):
        call(1.5)


def test_negative_seed_is_its_64_bit_residue():
    a = w.sample_transversal(P, 0.5, 50, depth=8, seed=-1)
    b = w.sample_transversal(P, 0.5, 50, depth=8, seed=2 ** 64 - 1)
    assert a.points.tobytes() == b.points.tobytes()

"""weierdim: rigorous numerics for Weierstrass-type graph dimensions.

Series evaluation with truncation tails, critical-scale thresholds, star
certificates, transversality estimators, measure sampling and box-counting
dimension fits, plus a reproduction harness for the package's headline
numeric claims (the `weierdim reproduce` command).

Each exported name loads its submodule on first access, so `import weierdim`
imports no numpy and a process loads only the submodules it reads.
"""

import importlib
import os

# no BLAS work here: without this, numpy's OpenBLAS starts a spinning thread per extra core
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Every exported name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("BoxCountTable", "box_count", "fit_box_dimension"), "boxdim"),
    **dict.fromkeys((
        "SIGN_MARGIN",
        "CertificateReport",
        "StarCertificate",
        "search_certificate",
        "verify_certificate",
    ), "certificates"),
    **dict.fromkeys((
        "DimFit",
        "SampleSet",
        "density_histogram",
        "dimension_from_transversal",
        "local_dim_estimate",
        "sample_graph_lift",
        "sample_sbr",
        "sample_transversal",
    ), "measures"),
    **dict.fromkeys((
        "COSINE",
        "COSINE_DERIV",
        "DigitWord",
        "Params",
        "PhiSpec",
        "SeriesValue",
        "eval_orbit_sum",
        "eval_weierstrass",
        "orbit_tail",
        "slope_grid",
    ), "series"),
    **dict.fromkeys((
        "CLOSED_FORM_BETA",
        "AeCriticalBound",
        "RootBracket",
        "ae_defect",
        "ae_defect_majorant",
        "builtin_certificate",
        "coeff_bound",
        "defect_majorant",
        "solve_ae_critical_lambda",
        "solve_critical_lambda",
        "transversality_defect",
    ), "thresholds"),
    **dict.fromkeys((
        "DeltaEstimate",
        "TangencyQuery",
        "case_bounds_base2",
        "empirical_delta",
        "tangency_count",
        "two_var_delta",
    ), "transversality"),
    "WorkBudgetError": "parallel",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """An exported name, imported from its submodule on first access and kept here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""weierdim: rigorous numerics for Weierstrass-type graph dimensions.

Series evaluation with truncation tails, critical-scale thresholds, star
certificates, transversality estimators, measure sampling and box-counting
dimension fits, plus a reproduction harness for the package's headline
numeric claims (the `weierdim reproduce` command).
"""

import os

# no BLAS work here: without this, numpy's OpenBLAS starts a spinning thread per extra core
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .boxdim import BoxCountTable, box_count, fit_box_dimension
from .certificates import (
    SIGN_MARGIN,
    CertificateReport,
    StarCertificate,
    search_certificate,
    verify_certificate,
)
from .measures import (
    DimFit,
    SampleSet,
    density_histogram,
    dimension_from_transversal,
    local_dim_estimate,
    sample_graph_lift,
    sample_sbr,
    sample_transversal,
)
from .series import (
    COSINE,
    COSINE_DERIV,
    DigitWord,
    Params,
    PhiSpec,
    SeriesValue,
    eval_orbit_sum,
    eval_weierstrass,
    orbit_tail,
    slope_grid,
)
from .thresholds import (
    CLOSED_FORM_BETA,
    AeCriticalBound,
    RootBracket,
    ae_defect,
    ae_defect_majorant,
    builtin_certificate,
    coeff_bound,
    defect_majorant,
    solve_ae_critical_lambda,
    solve_critical_lambda,
    transversality_defect,
)
from .transversality import (
    DeltaEstimate,
    TangencyQuery,
    WorkBudgetError,
    case_bounds_base2,
    empirical_delta,
    tangency_count,
    two_var_delta,
)

__version__ = "0.1.0"

"""Factor models for high-dimensional panels of functional time series.

Estimation of factors, loadings and common components from the panel Gram
matrix; tuned information criteria for choosing the number of factors;
Monte Carlo benchmark generators; error metrics; B-spline curve handling;
and an h-step-ahead forecasting pipeline with a componentwise baseline.
"""

from .panel import (
    FUNCTIONAL,
    SCALAR,
    Panel,
    SpaceSpec,
    center,
    functional_space,
    gram_matrix,
    load_panel,
    load_scalar_csv,
    panel_from_dict,
    panel_to_dict,
    save_panel,
    scalar_space,
)
from .estimate import (
    FactorFit,
    RankDeficientError,
    common_component,
    fit_factors,
    fit_from_dict,
    fit_to_dict,
    goodness_of_fit,
    idiosyncratic_residual,
)
from .select import (
    IC1A,
    IC2A,
    AbcConfig,
    SelectionTrace,
    abc_select_r,
    nested_subpanel_sizes,
    penalty,
    select_r_fixed,
    thread_cap,
)
from .simulate import DgpConfig, GroundTruth, design_parameters, gen_dgp, noise_covariance
from .metrics import LoadingMatrix, delta_nt, epsilon_nt, mafe_msfe, phi_nt
from .forecast import (
    ArModel,
    ForecastConfig,
    ForecastResult,
    ar_forecast,
    cf_forecast,
    fit_ar_bic,
    persistence_forecast,
    rolling_origin_eval,
    tnh_forecast,
)
from .fbasis import (
    BSplineBasis,
    GriddedCurve,
    MortalityData,
    MortalityRecords,
    build_bspline,
    ingest_mortality,
    load_mortality_csv,
    project_curve,
)

__version__ = "0.1.0"

"""Factor models for high-dimensional panels of functional time series.

Estimation of factors, loadings and common components from the panel Gram
matrix; tuned information criteria for choosing the number of factors;
Monte Carlo benchmark generators; error metrics; B-spline curve handling;
and an h-step-ahead forecasting pipeline with a componentwise baseline.

The names exported here are exactly those of README's "API" table; every
other name is internal to its module.
"""

__version__ = "0.1.0"

from .panel import Panel, SpaceSpec, center, functional_space, gram_matrix, scalar_space
from .estimate import (FactorFit, RankDeficientError, common_component, fit_factors,
                       goodness_of_fit, idiosyncratic_residual)
from .select import (IC1A, IC2A, AbcConfig, SelectionTrace, abc_select_r, nested_subpanel_sizes,
                     penalty, select_r_fixed)
from .simulate import (DgpConfig, GroundTruth, design_parameters, gen_dgp, noise_covariance,
                       run_grid)
from .metrics import LoadingMatrix, delta_nt, epsilon_nt, mafe_msfe, phi_nt
from .forecast import (ForecastConfig, ForecastResult, ar_forecast, cf_forecast, fit_ar_bic,
                       mortality_rolling_eval, persistence_forecast, rolling_origin_eval,
                       tnh_forecast)
from .fbasis import (BSplineBasis, MortalityData, MortalityRecords, build_bspline,
                     ingest_mortality, load_mortality_csv, project_curve)
from .files import fit_from_dict, fit_to_dict, load_panel, load_scalar_csv, save_panel

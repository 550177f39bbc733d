"""Sketched least-squares regression with exact and approximate statistical inference."""

from .core_model import DataSet, FullFit, ModelTruth, fit_full, simulate_response
from .densities import (
    HLawParams,
    MultivariateTParams,
    complete_sampling_approx_t,
    complete_sampling_pdf,
    complete_sketching_t_params,
    h_law_pdf,
    h_law_sample,
    mvt_pdf,
    partial_approx_pdf,
    ratio_beta_law_pdf,
    ratio_law_pdf,
    sample_partial_sampling_rep,
    sample_partial_sketching_rep,
    ssr_s_law_pdf,
)
from .errors import SketchInferError
from .estimators import (
    FitKind,
    PartialInputs,
    SketchFit,
    fit_complete,
    fit_efficient_star,
    fit_partial,
    partial_residual_ss_expectation,
    sigma2_hat_complete,
)
from .inference import (
    ConfidenceInterval,
    Regime,
    Target,
    TestResult,
    complete_joint_f_test,
    complete_marginal_t_tests,
    mc_calibrated_sampling_test,
    partial_linear_combination_test,
    partial_univariate_chi2_test,
    wstar_exact_tests,
    wstar_marginal_t_tests,
)
from .sim_study import (
    SimConfig,
    SimReport,
    desk_config,
    ks_statistic,
    paper_config,
    run_repeated_sampling,
    run_repeated_sketching,
)
from .sketch_ops import (
    SketchKind,
    SketchSpec,
    SketchedData,
    apply_clarkson_woodruff,
    apply_gaussian,
    apply_hadamard,
    apply_sketch,
    derive_seed,
)
from .special_fn import (
    Law,
    bessel_k,
    dist_cdf,
    dist_quantile,
    kummer_m,
    kummer_u,
    log_bessel_k,
    log_kummer_u,
)

__version__ = "0.1.0"

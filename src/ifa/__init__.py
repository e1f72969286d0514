"""Item factor analysis for binary and ordinal response matrices.

Estimation routes: constrained joint maximum likelihood (fit_cjmle),
marginal maximum likelihood via Gauss-Hermite quadrature (fit_em_quadrature)
and its Monte Carlo / stochastic / stochastic-approximation variants
(fit_mcem, fit_stem, fit_sa_mcmc), and a singular-value-decomposition
estimator (fit_svd_binary, fit_svd_ordinal).  A simulation oracle and
recovery metrics live in ifa.simulate; the command line entry point is
``ifa`` (see ifa.cli).
"""
from .models import (
    MISSING,
    Dataset,
    FactorConfig,
    ItemParams,
    Link,
    ModelKind,
    as_link,
    as_model,
    category_logprobs,
    category_probs,
    grad_wrt_beta,
    grad_wrt_theta,
    loadings_matrix,
    log_joint_likelihood,
    person_logliks,
)
from .identify import (
    AlignmentResult,
    align_loadings,
    check_q_matrix,
    standardize_factors,
)
from .itemfit import ItemFitResult, fit_item
from .cjmle import CjmleConfig, CjmleFit, fit_cjmle, update_item_block, update_person_block
from .sampler import GibbsEngine, MhEngine, acceptance_probability, truncated_normal_interval
from .em import (
    EmConfig,
    MarginalFit,
    McemConfig,
    QuadratureGrid,
    SaConfig,
    StemConfig,
    average_parameter_trail,
    build_grid,
    fit_em_quadrature,
    fit_mcem,
    fit_sa_mcmc,
    fit_stem,
    log_marginal_likelihood,
    pack_params,
    unpack_params,
)
from .spectral import SpectralFit, decompose_probability_matrix, fit_svd_binary, fit_svd_ordinal
from .simulate import (
    RecoveryReport,
    SimSpec,
    prob_mse,
    recovery_report,
    simulate,
    theta_correlations,
)
from .start import default_items, freq_intercepts, spectral_start

__all__ = [
    "MISSING",
    "Dataset",
    "FactorConfig",
    "ItemParams",
    "Link",
    "ModelKind",
    "as_link",
    "as_model",
    "category_logprobs",
    "category_probs",
    "grad_wrt_beta",
    "grad_wrt_theta",
    "loadings_matrix",
    "log_joint_likelihood",
    "person_logliks",
    "AlignmentResult",
    "align_loadings",
    "check_q_matrix",
    "standardize_factors",
    "ItemFitResult",
    "fit_item",
    "CjmleConfig",
    "CjmleFit",
    "fit_cjmle",
    "update_item_block",
    "update_person_block",
    "GibbsEngine",
    "MhEngine",
    "acceptance_probability",
    "truncated_normal_interval",
    "EmConfig",
    "MarginalFit",
    "McemConfig",
    "QuadratureGrid",
    "SaConfig",
    "StemConfig",
    "average_parameter_trail",
    "build_grid",
    "fit_em_quadrature",
    "fit_mcem",
    "fit_sa_mcmc",
    "fit_stem",
    "log_marginal_likelihood",
    "pack_params",
    "unpack_params",
    "SpectralFit",
    "decompose_probability_matrix",
    "fit_svd_binary",
    "fit_svd_ordinal",
    "RecoveryReport",
    "SimSpec",
    "prob_mse",
    "recovery_report",
    "simulate",
    "theta_correlations",
    "default_items",
    "freq_intercepts",
    "spectral_start",
]

__version__ = "0.1.0"

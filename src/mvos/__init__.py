"""Componentwise intermediate order statistics: tail-dependence norms,
attracted copulas, marginal tail conditions, and Monte Carlo verification
of the joint normal limit."""

__version__ = "0.1.0"

from .dnorm import (
    SupNorm,
    LogisticP,
    GeneratorBased,
    ConstantOne,
    RandomIndex,
    FrechetLogistic,
    dnorm_eval,
    dnorm_validate,
    evd_eval,
    lambda_matrix,
    is_positive_semidefinite,
)
from .copula import (
    Independence,
    Comonotone,
    GumbelLogistic,
    copula_cdf,
    copula_sample,
    tail_expansion_check,
)
from .margins import (
    StandardNormal,
    StandardExponential,
    Pareto,
    Triangular,
    marginal_eval,
    marginal_quantile,
    norming_constants,
    smirnov_check,
    von_mises_check,
    quantile_transform,
)
from .orderstats import (
    KRatioMatrix,
    PowerKRule,
    IntermediateSpec,
    OSBatch,
    componentwise_os,
    standardize_copula_case,
    standardize_general_case,
    theoretical_sigma,
    theoretical_sigma_equal_k,
)
from .chi2rep import (
    NotPositiveSemidefiniteError,
    univariate_ratio_sample,
    correlated_ratio_sample,
    representation_distance,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    TolerancePolicy,
    InvalidConfigError,
    run_experiment,
)

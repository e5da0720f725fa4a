"""sampenopt: sample entropy for short signals.

Exact SampEn/FuzzEn computation, stationary-bootstrap uncertainty, joint
(m, r, q) hyperparameter selection by TPE Bayesian optimization, baseline
selection strategies, and the statistical tooling (ADF, Holm-Sidak,
Mann-Whitney) needed to preprocess signal sets and compare entropy
distributions.
"""

from .baselines import (
    BaselineResult,
    RadiusGrid,
    ar_order_m,
    convergence_select,
    gaussian_mse_approx,
    knee_point,
    sampeneff_select,
    standard_params_eval,
)
from .bootstrap import BootstrapConfig, BootstrapEstimates, bootstrap_sampen, stationary_bootstrap
from .entropy import (
    MatchCounts,
    SampEnParams,
    SampEnResult,
    count_matches,
    counting_se,
    cp_sigma,
    fuzzen,
    sampen,
)
from .experiments import (
    MethodComparisonConfig,
    VarBenchConfig,
    VarBenchResult,
    estimator_error,
    method_comparison,
    true_variance,
)
from .optimizer import (
    OptResult,
    OptimizerConfig,
    objective_set,
    objective_single,
    optimize_set,
    optimize_single,
)
from .signal import (
    Ar1Config,
    Signal,
    SignalSet,
    difference,
    gen_ar1,
    gen_signal_set,
    gen_white_noise,
    normalize,
)
from .stats import (
    AdfResult,
    ComparisonResult,
    StationarityReport,
    adf_test,
    holm_sidak,
    mann_whitney_u,
    stationarity_pipeline,
)
from .tpe import ParamDomain, ParamVector, Trial, propose

__version__ = "0.1.0"

"""Penalized covariate-mediator selection for total-effect estimation.

Estimates the total causal effect of a treatment on an outcome in a linear
structural causal model, selecting among candidate covariates and candidate
mediators with weighted-L1 stages, then debiasing the selected coefficients.
Also provides the classical adjustment estimators (back-door and front-door
style least squares, lasso family), graph identification-criterion checks, a
linear-SCM simulator, cross-validation tuning, and a Monte Carlo benchmark
harness with a CLI.
"""

from .baselines import back_door_estimate, baseline_penalized, front_door_like_estimate
from .data import Dataset, RolePartition
from .errors import PcmSelectError
from .experiment import (
    ExperimentConfig,
    McResult,
    MethodSpec,
    SummaryRow,
    run_monte_carlo,
    summarize,
)
from .graphs import Dag, minimal_mediator_sets
from .linalg import (
    pseudo_inverse,
    standardize,
)
from .pcm import (
    AdaptiveWeights,
    PcmFit,
    PcmParams,
    PilotEstimates,
    adaptive_weights,
    debias_ridges,
    ols_joint,
    pcm_correct,
    pcm_stage1_m,
    pcm_stage1_y,
    pcm_total_effect,
    ridge_pilot_m,
    ridge_pilot_y,
    verify_active_set_relation,
)
from .scm import (
    CovarianceSpec,
    LinearScm,
    build_experiment_scm,
    coupling_dag,
    random_correlation,
)

__version__ = "0.1.0"


def __getattr__(name):
    # cross-validation loads on first use: a Monte Carlo run never needs it, and
    # the module's code adds about 0.2 MiB to the resident memory of a process
    if name in ("ParamGrid", "cross_validate"):
        from . import tuning

        return getattr(tuning, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AdaptiveWeights",
    "CovarianceSpec",
    "Dag",
    "Dataset",
    "ExperimentConfig",
    "LinearScm",
    "McResult",
    "MethodSpec",
    "ParamGrid",
    "PcmFit",
    "PcmParams",
    "PcmSelectError",
    "PilotEstimates",
    "RolePartition",
    "SummaryRow",
    "adaptive_weights",
    "back_door_estimate",
    "baseline_penalized",
    "build_experiment_scm",
    "coupling_dag",
    "cross_validate",
    "debias_ridges",
    "front_door_like_estimate",
    "minimal_mediator_sets",
    "ols_joint",
    "pcm_correct",
    "pcm_stage1_m",
    "pcm_stage1_y",
    "pcm_total_effect",
    "pseudo_inverse",
    "random_correlation",
    "ridge_pilot_m",
    "ridge_pilot_y",
    "run_monte_carlo",
    "standardize",
    "summarize",
    "verify_active_set_relation",
]

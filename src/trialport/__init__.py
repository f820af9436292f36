"""Extending causal inferences from a randomized trial to a target population.

Simulation of nested and non-nested (composite dataset) study designs,
g-formula and inverse-probability-weighted estimation of potential outcome
means, weighted pseudo-likelihood fitting of the trial-participation model,
and a seeded Monte Carlo verification harness.
"""

from .dgp import (
    ActualPopulation,
    Bernoulli,
    DgpSpec,
    Normal,
    OracleTruth,
    Uniform,
    oracle_truth,
    simulate_actual_population,
)
from .domain import (
    CensusNested,
    Estimand,
    NonNested,
    ObservedDataset,
    StepRule,
    SubsampledNested,
    SubsampledNestedCovariate,
    identification_matrix,
)
from .errors import (
    ConfigError,
    DataError,
    InsufficientData,
    NoExternalRows,
    NonConvergence,
    NotIdentifiable,
    RankDeficient,
    SeparationDetected,
    TrialportError,
)
from .estimators import (
    EstimateReport,
    Method,
    StudyPopulation,
    gformula_mean_nonrandomized,
    gformula_mean_randomized,
    gformula_mean_target,
    ipw_mean_nonrandomized,
    ipw_mean_target,
    trial_only_mean,
)
from .experiment import (
    EstimatorSpec,
    ExperimentConfig,
    ExperimentSummary,
    MisspecifySpec,
    bootstrap_se,
    default_estimators,
    design_comparison,
    mix_seed,
    run_experiment,
)
from .outcome import OutcomeModel, fit_outcome, predict
from .participation import (
    ParticipationModel,
    Scale,
    fit_participation,
    marginal_participation_probability,
    participation_probability,
)
from .sampling import apply_design

__version__ = "0.1.0"

__all__ = [
    "ActualPopulation",
    "Bernoulli",
    "CensusNested",
    "ConfigError",
    "DataError",
    "DgpSpec",
    "Estimand",
    "EstimateReport",
    "EstimatorSpec",
    "ExperimentConfig",
    "ExperimentSummary",
    "InsufficientData",
    "Method",
    "MisspecifySpec",
    "NoExternalRows",
    "NonConvergence",
    "NonNested",
    "Normal",
    "NotIdentifiable",
    "ObservedDataset",
    "OracleTruth",
    "OutcomeModel",
    "ParticipationModel",
    "RankDeficient",
    "Scale",
    "SeparationDetected",
    "StepRule",
    "StudyPopulation",
    "SubsampledNested",
    "SubsampledNestedCovariate",
    "TrialportError",
    "Uniform",
    "apply_design",
    "bootstrap_se",
    "default_estimators",
    "design_comparison",
    "fit_outcome",
    "fit_participation",
    "gformula_mean_nonrandomized",
    "gformula_mean_randomized",
    "gformula_mean_target",
    "identification_matrix",
    "ipw_mean_nonrandomized",
    "ipw_mean_target",
    "marginal_participation_probability",
    "mix_seed",
    "oracle_truth",
    "participation_probability",
    "predict",
    "run_experiment",
    "simulate_actual_population",
    "trial_only_mean",
]

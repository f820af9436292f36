"""Generating processes shared by several test modules."""

import trialport as tp

# two covariates, as in the CLI's digest configuration
P2_DGP = tp.DgpSpec(
    covariates=(tp.Normal(0.0, 1.0), tp.Uniform(-1.0, 1.0)),
    participation_logit=(-1.0, 0.5, -0.4),
    treatment_prob=0.5,
    outcome_mean_a0=(1.0, 1.0, 0.5),
    outcome_mean_a1=(2.0, 1.3, -0.3),
    noise_sd=1.0,
    seed=4711,
    aux_split=1,
)

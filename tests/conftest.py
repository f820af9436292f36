import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import trialport as tp

sys.path.insert(0, str(Path(__file__).parent))

from support import oracles  # noqa: E402


@pytest.fixture
def dgp1():
    return oracles.make_dgp1(seed=20240901)


@pytest.fixture
def over_budget_dgp():
    """DGP-1's covariate plus three steep Uniform ones: too large a grid for an exact truth."""
    return tp.DgpSpec(
        covariates=(tp.Normal(0.0, 1.0),) + (tp.Uniform(0.0, 1.0),) * 3,
        participation_logit=(-1.0, 0.5, 4.0, -4.0, 3.0),
        treatment_prob=0.5,
        outcome_mean_a0=(1.0, 1.0, 0.5, 0.0, -0.5),
        outcome_mean_a1=(2.0, 1.3, -0.3, 0.2, 0.0),
        noise_sd=1.0,
        seed=20240901,
        aux_split=1,
    )


@pytest.fixture(scope="session")
def dgp1_session():
    return oracles.make_dgp1(seed=20240901)


@pytest.fixture(scope="session")
def census_1m(dgp1_session):
    pop = tp.simulate_actual_population(dgp1_session, 1_000_000)
    return tp.apply_design(pop, tp.CensusNested(), seed=11)


@pytest.fixture(scope="session")
def subsampled_1m(dgp1_session):
    pop = tp.simulate_actual_population(dgp1_session, 1_000_000)
    return tp.apply_design(pop, tp.SubsampledNested(c=0.3), seed=12)


@pytest.fixture(scope="session")
def nonnested_1m(dgp1_session):
    pop = tp.simulate_actual_population(dgp1_session, 1_000_000)
    return tp.apply_design(pop, tp.NonNested(u_hidden=0.2), seed=13)


@pytest.fixture(scope="session")
def census_models_1m(census_1m):
    return tp.fit_participation(census_1m), tp.fit_outcome(census_1m)


def as_non_nested(data):
    """The same rows relabelled non-nested: fitting them gives the sample-scale model."""
    return dataclasses.replace(data, design=tp.NonNested(), n_unsampled_nonrandomized=None)


def make_tiny_dataset(
    design=None,
    n_trial=6,
    n_external=4,
    p=1,
    k=None,
    n_unsampled=0,
    seed=5,
):
    """Hand-sized dataset with both arms present; covariates standard normal."""
    rng = np.random.Generator(np.random.Philox(seed))
    design = design if design is not None else tp.CensusNested()
    n = n_trial + n_external
    x = rng.normal(size=(n, p))
    s = np.array([1] * n_trial + [0] * n_external)
    a = np.full(n, np.nan)
    a[:n_trial] = [i % 2 for i in range(n_trial)]
    y = np.full(n, np.nan)
    y[:n_trial] = rng.normal(size=n_trial)
    nested = not isinstance(design, tp.NonNested)
    return tp.ObservedDataset(
        x=x,
        s=s,
        a=a,
        y=y,
        design=design,
        k=p if k is None else k,
        treatment_prob=0.5,
        n_unsampled_nonrandomized=n_unsampled if nested else None,
    )


@pytest.fixture
def tiny_dataset():
    return make_tiny_dataset()

"""Apply a study design to a simulated actual population.

Thinning is independent Bernoulli per unit (the per-unit sampling-probability
statements of the designs), driven by a counter-based stream so a fixed seed
gives identical output regardless of partitioning. Fixed-size sampling without
replacement is deliberately not offered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dgp import ActualPopulation, _stream
from .domain import (
    CensusNested,
    Design,
    NonNested,
    ObservedDataset,
    SubsampledNested,
    SubsampledNestedCovariate,
    known_sampling_fractions,
)
from .errors import DataError

# spawn-key prefix for thinning draws; distinct from the dgp module's prefixes
_THIN = 2


def _thin(
    population: ActualPopulation, design: Design, external: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The design's thinning draw over the population's external units.

    Returns ``(prob, kept)``, both over the external units in order: each
    unit's Pr[D=1 | S=0] and whether the draw keeps it.
    """
    n_external = int(external.sum())
    if isinstance(design, NonNested):
        if design.u_hidden is None:
            raise DataError("simulating a non-nested design requires u_hidden")
        prob = np.full(n_external, design.u_hidden)
    else:
        prob = known_sampling_fractions(design, population.x[external, : population.aux_split])
    u = _stream(seed, _THIN, 0).random(n_external)
    return prob, u < prob


def apply_design(population: ActualPopulation, design: Design, seed: int) -> ObservedDataset:
    """Produce the design-masked observed dataset.

    Every trial participant is kept (Pr[D=1|S=1] = 1 in all designs).
    Non-randomized units are kept independently with the design's probability;
    kept ones are stripped of treatment and outcome. For nested designs the
    number of dropped units is recorded; for non-nested designs it is unknown
    and absent.
    """
    s = population.s == 1
    if not s.any():
        raise DataError("population contains no trial participants")
    external = ~s

    kept_external = np.zeros(len(population), dtype=bool)
    kept_external[external] = _thin(population, design, external, seed)[1]

    keep = s | kept_external
    n_unsampled = int(external.sum() - kept_external.sum())

    a = np.where(s[keep], population.a[keep].astype(float), np.nan)
    y = np.where(s[keep], population.y[keep], np.nan)
    return ObservedDataset(
        x=population.x[keep],
        s=population.s[keep],
        a=a,
        y=y,
        design=design,
        k=population.aux_split,
        treatment_prob=population.treatment_prob,
        n_unsampled_nonrandomized=None if isinstance(design, NonNested) else n_unsampled,
    )


@dataclass(frozen=True)
class StratumCheck:
    """One stratum's kept count against its expected fraction.

    ``expected_fraction`` is the stratum mean of the per-unit design fraction;
    a stratum whose units share one fraction reports that fraction exactly.
    """

    stratum: str
    n: int
    kept: int
    expected_fraction: float
    se: float
    within: bool


@dataclass(frozen=True)
class IndependenceCheckReport:
    """Kept-fraction diagnostics for the design property Pr[D=1 | X, A, Y, S=0] = c.

    Each stratum of the non-randomized units (covariate quartiles, potential-
    outcome signs) should show a kept fraction within 4 binomial standard
    errors of the design's sampling fraction: the stratum mean of the
    per-unit fraction, c(X1) for covariate-dependent rules. A stratum whose
    units share one fraction reports that fraction exactly.
    """

    strata: tuple[StratumCheck, ...]

    @property
    def passed(self) -> bool:
        return all(row.within for row in self.strata)


def _stratum_rows(population: ActualPopulation, external_idx: np.ndarray):
    """Yield (label, member mask over external units)."""
    x = population.x[external_idx]
    for j in range(population.p):
        col = x[:, j]
        edges = np.quantile(col, [0.25, 0.5, 0.75])
        bins = np.searchsorted(edges, col, side="left")
        for q in range(4):
            mask = bins == q
            if mask.any():
                yield f"x{j + 1}_q{q + 1}", mask
    for name, vals in (("y0", population.y0[external_idx]), ("y1", population.y1[external_idx])):
        for label, mask in ((f"{name}_neg", vals < 0), (f"{name}_nonneg", vals >= 0)):
            if mask.any():
                yield label, mask


def _exact_mean(p: np.ndarray) -> float:
    """Mean of ``p`` as a count-share-weighted sum over its distinct values.

    A constant array gets weight 1.0 on its one value, so its mean is that
    value bit for bit; summing and dividing by n is off by an ulp for
    non-dyadic constants such as 0.2.
    """
    values, counts = np.unique(p, return_counts=True)
    return float(np.dot(values, counts / p.size))


def sampling_indicator_independence_check(
    population: ActualPopulation, design: Design, seed: int
) -> IndependenceCheckReport:
    """Empirically verify that thinning ignores covariates and outcomes.

    Applies the design's thinning to the population, then compares kept
    fractions across strata of X (per-coordinate quartiles) and across
    potential-outcome signs against the design fraction. Each stratum's
    ``expected_fraction`` is the mean of its units' design fractions, exact
    when they all share one value.
    """
    if isinstance(design, CensusNested):
        raise ValueError("the census design keeps everyone; nothing to check")
    if not isinstance(design, (SubsampledNested, SubsampledNestedCovariate, NonNested)):
        raise TypeError(f"not a study design: {design!r}")

    external = population.s == 0
    external_idx = np.flatnonzero(external)
    if external_idx.size == 0:
        raise DataError("population contains no non-randomized units")

    prob, kept = _thin(population, design, external, seed)

    rows = []
    for label, mask in _stratum_rows(population, external_idx):
        n = int(mask.sum())
        k = int(kept[mask].sum())
        expected = _exact_mean(prob[mask])
        se = float(np.sqrt(np.sum(prob[mask] * (1.0 - prob[mask]))) / n)
        within = abs(k / n - expected) <= 4.0 * se if se > 0 else k == n * expected
        rows.append(StratumCheck(label, n, k, expected, se, within))
    return IndependenceCheckReport(strata=tuple(rows))

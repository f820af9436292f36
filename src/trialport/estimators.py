"""Point estimators for potential outcome means, gated by design identifiability.

Two routes per estimand: standardization of the trial outcome regression over
an estimated covariate distribution (the g-formula route), and inverse
participation-probability (or odds) weighting of trial outcomes. Every
estimator first checks the study design's identification gate and raises
:class:`NotIdentifiable` rather than silently returning a number.

The estimator inputs — trial, external and per-arm rows, the known design
weights, and the target and non-randomized weight sets with their totals and
diagnostics — are cached on the ``ObservedDataset`` itself, derived once and
shared by every estimator and fit on it; each estimator adds only the work
that depends on its model and arm. A report's weight diagnostics (maximum
normalized weight, effective sample size, and the warnings that depend on
them) are computed on their first read, not by the estimator: the
replication harness and the bootstrap read only the value.

Every estimator also takes per-row frequency ``counts`` (a bootstrap
resample's): a row of count k counts k times in each sum and in the weight
diagnostics, which gives the estimate on the resampled rows without them.

The non-randomized-mean weighting estimator is deliberately built from
intercept-free slope scores: multiplicative constants in the participation
odds cancel in its ratio, and dropping the intercept before exponentiation
makes that cancellation exact down to the bit level. Only a constant
cancels: a nested fit is on the population scale and a non-nested fit is
shifted by a constant, but a shifted model under covariate-dependent sampling
would be off by ln c(X1), which varies by row, so it is refused.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .domain import ObservedDataset, SubsampledNestedCovariate, _weight_diagnostics
from .errors import InsufficientData
from .outcome import OutcomeModel, predict
from .participation import ParticipationModel, Scale, participation_probability

EXTREME_WEIGHT_THRESHOLD = 0.1
# a share within this relative distance of the threshold ties with it: ten equal
# weights give 0.1 up to rounding, which differs between rows and their counts
_TIE_RTOL = 1e-12


class Method(enum.Enum):
    GFORMULA = "gformula"
    IPW_HT = "ipw_ht"
    IPW_HAJEK = "ipw_hajek"
    TRIAL_ONLY = "trial_only"


class StudyPopulation(enum.Enum):
    TARGET = "target"
    NONRANDOMIZED = "nonrandomized"
    RANDOMIZED = "randomized"


@dataclass(frozen=True)
class EstimateReport:
    """A point estimate of an identifiable quantity, with provenance and weight diagnostics.

    ``estimand``, ``arm``, ``method`` and ``value`` are its fields, and equality
    compares them alone. ``max_normalized_weight``, ``effective_sample_size`` and
    ``warnings`` are computed once, on first read, from the weights that the
    estimator used; :meth:`to_dict` and :meth:`to_csv_row` read them.
    """

    estimand: StudyPopulation
    arm: int
    method: Method
    value: float
    # () -> (max normalized weight, effective sample size), called on first read
    _diagnose: Callable[[], tuple[float, float]] = field(repr=False, compare=False)
    # the estimator's own warnings, before the extreme-weight one
    _notes: tuple[str, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def _diagnostics(self) -> tuple[float, float]:
        return self._diagnose()

    @property
    def max_normalized_weight(self) -> float:
        return self._diagnostics[0]

    @property
    def effective_sample_size(self) -> float:
        return self._diagnostics[1]

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        max_w = self.max_normalized_weight
        if max_w > EXTREME_WEIGHT_THRESHOLD * (1.0 + _TIE_RTOL):
            return self._notes + (
                f"extreme weights: max normalized weight {max_w:.3g} > {EXTREME_WEIGHT_THRESHOLD}",
            )
        return self._notes

    def to_dict(self) -> dict:
        return {
            "estimand": self.estimand.value,
            "arm": self.arm,
            "method": self.method.value,
            "value": self.value,
            "identifiable": True,  # a quantity that is not raises NotIdentifiable instead
            "max_normalized_weight": self.max_normalized_weight,
            "effective_sample_size": self.effective_sample_size,
            "warnings": list(self.warnings),
        }

    CSV_HEADER = "estimand,arm,method,value,ess,max_weight,identifiable"

    def to_csv_row(self) -> str:
        cells = (
            self.estimand.value,
            str(self.arm),
            self.method.value,
            repr(self.value),
            repr(self.effective_sample_size),
            repr(self.max_normalized_weight),
            "true",
        )
        return ",".join(cells)


def _report(estimand, arm, method, value, diagnose, notes=()):
    """The report of ``value``; ``diagnose()`` gives its weight diagnostics when they are read."""
    return EstimateReport(estimand, arm, method, float(value), diagnose, tuple(notes))


def _mean(values: np.ndarray, counts) -> float:
    """The mean of ``values``, each counted as often as ``counts`` says (None: once)."""
    if counts is None:
        return float(np.mean(values))
    return float(np.einsum("i,i", counts, values) / counts.sum())


def _arm_sample(data: ObservedDataset, arm: int, counts):
    """(x, y, counts) of ``arm``'s trial rows: all of them, with counts None, when
    ``counts`` is None, else those of positive count, with their counts."""
    rows = data.arm(arm)
    if counts is None:
        return rows.x, rows.y, None
    arm_counts = counts.take(rows.positions)
    drawn = np.flatnonzero(arm_counts > 0)
    if not drawn.size:
        raise InsufficientData(f"no trial row of arm {arm} is counted")
    return rows.x.take(drawn, axis=0), rows.y.take(drawn), arm_counts.take(drawn)


# ---------------------------------------------------------------------------
# G-formula route


def gformula_mean_target(
    data: ObservedDataset, model: OutcomeModel, arm: int, counts=None
) -> EstimateReport:
    """Standardize the trial outcome regression over the target covariate law.

    Weighted average of per-row predictions with target-population weights; a
    plain average over all rows for a census.
    """
    weights, total, diagnose = data.target.counted(counts)
    preds = predict(model, arm, data.x)
    value = float(np.sum(weights * preds) / total)
    return _report(StudyPopulation.TARGET, arm, Method.GFORMULA, value, diagnose)


def gformula_mean_nonrandomized(
    data: ObservedDataset, model: OutcomeModel, arm: int, counts=None
) -> EstimateReport:
    """Average the trial outcome regression over sampled non-randomized rows.

    Identifiable under every design, non-nested included.
    """
    weights, total, diagnose = data.nonrandomized.counted(counts)
    preds = predict(model, arm, data.external_x)
    value = float(np.sum(weights.take(data._external_rows) * preds) / total)
    return _report(StudyPopulation.NONRANDOMIZED, arm, Method.GFORMULA, value, diagnose)


def gformula_mean_randomized(
    data: ObservedDataset, model: OutcomeModel, arm: int, counts=None
) -> EstimateReport:
    """Average the trial outcome regression over trial rows (the S=1 stratum)."""
    trial_x = data.trial_x
    trial_counts = None if counts is None else counts.take(data._trial_rows)
    value = _mean(predict(model, arm, trial_x), trial_counts)
    return _report(
        StudyPopulation.RANDOMIZED, arm, Method.GFORMULA, value,
        lambda: _weight_diagnostics(np.ones(len(trial_x)), trial_counts),
    )


# ---------------------------------------------------------------------------
# Inverse-probability route


def _truncate(weights: np.ndarray, q: float | None, counts) -> tuple[np.ndarray, tuple[str, ...]]:
    if q is None:
        return weights, ()
    if counts is not None:
        # the cap is a quantile of the rows, and a counted row would have to repeat in it
        raise ValueError("weight truncation does not take row counts")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"truncation quantile must be in (0, 1], got {q}")
    cap = float(np.quantile(weights, q))
    return np.minimum(weights, cap), (f"weights truncated at q={q:g} (cap {cap:.6g})",)


def ipw_mean_target(
    data: ObservedDataset,
    model: ParticipationModel,
    arm: int,
    variant: str = "hajek",
    truncate_q: float | None = None,
    counts=None,
) -> EstimateReport:
    """Weight trial outcomes by inverse participation and treatment probability.

    ``variant="ht"`` normalizes by the estimated target-population size (the
    sum of the target standardization weights); ``"hajek"`` normalizes by the
    sum of the inverse-probability weights themselves, which bounds the
    estimate by the outcome range and makes constant weights cancel exactly.
    """
    if variant not in ("ht", "hajek"):
        raise ValueError(f"variant must be 'ht' or 'hajek', got {variant!r}")
    target = data.target  # also enforces the gate
    x, y, arm_counts = _arm_sample(data, arm, counts)
    prob = participation_probability(model, data.design, x)
    w = 1.0 / (prob * data.prob_treatment(arm))
    w, notes = _truncate(w, truncate_q, counts)
    counted = w if arm_counts is None else w * arm_counts
    if variant == "ht":
        value = float(np.sum(y * counted) / target.counted(counts)[1])
        method = Method.IPW_HT
    else:
        value = float(np.sum(y * counted) / np.sum(counted))
        method = Method.IPW_HAJEK
    return _report(
        StudyPopulation.TARGET, arm, method, value, lambda: _weight_diagnostics(w, arm_counts),
        notes,
    )


def ipw_mean_nonrandomized(
    data: ObservedDataset,
    model: ParticipationModel,
    arm: int,
    truncate_q: float | None = None,
    counts=None,
) -> EstimateReport:
    """Ratio estimator of the non-randomized mean from inverse participation odds.

    Works for every design: the weights enter numerator and denominator
    through the same factor, so unknown multiplicative constants in the odds
    cancel. Weights are computed from intercept-free slope scores (centered at
    their minimum before exponentiation), so any intercept shift of the model
    leaves the estimate bit-identical. A SHIFTED model under
    covariate-dependent sampling raises ``ValueError``: its log odds would be
    off by ln c(X1), which is no constant.
    """
    if model.scale is Scale.SHIFTED and isinstance(data.design, SubsampledNestedCovariate):
        raise ValueError(
            "a shifted participation model is off by ln c(X1) under covariate-dependent "
            "sampling; fit it on the nested design"
        )
    x, y, arm_counts = _arm_sample(data, arm, counts)
    score = model.slope_score(x)
    w = np.exp(score.min() - score) / data.prob_treatment(arm)
    w, notes = _truncate(w, truncate_q, counts)
    counted = w if arm_counts is None else w * arm_counts
    value = float(np.sum(y * counted) / np.sum(counted))
    return _report(
        StudyPopulation.NONRANDOMIZED, arm, Method.IPW_HAJEK, value,
        lambda: _weight_diagnostics(w, arm_counts), notes,
    )


def trial_only_mean(data: ObservedDataset, arm: int, counts=None) -> EstimateReport:
    """Unweighted outcome mean among trial participants assigned to ``arm``.

    Estimates the randomized-stratum mean E[Y^a | S=1] under marginal
    randomization; its contrast with the non-randomized estimates is the
    basic transportability diagnostic.
    """
    _, y, arm_counts = _arm_sample(data, arm, counts)
    return _report(
        StudyPopulation.RANDOMIZED, arm, Method.TRIAL_ONLY, _mean(y, arm_counts),
        lambda: _weight_diagnostics(np.ones(y.size), arm_counts),
    )

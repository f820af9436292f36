"""Trial-participation model: weighted maximum likelihood and probability/odds conversions.

The participation probability Pr[S=1|X] is modeled as main-effects logistic.
How it is fit, and what the fitted coefficients mean, depends on the design:

* census: ordinary logistic likelihood on all rows; coefficients are on the
  population scale.
* nested sub-sampled: weighted pseudo-likelihood with weight 1 on trial rows
  and 1/c (or 1/c(X1)) on sampled external rows. The weighted objective has
  the same large-sample limit as the census objective, so the fit is again on
  the population scale.
* non-nested: unit weights (u is unknown, so no weights are available). For a
  logistic model, unknown constant sub-sampling of the S=0 stratum distorts
  only the intercept — it is shifted by -ln(u) — so slopes are population
  quantities while the intercept is sample-scale ("shifted").

Fitting is Newton-Raphson with step-halving, stopping when the max-norm of
the gradient of the size-normalized objective drops below 1e-8.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .domain import (
    Design,
    Estimand,
    ObservedDataset,
    identification_matrix,
    is_nested,
    known_sampling_fractions,
)
from .errors import (
    InsufficientData,
    NonConvergence,
    NotIdentifiable,
    RankDeficient,
    SeparationDetected,
)

GRAD_TOL = 1e-8
MAX_ITER = 100
SEPARATION_BOUND = 30.0


class Scale(enum.Enum):
    POPULATION = "population"
    SHIFTED = "shifted"


@dataclass(frozen=True)
class ParticipationModel:
    """Fitted logistic participation model plus its scale context.

    ``coefficients`` is (intercept, slope_1..slope_p). With ``POPULATION``
    scale the model directly parameterizes Pr[S=1|X]; with ``SHIFTED`` scale
    the intercept absorbs an unknown (or uncorrected) log sampling fraction
    and only odds ratios / slopes carry population meaning.
    """

    coefficients: np.ndarray
    scale: Scale
    objective: float
    grad_norm: float
    iterations: int

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != 1 or not np.all(np.isfinite(coef)):
            raise ValueError("coefficients must be a finite 1-D vector")
        object.__setattr__(self, "coefficients", coef)
        coef.flags.writeable = False

    def slope_score(self, x: np.ndarray) -> np.ndarray:
        """Intercept-free part of the log odds, vectorized over rows."""
        return np.atleast_2d(x) @ self.coefficients[1:]

    def to_dict(self) -> dict:
        return {
            "coefficients": [float(v) for v in self.coefficients],
            "scale": self.scale.value,
            "objective": self.objective,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "ParticipationModel":
        return cls(
            coefficients=np.asarray(d["coefficients"], dtype=float),
            scale=Scale(d["scale"]),
            objective=float(d["objective"]),
            grad_norm=float(d["grad_norm"]),
            iterations=int(d["iterations"]),
        )


# ---------------------------------------------------------------------------
# Weighted pseudo-likelihood objective


def log_pseudo_likelihood(coef, xmat, labels, weights, norm: float) -> float:
    """Size-normalized weighted Bernoulli log likelihood.

    sum_i w_i * (s_i * log p_i + (1 - s_i) * log(1 - p_i)) / norm, with
    p_i = logistic(xmat_i . coef), computed in a numerically stable form.
    ``norm`` is the actual-population size for nested fits (rows plus the
    unsampled tally) so that census and weighted fits share a limit.
    """
    eta = xmat @ np.asarray(coef, dtype=float)
    return float(np.sum(weights * (labels * eta - np.logaddexp(0.0, eta))) / norm)


def log_pseudo_likelihood_gradient(coef, xmat, labels, weights, norm: float) -> np.ndarray:
    """Analytic gradient of :func:`log_pseudo_likelihood` in the coefficients."""
    prob = expit(xmat @ np.asarray(coef, dtype=float))
    return xmat.T @ (weights * (labels - prob)) / norm


def _newton_fit(xmat, labels, weights, norm):
    """Maximize the weighted objective; returns (coef, objective, grad_norm, iters)."""
    n, q = xmat.shape
    coef = np.zeros(q)

    # rank guard on the weighted design matrix before iterating
    wpq0 = weights * 0.25
    hess0 = xmat.T @ (xmat * wpq0[:, None])
    if np.linalg.matrix_rank(hess0) < q:
        raise RankDeficient("weighted design matrix is rank deficient")

    obj = log_pseudo_likelihood(coef, xmat, labels, weights, norm)
    for it in range(1, MAX_ITER + 1):
        grad = log_pseudo_likelihood_gradient(coef, xmat, labels, weights, norm)
        gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        if gnorm < GRAD_TOL:
            return coef, obj, gnorm, it - 1

        prob = expit(xmat @ coef)
        wpq = weights * prob * (1.0 - prob)
        hess = xmat.T @ (xmat * wpq[:, None]) / norm
        try:
            delta = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("singular Hessian in participation fit") from exc

        step = 1.0
        while True:
            cand = coef + step * delta
            cand_obj = log_pseudo_likelihood(cand, xmat, labels, weights, norm)
            if cand_obj >= obj:
                break
            step *= 0.5
            if step < 2.0**-30:
                raise NonConvergence(
                    f"step halving stalled (gradient max-norm {gnorm:.3e})", gnorm
                )
        coef, obj = cand, cand_obj
        if np.max(np.abs(coef)) > SEPARATION_BOUND:
            raise SeparationDetected(
                "participation coefficients diverged beyond "
                f"{SEPARATION_BOUND:g}; data are likely separated"
            )

    grad = log_pseudo_likelihood_gradient(coef, xmat, labels, weights, norm)
    gnorm = float(np.max(np.abs(grad)))
    if gnorm < GRAD_TOL:
        return coef, obj, gnorm, MAX_ITER
    raise NonConvergence(
        f"no convergence in {MAX_ITER} iterations (gradient max-norm {gnorm:.3e})", gnorm
    )


def participation_design(data: ObservedDataset, weighted: bool = True):
    """Design matrix, labels, weights, and normalization for the participation fit.

    Returns ``(xmat, labels, weights, norm)``. Weights are 1 on trial rows and,
    when ``weighted`` and the design is nested, 1/c (or 1/c(X1)) on external
    rows; non-nested data always gets unit weights. ``norm`` is the known
    actual-population size for nested designs and the row count otherwise.
    """
    n = data.n_rows
    xmat = np.column_stack([np.ones(n), data.x])
    labels = data.s.astype(float)
    weights = np.ones(n)
    if is_nested(data.design):
        if weighted:
            ext = data.external_mask
            frac = known_sampling_fractions(data.design, data.aux[ext])
            weights[ext] = 1.0 / frac
        norm = float(n + (data.n_unsampled_nonrandomized or 0))
    else:
        norm = float(n)
    return xmat, labels, weights, norm


def fit_participation(data: ObservedDataset, weighted: bool = True) -> ParticipationModel:
    """Fit the logistic participation model by (weighted) maximum likelihood.

    ``weighted=False`` on a nested sub-sampled design fits the sample-scale
    model instead (useful as the odds-correction cross-check route); the
    resulting model is marked SHIFTED unless all weights would have been 1
    anyway. Non-nested data is always fit unweighted and marked SHIFTED.
    """
    if data.n_trial == 0 or data.n_external == 0:
        raise InsufficientData("participation fit needs both trial and external records")
    xmat, labels, weights, norm = participation_design(data, weighted)
    coef, obj, gnorm, iters = _newton_fit(xmat, labels, weights, norm)

    if is_nested(data.design):
        if weighted:
            population_scale = True
        else:
            # an unweighted fit is still population-scale when the design
            # would not have down-sampled anyone (census, c = 1)
            ext = data.external_mask
            frac = known_sampling_fractions(data.design, data.aux[ext])
            population_scale = bool(np.all(frac == 1.0))
    else:
        population_scale = False
    return ParticipationModel(
        coefficients=coef,
        scale=Scale.POPULATION if population_scale else Scale.SHIFTED,
        objective=obj,
        grad_norm=gnorm,
        iterations=iters,
    )


# ---------------------------------------------------------------------------
# Probability / odds identities


def marginal_participation_probability(data: ObservedDataset) -> float:
    """Pr[S=1] from sampled counts and the known sampling fraction.

    Inverts the identity Pr[S=1] = 1 / (1 + sample-odds(S=0) / c): sampled
    external rows are up-weighted by 1/c (or 1/c(X1)) to recover the
    non-randomized head count.
    """
    if Estimand.MARGINAL_PARTICIPATION not in identification_matrix(data.design):
        raise NotIdentifiable(
            "marginal trial-participation probability is "
            "not identifiable under non-nested design"
        )
    ext = data.external_mask
    frac = known_sampling_fractions(data.design, data.aux[ext])
    n1 = float(data.n_trial)
    return n1 / (n1 + float(np.sum(1.0 / frac)))


def _fitted_logit(model: ParticipationModel, x) -> float:
    """Fitted log odds (intercept + slopes . x) at one covariate row ``x``."""
    return float(model.coefficients[0] + np.asarray(x, dtype=float) @ model.coefficients[1:])


def _known_fraction(design: Design, x) -> float:
    # auxiliary covariates are the leading coordinates, so a full row is a
    # safe superset of the auxiliary block
    return float(known_sampling_fractions(design, np.asarray(x, dtype=float).reshape(1, -1))[0])


def _require_conditional_participation(design: Design, what: str) -> None:
    if Estimand.CONDITIONAL_PARTICIPATION not in identification_matrix(design):
        raise NotIdentifiable(f"{what} not identifiable under non-nested design")


def participation_probability(model: ParticipationModel, design: Design, x) -> float:
    """Population-scale Pr[S=1 | X=x].

    Population-scale models evaluate directly. A shifted (sample-scale) model
    is converted with the design's known sampling fraction: population odds
    equal sample odds times c(x). Under a non-nested design the probability is
    not identifiable, whatever the model's scale.
    """
    _require_conditional_participation(design, "conditional trial-participation probability is")
    if model.scale is Scale.POPULATION:
        return float(expit(_fitted_logit(model, x)))
    odds = float(np.exp(_fitted_logit(model, x))) * _known_fraction(design, x)
    return odds / (1.0 + odds)


def participation_odds_up_to_constant(model: ParticipationModel, x) -> float:
    """exp(intercept + slopes . x).

    Equals the population odds of trial participation times an unknown
    positive constant; the constant is 1 for population-scale models.
    """
    return float(np.exp(_fitted_logit(model, x)))


def odds_population(model: ParticipationModel, design: Design, x) -> float:
    """Population-scale odds of trial participation at ``x``.

    For population-scale models this is exp(log-odds) directly; for
    sample-scale models fit on nested data the known fraction converts:
    population odds = sample odds * c(x). Both routes agree to solver
    tolerance when applied to the same data.
    """
    _require_conditional_participation(design, "population odds of trial participation are")
    raw = float(np.exp(_fitted_logit(model, x)))
    if model.scale is Scale.POPULATION:
        return raw
    return raw * _known_fraction(design, x)

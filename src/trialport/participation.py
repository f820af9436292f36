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

Fitting is Newton-Raphson with step-halving on the size-normalized
objective. Each iterate's linear predictor eta is computed once, by the line
search that accepts it; one exp(-|eta|) per iterate then gives both the
objective (through a stable softplus) and the fitted probabilities that the
gradient and the Hessian use. The rank guard runs on the first Hessian, which
at coef = 0 is the weighted Gram matrix / 4. The fit stops when the max-norm
of the gradient in standardized coordinates (covariates centred and scaled by
their weighted means and SDs) drops below 1e-8, and raises
``SeparationDetected`` when a standardized coefficient passes 30, so neither
guard depends on the covariates' units.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

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
#
# Both helpers take t = exp(-|eta|), so one exp serves the objective and the
# probabilities, and neither overflows or loses its tail at any |eta|.


def _softplus(eta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log(1 + exp(eta)) = max(eta, 0) + log1p(t)."""
    return np.maximum(eta, 0.0) + np.log1p(t)


def _logistic(eta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-eta)): 1 / (1 + t) where eta >= 0, else t / (1 + t)."""
    return np.where(eta >= 0.0, 1.0, t) / (1.0 + t)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # not `a @ b`: OpenBLAS runs a long ddot on several threads, which then
    # spin for ~0.1 s and take the cores that other replication workers use
    return float(np.einsum("i,i", a, b))


def log_pseudo_likelihood(coef, xmat, labels, weights, norm: float) -> float:
    """Size-normalized weighted Bernoulli log likelihood.

    sum_i w_i * (s_i * log p_i + (1 - s_i) * log(1 - p_i)) / norm, with
    p_i = logistic(xmat_i . coef), computed in a numerically stable form.
    ``norm`` is the actual-population size for nested fits (rows plus the
    unsampled tally) so that census and weighted fits share a limit.
    """
    eta = xmat @ np.asarray(coef, dtype=float)
    softplus = _softplus(eta, np.exp(-np.abs(eta)))
    return (_dot(weights * labels, eta) - _dot(weights, softplus)) / norm


def log_pseudo_likelihood_gradient(coef, xmat, labels, weights, norm: float) -> np.ndarray:
    """Analytic gradient of :func:`log_pseudo_likelihood` in the coefficients."""
    eta = xmat @ np.asarray(coef, dtype=float)
    prob = _logistic(eta, np.exp(-np.abs(eta)))
    return xmat.T @ (weights * (labels - prob)) / norm


def _newton_fit(xmat, labels, weights, norm):
    """Maximize the weighted objective; returns (coef, objective, grad_norm, iters).

    ``xmat``'s first column is the intercept. The convergence and separation
    guards work in standardized coordinates eta = a + sum_j b_j (x_j - m_j) / s_j,
    with m_j and s_j the covariates' weighted means and SDs: the gradient's
    max-norm in (a, b) is compared with ``GRAD_TOL``, and (a, b) themselves
    with ``SEPARATION_BOUND``.
    """
    n, q = xmat.shape
    xt = np.ascontiguousarray(xmat.T)
    xw = xt * weights
    ws = weights * labels
    score0 = xt @ ws
    wsum = float(np.sum(weights))
    xmean = np.sum(xw[1:], axis=1) / wsum
    centred = xt[1:] - xmean[:, None]
    # einsum, not `@`: with one covariate that product is a ddot (see _dot)
    xsd = np.sqrt(np.einsum("ij,ij,j->i", centred, centred, weights) / wsum)

    def objective(eta, t):
        return (_dot(ws, eta) - _dot(weights, _softplus(eta, t))) / norm

    def hessian(prob):
        # unnormalized: X^T diag(w p (1 - p)) X
        return (xw * (prob * (1.0 - prob))) @ xt.T

    coef = np.zeros(q)
    obj = objective(np.zeros(n), np.ones(n))  # eta = 0, t = exp(-0)
    prob = np.full(n, 0.5)
    hess = hessian(prob)  # the weighted Gram matrix / 4
    if np.linalg.matrix_rank(hess) < q:
        raise RankDeficient("weighted design matrix is rank deficient")

    iters = 0
    while True:
        grad = (score0 - xw @ prob) / norm
        # d/da = d/dc_0; d/db_j = (d/dc_j - m_j d/dc_0) / s_j
        std_grad = np.append(grad[0], (grad[1:] - xmean * grad[0]) / xsd)
        gnorm = float(np.max(np.abs(std_grad)))
        if gnorm < GRAD_TOL:
            return coef, obj, gnorm, iters
        if iters == MAX_ITER:
            raise NonConvergence(
                f"no convergence in {MAX_ITER} iterations (gradient max-norm {gnorm:.3e})",
                gnorm,
            )
        if iters:
            hess = hessian(prob)
        iters += 1
        try:
            delta = np.linalg.solve(hess / norm, grad)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient("singular Hessian in participation fit") from exc

        step = 1.0
        while True:
            cand = coef + step * delta
            cand_eta = cand @ xt
            cand_t = np.exp(-np.abs(cand_eta))
            cand_obj = objective(cand_eta, cand_t)
            if cand_obj >= obj:
                break
            step *= 0.5
            if step < 2.0**-30:
                raise NonConvergence(
                    f"step halving stalled (gradient max-norm {gnorm:.3e})", gnorm
                )
        coef, obj = cand, cand_obj
        # a = c_0 + sum_j c_j m_j; b_j = c_j s_j
        standardized = np.append(coef[0] + coef[1:] @ xmean, coef[1:] * xsd)
        if np.max(np.abs(standardized)) > SEPARATION_BOUND:
            raise SeparationDetected(
                "standardized participation coefficients diverged beyond "
                f"{SEPARATION_BOUND:g}; data are likely separated"
            )
        prob = _logistic(cand_eta, cand_t)


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
        eta = _fitted_logit(model, x)
        return float(_logistic(eta, np.exp(-abs(eta))))
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

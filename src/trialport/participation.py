"""Trial-participation model: design-weighted maximum likelihood and probabilities.

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

So a nested fit is on the population scale and a non-nested fit is shifted.
A sample-scale fit of nested rows is the non-nested fit of the same rows.

Fitting is Newton-Raphson from 0 or from a given start point (a bootstrap
refit starts at the full-sample fit), on the size-normalized objective. Each
candidate's linear predictor eta is computed by the step that reaches it; one
exp(-|eta|) then gives both the fitted probabilities that the gradient and
the Hessian use and, through a stable softplus, the objective. The objective
is concave, so a full Newton step whose directional derivative at the
candidate, grad(candidate) . delta, is still >= 0 has raised it, and it is
accepted without the objective. Only a step that fails this sign test is
judged by the objective: taken in full if its predicted gain is below the
objective's rounding, else halved until the objective does not fall. The
objective at the current point is computed then, from its eta computed again
by the same product (a workspace keeps one eta, the candidate's), and at the
end, for the fit to return. At coef = 0 every row has eta = 0 and p = 1/2
exactly, so a cold fit starts without a pass over the rows; at any other
start a workspace keeps eta and the probabilities for the next fit from an
equal start (see :class:`_NewtonWorkspace`). The rank guard runs on the
first Hessian of every fit, X^T diag(w p (1 - p)) X at the start point: at
coef = 0 that is the weighted Gram matrix / 4, and since p (1 - p) > 0 it has
the Gram matrix's rank at any start, so a warm-started fit is guarded like a
cold one. Rows of weight 0 drop out of it, so a refit weighted by a
resample's row counts checks the resample's own rank. The fit stops when the
max-norm of the gradient in standardized coordinates (covariates centred and
scaled by their weighted means and SDs) drops below 1e-8, and raises
``SeparationDetected`` when a standardized coefficient passes 30, so neither
guard depends on the covariates' units.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .domain import (
    Design,
    Estimand,
    ObservedDataset,
    identification_matrix,
    is_nested,
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
    the intercept absorbs an unknown log sampling fraction and only odds
    ratios / slopes carry population meaning.
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
        # einsum, not `@`: a long matrix-vector product runs on several BLAS
        # threads, which spin on after it (see _dot)
        return np.einsum("ij,j->i", np.atleast_2d(x), self.coefficients[1:])

    def to_dict(self) -> dict:
        return {
            "coefficients": [float(v) for v in self.coefficients],
            "scale": self.scale.value,
            "objective": self.objective,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
        }


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


class _NewtonWorkspace:
    """Newton fits of one design matrix and label vector under any row weights.

    Built once from ``(xmat, labels, norm)``; :meth:`fit` may then run many
    times, with different weights and start points, in the same work buffers,
    so repeated fits (e.g. bootstrap refits from row counts) allocate no
    row-sized arrays. A weight of 0 drops a row; an integer weight k counts it
    k times.

    A fit runs only the row passes whose results are not known in advance.
    Under unit weights (census and non-nested fits), X^T diag(w) and w s are
    X^T and the labels themselves, and are not formed. Each candidate gets
    its eta, exp(-|eta|), probabilities and gradient, which an accepted step
    needs anyway. Its buffers:

    * ``_eta``: the latest candidate's eta, until the next step writes
      p (1 - p) over it for the Hessian;
    * ``_prob``: the latest candidate's probabilities;
    * ``_scratch``, (max(q, 2), n): row 0 is the probabilities' and the
      objective's scratch, and row 1 the latest candidate's exp(-|eta|).
      Rows 1 to q - 1 hold the centred covariates before the first step, and
      rows 0 to q - 1 the Hessian's terms at each step.

    So the current point's eta is not kept past its Hessian. Only a step that
    fails the sign test needs it, for the objective there, and :meth:`_set_eta`
    recomputes it by the same product, to the same bits. At convergence after
    a step that passed, the last candidate's eta and exp(-|eta|) are still in
    place for the objective. A start of 0 needs no row pass: eta = 0,
    exp(-|eta|) = 1 and p = 1/2 exactly, and the first Hessian is the same
    product on X^T diag(w) / 4. At any other start, eta, exp(-|eta|), p and
    p (1 - p), which do not depend on the weights, are computed by the first
    fit, in the process that fits, and kept for the next fit from an equal
    start: every bootstrap refit starts at the full-sample fit.
    """

    def __init__(self, xmat, labels, norm: float):
        n, q = xmat.shape
        self.xt = np.ascontiguousarray(xmat.T)
        self.labels = labels
        self.norm = norm
        # X^T diag(w) and w * s, allocated by the first fit whose weights are not all
        # 1: under unit weights they are X^T and the labels themselves, bit for bit
        self._xw = self._ws = None
        # two rows even for an intercept-only fit (see the class docstring)
        self._scratch = np.empty((max(q, 2), n))
        self._eta = np.empty(n)
        self._prob = np.empty(n)
        self._is_pos = np.empty(n, dtype=bool)
        # (eta, exp(-|eta|)) of the latest candidate
        self._cand = (self._eta, self._scratch[1])
        # the last start fitted from, and its ((eta, exp(-|eta|)), p, p (1 - p))
        self._kept_start = self._kept_terms = None

    def _set_eta(self, coef, pair) -> None:
        eta, t = pair
        np.matmul(coef, self.xt, out=eta)
        np.abs(eta, out=t)
        np.exp(np.negative(t, out=t), out=t)

    def _objective(self, weights, ws, pair, log1p_out=None) -> tuple[float, float]:
        """The objective at the pair's eta (:func:`_softplus` into buffers), and its rounding.

        ``ws`` is w * s. log(1 + exp(-|eta|)) goes to ``log1p_out``, by
        default scratch row 1, the candidate's exp(-|eta|), which it spends.
        The rounding is a bound on the objective's rounding error: each of the
        two sums it subtracts adds n rows, so n eps times their sizes.
        """
        eta, t = pair
        softplus = np.maximum(eta, 0.0, out=self._scratch[0])
        softplus += np.log1p(t, out=self._scratch[1] if log1p_out is None else log1p_out)
        fit, spread = _dot(ws, eta), _dot(weights, softplus)
        rounding = t.size * np.finfo(float).eps * (abs(fit) + spread) / self.norm
        return (fit - spread) / self.norm, rounding

    def _set_prob(self, pair, out) -> np.ndarray:
        """Probabilities at the pair's eta: :func:`_logistic` into ``out``."""
        eta, t = pair
        # where(eta >= 0, 1, t) as max(t, eta >= 0), since 0 <= t <= 1: the same
        # values, without a masked copy, which is several times slower
        is_pos = np.greater_equal(eta, 0.0, out=self._is_pos)
        numer = np.maximum(t, is_pos, out=self._scratch[0])
        return np.divide(numer, np.add(1.0, t, out=out), out=out)

    @staticmethod
    def _pq(prob, out) -> np.ndarray:
        """p (1 - p) into ``out``."""
        pq = np.subtract(1.0, prob, out=out)
        pq *= prob
        return pq

    def _hessian(self, xw, pq):
        # unnormalized: X^T diag(w p (1 - p)) X
        return np.multiply(xw, pq, out=self._scratch[: len(xw)]) @ self.xt.T

    def _start_terms(self, start):
        """((eta, exp(-|eta|)), p, p (1 - p)) at ``start``, kept for the next equal start."""
        if self._kept_terms is None:
            n = self.xt.shape[1]
            self._kept_terms = ((np.empty(n), np.empty(n)), np.empty(n), np.empty(n))
        pair, prob, pq = self._kept_terms
        if self._kept_start is None or not np.array_equal(self._kept_start, start):
            self._kept_start = None  # until the terms below are complete
            self._set_eta(start, pair)
            self._pq(self._set_prob(pair, prob), pq)
            self._kept_start = start.copy()
        return self._kept_terms

    def _start_pair(self, kept):
        """(eta, exp(-|eta|)) at the start: ``kept`` if warm, else 0 and 1 in the candidate's."""
        if kept is not None:
            return kept
        self._eta.fill(0.0)
        self._scratch[1].fill(1.0)
        return self._cand

    def fit(self, weights, start=None):
        """Maximize the weighted objective from ``start`` (default 0).

        Returns (coef, objective, grad_norm, iters). The design's first column
        is the intercept. The convergence and separation guards work in
        standardized coordinates eta = a + sum_j b_j (x_j - m_j) / s_j, with
        m_j and s_j the covariates' weighted means and SDs: the gradient's
        max-norm in (a, b) is compared with ``GRAD_TOL``, and (a, b)
        themselves with ``SEPARATION_BOUND``. The rank guard runs on the first
        Hessian, at the start point, whatever it is.
        """
        xt, norm = self.xt, self.norm
        q, n = xt.shape
        # a bootstrap refit's count weights almost never open with eight 1s, so they
        # are told from unit weights without a pass over every row
        if np.all(weights[:8] == 1.0) and np.all(weights == 1.0):
            xw, ws = xt, self.labels
        else:
            if self._xw is None:
                self._xw, self._ws = np.empty((q, n)), np.empty(n)
            xw = np.multiply(xt, weights, out=self._xw)
            ws = np.multiply(weights, self.labels, out=self._ws)
        score0 = xt @ ws
        wsum = float(np.sum(weights))
        xmean = np.sum(xw[1:], axis=1) / wsum
        centred = np.subtract(xt[1:], xmean[:, None], out=self._scratch[1:q])
        # einsum, not `@`: with one covariate that product is a ddot (see _dot)
        xsd = np.sqrt(np.einsum("ij,ij,j->i", centred, centred, weights) / wsum)

        if start is None:
            coef = np.zeros(q)
            kept = None
            prob = self._prob
            prob.fill(0.5)
            hess = self._hessian(xw, 0.25)  # the weighted Gram matrix / 4
        else:
            coef = np.array(start, dtype=float)
            kept, prob, pq = self._start_terms(coef)
            hess = self._hessian(xw, pq)
        # rank of D^-1 H D^-1, D = sqrt(diag(H)), so that no column's units hide
        # another's; H sums n rows, so its entries carry up to n eps relative rounding
        d = np.sqrt(np.diag(hess))
        if not np.all(d > 0):
            raise RankDeficient("weighted design matrix is rank deficient")
        sv = np.linalg.svd(hess / np.outer(d, d), compute_uv=False)
        if np.count_nonzero(sv > n * np.finfo(float).eps * sv[0]) < q:
            raise RankDeficient("weighted design matrix is rank deficient")

        grad = (score0 - xw @ prob) / norm
        obj = rounding = None  # the objective at coef, once a step has needed it
        cand_pair = self._cand
        iters = 0
        while True:
            # d/da = d/dc_0; d/db_j = (d/dc_j - m_j d/dc_0) / s_j
            std_grad = np.append(grad[0], (grad[1:] - xmean * grad[0]) / xsd)
            gnorm = float(np.max(np.abs(std_grad)))
            if gnorm < GRAD_TOL:
                if obj is None:
                    # past the start, the last candidate's eta and exp(-|eta|) are in place
                    pair = cand_pair if iters else self._start_pair(kept)
                    obj = self._objective(weights, ws, pair)[0]
                return coef, obj, gnorm, iters
            if iters == MAX_ITER:
                raise NonConvergence(
                    f"no convergence in {MAX_ITER} iterations (gradient max-norm {gnorm:.3e})",
                    gnorm,
                )
            if iters:
                # p (1 - p) over the current point's eta, which the next candidate overwrites
                hess = self._hessian(xw, self._pq(self._prob, self._eta))
            iters += 1
            try:
                delta = np.linalg.solve(hess / norm, grad)
            except np.linalg.LinAlgError as exc:
                raise RankDeficient("singular Hessian in participation fit") from exc

            step = 1.0
            cand = coef + step * delta
            self._set_eta(cand, cand_pair)
            cand_grad = (score0 - xw @ self._set_prob(cand_pair, self._prob)) / norm
            # the objective is concave: if it still rises along delta at the full
            # step, the step has raised it (a NaN fails the test and is judged)
            if _dot(cand_grad, delta) >= 0:
                obj = rounding = None
            else:
                # the candidate's probabilities are in place, so its objective may spend
                # its exp(-|eta|); then the current point's pair may take its buffers
                cand_obj, cand_rounding = self._objective(weights, ws, cand_pair)
                if obj is None:
                    if iters == 1:
                        pair = self._start_pair(kept)
                    else:
                        pair = cand_pair
                        self._set_eta(coef, pair)
                    obj, rounding = self._objective(weights, ws, pair)
                # a step that gains less than the objective's rounding, by its quadratic
                # model grad . delta / 2, cannot be judged by the objective: so close
                # to the optimum the full Newton step is taken without a line search
                unjudged = _dot(grad, delta) / 2 <= rounding
                while not (unjudged or cand_obj >= obj):
                    step *= 0.5
                    if step < 2.0**-30:
                        raise NonConvergence(
                            f"step halving stalled (gradient max-norm {gnorm:.3e})", gnorm
                        )
                    cand = coef + step * delta
                    self._set_eta(cand, cand_pair)
                    # the probabilities below need this exp(-|eta|): the objective's
                    # log1p goes to the buffer that they then overwrite
                    cand_obj, cand_rounding = self._objective(weights, ws, cand_pair, self._prob)
                if step < 1.0:
                    cand_grad = (score0 - xw @ self._set_prob(cand_pair, self._prob)) / norm
                obj, rounding = cand_obj, cand_rounding
            coef, grad = cand, cand_grad
            # a = c_0 + sum_j c_j m_j; b_j = c_j s_j
            standardized = np.append(coef[0] + coef[1:] @ xmean, coef[1:] * xsd)
            if np.max(np.abs(standardized)) > SEPARATION_BOUND:
                raise SeparationDetected(
                    "standardized participation coefficients diverged beyond "
                    f"{SEPARATION_BOUND:g}; data are likely separated"
                )


def _newton_fit(xmat, labels, weights, norm, start=None):
    """One fit in a fresh :class:`_NewtonWorkspace`: (coef, objective, grad_norm, iters)."""
    return _NewtonWorkspace(xmat, labels, norm).fit(weights, start)


def participation_design(data: ObservedDataset):
    """Design matrix, labels, weights, and normalization for the participation fit.

    Returns ``(xmat, labels, weights, norm)``. Nested designs get the design
    weights (1 on trial rows, 1/c or 1/c(X1) on external rows) and the known
    actual-population size as ``norm``; non-nested data gets unit weights and
    the row count.
    """
    n = data.n_rows
    # filled as (q, n) so that _newton_fit's contiguous transpose is this block itself
    xt = np.empty((data.p + 1, n))
    xt[0] = 1.0
    xt[1:] = data.x.T
    xmat = xt.T
    labels = data.s.astype(float)
    if is_nested(data.design):
        return xmat, labels, data.design_weights, float(n + data.n_unsampled_nonrandomized)
    return xmat, labels, np.ones(n), float(n)


def _fitted_model(design: Design, fit) -> ParticipationModel:
    """The model of a Newton fit ``(coef, objective, grad_norm, iters)`` under ``design``."""
    coef, obj, gnorm, iters = fit
    return ParticipationModel(
        coefficients=coef,
        scale=Scale.POPULATION if is_nested(design) else Scale.SHIFTED,
        objective=obj,
        grad_norm=gnorm,
        iterations=iters,
    )


def fit_participation(data: ObservedDataset) -> ParticipationModel:
    """Fit the logistic participation model by (design-weighted) maximum likelihood.

    A nested fit is on the population scale and a non-nested fit is SHIFTED.
    """
    if data.n_external == 0:
        raise InsufficientData("participation fit needs both trial and external records")
    return _fitted_model(data.design, _newton_fit(*participation_design(data)))


# ---------------------------------------------------------------------------
# Participation probabilities


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
    n1 = float(data.n_trial)
    return n1 / (n1 + float(np.sum(data.design_weights.take(data._external_rows))))


def participation_probability(model: ParticipationModel, design: Design, x) -> np.ndarray:
    """Pr[S=1 | X=x] at each row of the (n, p) covariate block ``x``.

    Not identifiable under a non-nested design, whatever the model's scale.
    Needs a population-scale model: a SHIFTED model's intercept is off by an
    unknown constant.
    """
    if Estimand.CONDITIONAL_PARTICIPATION not in identification_matrix(design):
        raise NotIdentifiable(
            "conditional trial-participation probability is "
            "not identifiable under non-nested design"
        )
    if model.scale is not Scale.POPULATION:
        raise ValueError(
            "participation probabilities need a population-scale model; "
            "fit it on a nested design"
        )
    with np.errstate(over="ignore"):  # exp(-eta) = inf where eta < -709 gives the right 0
        return 1.0 / (1.0 + np.exp(-(model.coefficients[0] + model.slope_score(x))))

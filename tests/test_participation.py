import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

import trialport as tp
from trialport import participation
from trialport.participation import (
    GRAD_TOL,
    MAX_ITER,
    Scale,
    _newton_fit,
    _NewtonWorkspace,
    log_pseudo_likelihood,
    log_pseudo_likelihood_gradient,
    participation_design,
)

from trialport.experiment import bootstrap_replicates

from conftest import as_non_nested, make_tiny_dataset
from support import oracles, specs

# an overflow or invalid value in the fit's kernel fails the test instead of warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def intercept_only_dataset(n_trial, n_external, design):
    """p = 0 dataset: the participation model reduces to an intercept."""
    n = n_trial + n_external
    a = np.full(n, np.nan)
    a[:n_trial] = [i % 2 for i in range(n_trial)]
    y = np.full(n, np.nan)
    y[:n_trial] = 1.0
    nested = not isinstance(design, tp.NonNested)
    return tp.ObservedDataset(
        x=np.empty((n, 0)),
        s=np.array([1] * n_trial + [0] * n_external),
        a=a,
        y=y,
        design=design,
        k=0,
        n_unsampled_nonrandomized=0 if nested else None,
    )


class TestFit:
    def test_intercept_only_census_is_log_odds(self):
        data = intercept_only_dataset(3, 2, tp.CensusNested())
        model = tp.fit_participation(data)
        assert model.coefficients[0] == pytest.approx(math.log(1.5), abs=1e-9)
        assert model.scale is Scale.POPULATION

    def test_intercept_only_weighted_subsample(self):
        # weighted score: 3(1-p) = (1/0.5) * p  =>  p = 0.6, logit = ln 1.5
        data = intercept_only_dataset(3, 1, tp.SubsampledNested(c=0.5))
        model = tp.fit_participation(data)
        assert model.coefficients[0] == pytest.approx(math.log(1.5), abs=1e-9)
        assert model.scale is Scale.POPULATION

    def test_weighted_fit_recovers_population_coefficients(self, subsampled_1m):
        model = tp.fit_participation(subsampled_1m)
        assert model.scale is Scale.POPULATION
        assert model.coefficients[0] == pytest.approx(-1.0, abs=0.02)
        assert model.coefficients[1] == pytest.approx(0.5, abs=0.02)
        assert model.grad_norm < 1e-8
        assert model.iterations <= 100

    def test_covariate_weights_recover_population_coefficients(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 200_000)
        rule = tp.StepRule(coord=0, cutoff=0.0, low=0.2, high=0.8)
        data = tp.apply_design(pop, tp.SubsampledNestedCovariate(c_rule=rule), seed=21)
        model = tp.fit_participation(data)
        assert model.coefficients[0] == pytest.approx(-1.0, abs=0.04)
        assert model.coefficients[1] == pytest.approx(0.5, abs=0.04)

    def test_non_nested_fit_shifts_only_the_intercept(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 400_000)
        data = tp.apply_design(pop, tp.NonNested(u_hidden=0.1), seed=22)
        model = tp.fit_participation(data)
        assert model.scale is Scale.SHIFTED
        assert model.coefficients[1] == pytest.approx(0.5, abs=0.04)
        assert model.coefficients[0] == pytest.approx(-1.0 - math.log(0.1), abs=0.05)

    def test_separation_detected(self):
        # margin near zero: the separating slope must blow far past the guard
        x = np.concatenate([np.linspace(0.05, 1.0, 20), np.linspace(-1.0, -0.05, 20)])
        s = np.array([1] * 20 + [0] * 20)
        a = np.full(40, np.nan)
        a[:20] = [i % 2 for i in range(20)]
        y = np.full(40, np.nan)
        y[:20] = 0.0
        data = tp.ObservedDataset(
            x=x.reshape(-1, 1), s=s, a=a, y=y,
            design=tp.CensusNested(), n_unsampled_nonrandomized=0,
        )
        with pytest.raises(tp.SeparationDetected):
            tp.fit_participation(data)

    @pytest.mark.parametrize(
        "covariate, logit, slope_tol",
        [
            # DGP-1's 0.5-per-SD effect in small units and far from the origin;
            # both tolerances are 0.04 per SD of the covariate
            (tp.Normal(0.0, 0.01), (-1.0, 50.0), 4.0),
            (tp.Normal(1000.0, 1.0), (-501.0, 0.5), 0.04),
        ],
    )
    def test_separation_guard_is_scale_free(self, dgp1, covariate, logit, slope_tol):
        dgp = dataclasses.replace(dgp1, covariates=(covariate,), participation_logit=logit)
        pop = tp.simulate_actual_population(dgp, 100_000)
        model = tp.fit_participation(tp.apply_design(pop, tp.CensusNested(), seed=30))
        assert model.coefficients[1] == pytest.approx(logit[1], abs=slope_tol)
        assert model.grad_norm < GRAD_TOL

    def test_duplicate_column_is_rank_deficient(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 2_000)
        base = tp.apply_design(pop, tp.CensusNested(), seed=24)
        data = tp.ObservedDataset(
            x=np.column_stack([base.x, base.x[:, 0]]),
            s=base.s, a=base.a, y=base.y,
            design=base.design, n_unsampled_nonrandomized=0,
        )
        with pytest.raises(tp.RankDeficient):
            tp.fit_participation(data)

    def test_needs_both_participation_classes(self):
        data = intercept_only_dataset(4, 2, tp.CensusNested())
        trial = data.s == 1
        trial_only = tp.ObservedDataset(
            x=data.x[trial], s=data.s[trial], a=data.a[trial], y=data.y[trial],
            design=tp.CensusNested(), n_unsampled_nonrandomized=0,
        )
        with pytest.raises(tp.InsufficientData):
            tp.fit_participation(trial_only)


def reference_newton_fit(xmat, labels, weights, norm):
    """Newton fit with the objective from np.logaddexp and probabilities from expit."""

    def objective(coef):
        eta = xmat @ coef
        return float(np.sum(weights * (labels * eta - np.logaddexp(0.0, eta))) / norm)

    def gradient(coef):
        return xmat.T @ (weights * (labels - expit(xmat @ coef))) / norm

    coef = np.zeros(xmat.shape[1])
    obj = objective(coef)
    for it in range(MAX_ITER):
        grad = gradient(coef)
        if np.max(np.abs(grad)) < GRAD_TOL:
            return coef, obj, it
        prob = expit(xmat @ coef)
        hess = xmat.T @ (xmat * (weights * prob * (1.0 - prob))[:, None]) / norm
        delta = np.linalg.solve(hess, grad)
        step = 1.0
        while objective(coef + step * delta) < obj:
            step *= 0.5
        coef = coef + step * delta
        obj = objective(coef)
    raise AssertionError("reference fit did not converge")


# one design of each kind: census, constant fraction, step rule, non-nested
every_design = pytest.mark.parametrize(
    "design",
    [
        tp.CensusNested(),
        tp.SubsampledNested(c=0.3),
        tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8)),
        tp.NonNested(u_hidden=0.2),
    ],
    ids=["census", "c=0.3", "step_rule", "non_nested"],
)


class TestKernel:
    @every_design
    def test_fit_matches_reference_newton(self, dgp1, design):
        pop = tp.simulate_actual_population(dgp1, 40_000)
        xmat, labels, weights, norm = participation_design(tp.apply_design(pop, design, seed=31))
        coef, obj, gnorm, iters = _newton_fit(xmat, labels, weights, norm)
        ref_coef, ref_obj, ref_iters = reference_newton_fit(xmat, labels, weights, norm)
        assert iters == ref_iters
        np.testing.assert_allclose(coef, ref_coef, rtol=1e-12, atol=0)
        assert obj == pytest.approx(ref_obj, rel=1e-12)
        assert gnorm < GRAD_TOL

    def test_objective_and_gradient_stay_finite_at_extreme_eta(self):
        # eta = 200 * x spans [-800, 800]; labels disagree with the sign of eta on
        # every other row, so both tails of the softplus and the logistic are hit
        x = np.linspace(-4.0, 4.0, 401)
        xmat = np.column_stack([np.ones_like(x), x])
        labels = (np.arange(x.size) % 2).astype(float)
        weights = np.linspace(0.5, 2.0, x.size)
        norm = float(x.size)
        coef = np.array([0.0, 200.0])
        value = log_pseudo_likelihood(coef, xmat, labels, weights, norm)
        grad = log_pseudo_likelihood_gradient(coef, xmat, labels, weights, norm)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        eta = xmat @ coef
        expected = np.sum(weights * (labels * eta - np.logaddexp(0.0, eta))) / norm
        assert value == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(
            grad, xmat.T @ (weights * (labels - expit(eta))) / norm, rtol=1e-12
        )
        step = 1e-6
        for j in range(2):
            bump = np.zeros(2)
            bump[j] = step
            fd = (
                log_pseudo_likelihood(coef + bump, xmat, labels, weights, norm)
                - log_pseudo_likelihood(coef - bump, xmat, labels, weights, norm)
            ) / (2 * step)
            assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestObjective:
    def test_gradient_matches_finite_differences(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 3_000)
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.4), seed=25)
        xmat, labels, weights, norm = participation_design(data)
        rng = np.random.Generator(np.random.Philox(99))
        step = 1e-5
        for _ in range(3):
            coef = rng.normal(scale=0.5, size=xmat.shape[1])
            grad = log_pseudo_likelihood_gradient(coef, xmat, labels, weights, norm)
            for j in range(len(coef)):
                bump = np.zeros_like(coef)
                bump[j] = step
                fd = (
                    log_pseudo_likelihood(coef + bump, xmat, labels, weights, norm)
                    - log_pseudo_likelihood(coef - bump, xmat, labels, weights, norm)
                ) / (2 * step)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-10)

    @every_design
    def test_fitted_objective_is_the_pseudo_likelihood_at_the_fit(self, dgp1, design):
        # the Newton loop evaluates the objective inline; it must be the same function
        pop = tp.simulate_actual_population(dgp1, 40_000)
        data = tp.apply_design(pop, design, seed=27)
        model = tp.fit_participation(data)
        expected = log_pseudo_likelihood(model.coefficients, *participation_design(data))
        assert model.objective == pytest.approx(expected, rel=1e-12)

    def test_census_and_weighted_objectives_share_scale(self, dgp1):
        # same normalization (actual-population size) so values are comparable
        pop = tp.simulate_actual_population(dgp1, 50_000)
        census = tp.apply_design(pop, tp.CensusNested(), seed=26)
        sub = tp.apply_design(pop, tp.SubsampledNested(c=0.3), seed=26)
        m_census = tp.fit_participation(census)
        m_sub = tp.fit_participation(sub)
        assert m_census.objective == pytest.approx(m_sub.objective, rel=0.02)


class TestMarginalProbability:
    def _counts_dataset(self, n_trial, n_external, design):
        return intercept_only_dataset(n_trial, n_external, design)

    def test_known_fraction_formula(self):
        data = self._counts_dataset(200, 300, tp.SubsampledNested(c=0.25))
        assert tp.marginal_participation_probability(data) == 1.0 / 7.0

    def test_census_is_direct_proportion(self):
        data = self._counts_dataset(200, 1200, tp.CensusNested())
        assert tp.marginal_participation_probability(data) == 1.0 / 7.0

    def test_not_identifiable_when_fraction_unknown(self):
        data = self._counts_dataset(200, 300, tp.NonNested())
        with pytest.raises(tp.NotIdentifiable):
            tp.marginal_participation_probability(data)

    def test_covariate_fractions_reweight_counts(self):
        rng = np.random.Generator(np.random.Philox(41))
        n_trial, n_external = 50, 100
        n = n_trial + n_external
        x = rng.normal(size=(n, 1))
        a = np.full(n, np.nan)
        a[:n_trial] = [i % 2 for i in range(n_trial)]
        y = np.full(n, np.nan)
        y[:n_trial] = 0.0
        rule = tp.StepRule(coord=0, cutoff=0.0, low=0.25, high=0.5)
        data = tp.ObservedDataset(
            x=x, s=np.array([1] * n_trial + [0] * n_external), a=a, y=y,
            design=tp.SubsampledNestedCovariate(c_rule=rule),
            k=1, n_unsampled_nonrandomized=0,
        )
        ext_x = x[n_trial:, 0]
        weighted_externals = (ext_x <= 0).sum() / 0.25 + (ext_x > 0).sum() / 0.5
        assert tp.marginal_participation_probability(data) == pytest.approx(
            n_trial / (n_trial + weighted_externals), rel=1e-12
        )


class TestProbabilityAndOdds:
    def test_constant_model_gives_half(self):
        model = tp.ParticipationModel(
            coefficients=np.zeros(3), scale=Scale.POPULATION,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        assert tp.participation_probability(model, tp.CensusNested(), (1.0, -2.0)) == 0.5

    def test_nested_fit_recovers_probability_at_origin(self, subsampled_1m):
        model = tp.fit_participation(subsampled_1m)
        prob = tp.participation_probability(model, subsampled_1m.design, (0.0,))
        # expit(-1) = 0.2689414
        assert prob == pytest.approx(0.26894142137, abs=0.01)

    def test_shifted_model_refuses_without_known_fraction(self, nonnested_1m):
        model = tp.fit_participation(nonnested_1m)
        with pytest.raises(tp.NotIdentifiable):
            tp.participation_probability(model, nonnested_1m.design, (0.0,))

    def test_shifted_model_corrected_by_known_fraction(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 400_000)
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.3), seed=27)
        sample_scale = tp.fit_participation(as_non_nested(data))
        assert sample_scale.scale is Scale.SHIFTED
        with pytest.raises(ValueError):
            tp.participation_probability(sample_scale, data.design, (0.0,))
        # population odds = sample odds * c
        odds = math.exp(sample_scale.coefficients[0]) * 0.3
        assert odds / (1.0 + odds) == pytest.approx(0.26894142137, abs=0.01)

    def test_odds_up_to_constant(self):
        # a SHIFTED model's odds are known only up to a constant, even where c is known
        model = tp.ParticipationModel(
            coefficients=np.zeros(2), scale=Scale.SHIFTED,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        for design in (
            tp.CensusNested(),
            tp.SubsampledNested(c=0.3),
            tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8)),
        ):
            with pytest.raises(ValueError):
                tp.participation_probability(model, design, (0.0,))

    def test_intercept_shift_scales_odds_pointwise(self):
        model = tp.ParticipationModel(
            coefficients=np.array([0.3, -0.7]), scale=Scale.POPULATION,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        shifted = dataclasses.replace(model, coefficients=np.array([0.3 + math.log(10.0), -0.7]))
        x = np.array([[-2.0], [-0.5], [0.0], [1.0], [3.0]])
        prob = tp.participation_probability(model, tp.CensusNested(), x)
        prob_shifted = tp.participation_probability(shifted, tp.CensusNested(), x)
        np.testing.assert_allclose(
            prob_shifted / (1.0 - prob_shifted), 10.0 * prob / (1.0 - prob), rtol=1e-12
        )

    def test_non_nested_fit_odds_absorb_inverse_fraction(self, nonnested_1m):
        model = tp.fit_participation(nonnested_1m)
        odds0 = math.exp(model.coefficients[0])
        assert odds0 == pytest.approx(math.exp(-1.0) / 0.2, rel=0.05)

    def test_population_odds_two_routes_agree(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 1_000_000)
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.3), seed=28)
        weighted = tp.fit_participation(data)
        sample_scale = tp.fit_participation(as_non_nested(data))
        x = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
        prob = tp.participation_probability(weighted, data.design, x)
        via_weights = prob / (1.0 - prob)
        # population odds = sample odds * c
        via_correction = np.exp(sample_scale.coefficients[0] + sample_scale.slope_score(x)) * 0.3
        np.testing.assert_allclose(via_correction, via_weights, rtol=1e-2)

    def test_population_odds_census_equals_sample_odds(self, dgp1):
        # c = 1: the census fit and the sample-scale fit of the same rows coincide
        pop = tp.simulate_actual_population(dgp1, 20_000)
        data = tp.apply_design(pop, tp.CensusNested(), seed=29)
        model = tp.fit_participation(data)
        sample_scale = tp.fit_participation(as_non_nested(data))
        assert np.array_equal(sample_scale.coefficients, model.coefficients)
        x = np.array([[-1.0], [0.5]])
        prob = tp.participation_probability(model, data.design, x)
        np.testing.assert_allclose(
            prob / (1.0 - prob),
            np.exp(sample_scale.coefficients[0] + sample_scale.slope_score(x)),
            rtol=1e-12,
        )

    def test_intercept_only_odds_match_marginal_formula(self):
        data = intercept_only_dataset(30, 20, tp.SubsampledNested(c=0.5))
        model = tp.fit_participation(data)
        pr = tp.marginal_participation_probability(data)
        (prob,) = tp.participation_probability(model, data.design, np.empty((1, 0)))
        assert prob / (1.0 - prob) == pytest.approx(pr / (1 - pr), abs=1e-7)

    def test_population_scale_model_gated_under_non_nested_design(self):
        # the design, not the model's scale, decides identifiability
        model = tp.ParticipationModel(
            coefficients=np.zeros(2), scale=Scale.POPULATION,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        with pytest.raises(tp.NotIdentifiable):
            tp.participation_probability(model, tp.NonNested(), (0.0,))

    def test_vectorized_over_rows(self):
        rng = np.random.Generator(np.random.Philox(33))
        x = rng.normal(size=(1_000, 3))
        model = tp.ParticipationModel(
            coefficients=np.array([-1.0, 0.5, -0.3, 0.2]), scale=Scale.POPULATION,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        design = tp.SubsampledNested(c=0.3)
        prob = tp.participation_probability(model, design, x)
        assert isinstance(prob, np.ndarray) and prob.shape == (1_000,)
        rows = np.array([tp.participation_probability(model, design, row)[0] for row in x])
        assert np.array_equal(prob, rows)
        assert np.array_equal(prob, expit(model.coefficients[0] + model.slope_score(x)))


class TestRoundingFloor:
    """Near the optimum a Newton step gains less than the objective's rounding."""

    def test_start_whose_step_the_objective_cannot_judge_converges_in_one_step(self, dgp1):
        # starts with an intercept gradient just above GRAD_TOL: the step's gain,
        # about 1e-16, is below the objective's rounding, which then reads every
        # candidate as no better (a line search stalled or took no-op steps)
        for seed in range(12):
            pop = tp.simulate_actual_population(dgp1, 4_000, seed=seed)
            xmat, labels, weights, norm = participation_design(
                tp.apply_design(pop, tp.CensusNested(), seed=seed + 50)
            )
            work = _NewtonWorkspace(xmat, labels, norm)
            coef = work.fit(weights)[0]
            prob = expit(xmat @ coef)
            hess = xmat.T @ (xmat * (weights * prob * (1.0 - prob))[:, None]) / norm
            for grad in (1.05e-8, -1.05e-8, 1.3e-8, -1.3e-8, 2e-8, -2e-8):
                start = coef - np.linalg.solve(hess, np.array([grad, 0.0]))
                _, _, gnorm, iters = work.fit(weights, start)
                assert gnorm < GRAD_TOL and iters == 1, (seed, grad)

    @pytest.mark.parametrize("dgp", ["dgp1", "p2"])
    def test_gradient_floor_is_far_below_the_tolerance_at_a_million_rows(self, dgp, monkeypatch):
        spec = oracles.make_dgp1(20240901) if dgp == "dgp1" else specs.P2_DGP
        pop = tp.simulate_actual_population(spec, 1_000_000, seed=11)
        data = tp.apply_design(pop, tp.CensusNested(), seed=12)
        monkeypatch.setattr(participation, "GRAD_TOL", 0.0)
        monkeypatch.setattr(participation, "MAX_ITER", 8)
        with pytest.raises(tp.NonConvergence) as raised:
            tp.fit_participation(data)
        # measured: 1.2e-16 (dgp1) and 6.3e-18 (p2) after 8 iterates
        assert raised.value.grad_norm < GRAD_TOL / 100


def _fit_or_error(fit, *args):
    """``fit(*args)``, or the class of the trialport error that it raised."""
    try:
        return fit(*args)
    except tp.TrialportError as exc:
        return type(exc)


COUNT_REFIT_DESIGNS = {
    "census": tp.CensusNested(),
    "c=0.3": tp.SubsampledNested(c=0.3),
    "step_rule": tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8)),
    "non_nested": tp.NonNested(),
}


class TestCountRefit:
    """A fit with weights design weight x row count is the fit of the resampled rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        design=st.sampled_from(sorted(COUNT_REFIT_DESIGNS)),
        p=st.integers(0, 2),
        n_trial=st.integers(8, 60),
        n_external=st.integers(8, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_count_refit_equals_refit_on_materialized_rows(
        self, design, p, n_trial, n_external, seed
    ):
        if design == "step_rule" and p == 0:
            p = 1  # the step rule needs an auxiliary covariate
        data = make_tiny_dataset(
            COUNT_REFIT_DESIGNS[design], n_trial, n_external, p, n_unsampled=n_external, seed=seed
        )
        draws = []
        bootstrap_replicates(data, lambda rows: draws.append(rows) or 0.0, 3, seed)
        xmat, labels, weights, norm = participation_design(data)
        work = _NewtonWorkspace(xmat, labels, norm)
        full = _fit_or_error(work.fit, weights)
        starts = [None] if isinstance(full, type) else [None, full[0]]
        for rows in draws:
            counted = weights * np.bincount(rows, minlength=data.n_rows)
            for start in starts:
                by_counts = _fit_or_error(work.fit, counted, start)
                by_rows = _fit_or_error(
                    _newton_fit, xmat.take(rows, axis=0), labels.take(rows), weights.take(rows),
                    norm, start,
                )
                if isinstance(by_rows, type):
                    assert by_counts is by_rows
                    continue
                assert not isinstance(by_counts, type), by_counts
                coef, obj, gnorm, iters = by_counts
                assert iters == by_rows[3]
                if np.max(np.abs(by_rows[0])) > 10.0:
                    # nearly separated: p(1 - p) is tiny on some rows, so the
                    # Hessian amplifies rounding and pins the optimum only loosely
                    continue
                assert np.max(np.abs(coef - by_rows[0])) <= 1e-10 * np.max(np.abs(by_rows[0]))
                # a start at the optimum is already converged
                again = work.fit(counted, coef)
                assert again[1:] == (obj, gnorm, 0)
                np.testing.assert_array_equal(again[0], coef)

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trialport as tp
from trialport import domain, estimators
from trialport.domain import _WeightedSample
from trialport.estimators import EXTREME_WEIGHT_THRESHOLD
from trialport.participation import Scale

from conftest import as_non_nested, make_tiny_dataset
from support import oracles, specs


def known_outcome_model(coef1=(2.0, 1.0), coef0=(1.0, 1.0)):
    return tp.OutcomeModel(
        coef_a0=np.array(coef0),
        coef_a1=np.array(coef1),
        residual_variance=(1.0, 1.0),
        n_per_arm=(10, 10),
    )


def dataset_with_covariates(trial_x, external_x, trial_y=None, design=None):
    """Dataset with prescribed covariate values (one covariate)."""
    design = design if design is not None else tp.CensusNested()
    n_t, n_e = len(trial_x), len(external_x)
    x = np.array(list(trial_x) + list(external_x), dtype=float).reshape(-1, 1)
    s = np.array([1] * n_t + [0] * n_e)
    a = np.full(n_t + n_e, np.nan)
    a[:n_t] = [i % 2 for i in range(n_t)]
    y = np.full(n_t + n_e, np.nan)
    y[:n_t] = trial_y if trial_y is not None else np.zeros(n_t)
    nested = not isinstance(design, tp.NonNested)
    return tp.ObservedDataset(
        x=x, s=s, a=a, y=y, design=design, k=1,
        n_unsampled_nonrandomized=0 if nested else None,
    )


class TestGFormula:
    def test_census_target_is_mean_prediction(self):
        data = dataset_with_covariates([0.0, 1.0], [2.0])
        model = known_outcome_model(coef1=(2.0, 1.0))
        report = tp.gformula_mean_target(data, model, 1)
        assert report.value == pytest.approx(3.0, rel=1e-15)  # mean of 2, 3, 4
        assert report.to_dict()["identifiable"] is True

    def test_single_external_row(self):
        data = dataset_with_covariates([0.0, 1.0], [0.7])
        model = known_outcome_model(coef1=(2.0, 1.0))
        report = tp.gformula_mean_nonrandomized(data, model, 1)
        assert report.value == pytest.approx(2.7, rel=1e-15)

    def test_target_not_identifiable_non_nested(self, nonnested_1m):
        model = known_outcome_model()
        with pytest.raises(tp.NotIdentifiable):
            tp.gformula_mean_target(nonnested_1m, model, 1)

    def test_no_external_rows(self):
        data = dataset_with_covariates([0.0, 1.0, 2.0], [])
        with pytest.raises(tp.NoExternalRows):
            tp.gformula_mean_nonrandomized(data, known_outcome_model(), 1)

    def test_census_converges_to_oracle(self, census_1m, census_models_1m):
        _, omodel = census_models_1m
        got = tp.gformula_mean_target(census_1m, omodel, 1).value
        assert got == pytest.approx(oracles.MEAN_TARGET[1], abs=0.01)

    def test_subsampled_shares_the_census_limit(self, subsampled_1m):
        omodel = tp.fit_outcome(subsampled_1m)
        got = tp.gformula_mean_target(subsampled_1m, omodel, 1).value
        assert got == pytest.approx(oracles.MEAN_TARGET[1], abs=0.01)

    def test_nonrandomized_mean_non_nested(self, nonnested_1m):
        omodel = tp.fit_outcome(nonnested_1m)
        got = tp.gformula_mean_nonrandomized(nonnested_1m, omodel, 1).value
        assert got == pytest.approx(oracles.MEAN_NONRANDOMIZED[1], abs=0.01)

    def test_equal_laws_when_participation_ignores_covariates(self):
        dgp = dataclasses.replace(
            oracles.make_dgp1(seed=71), participation_logit=(-1.0, 0.0)
        )
        pop = tp.simulate_actual_population(dgp, 100_000)
        data = tp.apply_design(pop, tp.CensusNested(), seed=72)
        omodel = tp.fit_outcome(data)
        target = tp.gformula_mean_target(data, omodel, 1).value
        nonrand = tp.gformula_mean_nonrandomized(data, omodel, 1).value
        assert nonrand == pytest.approx(target, abs=0.02)


class TestIpwTarget:
    def test_constant_weights_reduce_to_arm_mean(self):
        data = dataset_with_covariates(
            [0.5, -0.2, 1.0, 0.3], [0.1, 0.4], trial_y=[1.0, 2.0, 3.0, 4.0]
        )
        model = tp.ParticipationModel(
            coefficients=np.array([0.4, 0.0]), scale=Scale.POPULATION,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        hajek = tp.ipw_mean_target(data, model, 1, "hajek").value
        arm_mean = tp.trial_only_mean(data, 1).value
        assert hajek == pytest.approx(arm_mean, rel=1e-12)

    def test_census_hajek_converges_to_oracle(self, census_1m, census_models_1m):
        pmodel, _ = census_models_1m
        got = tp.ipw_mean_target(census_1m, pmodel, 1, "hajek").value
        assert got == pytest.approx(oracles.MEAN_TARGET[1], abs=0.015)

    def test_census_ht_converges_to_oracle(self, census_1m, census_models_1m):
        pmodel, _ = census_models_1m
        got = tp.ipw_mean_target(census_1m, pmodel, 1, "ht").value
        assert got == pytest.approx(oracles.MEAN_TARGET[1], abs=0.03)

    def test_ht_and_hajek_agree_over_replications(self, dgp1):
        # paired comparison across seeds: equal limits, difference ~ 0
        diffs = []
        for r in range(200):
            pop = tp.simulate_actual_population(dgp1, 10_000, seed=5000 + r)
            data = tp.apply_design(pop, tp.CensusNested(), seed=6000 + r)
            pmodel = tp.fit_participation(data)
            ht = tp.ipw_mean_target(data, pmodel, 1, "ht").value
            hajek = tp.ipw_mean_target(data, pmodel, 1, "hajek").value
            diffs.append(ht - hajek)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / math.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 3 * se

    def test_requires_population_scale_model(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 20_000)
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.3), seed=73)
        shifted = tp.fit_participation(as_non_nested(data))
        assert shifted.scale is Scale.SHIFTED
        with pytest.raises(ValueError):
            tp.ipw_mean_target(data, shifted, 1)

    def test_not_identifiable_non_nested(self, nonnested_1m):
        model = tp.ParticipationModel(
            coefficients=np.zeros(2), scale=Scale.POPULATION,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        with pytest.raises(tp.NotIdentifiable):
            tp.ipw_mean_target(nonnested_1m, model, 1)

    def test_extreme_weight_warning(self):
        data = dataset_with_covariates(
            [0.0, 0.1, 5.0, 0.2], [0.0], trial_y=[1.0, 1.0, 1.0, 1.0]
        )
        model = tp.ParticipationModel(
            coefficients=np.array([0.0, -3.0]), scale=Scale.POPULATION,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        report = tp.ipw_mean_target(data, model, 1, "hajek")
        assert report.max_normalized_weight > EXTREME_WEIGHT_THRESHOLD
        assert any("extreme" in w for w in report.warnings)

    def test_truncation_caps_weights(self, census_1m, census_models_1m):
        pmodel, _ = census_models_1m
        plain = tp.ipw_mean_target(census_1m, pmodel, 1, "hajek")
        truncated = tp.ipw_mean_target(census_1m, pmodel, 1, "hajek", truncate_q=0.9)
        assert truncated.max_normalized_weight <= plain.max_normalized_weight
        assert any("truncated" in w for w in truncated.warnings)
        assert truncated.value != plain.value


class TestIpwNonrandomized:
    def test_intercept_shift_is_bit_identical(self, census_1m, census_models_1m):
        pmodel, _ = census_models_1m
        base = tp.ipw_mean_nonrandomized(census_1m, pmodel, 1)
        shifted_model = dataclasses.replace(
            pmodel,
            coefficients=np.concatenate(
                [[pmodel.coefficients[0] + math.log(10.0)], pmodel.coefficients[1:]]
            ),
        )
        shifted = tp.ipw_mean_nonrandomized(census_1m, shifted_model, 1)
        assert shifted.value == base.value  # exact, not approximate
        assert shifted.to_dict() == base.to_dict()

    @settings(max_examples=25, deadline=None)
    @given(shift=st.floats(min_value=-700, max_value=700, allow_nan=False))
    def test_any_intercept_shift_is_bit_identical(self, shift):
        data = dataset_with_covariates(
            [0.5, -0.2, 1.0, 0.3], [0.1], trial_y=[1.0, 2.0, 3.0, 4.0]
        )
        model = tp.ParticipationModel(
            coefficients=np.array([0.25, -0.8]), scale=Scale.SHIFTED,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        shifted = dataclasses.replace(
            model, coefficients=np.array([0.25 + shift, -0.8])
        )
        a = tp.ipw_mean_nonrandomized(data, model, 1).value
        b = tp.ipw_mean_nonrandomized(data, shifted, 1).value
        assert a == b

    def test_covariate_sampling_nested_fit_and_shifted_refusal(self, dgp1):
        # DGP-1 has a continuous X1, so the step in ln c(X1) at x1 = 0 cannot be
        # absorbed by a main-effects sample-scale model: the nested fit is the
        # only route, and a SHIFTED model there is refused rather than converted
        design = tp.SubsampledNestedCovariate(
            c_rule=tp.StepRule(coord=0, cutoff=0.0, low=0.2, high=0.8)
        )
        values = []
        for r in range(10):
            pop = tp.simulate_actual_population(dgp1, 100_000, seed=7100 + r)
            data = tp.apply_design(pop, design, seed=7200 + r)
            model = tp.fit_participation(data)
            assert model.scale is Scale.POPULATION
            values.append(tp.ipw_mean_nonrandomized(data, model, 1).value)
        se = np.std(values, ddof=1) / math.sqrt(len(values))
        assert abs(np.mean(values) - oracles.MEAN_NONRANDOMIZED[1]) <= 3 * se

        # the sample-scale model of the same rows: the non-nested fit
        shifted = tp.fit_participation(as_non_nested(data))
        assert shifted.scale is Scale.SHIFTED
        with pytest.raises(ValueError):
            tp.ipw_mean_nonrandomized(data, shifted, 1)
        with pytest.raises(ValueError):
            tp.participation_probability(shifted, data.design, data.x)

    def test_agrees_with_gformula_non_nested(self, nonnested_1m):
        pmodel = tp.fit_participation(nonnested_1m)
        omodel = tp.fit_outcome(nonnested_1m)
        via_weights = tp.ipw_mean_nonrandomized(nonnested_1m, pmodel, 1).value
        via_regression = tp.gformula_mean_nonrandomized(nonnested_1m, omodel, 1).value
        assert via_weights == pytest.approx(via_regression, abs=0.02)
        assert via_weights == pytest.approx(oracles.MEAN_NONRANDOMIZED[1], abs=0.02)

    def test_constant_odds_match_hajek_target(self, dgp1):
        dgp = dataclasses.replace(dgp1, participation_logit=(-1.0, 0.0))
        pop = tp.simulate_actual_population(dgp, 50_000)
        data = tp.apply_design(pop, tp.CensusNested(), seed=74)
        model = tp.ParticipationModel(
            coefficients=np.array([-1.0, 0.0]), scale=Scale.POPULATION,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        nonrand = tp.ipw_mean_nonrandomized(data, model, 1).value
        hajek = tp.ipw_mean_target(data, model, 1, "hajek").value
        assert nonrand == pytest.approx(hajek, rel=1e-12)


class TestTrialOnly:
    def test_simple_mean(self):
        data = dataset_with_covariates(
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.5],
            trial_y=[9.0, 1.0, 9.0, 2.0, 9.0, 3.0],  # arm 1 carries 1, 2, 3
        )
        assert tp.trial_only_mean(data, 1).value == 2.0

    def test_matches_randomized_oracle(self, census_1m):
        report = tp.trial_only_mean(census_1m, 1)
        n1 = int(((census_1m.s == 1) & (census_1m.a == 1)).sum())
        se = math.sqrt(1.3**2 * 0.94 + 1.0) / math.sqrt(n1)
        assert abs(report.value - oracles.MEAN_RANDOMIZED[1]) <= 4 * se

    def test_equals_hajek_under_constant_odds(self):
        data = dataset_with_covariates(
            [0.3, -1.0, 0.5, 2.0], [0.1], trial_y=[1.0, 2.0, 3.0, 4.0]
        )
        model = tp.ParticipationModel(
            coefficients=np.array([-1.0, 0.0]), scale=Scale.POPULATION,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        hajek = tp.ipw_mean_target(data, model, 1, "hajek").value
        assert tp.trial_only_mean(data, 1).value == pytest.approx(hajek, rel=1e-12)


class TestDecomposition:
    def test_census_gformula_decomposes_exactly(self, census_1m, census_models_1m):
        _, omodel = census_models_1m
        pr = tp.marginal_participation_probability(census_1m)
        for arm in (0, 1):
            target = tp.gformula_mean_target(census_1m, omodel, arm).value
            randomized = tp.gformula_mean_randomized(census_1m, omodel, arm).value
            nonrand = tp.gformula_mean_nonrandomized(census_1m, omodel, arm).value
            recombined = randomized * pr + nonrand * (1 - pr)
            assert abs(target - recombined) <= 1e-10

    def test_trial_only_version_holds_statistically(self, census_1m, census_models_1m):
        # OLS ties the g-formula trial-stratum mean to the arm mean only
        # asymptotically (residuals sum to zero within each arm's own rows)
        _, omodel = census_models_1m
        pr = tp.marginal_participation_probability(census_1m)
        target = tp.gformula_mean_target(census_1m, omodel, 1).value
        trial = tp.trial_only_mean(census_1m, 1).value
        nonrand = tp.gformula_mean_nonrandomized(census_1m, omodel, 1).value
        assert target == pytest.approx(trial * pr + nonrand * (1 - pr), abs=0.01)


class TestGateConformance:
    def designs(self):
        return (
            tp.CensusNested(),
            tp.SubsampledNested(c=0.4),
            tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.3, high=0.9)),
            tp.NonNested(),
        )

    def test_every_estimator_respects_the_identification_matrix(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 5_000)
        for design in self.designs():
            seed_design = design if not isinstance(design, tp.NonNested) else tp.NonNested(0.4)
            data = tp.apply_design(pop, seed_design, seed=75)
            omodel = tp.fit_outcome(data)
            pmodel = tp.fit_participation(data)
            identified = tp.identification_matrix(design)

            checks = {
                tp.Estimand.MEAN_TARGET: [
                    lambda: tp.gformula_mean_target(data, omodel, 1),
                    lambda: tp.ipw_mean_target(data, pmodel, 1, "hajek"),
                ],
                tp.Estimand.MARGINAL_PARTICIPATION: [
                    lambda: tp.marginal_participation_probability(data)
                ],
                tp.Estimand.CONDITIONAL_PARTICIPATION: [
                    lambda: tp.participation_probability(pmodel, data.design, (0.0,))
                ],
                tp.Estimand.MEAN_NONRANDOMIZED: [
                    lambda: tp.gformula_mean_nonrandomized(data, omodel, 1),
                    lambda: tp.ipw_mean_nonrandomized(data, pmodel, 1),
                ],
            }
            for estimand, calls in checks.items():
                for call in calls:
                    if estimand in identified:
                        call()  # must succeed
                    else:
                        with pytest.raises(tp.NotIdentifiable):
                            call()


class TestReports:
    def test_report_fields_and_serialization(self, census_1m, census_models_1m):
        pmodel, _ = census_models_1m
        report = tp.ipw_mean_target(census_1m, pmodel, 1, "hajek")
        d = report.to_dict()
        assert d["estimand"] == "target"
        assert d["method"] == "ipw_hajek"
        assert d["identifiable"] is True
        assert 0 < d["max_normalized_weight"] <= 1
        assert 0 < d["effective_sample_size"] <= census_1m.n_trial
        row = report.to_csv_row()
        assert row.startswith("target,1,ipw_hajek,")

    def test_weighted_sample_diagnostics(self):
        ws = _WeightedSample.of(np.array([1.0, 1.0, 2.0]))
        assert ws.total == 4.0
        # normalized weights 0.25, 0.25, 0.5
        assert ws.diagnostics == (0.5, 1.0 / (0.25**2 + 0.25**2 + 0.5**2))
        with pytest.raises(ValueError):
            _WeightedSample.of(np.array([-1.0, 2.0]))

    def test_diagnostics_are_computed_once_on_first_read(
        self, census_1m, census_models_1m, monkeypatch
    ):
        pmodel, _ = census_models_1m
        calls = []
        original = estimators._weight_diagnostics

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(estimators, "_weight_diagnostics", counting)
        report = tp.ipw_mean_target(census_1m, pmodel, 1, "hajek")
        assert calls == []
        first = report.to_dict()
        assert len(calls) == 1
        assert report.to_dict() == first
        assert report.to_csv_row().split(",")[4:6] == [
            repr(first["effective_sample_size"]), repr(first["max_normalized_weight"]),
        ]
        assert len(calls) == 1
        # equality compares estimand, arm, method and value; replace keeps the diagnostics
        moved = dataclasses.replace(report, value=report.value + 0.5)
        assert moved != report
        assert moved.to_dict() == {**first, "value": report.value + 0.5}
        assert dataclasses.replace(moved, value=report.value) == report

    def test_nonrandomized_diagnostics_are_those_of_the_external_weights(self, subsampled_1m):
        # the zero weights of the trial rows are left out, with the same bits
        ext = subsampled_1m.design_weights.take(subsampled_1m._external_rows)
        assert subsampled_1m.nonrandomized.diagnostics == domain._weight_diagnostics(ext)


# the second covariate of specs.P2_DGP is rescaled by each of these
_SCALES = (1e-12, 1e-9, 1e9, 1e12)


def _gformula_and_ipw_estimates(data):
    """The g-formula and IPW target and non-randomized estimates, both arms."""
    pmodel, omodel = tp.fit_participation(data), tp.fit_outcome(data)
    calls = [
        lambda arm: tp.gformula_mean_target(data, omodel, arm),
        lambda arm: tp.gformula_mean_nonrandomized(data, omodel, arm),
        lambda arm: tp.ipw_mean_target(data, pmodel, arm, "ht"),
        lambda arm: tp.ipw_mean_target(data, pmodel, arm, "hajek"),
        lambda arm: tp.ipw_mean_nonrandomized(data, pmodel, arm),
    ]
    return np.array([call(arm).value for call in calls for arm in (0, 1)])


class TestScaleFreeRankGuards:
    """The fits' rank guards do not depend on the units of a covariate."""

    @pytest.fixture(scope="class", params=[tp.CensusNested(), tp.SubsampledNested(c=0.3)],
                    ids=["census", "c0.3"])
    def p2_data(self, request):
        pop = tp.simulate_actual_population(specs.P2_DGP, 100_000)
        return tp.apply_design(pop, request.param, seed=61)

    @pytest.mark.parametrize("scale", _SCALES)
    def test_rescaled_covariate_leaves_estimates_unchanged(self, p2_data, scale):
        x = p2_data.x.copy()
        x[:, 1] *= scale
        got = _gformula_and_ipw_estimates(dataclasses.replace(p2_data, x=x))
        want = _gformula_and_ipw_estimates(p2_data)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("scale", (1.0,) + _SCALES)
    @pytest.mark.parametrize("extra", ["copied", "constant"])
    @pytest.mark.parametrize("fit", [tp.fit_participation, tp.fit_outcome],
                             ids=["participation", "outcome"])
    def test_collinear_column_is_rank_deficient_at_every_scale(self, p2_data, scale, extra, fit):
        x = p2_data.x.copy()
        x[:, 1] *= scale
        column = x[:, 1] if extra == "copied" else np.full(len(x), 0.3 * scale)
        with pytest.raises(tp.RankDeficient):
            fit(dataclasses.replace(p2_data, x=np.column_stack([x, column])))

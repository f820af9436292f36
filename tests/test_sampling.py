import math

import numpy as np
import pytest

import trialport as tp
from trialport.sampling import sampling_indicator_independence_check

from support import oracles


def handmade_population(n_trial=200, n_external=1200, seed=31):
    """Fixed-count population: first ``n_trial`` units are trial participants."""
    rng = np.random.Generator(np.random.Philox(seed))
    n = n_trial + n_external
    x = rng.normal(size=(n, 1))
    s = np.array([1] * n_trial + [0] * n_external, dtype=np.int8)
    a = np.where(s == 1, (rng.random(n) < 0.5).astype(np.int8), np.int8(-1))
    y0 = 1.0 + x[:, 0] + rng.normal(size=n)
    y1 = 2.0 + 1.3 * x[:, 0] + rng.normal(size=n)
    y = np.where(s == 1, np.where(a == 1, y1, y0), np.nan)
    return tp.ActualPopulation(x, s, a, y0, y1, y, aux_split=1, treatment_prob=0.5)


class TestApplyDesign:
    def test_census_keeps_everyone(self):
        pop = handmade_population()
        data = tp.apply_design(pop, tp.CensusNested(), seed=1)
        assert data.n_rows == len(pop)
        assert data.n_unsampled_nonrandomized == 0

    def test_subsampled_keeps_binomial_fraction(self):
        pop = handmade_population(200, 1200)
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.25), seed=2)
        assert data.n_trial == 200
        # binomial(1200, 0.25): expect 300 within 4 standard errors
        se = math.sqrt(1200 * 0.25 * 0.75)
        assert abs(data.n_external - 300) <= 4 * se
        assert data.n_external + data.n_unsampled_nonrandomized == 1200

    def test_non_nested_hides_unsampled_count(self):
        pop = handmade_population(200, 1200)
        data = tp.apply_design(pop, tp.NonNested(u_hidden=0.25), seed=2)
        assert data.n_unsampled_nonrandomized is None
        assert data.design.u_hidden is None  # redacted for estimator code

    def test_same_thinning_same_seed_across_designs(self):
        # non-nested with u equal to c keeps exactly the same units
        pop = handmade_population(200, 1200)
        nested = tp.apply_design(pop, tp.SubsampledNested(c=0.25), seed=9)
        non_nested = tp.apply_design(pop, tp.NonNested(u_hidden=0.25), seed=9)
        assert np.array_equal(nested.x, non_nested.x)

    def test_never_emits_treatment_or_outcome_for_externals(self):
        pop = handmade_population()
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.5), seed=3)
        ext = data.external_mask
        assert np.all(np.isnan(data.a[ext]))
        assert np.all(np.isnan(data.y[ext]))

    def test_deterministic_given_seed(self):
        pop = handmade_population()
        d1 = tp.apply_design(pop, tp.SubsampledNested(c=0.5), seed=4)
        d2 = tp.apply_design(pop, tp.SubsampledNested(c=0.5), seed=4)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.s, d2.s)
        d3 = tp.apply_design(pop, tp.SubsampledNested(c=0.5), seed=5)
        assert not np.array_equal(d1.x, d3.x)

    def test_covariate_rule_drives_keep_rates(self):
        pop = handmade_population(400, 20_000)
        rule = tp.StepRule(coord=0, cutoff=0.0, low=0.2, high=0.8)
        data = tp.apply_design(pop, tp.SubsampledNestedCovariate(c_rule=rule), seed=6)
        ext_x = pop.x[pop.s == 0, 0]
        kept_x = data.x[data.external_mask, 0]
        for side, c in ((ext_x <= 0, 0.2), (ext_x > 0, 0.8)):
            n_side = side.sum()
            kept_side = (kept_x <= 0).sum() if c == 0.2 else (kept_x > 0).sum()
            se = math.sqrt(n_side * c * (1 - c))
            assert abs(kept_side - n_side * c) <= 4 * se

    def test_rejects_population_without_trial_units(self):
        pop = handmade_population()
        pop.s[:] = 0
        with pytest.raises(tp.DataError):
            tp.apply_design(pop, tp.CensusNested(), seed=1)

    def test_rejects_rule_outside_unit_interval(self):
        with pytest.raises(tp.DataError):
            tp.StepRule(low=-0.5, high=0.8)
        with pytest.raises(tp.DataError):
            tp.StepRule(low=0.2, high=1.5)

    def test_non_nested_simulation_requires_u(self):
        pop = handmade_population()
        with pytest.raises(tp.DataError):
            tp.apply_design(pop, tp.NonNested(u_hidden=None), seed=1)


class TestIndependenceCheck:
    def test_constant_fraction_uniform_across_strata(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 100_000)
        report = sampling_indicator_independence_check(pop, tp.SubsampledNested(c=0.5), seed=7)
        assert report.passed
        for row in report.strata:
            assert row.expected_fraction == 0.5
            assert abs(row.kept / row.n - 0.5) <= 4 * row.se

    def test_full_fraction_is_exact(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 20_000)
        report = sampling_indicator_independence_check(pop, tp.SubsampledNested(c=1.0), seed=7)
        assert report.passed
        for row in report.strata:
            assert row.kept == row.n

    def test_covariate_rule_recovered_per_stratum(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 100_000)
        rule = tp.StepRule(coord=0, cutoff=0.0, low=0.2, high=0.8)
        report = sampling_indicator_independence_check(
            pop, tp.SubsampledNestedCovariate(c_rule=rule), seed=8
        )
        assert report.passed
        by_name = {row.stratum: row for row in report.strata}
        # x ~ N(0,1): lower quartiles sit below the cutoff, upper above
        assert by_name["x1_q1"].expected_fraction == 0.2
        assert by_name["x1_q4"].expected_fraction == 0.8

    def test_non_nested_thinning_is_also_covariate_free(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 100_000)
        report = sampling_indicator_independence_check(pop, tp.NonNested(u_hidden=0.4), seed=9)
        assert report.passed
        assert all(row.expected_fraction == 0.4 for row in report.strata)

    def test_mixed_stratum_reports_its_mean_fraction(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 100_000)
        rule = tp.StepRule(coord=0, cutoff=0.0, low=0.2, high=0.8)
        report = sampling_indicator_independence_check(
            pop, tp.SubsampledNestedCovariate(c_rule=rule), seed=8
        )
        row = {r.stratum: r for r in report.strata}["y0_neg"]
        external = pop.s == 0
        x1 = pop.x[external, 0][pop.y0[external] < 0]
        assert row.n == x1.size
        share_low = np.mean(x1 <= 0.0)
        expected = 0.2 * share_low + 0.8 * (1.0 - share_low)
        assert abs(row.expected_fraction - expected) <= 1e-12
        assert 0.2 < row.expected_fraction < 0.8

    def test_non_dyadic_constant_fraction_is_exact(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 100_000)
        report = sampling_indicator_independence_check(pop, tp.SubsampledNested(c=0.3), seed=11)
        assert report.passed
        assert all(row.expected_fraction == 0.3 for row in report.strata)

    def test_census_is_rejected(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 1_000)
        with pytest.raises(ValueError):
            sampling_indicator_independence_check(pop, tp.CensusNested(), seed=1)

    def test_sampled_dataset_record_scan(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 2_000)
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.5), seed=10)
        trial, ext = data.trial_mask, data.external_mask
        assert np.all(np.isin(data.a[trial], (0.0, 1.0)))
        assert np.all(np.isfinite(data.y[trial]))
        assert np.all(np.isnan(data.a[ext])) and np.all(np.isnan(data.y[ext]))
        assert trial.sum() == data.n_trial > 0
        assert ext.sum() == data.n_external > 0
        assert data.n_trial + data.n_external == data.n_rows


def test_oracle_constants_are_fresh():
    oracles.assert_constants_fresh()

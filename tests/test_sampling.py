import math

import numpy as np
import pytest

import trialport as tp
from trialport import sampling
from trialport.domain import known_sampling_fractions
from trialport.sampling import _THIN, _stream

from support import oracles


def handmade_population(n_trial=200, n_external=1200, seed=31):
    """Fixed-count population: first ``n_trial`` units are trial participants."""
    rng = np.random.Generator(np.random.Philox(seed))
    n = n_trial + n_external
    x = rng.normal(size=(n, 1))
    s = np.array([1] * n_trial + [0] * n_external, dtype=np.int8)
    a = np.where(s == 1, (rng.random(n) < 0.5).astype(np.int8), np.int8(-1))
    mean = np.where(a == 1, 2.0 + 1.3 * x[:, 0], 1.0 + x[:, 0])
    y = np.where(s == 1, mean + rng.normal(size=n), np.nan)
    return tp.ActualPopulation(x, s, a, y, aux_split=1, treatment_prob=0.5)


class TestApplyDesign:
    def test_census_keeps_everyone(self):
        pop = handmade_population()
        data = tp.apply_design(pop, tp.CensusNested(), seed=1)
        assert data.n_rows == len(pop)
        assert data.n_unsampled_nonrandomized == 0

    @pytest.mark.parametrize(
        "design",
        [
            tp.CensusNested(),
            tp.SubsampledNested(c=1.0),
            tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=1.0, high=1.0)),
            tp.NonNested(u_hidden=1.0),
        ],
        ids=["census", "c=1", "step_rule_of_ones", "non_nested_u=1"],
    )
    def test_fractions_of_one_draw_nothing_and_keep_every_row(self, design, monkeypatch):
        def no_draw(*key):
            raise AssertionError("a census has nothing to draw")

        monkeypatch.setattr(sampling, "_stream", no_draw)
        pop = handmade_population()
        data = tp.apply_design(pop, design, seed=1)
        rows = np.arange(len(pop))
        a = pop.a.take(rows).astype(float)
        a[a < 0] = np.nan
        np.testing.assert_array_equal(data.x, pop.x.take(rows, axis=0))
        np.testing.assert_array_equal(data.s, pop.s.take(rows))
        np.testing.assert_array_equal(data.a, a)
        np.testing.assert_array_equal(data.y, pop.y.take(rows))
        assert data.n_unsampled_nonrandomized == (None if isinstance(design, tp.NonNested) else 0)
        assert all(arr.flags.writeable for arr in (pop.x, pop.s, pop.a, pop.y))

    def test_fractions_of_one_still_check_the_rule(self):
        # the rule needs auxiliary coordinate 1, and the population has one coordinate
        design = tp.SubsampledNestedCovariate(c_rule=tp.StepRule(coord=1, low=1.0, high=1.0))
        with pytest.raises(tp.DataError, match="auxiliary coordinate 1"):
            tp.apply_design(handmade_population(), design, seed=1)

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
        ext = data.s == 0
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
        kept_x = data.x[data.s == 0, 0]
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

    def test_sampled_dataset_record_scan(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 2_000)
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.5), seed=10)
        trial, ext = data.s == 1, data.s == 0
        assert np.all(np.isin(data.a[trial], (0.0, 1.0)))
        assert np.all(np.isfinite(data.y[trial]))
        assert np.all(np.isnan(data.a[ext])) and np.all(np.isnan(data.y[ext]))
        assert trial.sum() == data.n_trial > 0
        assert ext.sum() == data.n_external > 0
        assert data.n_trial + data.n_external == data.n_rows

    @pytest.mark.parametrize(
        "design",
        [
            tp.SubsampledNested(c=0.5),
            tp.SubsampledNested(c=0.3),
            tp.SubsampledNested(c=1.0),
            tp.NonNested(u_hidden=0.4),
            tp.SubsampledNestedCovariate(c_rule=tp.StepRule(coord=0, cutoff=0.0, low=0.2, high=0.8)),
        ],
        ids=["c0.5", "c0.3", "c1", "non_nested", "step_rule"],
    )
    def test_kept_count_matches_design_fraction_per_stratum(self, dgp1, design):
        # Pr[D=1 | X, S=0] is the design fraction: in every x1 quartile of the
        # non-randomized units the kept count is within 4 binomial SDs of the
        # sum of the units' fractions
        pop = tp.simulate_actual_population(dgp1, 100_000)
        ext = pop.s == 0
        # an index column after the auxiliary block tags each unit without
        # changing the draw, which reads only the auxiliary block
        tagged = tp.ActualPopulation(
            np.column_stack([pop.x, np.arange(len(pop))]), pop.s, pop.a, pop.y,
            pop.aux_split, pop.treatment_prob,
        )
        data = tp.apply_design(tagged, design, seed=7)
        kept = np.zeros(len(pop), dtype=bool)
        kept[data.x[data.s == 0, -1].astype(int)] = True
        if isinstance(design, tp.NonNested):
            prob = np.full(len(pop), design.u_hidden)
        else:
            prob = known_sampling_fractions(design, pop.x[:, : pop.aux_split])

        x1 = pop.x[:, 0]
        quartiles = np.searchsorted(np.quantile(x1[ext], [0.25, 0.5, 0.75]), x1)
        for stratum in (quartiles == q for q in range(4)):
            members = ext & stratum
            p = prob[members]
            assert members.sum() > 1_000
            assert abs(kept[members].sum() - p.sum()) <= 4 * math.sqrt(np.sum(p * (1 - p)))


def _mask_reference(population, design, seed):
    """``apply_design``'s columns, computed by boolean-mask selection."""
    trial = population.s == 1
    external = ~trial
    if isinstance(design, tp.NonNested):
        prob = design.u_hidden
    else:
        prob = known_sampling_fractions(design, population.x[external, : population.aux_split])
    kept_external = np.zeros(len(population), dtype=bool)
    kept_external[external] = _stream(seed, _THIN, 0).random(int(external.sum())) < prob
    keep = trial | kept_external
    x, s = population.x[keep], population.s[keep]
    a = np.where(trial[keep], population.a[keep].astype(float), np.nan)
    y = np.where(trial[keep], population.y[keep], np.nan)
    arms = [((s == 1) & (a == arm)) for arm in (0, 1)]
    return {
        "x": x, "s": s, "a": a, "y": y,
        "trial_x": x[s == 1], "external_x": x[s == 0],
        "arm0_x": x[arms[0]], "arm0_y": y[arms[0]], "arm1_x": x[arms[1]], "arm1_y": y[arms[1]],
        "n_unsampled": int(external.sum() - kept_external.sum()),
    }


_P3_DGP = tp.DgpSpec(
    covariates=(tp.Normal(0.0, 1.0), tp.Bernoulli(0.3), tp.Uniform(-1.0, 2.0)),
    participation_logit=(-1.0, 0.5, 0.2, -0.1),
    treatment_prob=0.4,
    outcome_mean_a0=(1.0, 1.0, 0.0, 0.5),
    outcome_mean_a1=(2.0, 1.3, -0.2, 0.0),
    noise_sd=0.5,
    seed=7,
    aux_split=2,
)


EVERY_DESIGN = pytest.mark.parametrize(
    "design",
    [
        tp.CensusNested(),
        tp.SubsampledNested(c=0.3),
        tp.SubsampledNestedCovariate(c_rule=tp.StepRule(coord=0, cutoff=0.0, low=0.2, high=0.8)),
        tp.NonNested(u_hidden=0.4),
    ],
    ids=["census", "c0.3", "step_rule", "non_nested"],
)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dgp_name", ["dgp1", "p3"])
@EVERY_DESIGN
def test_apply_design_matches_mask_reference(dgp1, dgp_name, design, seed):
    dgp = dgp1 if dgp_name == "dgp1" else _P3_DGP
    pop = tp.simulate_actual_population(dgp, 5_000, seed=seed)
    data = tp.apply_design(pop, design, seed=seed)
    ref = _mask_reference(pop, design, seed)
    got = {
        "x": data.x, "s": data.s, "a": data.a, "y": data.y,
        "trial_x": data.trial_x, "external_x": data.external_x,
        "arm0_x": data.arm(0).x, "arm0_y": data.arm(0).y,
        "arm1_x": data.arm(1).x, "arm1_y": data.arm(1).y,
    }
    for name, arr in got.items():
        assert arr.dtype == ref[name].dtype, name
        assert np.array_equal(arr, ref[name], equal_nan=True), name
        assert not arr.flags.writeable, name
    assert data.n_unsampled_nonrandomized == (
        None if isinstance(design, tp.NonNested) else ref["n_unsampled"]
    )


@pytest.mark.parametrize("dgp_name", ["dgp1", "p3"])
@EVERY_DESIGN
def test_every_design_keeps_the_population_trial_rows_bit_for_bit_in_order(
    dgp1, dgp_name, design
):
    # the cells of a sweep share one outcome fit per population, which reads only these rows
    pop = tp.simulate_actual_population(dgp1 if dgp_name == "dgp1" else _P3_DGP, 5_000, seed=4)
    data = tp.apply_design(pop, design, seed=4)
    in_pop, in_data = np.flatnonzero(pop.s == 1), data._trial_rows
    assert in_data.size == in_pop.size
    assert data.x.take(in_data, axis=0).tobytes() == pop.x.take(in_pop, axis=0).tobytes()
    assert data.a.take(in_data).tobytes() == pop.a.take(in_pop).astype(float).tobytes()
    assert data.y.take(in_data).tobytes() == pop.y.take(in_pop).tobytes()


def test_oracle_constants_are_fresh():
    oracles.assert_constants_fresh()

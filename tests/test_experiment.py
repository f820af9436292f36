import collections
import concurrent.futures
import ctypes
import dataclasses
import functools
import gc
import math
import multiprocessing
import sys
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trialport as tp
from trialport import dgp as dgp_module
from trialport import experiment
from trialport.estimators import Method, StudyPopulation
from trialport.experiment import splitmix64, summary_rows_to_csv

from conftest import make_tiny_dataset
from support import oracles, resamples


def spec(method, population, arm=1):
    return tp.EstimatorSpec(Method(method), StudyPopulation(population), arm)


def small_config(dgp, design, **kwargs):
    defaults = dict(n=2_000, replications=20, master_seed=901, oracle_m=200_000)
    defaults.update(kwargs)
    return tp.ExperimentConfig(dgp=dgp, design=design, **defaults)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Sizes of the process pools opened while the test runs; each maps in this process."""
    sizes = []
    monkeypatch.setattr(dgp_module, "_installed", None)  # restored after the test

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(dgp_module, "ProcessPoolExecutor", InProcessPool)
    return sizes


class TestSeedMixing:
    def test_splitmix64_reference_vector(self):
        # first output of the splitmix64 stream seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_mixing_is_deterministic_and_spread(self):
        seeds = {tp.mix_seed(42, 1, r) for r in range(1000)}
        assert len(seeds) == 1000
        assert tp.mix_seed(42, 1, 5) == tp.mix_seed(42, 1, 5)
        assert tp.mix_seed(42, 1, 5) != tp.mix_seed(42, 2, 5)


class TestEstimatorSpec:
    def test_rejects_invalid_combinations(self):
        with pytest.raises(ValueError):
            spec("trial_only", "target")
        with pytest.raises(ValueError):
            spec("ipw_ht", "nonrandomized")
        with pytest.raises(ValueError):
            tp.EstimatorSpec(Method.GFORMULA, StudyPopulation.TARGET, arm=2)

    def test_default_grid_covers_both_arms(self):
        specs = tp.default_estimators()
        assert len(specs) == 10
        assert {s.arm for s in specs} == {0, 1}

    def test_fit_and_evaluate_matches_the_estimator_function(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 20_000)
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.3), seed=5)
        pmodel, omodel = tp.fit_participation(data), tp.fit_outcome(data)
        cases = [
            (spec("gformula", "target"), tp.gformula_mean_target(data, omodel, 1)),
            (spec("ipw_ht", "target"), tp.ipw_mean_target(data, pmodel, 1, "ht")),
            (spec("ipw_hajek", "nonrandomized"), tp.ipw_mean_nonrandomized(data, pmodel, 1)),
            (spec("trial_only", "randomized"), tp.trial_only_mean(data, 1)),
        ]
        assert [(s.needs_participation, s.needs_outcome) for s, _ in cases] == [
            (False, True), (True, False), (True, False), (False, False),
        ]
        for s, expected in cases:
            assert s.fit_and_evaluate(data).to_dict() == expected.to_dict()


ALL_SPECS = tp.default_estimators() + tuple(
    tp.EstimatorSpec(Method.IPW_HT, StudyPopulation.TARGET, arm) for arm in (0, 1)
)

SWEEP_DESIGNS = (
    tp.CensusNested(),
    tp.SubsampledNested(c=0.3),
    tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8)),
    tp.NonNested(u_hidden=0.2),
)
DESIGNS = pytest.mark.parametrize(
    "design", SWEEP_DESIGNS, ids=["census", "c=0.3", "step_rule", "non_nested"]
)


def _reports(specs, data, pmodel, omodel) -> dict:
    out = {}
    for s in specs:
        try:
            out[s] = s.evaluate(data, pmodel, omodel).to_dict()
        except tp.NotIdentifiable:
            out[s] = "not identifiable"
    return out


def _arrays(value) -> list:
    """Every array reachable from ``value`` through attributes and tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _arrays(v)]
    if hasattr(value, "__dict__"):
        return [a for v in vars(value).values() for a in _arrays(v)]
    return []


class TestSharedInputs:
    """Each dataset derives its estimator inputs once; sharing them changes nothing."""

    @DESIGNS
    def test_order_and_fresh_copies_give_equal_reports(self, dgp1, design):
        pop = tp.simulate_actual_population(dgp1, 20_000)
        data = tp.apply_design(pop, design, seed=41)
        pmodel, omodel = experiment.fit_models(ALL_SPECS, data)
        forward = _reports(ALL_SPECS, data, pmodel, omodel)
        backward = _reports(ALL_SPECS[::-1], data, pmodel, omodel)
        fresh = {}
        for s in ALL_SPECS:
            fresh.update(_reports([s], dataclasses.replace(data), pmodel, omodel))
        assert forward == backward == fresh

        arrays = _arrays(data)
        assert len(arrays) >= 12
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    @DESIGNS
    def test_evaluated_dataset_is_freed_with_its_last_reference(self, dgp1, design):
        # the cached inputs must not form a cycle back to the dataset: with the
        # garbage collector off, only reference counting can free it
        pop = tp.simulate_actual_population(dgp1, 20_000)
        data = tp.apply_design(pop, design, seed=41)
        pmodel, omodel = experiment.fit_models(ALL_SPECS, data)
        reports = _reports(ALL_SPECS, data, pmodel, omodel)
        assert len(reports) == 12
        ref = weakref.ref(data)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del data
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_sampling_fractions_are_computed_once_per_replication(self, dgp1, monkeypatch):
        calls = collections.Counter()
        modules = [m for k, m in sys.modules.items() if k.startswith("trialport.")]
        original = tp.domain.known_sampling_fractions
        for module in modules:
            if getattr(module, "known_sampling_fractions", None) is original:

                def counting(*args, _name=module.__name__, **kwargs):
                    calls[_name] += 1
                    return original(*args, **kwargs)

                monkeypatch.setattr(module, "known_sampling_fractions", counting)
        design = tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8))
        cfg = small_config(dgp1, design, estimators=ALL_SPECS, replications=1)
        results = experiment._run_replication(cfg, 0)
        assert [status for status, _, _ in results] == [experiment.OK] * len(ALL_SPECS)
        # once for the dataset's inputs, once for the thinning that made it
        assert calls == {"trialport.domain": 1, "trialport.sampling": 1}


class TestRunExperiment:
    def test_summary_fields_consistent(self, dgp1):
        cfg = small_config(dgp1, tp.CensusNested())
        summary = tp.run_experiment(cfg)
        assert len(summary.rows) == 10
        for row in summary.rows:
            assert row.bias == row.mean - row.truth  # exact by construction
            assert row.replications == 20
            assert row.not_identifiable_frac == 0.0
            assert row.rmse >= abs(row.bias) - 1e-15

    def test_reproducible_and_worker_independent(self, dgp1):
        cfg = small_config(dgp1, tp.SubsampledNested(c=0.5), replications=8)
        first = tp.run_experiment(cfg, workers=1)
        second = tp.run_experiment(cfg, workers=1)
        parallel = tp.run_experiment(cfg, workers=2)
        assert (
            summary_rows_to_csv(first.rows)
            == summary_rows_to_csv(second.rows)
            == summary_rows_to_csv(parallel.rows)
        )

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, dgp1, workers):
        cfg = small_config(dgp1, tp.CensusNested(), replications=2)
        with pytest.raises(ValueError, match="workers"):
            tp.run_experiment(cfg, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            tp.design_comparison([cfg], workers=workers)

    @pytest.mark.parametrize("workers, replications, pool_size", [(64, 3, 3), (2, 3, 2)])
    def test_pool_has_no_more_workers_than_replications(
        self, dgp1, pool_sizes, workers, replications, pool_size
    ):
        cfg = small_config(
            dgp1, tp.CensusNested(), replications=replications,
            estimators=(spec("gformula", "target"),),
        )
        serial = summary_rows_to_csv(tp.run_experiment(cfg).rows)
        assert summary_rows_to_csv(tp.run_experiment(cfg, workers=workers).rows) == serial
        assert pool_sizes == [pool_size]

    @pytest.mark.parametrize("design", [tp.CensusNested(), tp.NonNested(u_hidden=0.3)])
    def test_bootstrap_standard_errors_reach_the_summary(self, dgp1, design):
        est = (spec("gformula", "target"), spec("trial_only", "randomized"))
        cfg = small_config(dgp1, design, n=2_000, replications=3, bootstrap_b=100, estimators=est)
        serial = tp.run_experiment(cfg, workers=1)
        parallel = tp.run_experiment(cfg, workers=2)
        assert summary_rows_to_csv(parallel.rows) == summary_rows_to_csv(serial.rows)
        target, randomized = serial.rows
        assert math.isfinite(randomized.boot_se_mean) and randomized.boot_se_mean > 0
        if isinstance(design, tp.NonNested):
            assert target.not_identifiable_frac == 1.0 and math.isnan(target.boot_se_mean)
        else:
            assert math.isfinite(target.boot_se_mean) and target.boot_se_mean > 0

    def test_non_nested_target_is_fully_gated(self, dgp1):
        cfg = small_config(
            dgp1,
            tp.NonNested(u_hidden=0.3),
            estimators=(spec("gformula", "target"), spec("gformula", "nonrandomized")),
        )
        summary = tp.run_experiment(cfg)
        target_row = summary.rows[0]
        assert target_row.not_identifiable_frac == 1.0
        assert math.isnan(target_row.mean)
        assert summary.rows[1].not_identifiable_frac == 0.0

    def test_generalizability_violation_biases_by_the_shift(self, dgp1):
        delta = 0.7
        cfg = small_config(
            dgp1,
            tp.CensusNested(),
            n=5_000,
            replications=80,
            misspecify=tp.MisspecifySpec(s_shift=delta),
            estimators=(
                spec("gformula", "nonrandomized"),
                spec("gformula", "target"),
                spec("trial_only", "randomized"),
            ),
            oracle_m=2_000_000,
        )
        shifted = tp.run_experiment(cfg).rows
        unshifted = tp.run_experiment(dataclasses.replace(cfg, misspecify=tp.MisspecifySpec())).rows
        row = shifted[0]
        # estimator keeps its unshifted limit, truth moved up by delta
        assert row.bias == pytest.approx(-delta, abs=4 * row.sd / math.sqrt(80) + 0.01)
        # the shift acts on the truths only: the estimates are the same bits
        for moved, base in zip(shifted, unshifted):
            assert (moved.mean, moved.sd, moved.not_identifiable_frac) == (
                base.mean, base.sd, base.not_identifiable_frac
            )
        nonrandomized, target, randomized = shifted
        assert nonrandomized.truth == unshifted[0].truth + delta
        assert 0.0 < target.truth - unshifted[1].truth < delta
        assert randomized.truth == unshifted[2].truth

    def test_failures_are_tallied_not_fatal(self, dgp1):
        # tiny populations: some replications lack a treatment arm entirely
        cfg = small_config(dgp1, tp.CensusNested(), n=12, replications=60)
        summary = tp.run_experiment(cfg)
        assert any(row.n_failed > 0 for row in summary.rows)

    def test_census_equals_subsampled_c1(self, dgp1):
        census = tp.run_experiment(small_config(dgp1, tp.CensusNested()))
        sub1 = tp.run_experiment(small_config(dgp1, tp.SubsampledNested(c=1.0)))
        for r_census, r_sub in zip(census.rows, sub1.rows):
            assert r_census.mean == r_sub.mean
            assert r_census.sd == r_sub.sd

    def test_misspecified_participation_biases_weighting(self, dgp1):
        cfg = small_config(
            dgp1,
            tp.CensusNested(),
            n=20_000,
            replications=40,
            misspecify=tp.MisspecifySpec(participation=True),
            estimators=(spec("ipw_hajek", "target"),),
            oracle_m=2_000_000,
        )
        summary = tp.run_experiment(cfg)
        row = summary.rows[0]
        # intercept-only participation model cannot remove covariate selection
        assert abs(row.bias) > 6 * row.sd / math.sqrt(40)


class TestExperimentConfig:
    def test_rejects_misspecified_fit_that_leaves_no_auxiliary_covariate(self, dgp1):
        # DGP-1 has one covariate, and it is the auxiliary block the design samples on
        design = tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8))
        for mis in (tp.MisspecifySpec(participation=True), tp.MisspecifySpec(outcome=True)):
            with pytest.raises(ValueError, match="auxiliary covariate"):
                small_config(dgp1, design, misspecify=mis)
        small_config(dgp1, design)
        small_config(dgp1, tp.CensusNested(), misspecify=tp.MisspecifySpec(participation=True))

    def test_rejects_a_bootstrap_too_small_for_a_standard_error(self, dgp1):
        for b in (1, 50, experiment.MIN_BOOTSTRAP_B - 1):
            with pytest.raises(ValueError, match="bootstrap_b"):
                small_config(dgp1, tp.CensusNested(), bootstrap_b=b)
        for b in (0, experiment.MIN_BOOTSTRAP_B):
            assert small_config(dgp1, tp.CensusNested(), bootstrap_b=b).bootstrap_b == b

    def test_misspecified_fit_keeps_a_remaining_auxiliary_covariate(self, dgp1):
        dgp2 = dataclasses.replace(
            dgp1,
            covariates=(tp.Normal(0.0, 1.0), tp.Normal(0.0, 1.0)),
            participation_logit=(-1.0, 0.5, 0.3),
            outcome_mean_a0=(1.0, 1.0, 0.5),
            outcome_mean_a1=(2.0, 1.3, 0.5),
        )
        cfg = small_config(
            dgp2,
            tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8)),
            replications=4,
            misspecify=tp.MisspecifySpec(participation=True, outcome=True),
        )
        assert all(row.n_failed == 0 for row in tp.run_experiment(cfg).rows)


    def test_rejects_a_non_nested_design_it_cannot_simulate(self, dgp1):
        # every replication's thinning would fail, leaving a summary of NaNs
        with pytest.raises(ValueError, match="u_hidden"):
            small_config(dgp1, tp.NonNested())
        assert small_config(dgp1, tp.NonNested(u_hidden=0.3)).design.u_hidden == 0.3

    def test_rejects_step_rule_on_a_covariate_the_fits_drop(self, dgp1):
        dgp2 = dataclasses.replace(
            dgp1,
            covariates=(tp.Normal(0.0, 1.0), tp.Normal(0.0, 1.0)),
            participation_logit=(-1.0, 0.5, 0.3),
            outcome_mean_a0=(1.0, 1.0, 0.5),
            outcome_mean_a1=(2.0, 1.3, 0.5),
            aux_split=2,
        )
        on_x2 = tp.SubsampledNestedCovariate(c_rule=tp.StepRule(coord=1, low=0.2, high=0.8))
        for mis in (tp.MisspecifySpec(participation=True), tp.MisspecifySpec(outcome=True)):
            with pytest.raises(ValueError, match="step rule coordinate 1"):
                small_config(dgp2, on_x2, misspecify=mis)
        # the correctly specified fits keep both auxiliary covariates
        small_config(dgp2, on_x2)
        # a rule past the auxiliary block is rejected with or without misspecification
        with pytest.raises(ValueError, match="step rule coordinate 1"):
            small_config(dataclasses.replace(dgp2, aux_split=1), on_x2)
        # a rule on the kept covariate still runs under misspecification
        on_x1 = tp.SubsampledNestedCovariate(c_rule=tp.StepRule(coord=0, low=0.2, high=0.8))
        small_config(dgp2, on_x1, misspecify=tp.MisspecifySpec(participation=True))


class TestEquivalenceOfObjectives:
    def test_weighted_and_census_fits_share_their_limit(self, dgp1):
        # two-sample comparison of fitted coefficients over replications
        R, n = 500, 10_000
        census_coefs, weighted_coefs = [], []
        for r in range(R):
            pop = tp.simulate_actual_population(dgp1, n, seed=tp.mix_seed(31, 1, r))
            census = tp.apply_design(pop, tp.CensusNested(), seed=tp.mix_seed(31, 2, r))
            census_coefs.append(tp.fit_participation(census).coefficients)
            pop2 = tp.simulate_actual_population(dgp1, n, seed=tp.mix_seed(31, 3, r))
            sub = tp.apply_design(pop2, tp.SubsampledNested(c=0.3), seed=tp.mix_seed(31, 4, r))
            weighted_coefs.append(tp.fit_participation(sub).coefficients)
        census_coefs = np.array(census_coefs)
        weighted_coefs = np.array(weighted_coefs)
        for j in range(2):
            diff = census_coefs[:, j].mean() - weighted_coefs[:, j].mean()
            se = math.sqrt(
                census_coefs[:, j].var(ddof=1) / R + weighted_coefs[:, j].var(ddof=1) / R
            )
            # alpha = 0.01 two-sided with a two-coefficient Bonferroni split
            assert abs(diff) <= 2.81 * se, f"coef {j}: diff {diff:.5f}, se {se:.5f}"


class TestBootstrap:
    def test_constant_outcome_gives_zero_se(self):
        n = 60
        rng = np.random.Generator(np.random.Philox(81))
        x = rng.normal(size=(n, 1))
        s = np.array([1] * 40 + [0] * 20)
        a = np.full(n, np.nan)
        a[:40] = [i % 2 for i in range(40)]
        y = np.full(n, np.nan)
        y[:40] = 3.25
        data = tp.ObservedDataset(
            x=x, s=s, a=a, y=y, design=tp.CensusNested(), k=1, n_unsampled_nonrandomized=0
        )
        se = tp.bootstrap_se(data, spec("trial_only", "randomized"), 150, seed=1)
        assert se == 0.0

    def test_rejects_small_b(self, tiny_dataset):
        with pytest.raises(ValueError):
            tp.bootstrap_se(tiny_dataset, spec("trial_only", "randomized"), 50, seed=1)

    def test_doubling_b_is_stable(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 4_000)
        data = tp.apply_design(pop, tp.CensusNested(), seed=82)
        est = spec("gformula", "target")
        se_200 = tp.bootstrap_se(data, est, 200, seed=2)
        se_400 = tp.bootstrap_se(data, est, 400, seed=3)
        # bootstrap-noise scale of an SE estimate is roughly se / sqrt(2B)
        assert abs(se_400 - se_200) <= 4 * se_200 / math.sqrt(2 * 200)

    def test_calibrated_against_empirical_sd(self, dgp1):
        est = spec("gformula", "target")
        cfg = small_config(
            dgp1, tp.CensusNested(), n=10_000, replications=500, estimators=(est,),
            oracle_m=200_000,
        )
        empirical_sd = tp.run_experiment(cfg).rows[0].sd
        for seed in (11, 12, 13):
            pop = tp.simulate_actual_population(dgp1, 10_000, seed=seed)
            data = tp.apply_design(pop, tp.CensusNested(), seed=seed + 100)
            boot = tp.bootstrap_se(data, est, 200, seed=seed)
            assert boot == pytest.approx(empirical_sd, rel=0.3)


def bootstrap_dataset(design):
    """A tiny dataset with two arm-1 trial rows, so that some resamples fail either statistic."""
    data = make_tiny_dataset(design, n_trial=10, n_external=10, p=1, n_unsampled=10, seed=3)
    a = data.a.copy()
    a[:10] = 0.0
    a[[1, 4]] = 1.0
    return dataclasses.replace(data, a=a)


def diagnose_statistic(data, method, arm=1):
    """``diagnose``'s replicate statistic for ``arm``, as the command line builds it."""
    trial = spec("trial_only", "randomized", arm)
    external = spec("ipw_hajek" if method == "ipw" else "gformula", "nonrandomized", arm)
    start = tp.fit_participation(data) if method == "ipw" else None
    return experiment.CountRefit(data, [(1, trial), (-1, external)], start)


BOOTSTRAP_DESIGNS = {
    "census": tp.CensusNested(),
    "step_rule": tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8)),
    "non_nested": tp.NonNested(),
}


class TestBootstrapProcesses:
    """Resample i draws from its own keyed stream, so no replicate depends on the process count."""

    @pytest.mark.parametrize("method", ["ipw", "gformula"])
    @pytest.mark.parametrize("design", sorted(BOOTSTRAP_DESIGNS))
    def test_replicates_are_bit_identical_at_any_worker_count(self, design, method):
        data = bootstrap_dataset(BOOTSTRAP_DESIGNS[design])
        stat = diagnose_statistic(data, method)
        ref = experiment.bootstrap_replicates(data, stat, 7, seed=2)
        assert 0 < np.isnan(ref).sum() < ref.size  # NaN positions are part of the check
        for workers in (2, 3, 4):
            reps = experiment.bootstrap_replicates(data, stat, 7, seed=2, workers=workers)
            assert reps.tobytes() == ref.tobytes(), workers

    def test_resample_i_draws_from_its_keyed_stream(self):
        data = bootstrap_dataset(tp.CensusNested())
        draws = []
        experiment.bootstrap_replicates(data, lambda c: draws.append(c) or 0.0, 5, seed=9)
        assert len(draws) == 5
        for i, counts in enumerate(draws):
            assert counts.sum() == data.n_rows
            np.testing.assert_array_equal(counts, resamples.resample_counts(data, 9, i))

    def test_processes_are_capped_at_the_resample_count(self, pool_sizes):
        data = bootstrap_dataset(tp.CensusNested())
        reps = experiment.bootstrap_replicates(data, diagnose_statistic(data, "ipw"), 2, 1, 4)
        assert pool_sizes == [2]
        assert reps.shape == (2,)

    def test_zero_workers_is_rejected_and_zero_resamples_give_an_empty_vector(self):
        data = bootstrap_dataset(tp.CensusNested())
        stat = diagnose_statistic(data, "ipw")
        with pytest.raises(ValueError, match="workers"):
            experiment.bootstrap_replicates(data, stat, 7, 1, 0)
        assert experiment.bootstrap_replicates(data, stat, 0, 1, 2).shape == (0,)

    def test_spawned_workers_give_the_same_replicates(self, monkeypatch):
        # spawn and forkserver pickle the dataset and statistic once per process
        data = bootstrap_dataset(tp.CensusNested())
        stats = [diagnose_statistic(data, method) for method in ("ipw", "gformula")]
        refs = [experiment.bootstrap_replicates(data, stat, 4, seed=2) for stat in stats]
        spawn = functools.partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
        )
        monkeypatch.setattr(dgp_module, "ProcessPoolExecutor", spawn)
        for stat, ref in zip(stats, refs):
            reps = experiment.bootstrap_replicates(data, stat, 4, seed=2, workers=2)
            assert reps.tobytes() == ref.tobytes()


COUNT_PATH_DESIGNS = {
    "census": tp.CensusNested(),
    "c=0.3": tp.SubsampledNested(c=0.3),
    "step_rule": tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8)),
    "non_nested": tp.NonNested(),
}
EVERY_SPEC = tuple(
    tp.EstimatorSpec(method, population, arm)
    for method, populations in tp.EstimatorSpec._VALID.items()
    for population in sorted(populations, key=lambda pop: pop.value)
    for arm in (0, 1)
)


def _report_or_error(fn):
    try:
        return fn()
    except tp.TrialportError as exc:
        return type(exc)


class TestCountPath:
    """Refitting and evaluating from row counts gives what the resampled rows themselves give."""

    @settings(max_examples=40, deadline=None)
    @given(
        design=st.sampled_from(sorted(COUNT_PATH_DESIGNS)),
        p=st.integers(0, 2),
        n_trial=st.integers(6, 40),
        n_external=st.integers(4, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_cell_agrees_with_the_materialized_resample(
        self, design, p, n_trial, n_external, seed
    ):
        if design == "step_rule" and p == 0:
            p = 1  # the step rule needs an auxiliary covariate
        data = make_tiny_dataset(
            COUNT_PATH_DESIGNS[design], n_trial, n_external, p, n_unsampled=n_external, seed=seed
        )
        for i in range(3):
            counts = resamples.resample_counts(data, seed, i)
            for s in EVERY_SPEC:
                by_counts = _report_or_error(
                    lambda: experiment.CountRefit(data, [(1, s)]).reports(counts)[0]
                )
                by_rows = _report_or_error(
                    lambda: s.fit_and_evaluate(resamples.materialized(data, counts))
                )
                if isinstance(by_rows, type):
                    assert isinstance(by_counts, type), (s, by_rows, by_counts)
                    continue
                assert not isinstance(by_counts, type), (s, by_counts)
                assert by_counts.warnings == by_rows.warnings
                for field in ("value", "effective_sample_size", "max_normalized_weight"):
                    got, want = getattr(by_counts, field), getattr(by_rows, field)
                    assert abs(got - want) <= 1e-10 * abs(want), (s, field, got, want)

    def test_an_arm_of_two_distinct_rows_is_rank_deficient_on_both_paths(self):
        # resample 2 draws two of arm 1's rows twice each: four rows, two distinct, for
        # three coefficients. The row fit's |R_33| is 1.8e-15, which passed a tolerance
        # of n*eps*||x_3|| = 1.5e-15; n*q*eps*||x_3|| refuses it, as the count path does
        seed = 9320446
        data = make_tiny_dataset(COUNT_PATH_DESIGNS["c=0.3"], 9, 4, 2, n_unsampled=4, seed=seed)
        counts = resamples.resample_counts(data, seed, 2)
        assert sorted(counts.take(data.arm(1).positions)) == [0, 0, 2, 2]
        rows = resamples.materialized(data, counts)
        for fit in (lambda: tp.fit_outcome(data, counts), lambda: tp.fit_outcome(rows)):
            with pytest.raises(tp.RankDeficient):
                fit()
        for s in (s for s in EVERY_SPEC if s.needs_outcome):
            with pytest.raises(tp.RankDeficient):
                experiment.CountRefit(data, [(1, s)])(counts)
            with pytest.raises(tp.RankDeficient):
                s.fit_and_evaluate(rows)

    def test_ten_equal_weights_tie_with_the_extreme_weight_threshold(self):
        # ten external rows of weight 1/c: rows and counts round 1/10 to either side
        data = make_tiny_dataset(COUNT_PATH_DESIGNS["c=0.3"], 7, 10, 0, n_unsampled=10, seed=1)
        counts = resamples.resample_counts(data, 1, 0)
        for arm in (0, 1):
            s = tp.EstimatorSpec(Method.GFORMULA, StudyPopulation.NONRANDOMIZED, arm)
            by_counts = experiment.CountRefit(data, [(1, s)]).reports(counts)[0]
            by_rows = s.fit_and_evaluate(resamples.materialized(data, counts))
            for report in (by_counts, by_rows):
                assert report.max_normalized_weight == pytest.approx(0.1, rel=1e-15)
                assert report.warnings == ()

    def test_an_arm_with_no_counted_row_raises_insufficient_data(self):
        data = bootstrap_dataset(tp.CensusNested())
        start = tp.fit_participation(data)
        for arm in (0, 1):
            counts = np.ones(data.n_rows, dtype=np.intp)
            counts[data.arm(arm).positions] = 0
            counts[data.arm(1 - arm).positions[0]] += data.arm(arm).positions.size
            # every cell, the other arm's too: the resampled rows make no dataset
            for s in EVERY_SPEC:
                with pytest.raises(tp.InsufficientData):
                    experiment.CountRefit(data, [(1, s)], start)(counts)
            with pytest.raises(tp.DataError):
                resamples.materialized(data, counts)
        reps = experiment.bootstrap_replicates(data, diagnose_statistic(data, "ipw"), 40, seed=2)
        empty = [
            not all(resamples.resample_counts(data, 2, i).take(rows).any()
                    for rows in (data.arm(0).positions, data.arm(1).positions))
            for i in range(40)
        ]
        assert any(empty)
        np.testing.assert_array_equal(np.isnan(reps), empty)

    @pytest.mark.parametrize(
        "cell", [("ipw_ht", "target"), ("ipw_hajek", "target"), ("ipw_hajek", "nonrandomized")]
    )
    def test_weight_truncation_does_not_take_counts(self, cell):
        data, cell = bootstrap_dataset(tp.CensusNested()), spec(*cell)
        pmodel = tp.fit_participation(data)
        report = cell.evaluate(data, pmodel, None, truncate_q=0.9)
        assert any("truncated" in w for w in report.warnings)
        counts = np.ones(data.n_rows, dtype=np.intp)
        with pytest.raises(ValueError, match="counts"):
            cell.evaluate(data, pmodel, None, truncate_q=0.9, counts=counts)


class TestDesignComparison:
    def test_single_cell_single_estimator_gives_one_row(self, dgp1):
        cfg = small_config(
            dgp1, tp.SubsampledNested(c=0.5), estimators=(spec("gformula", "target"),)
        )
        rows = tp.design_comparison([cfg])
        assert len(rows) == 1
        assert rows[0].c == 0.5

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            tp.design_comparison([])

    def test_computes_each_distinct_oracle_once(self, dgp1, over_budget_dgp, monkeypatch):
        exact, sampled = [], []
        exact_truth, oracle_truth = experiment.exact_truth, experiment.oracle_truth

        def counting_exact(dgp):
            exact.append(dgp)
            return exact_truth(dgp)

        def counting_oracle(*args, workers):
            sampled.append((args, workers))
            return oracle_truth(*args, workers=workers)

        monkeypatch.setattr(experiment, "exact_truth", counting_exact)
        monkeypatch.setattr(experiment, "oracle_truth", counting_oracle)
        est = (spec("gformula", "target"), spec("trial_only", "randomized"))
        shared = [
            small_config(dgp1, design, replications=4, estimators=est)
            for design in (tp.CensusNested(), tp.SubsampledNested(c=0.5), tp.NonNested(u_hidden=0.3))
        ]
        grid = shared + [
            dataclasses.replace(shared[0], oracle_m=300_000),
            dataclasses.replace(shared[1], oracle_seed=5),
        ]
        # DGP-1's truths are exact and keyed by the DGP alone, whatever the oracle settings
        rows = tp.design_comparison(grid, workers=2)
        assert exact == [dgp1] and sampled == []
        separately = [row for cfg in grid for row in tp.run_experiment(cfg).rows]
        assert experiment.summary_rows_to_csv(rows) == experiment.summary_rows_to_csv(separately)

        # over the budget: one Monte Carlo oracle per distinct (DGP, oracle m, oracle seed)
        over = [dataclasses.replace(cfg, dgp=over_budget_dgp) for cfg in grid]
        exact.clear()
        tp.design_comparison(over[:3])
        assert exact == [over_budget_dgp]
        assert [workers for _, workers in sampled] == [1]

        exact.clear()
        sampled.clear()
        rows = tp.design_comparison(over, workers=2)
        assert exact == [over_budget_dgp]
        assert [workers for _, workers in sampled] == [2, 2, 2]
        assert {args for args, _ in sampled} == set(map(experiment._oracle_key, over))
        separately = [row for cfg in over for row in tp.run_experiment(cfg).rows]
        assert experiment.summary_rows_to_csv(rows) == experiment.summary_rows_to_csv(separately)

    def test_a_dgp_over_the_budget_gets_the_monte_carlo_truths(self, over_budget_dgp):
        cfg = small_config(over_budget_dgp, tp.CensusNested(), oracle_seed=77)
        assert dgp_module.exact_truth(over_budget_dgp) is None
        assert experiment._cell_truths([cfg], 1) == [tp.oracle_truth(over_budget_dgp, 200_000, 77)]

    @pytest.mark.parametrize(
        "chunk, dgp, pools",
        [(None, "dgp1", [2]), (60_000, "over_budget_dgp", [2, 2])],
        ids=["one_chunk", "four_chunks"],
    )
    def test_one_pool_runs_the_replications_of_every_cell(
        self, request, monkeypatch, pool_sizes, chunk, dgp, pools
    ):
        if chunk is not None:
            monkeypatch.setattr(dgp_module, "_ORACLE_CHUNK", chunk)
        est = (spec("gformula", "target"), spec("trial_only", "randomized"))
        grid = [
            small_config(request.getfixturevalue(dgp), design, replications=4, estimators=est)
            for design in (tp.CensusNested(), tp.SubsampledNested(c=0.5), tp.NonNested(u_hidden=0.3))
        ]
        alone = [row for cfg in grid for row in tp.run_experiment(cfg, workers=1).rows]
        assert pool_sizes == []
        rows = tp.design_comparison(grid, workers=2)
        # a pool for a multi-chunk Monte Carlo oracle, then one for the 4 population tasks
        assert pool_sizes == pools
        assert summary_rows_to_csv(rows) == summary_rows_to_csv(alone)

    def test_a_mixed_grid_gives_each_cell_its_own_run(self, dgp1):
        # three populations: (n, master seed) = (1500, 901), (1000, 901) and (1500, 902),
        # interleaved in the grid, with unequal R and one misspecified cell
        est = (spec("gformula", "target"), spec("ipw_hajek", "target"),
               spec("ipw_hajek", "nonrandomized"), spec("trial_only", "randomized"))
        cell = functools.partial(small_config, dgp1, n=1_500, estimators=est)
        grid = [
            cell(tp.CensusNested(), replications=5),
            cell(tp.NonNested(u_hidden=0.3), n=1_000, replications=3),
            cell(tp.SubsampledNested(c=0.5), replications=3),
            cell(tp.CensusNested(), master_seed=902, replications=4),
            cell(tp.SubsampledNested(c=0.5), replications=4,
                 misspecify=tp.MisspecifySpec(participation=True)),
            cell(tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8)),
                 n=1_000, replications=2),
        ]
        alone = summary_rows_to_csv(row for cfg in grid for row in tp.run_experiment(cfg).rows)
        for workers in (1, 2, 4):
            assert summary_rows_to_csv(tp.design_comparison(grid, workers=workers)) == alone

    def test_cells_of_a_population_share_one_outcome_fit_per_basis(self, dgp1, monkeypatch):
        # four designs and one misspecified outcome basis on one (DGP, n, master seed)
        cell = functools.partial(small_config, dgp1, replications=3)
        grid = [cell(d) for d in SWEEP_DESIGNS] + [
            cell(tp.CensusNested(), misspecify=tp.MisspecifySpec(outcome=True))
        ]
        alone = summary_rows_to_csv(row for cfg in grid for row in tp.run_experiment(cfg).rows)
        calls = []
        fit_outcome = experiment.fit_outcome

        def counting(data, *args):
            calls.append(data.p)
            return fit_outcome(data, *args)

        monkeypatch.setattr(experiment, "fit_outcome", counting)
        assert summary_rows_to_csv(tp.design_comparison(grid, workers=1)) == alone
        # one fit per task and basis: the full basis, then the one without the last covariate
        assert sorted(calls) == [0, 0, 0, 1, 1, 1]
        for workers in (2, 4):
            assert summary_rows_to_csv(tp.design_comparison(grid, workers=workers)) == alone

    def test_a_failed_shared_outcome_fit_fails_the_gformula_cells_of_every_cell(
        self, dgp1, monkeypatch
    ):
        est = (spec("gformula", "target"), spec("gformula", "nonrandomized"),
               spec("ipw_hajek", "target"), spec("trial_only", "randomized"))
        grid = tuple(small_config(dgp1, d, replications=1, estimators=est) for d in SWEEP_DESIGNS)
        fitted = experiment._run_population(grid, 0)
        calls = []

        def refuse(data, *args):
            calls.append(data)
            raise tp.RankDeficient("refused")

        monkeypatch.setattr(experiment, "fit_outcome", refuse)
        failed = (experiment.FAILED, math.nan, math.nan)
        expected = [
            [failed if s.needs_outcome else result for s, result in zip(est, results)]
            for results in fitted
        ]
        assert repr(experiment._run_population(grid, 0)) == repr(expected)
        assert len(calls) == 1
        # the non-nested cell's target mean was refused before, its g-formula cells fail now
        assert fitted[3][0][0] == fitted[3][2][0] == experiment.NOT_IDENTIFIABLE
        assert [status for status, _, _ in fitted[0]] == [experiment.OK] * len(est)

    def test_a_run_computes_no_weight_diagnostics(self, dgp1, monkeypatch):
        calls = []
        for module in (tp.domain, tp.estimators):
            monkeypatch.setattr(module, "_weight_diagnostics", lambda *a: calls.append(a))
        est = ALL_SPECS[:5]
        for design in SWEEP_DESIGNS:
            tp.run_experiment(small_config(dgp1, design, replications=2))
            tp.run_experiment(
                small_config(dgp1, design, replications=1, estimators=est, bootstrap_b=100)
            )
        assert calls == []

    def test_simulates_one_population_per_key_and_replication(self, dgp1, monkeypatch):
        seeds = []
        simulate = experiment.simulate_actual_population

        def counting(dgp, n, seed):
            seeds.append(seed)
            return simulate(dgp, n, seed=seed)

        monkeypatch.setattr(experiment, "simulate_actual_population", counting)
        est = (spec("gformula", "target"), spec("trial_only", "randomized"))
        designs = (tp.CensusNested(), tp.SubsampledNested(c=0.5), tp.NonNested(u_hidden=0.3),
                   tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8)))
        grid = [small_config(dgp1, d, replications=3, estimators=est) for d in designs]
        tp.design_comparison(grid)
        # the two threads may simulate in either order
        assert sorted(seeds) == sorted(tp.mix_seed(901, experiment._SIM_TAG, r) for r in range(3))

    def test_a_failed_simulation_fails_every_cell_and_a_failed_thinning_one(
        self, dgp1, monkeypatch
    ):
        est = (spec("gformula", "target"), spec("trial_only", "randomized"))
        grid = tuple(
            small_config(dgp1, d, replications=2, estimators=est)
            for d in (tp.CensusNested(), tp.SubsampledNested(c=0.5), tp.NonNested(u_hidden=0.3))
        )
        alone = [experiment._run_replication(cfg, 1) for cfg in grid]
        assert experiment._run_population(grid, 1) == alone
        failed = [(experiment.FAILED, math.nan, math.nan)] * len(est)

        apply_design = experiment.apply_design

        def refuse_half(pop, design, seed):
            if isinstance(design, tp.SubsampledNested):
                raise tp.DataError("refused")
            return apply_design(pop, design, seed)

        monkeypatch.setattr(experiment, "apply_design", refuse_half)
        assert repr(experiment._run_population(grid, 1)) == repr([alone[0], failed, alone[2]])

        simulate = experiment.simulate_actual_population

        def refuse_replication_1(dgp, n, seed):
            if seed == tp.mix_seed(901, experiment._SIM_TAG, 1):
                raise tp.DataError("refused")
            return simulate(dgp, n, seed=seed)

        monkeypatch.setattr(experiment, "simulate_actual_population", refuse_replication_1)
        assert repr(experiment._run_population(grid, 1)) == repr([failed] * len(grid))
        rows = tp.design_comparison(grid)
        # replication 0 fails only the refused thinning; replication 1 fails everywhere
        assert [row.n_failed for row in rows] == [1, 1, 2, 2, 1, 1]

    def test_sd_does_not_degrade_with_fuller_sampling(self, dgp1):
        est = (spec("gformula", "target"),)
        rows = {}
        for c in (0.1, 1.0):
            cfg = small_config(
                dgp1, tp.SubsampledNested(c=c), n=2_000, replications=400,
                estimators=est, oracle_m=200_000,
            )
            rows[c] = tp.run_experiment(cfg).rows[0]
        noise = rows[1.0].sd / math.sqrt(2 * 400)
        assert rows[1.0].sd <= rows[0.1].sd + 2 * noise


class TestTwoThreads:
    """In one process, this thread and one helper thread take whole replication tasks."""

    EST = (spec("gformula", "target"), spec("ipw_hajek", "target"),
           spec("trial_only", "randomized"))

    @pytest.fixture
    def populations(self, monkeypatch):
        """Records (r, thread ident) per task's simulation; ``hooks`` run first, on its thread."""
        calls, hooks = [], []
        population = experiment._population

        def recording(cfgs, r):
            calls.append((r, threading.get_ident()))
            for hook in hooks:
                hook(r)
            return population(cfgs, r)

        monkeypatch.setattr(experiment, "_population", recording)
        return SimpleNamespace(calls=calls, hooks=hooks)

    def grid(self, dgp1):
        return [small_config(dgp1, d, replications=6, estimators=self.EST)
                for d in (tp.SubsampledNested(c=0.5), tp.NonNested(u_hidden=0.3))]

    def test_summaries_equal_a_serial_map_at_any_worker_count(
        self, dgp1, monkeypatch, pool_sizes
    ):
        grid = self.grid(dgp1)
        with monkeypatch.context() as serial_map:
            serial_map.setattr(experiment, "_run_on_two_threads",
                               lambda tasks: [experiment._run_population(*t) for t in tasks])
            serial = summary_rows_to_csv(tp.design_comparison(grid, workers=1))
        for workers in (1, 2, 4):
            assert summary_rows_to_csv(tp.design_comparison(grid, workers=workers)) == serial
        # two pools, each mapped in this process; workers 1 ran on two threads
        assert pool_sizes == [2, 4]

    def test_both_threads_take_tasks_and_each_task_runs_once(self, dgp1, populations):
        tasks = [(tuple(self.grid(dgp1)), r) for r in range(8)]
        expected = [experiment._run_population(*task) for task in tasks]
        del populations.calls[:]
        assert repr(experiment._run_on_two_threads(tasks)) == repr(expected)
        assert sorted(r for r, _ in populations.calls) == list(range(8))
        threads = {ident for _, ident in populations.calls}
        assert len(threads) == 2 and threading.main_thread().ident in threads

    def test_every_task_runs_once_under_a_short_switch_interval(self, monkeypatch):
        # a task taken twice, or lost, between the two threads breaks either list
        ran = []
        monkeypatch.setattr(experiment, "_run_population", lambda cfgs, r: ran.append(r) or -r)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = experiment._run_on_two_threads([((), r) for r in range(5_000)])
        finally:
            sys.setswitchinterval(interval)
        assert out == [-r for r in range(5_000)]
        assert sorted(ran) == list(range(5_000))

    def test_a_failed_simulation_fails_only_its_replication(self, dgp1, populations):
        grid = tuple(small_config(dgp1, d, replications=4, estimators=self.EST)
                     for d in (tp.CensusNested(), tp.SubsampledNested(c=0.5)))
        tasks = [(grid, r) for r in range(4)]
        expected = [experiment._run_population(grid, r) for r in range(4)]
        expected[2] = [[(experiment.FAILED, math.nan, math.nan)] * len(self.EST)] * len(grid)

        def refuse(r):
            if r == 2:
                raise tp.DataError("refused")

        populations.hooks.append(refuse)
        assert repr(experiment._run_on_two_threads(tasks)) == repr(expected)
        rows = tp.design_comparison(grid)
        assert [row.n_failed for row in rows] == [1] * len(rows)

    @pytest.mark.parametrize("where", ["main", "helper"])
    def test_an_unexpected_error_propagates_and_no_task_starts_after_it(
        self, dgp1, populations, where
    ):
        # the first task from 2 on that the chosen thread takes raises; the other
        # thread's task from 2 on waits for it, then lets it be recorded before going
        # on, so that every task after these two starts once the error is known
        other_started, raised = threading.Event(), threading.Event()

        def gate(r):
            if r < 2:
                return
            on_main = threading.current_thread() is threading.main_thread()
            if on_main == (where == "main") and not raised.is_set():
                assert other_started.wait(timeout=30)
                raised.set()
                raise AssertionError("refused")
            other_started.set()
            assert raised.wait(timeout=30)
            time.sleep(0.05)

        populations.hooks.append(gate)
        before = set(threading.enumerate())
        cfg = small_config(dgp1, tp.SubsampledNested(c=0.5), replications=8, estimators=self.EST)
        with pytest.raises(AssertionError, match="refused"):
            tp.run_experiment(cfg, workers=1)
        assert set(threading.enumerate()) == before
        assert sorted(r for r, _ in populations.calls) == [0, 1, 2, 3]

    def test_this_thread_yields_once_the_helper_has_ended(self, dgp1, monkeypatch):
        # so that the helper's OS thread exits, and frees its malloc arena for the
        # next call's helper, even where both threads share one CPU
        threads, yields = threading.active_count(), []
        monkeypatch.setattr(experiment.os, "sched_yield",
                            lambda: yields.append(threading.active_count()), raising=False)
        cfg = small_config(dgp1, tp.CensusNested(), replications=3, estimators=self.EST)
        tp.run_experiment(cfg, workers=1)
        assert yields == [threads]

    def test_malloc_thresholds_are_pinned_before_the_helper_starts(
        self, dgp1, populations, monkeypatch
    ):
        threads = threading.active_count()
        pins = []
        monkeypatch.setattr(experiment, "_pin_malloc_thresholds",
                            lambda: pins.append((len(populations.calls), threading.active_count())))
        cfg = small_config(dgp1, tp.CensusNested(), replications=3, estimators=self.EST)
        tp.run_experiment(cfg, workers=1)
        # once before any simulation, with no helper yet, then once per task
        assert pins[0] == (0, threads)
        assert len(pins) == 1 + 3


class TestMallocThresholds:
    @pytest.fixture(autouse=True)
    def uncached_lookup(self):
        # the lookup is cached for the process: each test starts and leaves without one
        experiment._libc_mallopt.cache_clear()
        yield
        experiment._libc_mallopt.cache_clear()

    def test_mallopt_is_declared_with_its_c_signature(self):
        mallopt = experiment._libc_mallopt()
        if mallopt is None:
            pytest.skip("this C library has no mallopt")
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert mallopt.restype is ctypes.c_int

    def test_pins_the_mmap_then_the_trim_threshold(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))

        monkeypatch.setattr(experiment.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        experiment._pin_malloc_thresholds()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_the_c_library_is_looked_up_once_per_process(self, monkeypatch):
        built = []

        def cdll(name):
            built.append(name)
            return SimpleNamespace(mallopt=lambda param, value: 1)

        monkeypatch.setattr(experiment.ctypes, "CDLL", cdll)
        for _ in range(3):
            experiment._pin_malloc_thresholds()
        assert built == [None]

    def test_a_c_library_without_mallopt_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(experiment.ctypes, "CDLL", lambda name: object())
        assert experiment._libc_mallopt() is None
        experiment._pin_malloc_thresholds()

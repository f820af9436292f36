import collections
import concurrent.futures
import dataclasses
import functools
import gc
import math
import multiprocessing
import sys
import weakref

import numpy as np
import pytest

import trialport as tp
from trialport import dgp as dgp_module
from trialport import experiment
from trialport.estimators import Method, StudyPopulation
from trialport.experiment import splitmix64, summary_rows_to_csv

from conftest import make_tiny_dataset
from support import oracles


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
            assert s.fit_and_evaluate(data) == expected


ALL_SPECS = tp.default_estimators() + tuple(
    tp.EstimatorSpec(Method.IPW_HT, StudyPopulation.TARGET, arm) for arm in (0, 1)
)

DESIGNS = pytest.mark.parametrize(
    "design",
    [
        tp.CensusNested(),
        tp.SubsampledNested(c=0.3),
        tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8)),
        tp.NonNested(u_hidden=0.2),
    ],
    ids=["census", "c=0.3", "step_rule", "non_nested"],
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
    if method == "ipw":
        count_difference = experiment.IpwDifferenceFromCounts(
            data, tp.fit_participation(data).coefficients
        )
        return functools.partial(count_difference, arm=arm)
    return experiment.ResampledDifference(data, trial, spec("gformula", "nonrandomized", arm))


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
        experiment.bootstrap_replicates(data, lambda rows: draws.append(rows) or 0.0, 5, seed=9)
        assert len(draws) == 5
        for i, rows in enumerate(draws):
            expected = experiment._resample_rows(data, dgp_module._stream(9, 3, i))
            np.testing.assert_array_equal(rows, expected)

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

    def test_computes_each_distinct_oracle_once(self, dgp1, monkeypatch):
        calls = []
        original = experiment.oracle_truth

        def counting(*args, workers):
            calls.append((args, workers))
            return original(*args, workers=workers)

        monkeypatch.setattr(experiment, "oracle_truth", counting)
        est = (spec("gformula", "target"), spec("trial_only", "randomized"))
        shared = [
            small_config(dgp1, design, replications=4, estimators=est)
            for design in (tp.CensusNested(), tp.SubsampledNested(c=0.5), tp.NonNested(u_hidden=0.3))
        ]
        tp.design_comparison(shared)
        assert [workers for _, workers in calls] == [1]

        grid = shared + [
            dataclasses.replace(shared[0], oracle_m=300_000),
            dataclasses.replace(shared[1], oracle_seed=5),
        ]
        calls.clear()
        rows = tp.design_comparison(grid, workers=2)
        assert [workers for _, workers in calls] == [2, 2, 2]
        separately = [row for cfg in grid for row in tp.run_experiment(cfg).rows]
        assert experiment.summary_rows_to_csv(rows) == experiment.summary_rows_to_csv(separately)

    @pytest.mark.parametrize(
        "chunk, pools", [(None, [2]), (60_000, [2, 2])], ids=["one_chunk", "four_chunks"]
    )
    def test_one_pool_runs_the_replications_of_every_cell(
        self, dgp1, monkeypatch, pool_sizes, chunk, pools
    ):
        if chunk is not None:
            monkeypatch.setattr(dgp_module, "_ORACLE_CHUNK", chunk)
        est = (spec("gformula", "target"), spec("trial_only", "randomized"))
        grid = [
            small_config(dgp1, design, replications=4, estimators=est)
            for design in (tp.CensusNested(), tp.SubsampledNested(c=0.5), tp.NonNested(u_hidden=0.3))
        ]
        alone = [row for cfg in grid for row in tp.run_experiment(cfg, workers=1).rows]
        assert pool_sizes == []
        rows = tp.design_comparison(grid, workers=2)
        # a pool for a multi-chunk oracle, then one for all 12 replications
        assert pool_sizes == pools
        assert summary_rows_to_csv(rows) == summary_rows_to_csv(alone)

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

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import trialport as tp
from trialport import dgp as dgp_module

from support import oracles


class TestSimulate:
    def test_participation_fraction_matches_quadrature_oracle(self, dgp1):
        n = 1_000_000
        pop = tp.simulate_actual_population(dgp1, n)
        se = math.sqrt(oracles.P_S1 * (1 - oracles.P_S1) / n)
        assert abs(pop.s.mean() - oracles.P_S1) <= 4 * se

    def test_zero_noise_constant_mean_is_exact(self):
        dgp = tp.DgpSpec(
            covariates=(tp.Normal(0.0, 1.0),),
            participation_logit=(-1.0, 0.5),
            treatment_prob=0.5,
            outcome_mean_a0=(5.0, 0.0),
            outcome_mean_a1=(7.0, 0.0),
            noise_sd=0.0,
            seed=3,
        )
        pop = tp.simulate_actual_population(dgp, 2_000)
        for arm, mean in ((0, 5.0), (1, 7.0)):
            rows = (pop.s == 1) & (pop.a == arm)
            assert rows.sum() > 100
            assert np.all(pop.y[rows] == mean)

    def test_fixed_seed_reproduces_exactly(self, dgp1):
        a = tp.simulate_actual_population(dgp1, 5_000)
        b = tp.simulate_actual_population(dgp1, 5_000)
        for field in ("x", "s", "a"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(a.y, b.y, equal_nan=True)
        c = tp.simulate_actual_population(dgp1, 5_000, seed=dgp1.seed + 1)
        assert not np.array_equal(a.x, c.x)

    def test_consistency_and_masking(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 20_000)
        trial = pop.s == 1
        assert np.all((pop.a[trial] == 0) | (pop.a[trial] == 1))
        assert np.all(pop.a[~trial] == -1)
        assert np.all(np.isfinite(pop.y[trial]))
        assert np.all(np.isnan(pop.y[~trial]))
        assert len(pop) == 20_000

    def test_stream_layout(self, dgp1):
        # (seed, 0, 0, j) covariate j and (seed, 0, 1, 0) participation over every
        # record; (seed, 0, 1, 1) treatment and (seed, 0, 1, 2) outcome noise over
        # the trial participants only, in record order
        n, seed = 20_000, 123
        pop = tp.simulate_actual_population(dgp1, n, seed=seed)
        x = dgp1.covariates[0].sample(dgp_module._stream(seed, 0, 0, 0), n)[:, None]
        s = dgp_module._stream(seed, 0, 1, 0).random(n) < dgp1.participation_prob(x)
        assert np.array_equal(pop.x, x)
        assert np.array_equal(pop.s, s.astype(np.int8))
        trial = np.flatnonzero(s)
        n1 = trial.size
        treated = dgp_module._stream(seed, 0, 1, 1).random(n1) < dgp1.treatment_prob
        z = dgp_module._stream(seed, 0, 1, 2).standard_normal(n1)
        mean = np.where(treated, dgp1.outcome_mean(1, x[trial]), dgp1.outcome_mean(0, x[trial]))
        assert np.array_equal(pop.a[trial], treated.astype(np.int8))
        assert np.array_equal(pop.y[trial], mean + dgp1.noise_sd * z)

    def test_participation_prob_is_the_logistic_bit_for_bit(self, over_budget_dgp):
        # eta from about -1000 to 1000: exp(-eta) overflows to inf at the low end
        rest = np.random.default_rng(3).random((5_001, 3))
        x = np.column_stack([np.linspace(-2_000.0, 2_000.0, 5_001), rest])
        g = np.asarray(over_budget_dgp.participation_logit)
        with np.errstate(over="ignore"):
            expected = 1.0 / (1.0 + np.exp(-(g[0] + np.einsum("ij,j->i", x, g[1:]))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = over_budget_dgp.participation_prob(x)
        assert got[0] == 0.0 and got[-1] == 1.0
        np.testing.assert_array_equal(got, expected)

    def test_rejects_empty_population(self, dgp1):
        with pytest.raises(tp.DataError):
            tp.simulate_actual_population(dgp1, 0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: tp.Normal(mean=True, sd=1.0),
            lambda: tp.Normal(mean=0.0, sd=True),
            lambda: tp.Bernoulli(p=True),
            lambda: tp.Uniform(lo=False, hi=1.0),
            lambda: tp.Uniform(lo=0.0, hi=True),
        ],
        ids=["normal_mean", "normal_sd", "bernoulli_p", "uniform_lo", "uniform_hi"],
    )
    def test_covariate_laws_refuse_booleans(self, make):
        with pytest.raises(tp.DataError, match="must be a number, got"):
            make()

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("noise_sd", True, "a number"),
            ("treatment_prob", True, "a number"),
            ("seed", True, "an integer"),
            ("aux_split", True, "an integer"),
        ],
    )
    def test_dgp_refuses_booleans(self, field, value, kind):
        # each would pass its range check as 1 and be written to JSON as true
        fields = dict(
            covariates=(tp.Normal(0.0, 1.0),),
            participation_logit=(-1.0, 0.5),
            treatment_prob=0.5,
            outcome_mean_a0=(1.0, 1.0),
            outcome_mean_a1=(2.0, 1.3),
            noise_sd=1.0,
            seed=1,
        )
        tp.DgpSpec(**fields)
        with pytest.raises(tp.DataError, match=f"{field} must be {kind}, got True"):
            tp.DgpSpec(**{**fields, field: value})

    def test_rejects_nonfinite_parameters(self):
        with pytest.raises(tp.DataError):
            tp.DgpSpec(
                covariates=(tp.Normal(0.0, 1.0),),
                participation_logit=(float("inf"), 0.5),
                treatment_prob=0.5,
                outcome_mean_a0=(1.0, 1.0),
                outcome_mean_a1=(2.0, 1.3),
                noise_sd=1.0,
                seed=1,
            )


class TestOracle:
    def test_matches_quadrature_constants(self, dgp1):
        truth = tp.oracle_truth(dgp1, 400_000)
        for arm in (0, 1):
            assert abs(truth.mean_target[arm] - oracles.MEAN_TARGET[arm]) <= 5 * truth.se_mean_target[arm]
            assert (
                abs(truth.mean_nonrandomized[arm] - oracles.MEAN_NONRANDOMIZED[arm])
                <= 5 * truth.se_mean_nonrandomized[arm]
            )
            assert (
                abs(truth.mean_randomized[arm] - oracles.MEAN_RANDOMIZED[arm])
                <= 5 * truth.se_mean_randomized[arm]
            )
        assert abs(truth.pr_s1 - oracles.P_S1) <= 5 * truth.se_pr_s1

    def test_stratum_decomposition_identity(self, dgp1):
        truth = tp.oracle_truth(dgp1, 400_000)
        for arm in (0, 1):
            recombined = truth.mean_randomized[arm] * truth.pr_s1 + truth.mean_nonrandomized[
                arm
            ] * (1 - truth.pr_s1)
            tol = 4 * (truth.se_mean_target[arm] + truth.se_mean_randomized[arm])
            assert abs(truth.mean_target[arm] - recombined) <= tol

    def test_covariate_independent_participation_equalizes_strata(self):
        dgp = tp.DgpSpec(
            covariates=(tp.Normal(0.0, 1.0),),
            participation_logit=(-1.0, 0.0),  # S independent of X
            treatment_prob=0.5,
            outcome_mean_a0=(1.0, 1.0),
            outcome_mean_a1=(2.0, 1.3),
            noise_sd=1.0,
            seed=17,
        )
        truth = tp.oracle_truth(dgp, 400_000)
        for arm in (0, 1):
            tol = 4 * (truth.se_mean_nonrandomized[arm] + truth.se_mean_target[arm])
            assert abs(truth.mean_nonrandomized[arm] - truth.mean_target[arm]) <= tol

    def test_trial_arm_means_match_randomized_oracle(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 200_000)
        truth = tp.oracle_truth(dgp1, 1_000_000)
        for arm in (0, 1):
            rows = (pop.s == 1) & (pop.a == arm)
            mean = pop.y[rows].mean()
            se = pop.y[rows].std() / math.sqrt(rows.sum())
            assert abs(mean - truth.mean_randomized[arm]) <= 4 * (se + truth.se_mean_randomized[arm])

    def test_oracle_streams_disjoint_from_simulation(self, dgp1):
        # same seed must not correlate the oracle with a simulated population
        pop = tp.simulate_actual_population(dgp1, 100_000, seed=777)
        truth = tp.oracle_truth(dgp1, 100_000, oracle_seed=777)
        assert truth.mc_sample_size == 100_000
        # crude independence check: the two participation fractions differ
        assert pop.s.mean() != pytest.approx(truth.pr_s1, abs=1e-12)

    def test_rejects_small_m(self, dgp1):
        with pytest.raises(tp.DataError):
            tp.oracle_truth(dgp1, 10_000)

    def test_streamed_oracle_matches_an_unchunked_reference(self, dgp1):
        # a partial last chunk; the reference draws each chunk's X and S from
        # its own keyed streams, then reduces mu_a(X) over all m units in one piece
        chunk = dgp_module._ORACLE_CHUNK
        m, seed = chunk + 12_345, 4242
        truth = tp.oracle_truth(dgp1, m, oracle_seed=seed)

        pieces = []
        for c, k in enumerate((chunk, m - chunk)):
            def rng(*key):
                return dgp_module._stream(seed, dgp_module._ORACLE, c, *key)

            x = np.column_stack([d.sample(rng(0, j), k) for j, d in enumerate(dgp1.covariates)])
            pieces.append((x, rng(1, 0).random(k)))
        x, u = (np.concatenate(field) for field in zip(*pieces))
        s = u < dgp1.participation_prob(x)
        assert truth.pr_s1 == s.mean()
        for arm in (0, 1):
            y = dgp1.outcome_mean(arm, x)
            for got, got_se, rows in (
                (truth.mean_target, truth.se_mean_target, slice(None)),
                (truth.mean_nonrandomized, truth.se_mean_nonrandomized, ~s),
                (truth.mean_randomized, truth.se_mean_randomized, s),
            ):
                v = y[rows]
                assert got[arm] == pytest.approx(v.mean(), rel=1e-12, abs=0)
                se = v.std(ddof=1) / math.sqrt(v.size)
                assert got_se[arm] == pytest.approx(se, rel=1e-12, abs=0)

    def test_truth_does_not_depend_on_the_noise(self):
        truths = [tp.oracle_truth(oracles.make_dgp1(5, noise_sd=sd), 100_000) for sd in (0.0, 1.0, 3.0)]
        assert truths[1] == truths[0] and truths[2] == truths[0]

    def test_ses_are_those_of_the_outcome_mean_in_each_stratum(self, dgp1):
        # SE * sqrt(stratum count) against the quadrature SD of mu_a(X) = b0 + b1 X
        m = 400_000
        truth = tp.oracle_truth(dgp1, m)
        n_s1 = round(truth.pr_s1 * m)
        for arm, (_, b1) in oracles.MEAN_COEF.items():
            for se, count, sd_x in (
                (truth.se_mean_target, m, 1.0),
                (truth.se_mean_nonrandomized, m - n_s1, oracles.SDX_S0),
                (truth.se_mean_randomized, n_s1, oracles.SDX_S1),
            ):
                assert se[arm] * math.sqrt(count) == pytest.approx(abs(b1) * sd_x, rel=0.05)

    @pytest.mark.parametrize("m", [100_000, 1_234_567])
    @pytest.mark.parametrize("b0", [0.1, 0.3, 1 / 3, -7.7])
    def test_outcome_mean_flat_in_x_passes_the_self_check(self, m, b0):
        # se = 0, so only the rounding of the chunked mean separates it from b0
        dgp = tp.DgpSpec(
            covariates=(tp.Normal(0.0, 1.0),),
            participation_logit=(-1.0, 0.5),
            treatment_prob=0.5,
            outcome_mean_a0=(b0, 0.0),
            outcome_mean_a1=(2.0, 1.3),
            noise_sd=1.0,
            seed=5,
        )
        truth = tp.oracle_truth(dgp, m)
        for means in (truth.mean_target, truth.mean_nonrandomized, truth.mean_randomized):
            assert means[0] == pytest.approx(b0, rel=1e-12, abs=0)

    def test_oracle_is_bit_identical_at_any_worker_count(self, dgp1, monkeypatch):
        # four chunks, the last one partial
        monkeypatch.setattr(dgp_module, "_ORACLE_CHUNK", 30_000)
        pools = []

        class RecordingPool(dgp_module.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(dgp_module, "ProcessPoolExecutor", RecordingPool)
        m = 3 * 30_000 + 12_345
        truths = [tp.oracle_truth(dgp1, m, oracle_seed=99, workers=w) for w in (1, 2, 4, 8)]
        assert all(truth == truths[0] for truth in truths)
        assert truths[0].mc_sample_size == m
        assert pools == [2, 4, 4]  # never more processes than chunks
        with pytest.raises(ValueError):
            tp.oracle_truth(dgp1, m, workers=0)

    def test_oracle_memory_is_flat_in_m(self, dgp1):
        def peak_bytes(m):
            tracemalloc.start()
            try:
                tp.oracle_truth(dgp1, m)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk = dgp_module._ORACLE_CHUNK
        assert peak_bytes(8 * chunk) <= 1.25 * peak_bytes(2 * chunk)


def _truth_fields(truth):
    return (truth.pr_s1, *truth.mean_target, *truth.mean_randomized, *truth.mean_nonrandomized)


class TestExactTruth:
    def test_matches_the_frozen_quadrature_constants(self, dgp1):
        truth = dgp_module.exact_truth(dgp1)
        expected = (
            oracles.P_S1, *oracles.MEAN_TARGET, *oracles.MEAN_RANDOMIZED, *oracles.MEAN_NONRANDOMIZED
        )
        assert np.max(np.abs(np.subtract(_truth_fields(truth), expected))) <= 1e-14
        assert truth.mc_sample_size == 0
        assert truth.se_pr_s1 == 0.0
        assert truth.se_mean_target == truth.se_mean_randomized == truth.se_mean_nonrandomized
        assert truth.se_mean_target == (0.0, 0.0)

    def test_matches_the_monte_carlo_oracle_on_a_steep_mixed_dgp(self):
        dgp = tp.DgpSpec(
            covariates=(tp.Normal(0.5, 1.0), tp.Bernoulli(0.3), tp.Uniform(0.0, 1.0)),
            participation_logit=(-2.0, 5.0, 1.0, -20.0),
            treatment_prob=0.5,
            outcome_mean_a0=(1.0, 1.0, 1.1, 1.2),
            outcome_mean_a1=(2.0, -0.5, -0.2, 0.1),
            noise_sd=1.0,
            seed=11,
        )
        exact = dgp_module.exact_truth(dgp)
        mc = tp.oracle_truth(dgp, 4_000_000, oracle_seed=11)
        assert abs(exact.pr_s1 - mc.pr_s1) <= 4 * mc.se_pr_s1
        for name in ("mean_target", "mean_randomized", "mean_nonrandomized"):
            for arm in (0, 1):
                gap = abs(getattr(exact, name)[arm] - getattr(mc, name)[arm])
                assert gap <= 4 * getattr(mc, "se_" + name)[arm], (name, arm)

    def test_over_the_budget_there_is_none(self, dgp1, over_budget_dgp, monkeypatch):
        assert dgp_module.exact_truth(over_budget_dgp) is None
        # decided before any rule is built: this one would need 2e13 nodes
        steep = dataclasses.replace(
            dgp1, covariates=(tp.Uniform(0.0, 1.0),), participation_logit=(-1.0, 1e12)
        )
        assert dgp_module.exact_truth(steep) is None
        monkeypatch.setattr(dgp_module, "_QUADRATURE_BUDGET", 100)
        assert dgp_module.exact_truth(dgp1) is None

    def test_rules_that_disagree_give_none(self, dgp1, monkeypatch):
        # one node a panel cannot reproduce the 20-node rule's truths within 1e-12
        monkeypatch.setattr(dgp_module, "_PANEL_NODES", (20, 1))
        assert dgp_module.exact_truth(dgp1) is None

    def test_a_far_tilted_model_keeps_its_mass_in_the_window(self):
        # Pr[S = 1] is 9.2e-35 and the S = 1 mass sits near z = 12.5, past 12
        # SDs of the index; the reference is a fine Riemann sum over [-20, 30]
        dgp = dataclasses.replace(oracles.make_dgp1(3), participation_logit=(-150.0, 12.0))
        truth = dgp_module.exact_truth(dgp)
        z, h = np.linspace(-20.0, 30.0, 500_001, retstep=True)
        density = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        s1 = density * np.exp(-np.logaddexp(0.0, 150.0 - 12.0 * z))
        s0 = density * np.exp(-np.logaddexp(0.0, 12.0 * z - 150.0))
        assert truth.pr_s1 == pytest.approx(h * s1.sum(), rel=1e-12, abs=0)
        for means, weights in ((truth.mean_randomized, s1), (truth.mean_nonrandomized, s0)):
            ex = np.dot(z, weights) / weights.sum()
            assert means[0] == pytest.approx(1.0 + ex, rel=0, abs=1e-12)
            assert means[1] == pytest.approx(2.0 + 1.3 * ex, rel=0, abs=1e-12)

    def test_point_laws_are_constants(self):
        # every point-law coordinate moves eta and the outcome means, but the
        # intercepts cancel them, which leaves DGP-1
        dgp = tp.DgpSpec(
            covariates=(
                tp.Normal(0.0, 1.0), tp.Normal(2.0, 0.0), tp.Uniform(1.0, 1.0),
                tp.Bernoulli(0.0), tp.Bernoulli(1.0),
            ),
            participation_logit=(-1.125, 0.5, 0.25, -0.5, 0.75, 0.125),
            treatment_prob=0.5,
            outcome_mean_a0=(-1.25, 1.0, 0.5, 0.5, 3.0, 0.75),
            outcome_mean_a1=(0.25, 1.3, 0.5, 0.25, 1.0, 0.5),
            noise_sd=1.0,
            seed=3,
        )
        got = _truth_fields(dgp_module.exact_truth(dgp))
        expected = _truth_fields(dgp_module.exact_truth(oracles.make_dgp1(3)))
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-14

    @pytest.mark.parametrize("intercept", [-800.0, 40.0], ids=["rounds_to_0", "rounds_to_1"])
    def test_an_empty_stratum_raises_like_the_monte_carlo_oracle(self, intercept):
        dgp = dataclasses.replace(oracles.make_dgp1(3), participation_logit=(intercept, 0.5))
        with warnings.catch_warnings():
            # exp(-eta) overflows to inf where eta < -709, which gives the right 0 silently
            warnings.simplefilter("error")
            with pytest.raises(tp.DataError):
                tp.oracle_truth(dgp, 100_000)
            participants = tp.simulate_actual_population(dgp, 1_000, seed=1).s.sum()
            assert participants == (1_000 if intercept > 0 else 0)
        with pytest.raises(tp.DataError):
            dgp_module.exact_truth(dgp)

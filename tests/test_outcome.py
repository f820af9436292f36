import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import solve_triangular

import trialport as tp
from trialport import outcome

from conftest import make_tiny_dataset
from support import oracles, specs


def constant_outcome_dataset(value=5.0, n_trial=20, n_external=5):
    n = n_trial + n_external
    rng = np.random.Generator(np.random.Philox(61))
    x = rng.normal(size=(n, 1))
    s = np.array([1] * n_trial + [0] * n_external)
    a = np.full(n, np.nan)
    a[:n_trial] = [i % 2 for i in range(n_trial)]
    y = np.full(n, np.nan)
    y[:n_trial] = value
    return tp.ObservedDataset(
        x=x, s=s, a=a, y=y, design=tp.CensusNested(), k=1, n_unsampled_nonrandomized=0
    )


class TestFit:
    def test_constant_outcome_fits_constant(self):
        model = tp.fit_outcome(constant_outcome_dataset(5.0))
        for arm in (0, 1):
            assert model.coef(arm)[0] == pytest.approx(5.0, abs=1e-10)
            assert model.coef(arm)[1] == pytest.approx(0.0, abs=1e-10)
            assert tp.predict(model, arm, np.array([[3.7]]))[0] == pytest.approx(5.0, abs=1e-9)

    def test_recovers_generating_coefficients(self, census_1m):
        model = tp.fit_outcome(census_1m)
        n1 = model.n_per_arm[1]
        # conservative standard error: sd(noise) / sqrt(n_arm)
        se = 1.0 / math.sqrt(n1)
        assert abs(model.coef(1)[0] - 2.0) <= 4 * se
        assert abs(model.coef(1)[1] - 1.3) <= 4 * se
        assert abs(model.coef(0)[0] - 1.0) <= 4 * se
        assert abs(model.coef(0)[1] - 1.0) <= 4 * se
        assert model.residual_variance[1] == pytest.approx(1.0, rel=0.05)

    def test_duplicated_column_rank_deficient(self):
        base = make_tiny_dataset(n_trial=20, n_external=2)
        data = tp.ObservedDataset(
            x=np.column_stack([base.x, base.x[:, 0]]),
            s=base.s, a=base.a, y=base.y,
            design=base.design, n_unsampled_nonrandomized=0,
        )
        with pytest.raises(tp.RankDeficient):
            tp.fit_outcome(data)

    def test_counted_rows_with_too_few_distinct_rows_are_rank_deficient(self):
        # arm 1 counts two distinct rows (1 and 3 times) for three coefficients;
        # scaled by sqrt(3), which rounds, its |R_33| passed the guard's tolerance
        data = make_tiny_dataset(n_trial=9, n_external=4, p=2, seed=123028140)
        counts = np.array([0, 0, 1, 1, 0, 0, 3, 3, 1, 1, 1, 1, 1])
        with pytest.raises(tp.RankDeficient):
            tp.fit_outcome(data, counts)

    def test_insufficient_rows_per_arm(self):
        data = make_tiny_dataset(n_trial=2, n_external=3, p=2)
        with pytest.raises(tp.InsufficientData):
            tp.fit_outcome(data)

    def test_residuals_orthogonal_to_design(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 20_000)
        data = tp.apply_design(pop, tp.CensusNested(), seed=62)
        model = tp.fit_outcome(data)
        for arm in (0, 1):
            rows = (data.s == 1) & (data.a == arm)
            xmat = np.column_stack([np.ones(rows.sum()), data.x[rows]])
            resid = data.y[rows] - tp.predict(model, arm, data.x[rows])
            moment = xmat.T @ resid
            scale = np.linalg.norm(xmat, axis=0) * np.linalg.norm(resid)
            assert np.all(np.abs(moment) <= 1e-8 * scale)

    def test_external_rows_never_enter_the_fit(self):
        base = make_tiny_dataset(n_trial=30, n_external=10)
        model = tp.fit_outcome(base)
        perturbed_x = base.x.copy()
        perturbed_x[base.s == 0] += 100.0
        perturbed = tp.ObservedDataset(
            x=perturbed_x, s=base.s, a=base.a, y=base.y,
            design=base.design, n_unsampled_nonrandomized=0,
        )
        model2 = tp.fit_outcome(perturbed)
        assert np.array_equal(model.coef_a0, model2.coef_a0)
        assert np.array_equal(model.coef_a1, model2.coef_a1)


class TestBackSubstitution:
    """``_ols_qr`` solves R b = Q^T y with numpy alone; scipy is the reference here."""

    def test_bit_identical_to_scipy_solve_triangular(self):
        rng = np.random.Generator(np.random.Philox(2024))
        mismatches = 0
        for _ in range(2_000):
            q = int(rng.integers(2, 6))
            n = int(rng.integers(q + 2, 60))
            xmat = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
            xmat *= np.exp(rng.uniform(-9.0, 9.0, size=q))
            y = rng.normal(size=n) * np.exp(rng.uniform(-9.0, 9.0))
            qmat, r = np.linalg.qr(xmat)
            expected = solve_triangular(r, qmat.T @ y)
            mismatches += not np.array_equal(outcome._ols_qr(xmat, y, n), expected)
        assert mismatches == 0

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_copied_column_raises_rank_deficient(self, scale):
        rng = np.random.Generator(np.random.Philox(5))
        x = rng.normal(size=(40, 2)) * scale
        xmat = np.column_stack([np.ones(40), x, x[:, 1]])
        with pytest.raises(tp.RankDeficient):
            outcome._ols_qr(xmat, rng.normal(size=40), 40)


_KNOWN_MODEL = tp.OutcomeModel(
    coef_a0=np.array([1.0, 1.0]),
    coef_a1=np.array([2.0, 1.3]),
    residual_variance=(1.0, 1.0),
    n_per_arm=(10, 10),
)


class TestPredict:
    @pytest.fixture
    def model(self):
        return _KNOWN_MODEL

    def test_known_points(self, model):
        assert tp.predict(model, 1, np.array([[0.0]]))[0] == 2.0
        assert tp.predict(model, 1, np.array([[1.0]]))[0] == pytest.approx(3.3, rel=1e-15)
        assert tp.predict(model, 0, np.array([[2.0]]))[0] == 3.0

    def test_matrix_input(self, model):
        out = tp.predict(model, 1, np.array([[0.0], [1.0]]))
        assert out.shape == (2,)
        assert out[0] == 2.0

    @given(
        x=st.floats(min_value=-50, max_value=50),
        xp=st.floats(min_value=-50, max_value=50),
    )
    def test_linearity(self, x, xp):
        lhs = tp.predict(_KNOWN_MODEL, 1, np.array([[x + xp]]))[0] - tp.predict(
            _KNOWN_MODEL, 1, np.array([[xp]])
        )[0]
        assert lhs == pytest.approx(1.3 * x, rel=1e-9, abs=1e-9)

    def test_rejects_unknown_arm(self, model):
        with pytest.raises(ValueError):
            tp.predict(model, 2, np.array([[0.0]]))


def _cpu_burnt_while_sleeping(call) -> float:
    """CPU time of this process during a 0.2 s sleep right after ``call()``."""
    time.sleep(0.3)  # let threads woken by earlier work go idle first
    call()
    start = time.process_time()
    time.sleep(0.2)
    return time.process_time() - start


class TestBlasThreads:
    """Long products must not leave threaded-BLAS workers spinning.

    OpenBLAS runs a long dot or matrix-vector product on several threads,
    which then spin for about 0.1 s on cores that other replication workers
    use; the process burns CPU while it sleeps. Only visible on >= 2 cores.
    """

    @pytest.fixture(scope="class")
    def wide(self):
        x = np.random.Generator(np.random.Philox(5)).normal(size=(100_000, 8))
        coef = np.linspace(-1.0, 1.0, 9)
        outcome = tp.OutcomeModel(coef, coef, (1.0, 1.0), (10, 10))
        participation = tp.ParticipationModel(
            coefficients=coef, scale=tp.Scale.POPULATION,
            objective=0.0, grad_norm=0.0, iterations=0,
        )
        return x, outcome, participation

    @pytest.fixture(scope="class")
    def dgp_block(self):
        # an oracle chunk's covariate block, at p = 2
        return specs.P2_DGP, np.random.Generator(np.random.Philox(6)).normal(size=(1 << 20, 2))

    def test_fit_outcome(self):
        pop = tp.simulate_actual_population(oracles.make_dgp1(seed=81), 100_000)
        data = tp.apply_design(pop, tp.CensusNested(), seed=82)
        assert _cpu_burnt_while_sleeping(lambda: tp.fit_outcome(data)) < 0.05

    def test_predict(self, wide):
        x, outcome, _ = wide
        assert _cpu_burnt_while_sleeping(lambda: tp.predict(outcome, 1, x)) < 0.05

    def test_slope_score(self, wide):
        x, _, participation = wide
        assert _cpu_burnt_while_sleeping(lambda: participation.slope_score(x)) < 0.05

    def test_outcome_mean(self, dgp_block):
        dgp, x = dgp_block
        assert _cpu_burnt_while_sleeping(lambda: dgp.outcome_mean(1, x)) < 0.05

    def test_participation_prob(self, dgp_block):
        dgp, x = dgp_block
        assert _cpu_burnt_while_sleeping(lambda: dgp.participation_prob(x)) < 0.05

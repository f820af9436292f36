"""Data-generating processes, their exact truths, and the conditional Monte Carlo oracle.

The generating family is fixed so that the model classes used downstream are
correctly specified: logistic trial participation in the covariates, constant
randomization probability inside the trial, and linear per-arm outcome means
with additive Gaussian noise. Each arm's outcome mean is a function of the
covariates alone, so exchangeability over participation and positivity hold by
construction (participation probabilities are strictly inside (0, 1) for every
finite covariate value).

The truths are integrals over the covariate law. :func:`exact_truth` computes
them by quadrature (one Gaussian index for the Normal coordinates, Bernoulli
coordinates enumerated, composite Gauss-Legendre rules) whenever the grid fits
its budget and two node counts agree; :func:`oracle_truth` estimates them by
Monte Carlo for any DGP, and the experiment harness falls back to it.

Randomness is counter-based (Philox). Each field gets its own stream, keyed
by a ``numpy.random.SeedSequence`` spawn key under the 64-bit seed:

- ``(0, 0, j)`` covariate coordinate ``j`` and ``(0, 1, f)`` field ``f`` of a
  simulated population: 0 participation (every record), 1 treatment and 2
  outcome noise (trial participants only);
- ``(1, c, 0, j)`` and ``(1, c, 1, 0)``: oracle chunk ``c``'s covariates and participation;
- ``(2, 0)`` the design-thinning draw of :mod:`trialport.sampling`;
- ``(3, i)`` resample ``i`` of a bootstrap (:mod:`trialport.experiment`): its
  trial-row draws, then its external-row draws.

Record ``i`` of a population or oracle chunk consumes the i-th variate of each
stream it draws from; the k-th trial participant, the k-th of fields 1 and 2.
Output therefore depends only on the seed and the record's index (and chunk,
or resample), never on scheduling, partitioning or the number of worker
processes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from .domain import _reject_bool
from .errors import DataError


@dataclass(frozen=True)
class Normal:
    mean: float
    sd: float

    def __post_init__(self):
        _reject_bool(self.mean, "normal covariate mean")
        _reject_bool(self.sd, "normal covariate sd")
        if not (math.isfinite(self.mean) and math.isfinite(self.sd) and self.sd >= 0):
            raise DataError("normal covariate needs finite mean and sd >= 0")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, n)

    def expectation(self) -> float:
        return self.mean


@dataclass(frozen=True)
class Bernoulli:
    p: float

    def __post_init__(self):
        _reject_bool(self.p, "bernoulli covariate p")
        if not 0.0 <= self.p <= 1.0:
            raise DataError("bernoulli covariate needs p in [0, 1]")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return (rng.random(n) < self.p).astype(float)

    def expectation(self) -> float:
        return self.p


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        _reject_bool(self.lo, "uniform covariate lo")
        _reject_bool(self.hi, "uniform covariate hi")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo <= self.hi):
            raise DataError("uniform covariate needs finite lo <= hi")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, n)

    def expectation(self) -> float:
        return 0.5 * (self.lo + self.hi)


CovariateDist = Union[Normal, Bernoulli, Uniform]


@dataclass(frozen=True)
class DgpSpec:
    """Full description of a generating process.

    Fields
    ------
    covariates : per-coordinate distributions, independent coordinates.
    participation_logit : (g0, g1..gp); Pr[S=1|X] = logistic(g0 + g.X).
    treatment_prob : Pr[A=1|X, S=1], a constant in (0, 1).
    outcome_mean_a0 / outcome_mean_a1 : (b0, b1..bp) linear mean per arm.
    noise_sd : sd of the additive outcome noise, one draw per trial participant
        for its assigned arm (the potential outcomes' joint law is irrelevant
        to the marginal-mean estimands and unverifiable from data).
    seed : 64-bit stream seed.
    aux_split : how many leading coordinates are auxiliary (available on the
        whole actual population; covariate-dependent sampling may use them).
    """

    covariates: tuple[CovariateDist, ...]
    participation_logit: tuple[float, ...]
    treatment_prob: float
    outcome_mean_a0: tuple[float, ...]
    outcome_mean_a1: tuple[float, ...]
    noise_sd: float
    seed: int
    aux_split: int = 0

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "participation_logit", tuple(float(v) for v in self.participation_logit))
        object.__setattr__(self, "outcome_mean_a0", tuple(float(v) for v in self.outcome_mean_a0))
        object.__setattr__(self, "outcome_mean_a1", tuple(float(v) for v in self.outcome_mean_a1))
        p = self.p
        for name in ("participation_logit", "outcome_mean_a0", "outcome_mean_a1"):
            coefs = getattr(self, name)
            if len(coefs) != p + 1:
                raise DataError(f"{name} must have length p+1={p + 1}, got {len(coefs)}")
            if not all(math.isfinite(v) for v in coefs):
                raise DataError(f"{name} must be finite")
        _reject_bool(self.treatment_prob, "treatment_prob")
        _reject_bool(self.noise_sd, "noise_sd")
        _reject_bool(self.seed, "seed", "an integer")
        _reject_bool(self.aux_split, "aux_split", "an integer")
        if not (0.0 < self.treatment_prob < 1.0):
            raise DataError("treatment_prob must be in (0, 1)")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0.0):
            raise DataError("noise_sd must be finite and >= 0")
        if not (0 <= self.aux_split <= p):
            raise DataError(f"aux_split {self.aux_split} out of range for p={p}")

    @property
    def p(self) -> int:
        return len(self.covariates)

    def outcome_mean(self, arm: int, x: np.ndarray) -> np.ndarray:
        coefs = self.outcome_mean_a1 if arm == 1 else self.outcome_mean_a0
        b = np.asarray(coefs)
        # einsum, not `@`: threaded BLAS spins on after a long product (see outcome.fit_outcome)
        return b[0] + np.einsum("ij,j->i", x, b[1:])

    def participation_prob(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.participation_logit)
        # one row buffer takes eta -> exp(-eta) -> 1 + . -> 1 / ., the same IEEE
        # operations as 1 / (1 + exp(-eta)) without a temporary per step
        prob = np.einsum("ij,j->i", x, g[1:])  # not `@`, see outcome_mean
        prob += g[0]
        # exp(-eta) overflows to inf where eta < -709, and 1 / (1 + inf) is the right 0
        with np.errstate(over="ignore"):
            np.exp(np.negative(prob, out=prob), out=prob)
        prob += 1.0
        return np.divide(1.0, prob, out=prob)

    def covariate_expectations(self) -> np.ndarray:
        return np.array([d.expectation() for d in self.covariates], dtype=float)


class ActualPopulation:
    """Column-store of simulated units; treatment and outcome only for trial rows."""

    def __init__(self, x, s, a, y, aux_split, treatment_prob):
        self.x = np.asarray(x, dtype=float)
        self.s = np.asarray(s, dtype=np.int8)
        self.a = np.asarray(a, dtype=np.int8)  # -1 where undefined (s == 0)
        self.y = np.asarray(y, dtype=float)  # NaN where s == 0
        self.aux_split = int(aux_split)
        self.treatment_prob = float(treatment_prob)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Philox stream for one field, keyed by (seed, key...)."""
    ss = np.random.SeedSequence(entropy=int(seed) & ((1 << 64) - 1), spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


# spawn-key prefixes: 0 = simulation fields, 1 = oracle fields (disjoint even
# when the same seed is reused for both)
_SIM, _ORACLE = 0, 1


def _field_streams(dgp: DgpSpec, seed: int, *prefix: int, fields: int = 3):
    """(covariate streams, the first ``fields`` of participation, treatment, noise)."""
    covariates = [_stream(seed, *prefix, 0, j) for j in range(dgp.p)]
    return (covariates, *(_stream(seed, *prefix, 1, field) for field in range(fields)))


def _draw_covariates(dgp: DgpSpec, streams, n: int) -> np.ndarray:
    x = np.empty((n, dgp.p))
    for j, (dist, rng) in enumerate(zip(dgp.covariates, streams)):
        x[:, j] = dist.sample(rng, n)
    return x


def simulate_actual_population(dgp: DgpSpec, n: int, seed: int | None = None) -> ActualPopulation:
    """Draw ``n`` i.i.d. units from the superpopulation.

    Treatment and the outcome y = mu_A(x) + noise_sd * z are drawn only for
    trial participants (a = -1 and y = NaN elsewhere); study-design thinning
    (:func:`~trialport.sampling.apply_design`) happens separately.
    Deterministic given ``(seed, n)``.
    """
    if n < 1:
        raise DataError(f"population size must be >= 1, got {n}")
    if seed is None:
        seed = dgp.seed
    x_rngs, s_rng, a_rng, z_rng = _field_streams(dgp, seed, _SIM)
    x = _draw_covariates(dgp, x_rngs, n)
    drawn = s_rng.random(n) < dgp.participation_prob(x)
    s, trial = drawn.astype(np.int8), np.flatnonzero(drawn)  # flatnonzero is faster on bools
    x_trial, treated = x.take(trial, axis=0), a_rng.random(trial.size) < dgp.treatment_prob
    mean = np.where(treated, dgp.outcome_mean(1, x_trial), dgp.outcome_mean(0, x_trial))
    a, y = np.full(n, -1, dtype=np.int8), np.full(n, np.nan)
    a[trial] = treated
    y[trial] = mean + dgp.noise_sd * z_rng.standard_normal(trial.size)
    return ActualPopulation(x, s, a, y, dgp.aux_split, dgp.treatment_prob)


@dataclass(frozen=True)
class OracleTruth:
    """Truth for every estimand, with per-entry standard errors.

    Tuples are indexed by arm (entry 0 for a=0, entry 1 for a=1). A Monte
    Carlo truth (:func:`oracle_truth`) records its sample size; an exact one
    (:func:`exact_truth`) has ``mc_sample_size`` 0 and every SE 0.
    """

    mean_target: tuple[float, float]
    mean_nonrandomized: tuple[float, float]
    mean_randomized: tuple[float, float]
    pr_s1: float
    mc_sample_size: int
    se_mean_target: tuple[float, float]
    se_mean_nonrandomized: tuple[float, float]
    se_mean_randomized: tuple[float, float]
    se_pr_s1: float


# (fn, shared) of a pool process, set once by its initializer
_installed = None


def _install(fn, shared) -> None:
    global _installed
    _installed = fn, shared


def _call_installed(*task):
    fn, shared = _installed
    return fn(*shared, *task)


def _process_count(workers: int, n_tasks: int) -> int:
    """How many processes :func:`_map_in_workers` runs ``n_tasks`` tasks over."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, n_tasks)


def _map_in_workers(fn, tasks, workers: int, shared: tuple = ()) -> list:
    """``[fn(*shared, *task) for task in tasks]``, run over ``min(workers, len(tasks))`` processes.

    The package's one process pool. With one process to use, the calls run in
    this one; either way the results come back in task order. ``fn`` and the
    ``shared`` leading arguments reach each pool process once, through its
    initializer: under fork they are inherited, under spawn or forkserver they
    are pickled once per process, never once per task. Only ``tasks`` and the
    results travel per task.
    """
    processes = _process_count(workers, len(tasks))
    if processes <= 1:
        return [fn(*shared, *task) for task in tasks]
    import numpy.random  # noqa: F401  (loaded once here, forked processes need not each load it)
    with ProcessPoolExecutor(
        max_workers=processes, initializer=_install, initargs=(fn, shared)
    ) as pool:
        chunksize = max(1, len(tasks) // (4 * processes))
        return list(pool.map(_call_installed, *zip(*tasks), chunksize=chunksize))


# rows drawn and reduced per oracle chunk; bounds the oracle's memory whatever m is
_ORACLE_CHUNK = 1 << 20

# (count, mean, centred sum of squares) of an empty sample
_NO_MOMENTS = (0, 0.0, 0.0)


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    if values.size == 0:
        return _NO_MOMENTS
    mean = values.mean()
    dev = values - mean
    return values.size, float(mean), float(np.square(dev, out=dev).sum())


def _merge_moments(a, b):
    """Pairwise merge of two (count, mean, centred sum of squares) triples.

    Chan, Golub & LeVeque (1983), "Algorithms for computing the sample variance".
    """
    na, ma, qa = a
    nb, mb, qb = b
    if nb == 0:
        return a
    if na == 0:
        return b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * nb / n, qa + qb + delta * delta * na * nb / n


def _mean_se(moments) -> tuple[float, float]:
    n, mean, q = moments
    return mean, math.sqrt(q / (n - 1)) / math.sqrt(n)


def _oracle_chunks(dgp: DgpSpec, seed: int, chunks: range, m: int) -> list:
    """Draw and reduce oracle chunks ``chunks`` of an ``m``-unit oracle, in order.

    Chunk ``c`` holds units ``c * _ORACLE_CHUNK`` up to the next chunk or ``m``
    and draws them from its own streams, so its result does not depend on
    which chunks run with it or where. Each result is the chunk's S = 1 count
    and its (count, mean, centred sum of squares) triples indexed
    ``[stratum][arm]``, stratum 1 being the trial participants. Only X and S
    are drawn; each arm reduces its outcome mean mu_a(X).

    One call loops over its chunks, so a chunk's arrays are freed only once
    the next chunk has drawn its own. Freed at the end of a call per chunk,
    they would leave the top of the heap free; glibc would hand it back to
    the OS and every chunk would fault its pages in again, which cost about
    15% of the oracle's time at 2^20-row chunks.
    """
    out = []
    for chunk in chunks:
        k = min(_ORACLE_CHUNK, m - chunk * _ORACLE_CHUNK)
        x_rngs, s_rng = _field_streams(dgp, seed, _ORACLE, chunk, fields=1)
        x = _draw_covariates(dgp, x_rngs, k)
        s = s_rng.random(k) < dgp.participation_prob(x)
        strata = (np.flatnonzero(~s), np.flatnonzero(s))
        moments = ([], [])
        for arm in (0, 1):
            ya = dgp.outcome_mean(arm, x)
            for stratum, rows in enumerate(strata):
                moments[stratum].append(_moments(ya.take(rows)))
            del ya  # one outcome vector at a time: this bounds the chunk's peak memory
        out.append((strata[1].size, moments))
    return out


def oracle_truth(
    dgp: DgpSpec, m: int, oracle_seed: int | None = None, workers: int = 1
) -> OracleTruth:
    """Conditional Monte Carlo oracle: draw ``m`` units' (X, S), average mu_a(X).

    The truths are the means of the known mu_a(X) = E[Y | X, S=1, A=a] over
    all, S = 0 and S = 1 units, with these conditional means' SEs; the noise,
    independent of (X, S), is averaged out exactly (Rao-Blackwellization), so
    ``noise_sd`` does not enter. Streams never overlap the simulation's.
    Units are drawn and reduced in ``_ORACLE_CHUNK``-row chunks, each from its
    own streams, in this process or in contiguous runs over a pool of
    ``min(workers, chunks)`` processes; the per-(stratum, arm) moments merge in
    chunk order, so the truths are bit for bit the same at any worker count.
    The target means have the closed form b0 + b.E[X]; the estimates must lie
    within 6 SEs of it, plus 1e-12 of it for the chunked mean's rounding (all
    there is when mu_a is flat in X).
    """
    if m < 100_000:
        raise DataError(f"oracle sample size must be >= 1e5, got {m}")
    if oracle_seed is None:
        oracle_seed = dgp.seed
    n_chunks = -(-m // _ORACLE_CHUNK)
    n_runs = min(workers, n_chunks)
    runs = [range(n_chunks * i // n_runs, n_chunks * (i + 1) // n_runs) for i in range(n_runs)]
    per_run = _map_in_workers(_oracle_chunks, [(dgp, oracle_seed, run, m) for run in runs], workers)
    chunks = [chunk for run in per_run for chunk in run]

    # moments[stratum][arm], stratum 1 = trial participants (S = 1)
    moments = [[_NO_MOMENTS, _NO_MOMENTS], [_NO_MOMENTS, _NO_MOMENTS]]
    n_s1 = 0
    for count, chunk_moments in chunks:
        n_s1 += count
        moments = [list(map(_merge_moments, *pair)) for pair in zip(moments, chunk_moments)]
    if n_s1 < 2 or m - n_s1 < 2:
        raise DataError("oracle needs at least two units in each participation stratum")

    target, se_target = zip(*(_mean_se(_merge_moments(*pair)) for pair in zip(*moments)))
    nonrand, se_nonrand = zip(*(_mean_se(mo) for mo in moments[0]))
    rand, se_rand = zip(*(_mean_se(mo) for mo in moments[1]))
    pr = n_s1 / m
    se_pr = math.sqrt(pr * (1.0 - pr) / m)

    ex = dgp.covariate_expectations()
    for arm, coefs in enumerate((dgp.outcome_mean_a0, dgp.outcome_mean_a1)):
        closed = coefs[0] + float(np.dot(coefs[1:], ex))
        if abs(target[arm] - closed) > 6.0 * se_target[arm] + 1e-12 * abs(closed):
            raise RuntimeError(
                f"oracle self-check failed for arm {arm}: "
                f"MC {target[arm]:.6g} vs closed form {closed:.6g}"
            )

    return OracleTruth(
        mean_target=target,
        mean_nonrandomized=nonrand,
        mean_randomized=rand,
        pr_s1=pr,
        mc_sample_size=m,
        se_mean_target=se_target,
        se_mean_nonrandomized=se_nonrand,
        se_mean_randomized=se_rand,
        se_pr_s1=se_pr,
    )


# composite Gauss-Legendre nodes per panel: the rule whose truths are reported,
# then the coarser one that must agree with it
_PANEL_NODES = (20, 10)
# integrand evaluations the finer rule may take, and the agreement it must reach
_QUADRATURE_BUDGET = 1 << 22
_QUADRATURE_RTOL = 1e-12
# the Gaussian index's window reaches this many standard deviations past the
# tilt of its integrands; the density there is below 1e-31 of its peak
_GAUSS_REACH = 12.0
# grid points evaluated at a time; bounds the quadrature's memory
_QUADRATURE_BLOCK = 1 << 16


def _coordinate_sd(dist: CovariateDist) -> float:
    if isinstance(dist, Normal):
        return dist.sd
    if isinstance(dist, Uniform):
        return (dist.hi - dist.lo) / math.sqrt(12.0)
    return math.sqrt(dist.p * (1.0 - dist.p))


def _legendre_panels(lo: float, hi: float, panels: int, k: int):
    """Nodes and weights of the k-node Gauss-Legendre rule on each of ``panels`` equal panels."""
    t, w = np.polynomial.legendre.leggauss(k)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (0.5 * (edges[:-1, None] + edges[1:, None]) + half * t).ravel(), (half * w).ravel()


def _panels(width: float) -> float:
    """How many panels of width at most 1 cover ``width``; inf or NaN pass through."""
    return float(np.maximum(1.0, np.ceil(width)))


def _quadrature_rules(dgp: DgpSpec):
    """The participation index's fixed part and its quadrature axes, one rule per node count.

    Returns ``(intercept, normal, grid, rules)``: eta = intercept + tau Z +
    sum over ``grid`` of g_j X_j, with ``normal`` the (j, slope) of the Normal
    coordinates that tau Z gathers and ``grid`` the indices of the Bernoulli
    and Uniform ones. ``rules[k]`` holds, per axis (Z first, then ``grid``),
    the nodes, their slope in eta and their weights. A coordinate that eta
    does not move (zero slope or a point law) is independent of S, and only
    its mean enters the intercept. None, before any rule is built, when the
    finer rule would have more than ``_QUADRATURE_BUDGET`` points.
    """
    g = dgp.participation_logit
    intercept, tau, normal, grid = g[0], 0.0, [], []
    for j, (dist, slope) in enumerate(zip(dgp.covariates, g[1:])):
        if not (slope and _coordinate_sd(dist)):
            intercept += slope * dist.expectation()
        elif isinstance(dist, Normal):
            intercept += slope * dist.mean
            tau = math.hypot(tau, slope * dist.sd)
            normal.append((j, slope))
        else:
            grid.append(j)
    # each grid coordinate's support, and its panels (None where it is enumerated)
    steps = []
    for j in grid:
        dist = dgp.covariates[j]
        if isinstance(dist, Uniform):
            steps.append(((dist.lo, dist.hi), _panels(abs(g[j + 1]) * (dist.hi - dist.lo))))
        else:
            steps.append(((0.0, 1.0), None))
    if tau:
        # each integrand z^i sigma(+-(a + tau z)) phi(z), with a = eta - tau z
        # at a grid point, is log-concave with its mode in
        # [-tau sigma(a), tau sigma(-a)], so the window reaches past that for
        # every a the grid holds; eta moves by at most 1 across a panel
        ends = [sorted((g[j + 1] * lo, g[j + 1] * hi)) for j, ((lo, hi), _) in zip(grid, steps)]
        a_lo, a_hi = (intercept + sum(end[i] for end in ends) for i in (0, 1))
        z_lo = -tau * 0.5 * (1.0 + math.tanh(0.5 * a_hi)) - _GAUSS_REACH
        z_hi = tau * 0.5 * (1.0 - math.tanh(0.5 * a_lo)) + _GAUSS_REACH
        z_panels = _panels((z_hi - z_lo) * max(1.0, tau))
    fine = _PANEL_NODES[0]
    size = (fine * z_panels if tau else 1.0) * math.prod(2.0 if n is None else fine * n for _, n in steps)
    if not size <= _QUADRATURE_BUDGET:
        return None
    rules = {}
    for k in _PANEL_NODES:
        if tau:
            z, w = _legendre_panels(z_lo, z_hi, int(z_panels), k)
            axes = [(z, tau, w * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi))]
        else:
            axes = [(np.zeros(1), 0.0, np.ones(1))]
        for j, ((lo, hi), n) in zip(grid, steps):
            if n is None:
                p = dgp.covariates[j].p
                axes.append((np.array([0.0, 1.0]), g[j + 1], np.array([1.0 - p, p])))
            else:
                x, w = _legendre_panels(lo, hi, int(n), k)
                axes.append((x, g[j + 1], w / (hi - lo)))
        rules[k] = axes
    return intercept, normal, grid, rules


def _stratum_moments(intercept: float, axes) -> np.ndarray:
    """``out[0]`` = (E[sigma(eta)], E[sigma(-eta)]); ``out[1 + i]`` the same weighted by axis i's node.

    Sums over the tensor-product rule of ``axes`` in blocks of grid points, so
    its memory does not grow with the grid.
    """
    shape = tuple(x.size for x, _, _ in axes)
    total = math.prod(shape)
    out = np.zeros((len(axes) + 1, 2))
    for start in range(0, total, _QUADRATURE_BLOCK):
        index = np.unravel_index(np.arange(start, min(total, start + _QUADRATURE_BLOCK)), shape)
        eta = np.full(index[0].size, intercept)
        rows = np.empty((len(axes) + 1, eta.size))
        rows[0] = 1.0
        for i, ((x, slope, w), at) in enumerate(zip(axes, index)):
            rows[i + 1] = x.take(at)
            eta += slope * rows[i + 1]
            rows[0] *= w.take(at)
        rows[1:] *= rows[0]
        # sigma(|eta|) and sigma(-|eta|), without overflow
        e = np.exp(-np.abs(eta))
        far = 1.0 / (1.0 + e)
        near = e * far
        upper = eta >= 0
        probs = np.stack((np.where(upper, far, near), np.where(upper, near, far)))
        out += (rows[:, None, :] * probs).sum(axis=-1)
    return out


def _stratum_truths(dgp: DgpSpec, intercept, normal, grid, axes) -> np.ndarray:
    """Pr[S = 1], Pr[S = 0], then E[X | S = 1] and E[X | S = 0], by one quadrature rule.

    A Normal coordinate and the Gaussian index Z are jointly Gaussian, so
    E[X_j | Z] = m_j + g_j s_j^2 Z / tau; for a function h of eta this is
    Stein's lemma, E[X_j h] = m_j E[h] + g_j s_j^2 E[h']. Raises
    ``DataError`` when Pr[S = 1] rounds to 0 or 1.
    """
    moments = _stratum_moments(intercept, axes)
    probs = moments[0]
    if not (probs.min() >= np.finfo(float).tiny and probs[0] < 1.0):
        raise DataError(f"participation leaves a stratum empty: Pr[S = 1] = {probs[0]!r}")
    means = moments[1:] / probs
    cond = np.tile(dgp.covariate_expectations()[:, None], 2)
    tau = axes[0][1]
    for j, slope in normal:
        sd = dgp.covariates[j].sd
        cond[j] += sd * (slope * sd / tau) * means[0]
    for j, row in zip(grid, means[1:]):
        cond[j] = row
    return np.concatenate((probs, cond.T.ravel()))


def exact_truth(dgp: DgpSpec) -> OracleTruth | None:
    """The truths of :func:`oracle_truth` by quadrature: exact up to rounding, or None.

    With independent coordinates and eta = g0 + g.X, every truth is b0 + b.E[X]
    or b0 + b.E[X | S = s], and E[X | S = s] = E[X sigma(+-eta)] / E[sigma(+-eta)].
    Normal coordinates enter eta through one Gaussian index (Stein 1981), on a
    composite Gauss-Legendre rule; Bernoulli coordinates are enumerated and
    Uniform ones get composite Gauss-Legendre rules whose panels eta crosses
    by at most 1 (Golub & Welsch 1969). The grid is their tensor product.

    None when the 20-node-per-panel rule would take more than
    ``_QUADRATURE_BUDGET`` integrand evaluations, or when the 10-node rule
    does not reproduce its stratum probabilities and conditional means within
    ``_QUADRATURE_RTOL`` (relative to each value plus, for a mean, its
    coordinate's SD); :func:`oracle_truth` is then the way to the truths.
    Raises ``DataError`` when Pr[S = 1] rounds to 0 or 1.
    """
    quadrature = _quadrature_rules(dgp)
    if quadrature is None:
        return None
    intercept, normal, grid, rules = quadrature
    fine, coarse = (_stratum_truths(dgp, intercept, normal, grid, rules[k]) for k in _PANEL_NODES)
    sd = [_coordinate_sd(d) for d in dgp.covariates]
    if np.any(np.abs(fine - coarse) > _QUADRATURE_RTOL * (np.abs(fine) + [0.0, 0.0, *sd, *sd])):
        return None
    pr_s1, ex1, ex0 = fine[0], fine[2 : 2 + dgp.p], fine[2 + dgp.p :]
    ex = dgp.covariate_expectations()

    def mean(coefs, x):
        return coefs[0] + float(np.dot(coefs[1:], x))

    coefs = (dgp.outcome_mean_a0, dgp.outcome_mean_a1)
    return OracleTruth(
        mean_target=tuple(mean(b, ex) for b in coefs),
        mean_nonrandomized=tuple(mean(b, ex0) for b in coefs),
        mean_randomized=tuple(mean(b, ex1) for b in coefs),
        pr_s1=float(pr_s1),
        mc_sample_size=0,
        se_mean_target=(0.0, 0.0),
        se_mean_nonrandomized=(0.0, 0.0),
        se_mean_randomized=(0.0, 0.0),
        se_pr_s1=0.0,
    )

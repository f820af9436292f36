"""Estimator dispatch, Monte Carlo replication harness, stratified bootstrap, and sweeps.

:class:`EstimatorSpec` is the one map from a (method, study population, arm)
cell to the models it needs and the estimator function that evaluates it; the
harness and the command line both go through it.

One replication is simulate -> thin by design -> fit -> estimate. Replications
are fully independent: replication ``r`` derives every stream it needs from
``mix_seed(master_seed, tag, r)`` (splitmix64), so summaries are byte-identical
for a fixed master seed at any worker count. Failures inside a replication
(separation, rank deficiency, degenerate samples) are tallied, never fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .dgp import (
    DgpSpec,
    OracleTruth,
    _map_in_workers,
    _stream,
    oracle_truth,
    simulate_actual_population,
)
from .domain import (
    CensusNested,
    Design,
    ObservedDataset,
    SubsampledNested,
    SubsampledNestedCovariate,
    design_name,
)
from .errors import NotIdentifiable, TrialportError
from .estimators import (
    EstimateReport,
    Method,
    StudyPopulation,
    gformula_mean_nonrandomized,
    gformula_mean_randomized,
    gformula_mean_target,
    ipw_mean_nonrandomized,
    ipw_mean_target,
    trial_only_mean,
)
from .outcome import fit_outcome
from .participation import _NewtonWorkspace, fit_participation, participation_design
from .sampling import apply_design

_MASK64 = (1 << 64) - 1

# fewest resamples a bootstrap standard error is computed from
MIN_BOOTSTRAP_B = 100


def splitmix64(z: int) -> int:
    """One round of the splitmix64 output function (Steele et al.)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(master: int, *parts: int) -> int:
    """Derive an independent 64-bit seed from a master seed and index parts."""
    z = splitmix64(master & _MASK64)
    for part in parts:
        z = splitmix64(z ^ (part & _MASK64))
    return z


# seed-derivation tags: the harness's streams, then the command line's design
# thinning in `simulate` and bootstrap in `diagnose`
_SIM_TAG, _SAMPLE_TAG, _BOOT_TAG, _ORACLE_TAG = 1, 2, 3, 4
SIMULATE_SAMPLING_TAG, DIAGNOSE_BOOT_TAG = 5, 6


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator cell: method x study population x treatment arm."""

    method: Method
    population: StudyPopulation
    arm: int

    _VALID = {
        Method.GFORMULA: frozenset(StudyPopulation),
        Method.IPW_HT: frozenset({StudyPopulation.TARGET}),
        Method.IPW_HAJEK: frozenset({StudyPopulation.TARGET, StudyPopulation.NONRANDOMIZED}),
        Method.TRIAL_ONLY: frozenset({StudyPopulation.RANDOMIZED}),
    }

    def __post_init__(self):
        if self.arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {self.arm}")
        if self.population not in self._VALID[self.method]:
            raise ValueError(
                f"{self.method.value} does not estimate the "
                f"{self.population.value} population mean"
            )

    @property
    def needs_participation(self) -> bool:
        return self.method in (Method.IPW_HT, Method.IPW_HAJEK)

    @property
    def needs_outcome(self) -> bool:
        return self.method is Method.GFORMULA

    def evaluate(self, data: ObservedDataset, pmodel, omodel, truncate_q=None) -> EstimateReport:
        """Evaluate this estimator on ``data`` with already-fitted models.

        ``pmodel``/``omodel`` may be None when the spec does not need them.
        The estimator functions are looked up as module globals at call time,
        so a wrapper installed on this module sees every call.
        """
        arm = self.arm
        if self.method is Method.GFORMULA:
            if self.population is StudyPopulation.TARGET:
                return gformula_mean_target(data, omodel, arm)
            if self.population is StudyPopulation.NONRANDOMIZED:
                return gformula_mean_nonrandomized(data, omodel, arm)
            return gformula_mean_randomized(data, omodel, arm)
        if self.method is Method.TRIAL_ONLY:
            return trial_only_mean(data, arm)
        if self.population is StudyPopulation.TARGET:
            variant = "ht" if self.method is Method.IPW_HT else "hajek"
            return ipw_mean_target(data, pmodel, arm, variant, truncate_q)
        return ipw_mean_nonrandomized(data, pmodel, arm, truncate_q)

    def fit_and_evaluate(self, data: ObservedDataset) -> EstimateReport:
        """Fit whatever this estimator needs on ``data`` and evaluate it."""
        return self.evaluate(data, *fit_models([self], data))


def fit_models(specs, data: ObservedDataset):
    """Fit, once each, the models that any of ``specs`` needs: (pmodel, omodel).

    A model no spec needs is None.
    """
    pmodel = fit_participation(data) if any(s.needs_participation for s in specs) else None
    omodel = fit_outcome(data) if any(s.needs_outcome for s in specs) else None
    return pmodel, omodel


def default_estimators() -> tuple[EstimatorSpec, ...]:
    specs = []
    for arm in (0, 1):
        specs += [
            EstimatorSpec(Method.GFORMULA, StudyPopulation.TARGET, arm),
            EstimatorSpec(Method.GFORMULA, StudyPopulation.NONRANDOMIZED, arm),
            EstimatorSpec(Method.IPW_HAJEK, StudyPopulation.TARGET, arm),
            EstimatorSpec(Method.IPW_HAJEK, StudyPopulation.NONRANDOMIZED, arm),
            EstimatorSpec(Method.TRIAL_ONLY, StudyPopulation.RANDOMIZED, arm),
        ]
    return tuple(specs)


@dataclass(frozen=True)
class MisspecifySpec:
    """Deliberate model violations for stress runs.

    ``participation``/``outcome`` drop the last covariate from the respective
    fit basis. ``s_shift`` models a covariate-independent shift in both
    potential outcomes of non-randomized units, breaking exchangeability over
    participation: it moves the truths of the non-randomized mean (by the
    shift) and the target mean (by the shift times Pr[S=0]). The simulated
    data are unchanged, since no observed outcome belongs to a non-randomized
    unit, so trial-fitted estimators keep their old limits.
    """

    participation: bool = False
    outcome: bool = False
    s_shift: float = 0.0


@dataclass(frozen=True)
class ExperimentConfig:
    dgp: DgpSpec
    design: Design
    n: int
    replications: int
    master_seed: int
    estimators: tuple[EstimatorSpec, ...] = field(default_factory=default_estimators)
    misspecify: MisspecifySpec = MisspecifySpec()
    bootstrap_b: int = 0
    oracle_m: int = 1_000_000
    oracle_seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.estimators:
            raise ValueError("estimators must be nonempty")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.n < 1:
            raise ValueError("population size must be >= 1")
        if self.bootstrap_b < 0 or 0 < self.bootstrap_b < MIN_BOOTSTRAP_B:
            raise ValueError(
                f"bootstrap_b must be 0 (off) or >= {MIN_BOOTSTRAP_B}, got {self.bootstrap_b}"
            )
        if isinstance(self.design, SubsampledNestedCovariate):
            # a misspecified fit's basis keeps min(aux_split, p - 1) auxiliary covariates
            drops_covariate = self.misspecify.participation or self.misspecify.outcome
            kept = self.dgp.aux_split
            if drops_covariate:
                kept = min(kept, self.dgp.p - 1)
                if kept < 1:
                    raise ValueError(
                        "misspecified fits drop the last covariate, which leaves no auxiliary "
                        "covariate for the covariate-dependent sampling design"
                    )
            rule = self.design.c_rule
            if rule.coord >= kept:
                raise ValueError(
                    f"step rule coordinate {rule.coord} is not among the {kept} auxiliary "
                    "covariates that the fits keep"
                )


@dataclass(frozen=True)
class SummaryRow:
    estimand: str
    arm: int
    method: str
    design: str
    c: float | None
    n: int
    replications: int
    truth: float
    mean: float
    bias: float
    sd: float
    rmse: float
    not_identifiable_frac: float
    boot_se_mean: float
    n_failed: int = 0  # fit failures, distinct from not-identifiable outcomes


# (CSV column, SummaryRow attribute), in column order
_SUMMARY_FIELDS = (
    ("estimand", "estimand"), ("arm", "arm"), ("method", "method"), ("design", "design"),
    ("c", "c"), ("n", "n"), ("R", "replications"), ("truth", "truth"), ("mean", "mean"),
    ("bias", "bias"), ("sd", "sd"), ("rmse", "rmse"),
    ("not_identifiable_frac", "not_identifiable_frac"), ("boot_se_mean", "boot_se_mean"),
)
SUMMARY_COLUMNS = ",".join(column for column, _ in _SUMMARY_FIELDS)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def summary_rows_to_csv(rows) -> str:
    lines = [SUMMARY_COLUMNS]
    for r in rows:
        lines.append(",".join(_csv_cell(getattr(r, attr)) for _, attr in _SUMMARY_FIELDS))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentSummary:
    rows: tuple[SummaryRow, ...]


# ---------------------------------------------------------------------------
# Single-replication machinery


def _drop_last_covariate(data: ObservedDataset) -> ObservedDataset:
    """Reduced-basis view of the dataset (used to misspecify fits)."""
    return replace(data, x=data.x[:, : data.p - 1], k=min(data.k, data.p - 1))


OK, NOT_IDENTIFIABLE, FAILED = "ok", "not_identifiable", "failed"


def _run_replication(cfg: ExperimentConfig, r: int):
    """Return per-estimator (status, value, boot_se) triples for replication r."""
    try:
        pop = simulate_actual_population(
            cfg.dgp, cfg.n, seed=mix_seed(cfg.master_seed, _SIM_TAG, r)
        )
        data = apply_design(pop, cfg.design, seed=mix_seed(cfg.master_seed, _SAMPLE_TAG, r))
    except TrialportError:
        return [(FAILED, math.nan, math.nan)] * len(cfg.estimators)

    pdata = _drop_last_covariate(data) if cfg.misspecify.participation else data
    odata = _drop_last_covariate(data) if cfg.misspecify.outcome else data

    pmodel = omodel = None
    pfail = ofail = False
    if any(s.needs_participation for s in cfg.estimators):
        try:
            pmodel = fit_participation(pdata)
        except TrialportError:
            pfail = True
    if any(s.needs_outcome for s in cfg.estimators):
        try:
            omodel = fit_outcome(odata)
        except TrialportError:
            ofail = True

    results = []
    for j, spec in enumerate(cfg.estimators):
        if (spec.needs_participation and pfail) or (spec.needs_outcome and ofail):
            results.append((FAILED, math.nan, math.nan))
            continue
        edata = odata if spec.needs_outcome else (pdata if spec.needs_participation else data)
        try:
            value = spec.evaluate(edata, pmodel, omodel).value
        except NotIdentifiable:
            results.append((NOT_IDENTIFIABLE, math.nan, math.nan))
            continue
        except TrialportError:
            results.append((FAILED, math.nan, math.nan))
            continue
        boot = math.nan
        if cfg.bootstrap_b > 0:
            boot = bootstrap_se(
                edata, spec, cfg.bootstrap_b, seed=mix_seed(cfg.master_seed, _BOOT_TAG, r, j)
            )
        results.append((OK, value, boot))
    return results


# ---------------------------------------------------------------------------
# Harness entry points


def _truth_for(spec: EstimatorSpec, oracle: OracleTruth, shift: float) -> float:
    arm = spec.arm
    if spec.population is StudyPopulation.TARGET:
        return oracle.mean_target[arm] + shift * (1.0 - oracle.pr_s1)
    if spec.population is StudyPopulation.NONRANDOMIZED:
        return oracle.mean_nonrandomized[arm] + shift
    return oracle.mean_randomized[arm]


def _design_c(design: Design) -> float | None:
    if isinstance(design, CensusNested):
        return 1.0
    if isinstance(design, SubsampledNested):
        return design.c
    return None  # covariate-dependent or unknown


def _oracle_key(cfg: ExperimentConfig) -> tuple:
    seed = mix_seed(cfg.master_seed, _ORACLE_TAG) if cfg.oracle_seed is None else cfg.oracle_seed
    return cfg.dgp, cfg.oracle_m, seed


def _run_cells(configs, workers: int, oracles: dict) -> tuple[SummaryRow, ...]:
    """Every cell's summary rows, in order, from one task list of all replications.

    ``oracles`` maps :func:`_oracle_key` to truths; each one it lacks is computed once.
    """
    for key in map(_oracle_key, configs):
        if key not in oracles:
            oracles[key] = oracle_truth(*key, workers=workers)
    tasks = [(cfg, r) for cfg in configs for r in range(cfg.replications)]
    per_rep = iter(_map_in_workers(_run_replication, tasks, workers))
    rows = []
    for cfg in configs:
        oracle = oracles[_oracle_key(cfg)]
        reps = list(islice(per_rep, cfg.replications))
        for j, spec in enumerate(cfg.estimators):
            cells = [rep[j] for rep in reps]
            values = np.array([v for status, v, _ in cells if status == OK])
            boots = np.array([b for status, _, b in cells if status == OK and not math.isnan(b)])
            n_ni = sum(1 for status, _, _ in cells if status == NOT_IDENTIFIABLE)
            n_failed = sum(1 for status, _, _ in cells if status == FAILED)
            truth = _truth_for(spec, oracle, cfg.misspecify.s_shift)

            if values.size:
                mean = float(values.mean())
                bias = mean - truth
                sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
                rmse = float(np.sqrt(np.mean((values - truth) ** 2)))
            else:
                mean = bias = sd = rmse = math.nan
            rows.append(
                SummaryRow(
                    estimand=spec.population.value,
                    arm=spec.arm,
                    method=spec.method.value,
                    design=design_name(cfg.design),
                    c=_design_c(cfg.design),
                    n=cfg.n,
                    replications=cfg.replications,
                    truth=truth,
                    mean=mean,
                    bias=bias,
                    sd=sd,
                    rmse=rmse,
                    not_identifiable_frac=n_ni / cfg.replications,
                    boot_se_mean=float(boots.mean()) if boots.size else math.nan,
                    n_failed=n_failed,
                )
            )
    return tuple(rows)


def run_experiment(
    cfg: ExperimentConfig, workers: int = 1, oracle: OracleTruth | None = None
) -> ExperimentSummary:
    """Run all replications and reduce to one summary row per estimator spec.

    Deterministic given ``cfg.master_seed`` regardless of ``workers``:
    replications derive their own seeds and are reduced in index order.
    A precomputed ``oracle`` (matching ``cfg.dgp``) skips the truth run.
    """
    oracles = {} if oracle is None else {_oracle_key(cfg): oracle}
    return ExperimentSummary(rows=_run_cells((cfg,), workers, oracles))


def design_comparison(configs, workers: int = 1) -> tuple[SummaryRow, ...]:
    """Run each grid cell and concatenate summary rows (one sweep table).

    The truth is a property of the superpopulation, not of the design, so the
    oracle runs once per distinct (DGP, oracle m, oracle seed) in the grid and
    is shared by every cell that has it. ``workers`` processes run each
    oracle's chunks, then one pool of them runs the replications of every cell.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("design grid must be nonempty")
    return _run_cells(configs, workers, {})


# ---------------------------------------------------------------------------
# Stratified bootstrap


# spawn-key prefix for resample draws; distinct from the dgp and sampling prefixes
_RESAMPLE = 3


def _resample_rows(data: ObservedDataset, rng: np.random.Generator) -> np.ndarray:
    """Row positions of one stratified resample: trial draws, then external draws."""
    trial_idx, ext_idx = data._trial_rows, data._external_rows
    parts = [trial_idx.take(rng.integers(0, trial_idx.size, trial_idx.size))]
    if ext_idx.size:
        parts.append(ext_idx.take(rng.integers(0, ext_idx.size, ext_idx.size)))
    return np.concatenate(parts)


def resampled_dataset(data: ObservedDataset, rows: np.ndarray) -> ObservedDataset:
    """The dataset of ``data``'s rows at positions ``rows``, keeping the unsampled tally."""
    return replace(
        data,
        x=data.x.take(rows, axis=0), s=data.s.take(rows), a=data.a.take(rows), y=data.y.take(rows),
    )


def _replicates(data: ObservedDataset, stat_fn, seed: int, indices: range) -> np.ndarray:
    """``stat_fn`` on resamples ``indices`` of the bootstrap with ``seed``; NaN where it fails."""
    out = np.empty(len(indices))
    for k, i in enumerate(indices):
        rows = _resample_rows(data, _stream(seed, _RESAMPLE, i))
        try:
            out[k] = stat_fn(rows)
        except TrialportError:
            out[k] = math.nan
    return out


def bootstrap_replicates(
    data: ObservedDataset, stat_fn, b: int, seed: int, workers: int = 1
) -> np.ndarray:
    """Vector of ``stat_fn`` over ``b`` stratified resamples (NaN where it fails).

    ``stat_fn`` receives one resample's row positions in ``data``: as many
    draws with replacement from the trial rows as there are trial rows, then
    likewise from the external rows. Resample ``i`` draws both from its own
    Philox stream, keyed ``(3, i)`` under ``seed``, so it is the same resample
    whichever process draws it. :func:`resampled_dataset` turns the positions
    into the resampled dataset; ``np.bincount`` turns them into per-row counts.
    A ``TrialportError`` from ``stat_fn`` (an invalid resampled dataset, a
    failed fit) gives NaN.

    The resamples are spread, in runs of consecutive indices, over
    ``min(workers, b)`` processes, which receive ``data`` and ``stat_fn`` once
    each (see :func:`~trialport.dgp._map_in_workers`; ``stat_fn`` must then
    pickle where processes are not forked). The runs are concatenated in
    index order, so the vector is bit for bit the same at any ``workers``.
    """
    # four runs per process, so that a process slowed by other load hands work on
    n_runs = min(b, 4 * workers)
    runs = [(range(b * k // n_runs, b * (k + 1) // n_runs),) for k in range(n_runs)]
    per_run = _map_in_workers(_replicates, runs, workers, shared=(data, stat_fn, seed))
    return np.concatenate(per_run) if per_run else np.empty(0)


@dataclass(frozen=True, eq=False)
class ResampledDifference:
    """``diagnose --method gformula``'s statistic on a resample, from its dataset.

    ``trial`` minus ``external``, two :class:`EstimatorSpec` cells of one arm,
    each fit and evaluated on the resampled dataset.
    """

    data: ObservedDataset
    trial: EstimatorSpec
    external: EstimatorSpec

    def __call__(self, rows: np.ndarray) -> float:
        d = resampled_dataset(self.data, rows)
        return self.trial.fit_and_evaluate(d).value - self.external.fit_and_evaluate(d).value


class IpwDifferenceFromCounts:
    """``diagnose --method ipw``'s statistic on a resample, from its row counts.

    The statistic is one arm's trial-only mean minus its odds-weighted Hájek
    mean of the non-randomized: what those two :class:`EstimatorSpec` cells
    give on the resampled dataset. Here the resample's row positions become
    per-row counts instead. Participation is refit on the full sample's design
    with weights design weight × count, warm-started from the full-sample
    coefficients ``start``, in one Newton workspace per process: every
    resample that a process refits reuses it, and so do both arms when they
    run in this process. Both means are count-weighted sums over the arm's
    trial rows. No resampled dataset is built or validated: a resample that
    draws no trial row of some arm, whose dataset would be invalid, gives NaN,
    and a failed refit raises as :func:`fit_participation` would.
    """

    def __init__(self, data: ObservedDataset, start: np.ndarray):
        xmat, labels, self._design_weights, norm = participation_design(data)
        self._work = _NewtonWorkspace(xmat, labels, norm)
        self._weights = np.empty(data.n_rows)
        self._start = start
        trial_rows = data._trial_rows
        trial_a = data.a.take(trial_rows)
        # positions of each arm's trial rows, in the row order of data.arm(arm)
        self._arm_rows = [trial_rows.take(np.flatnonzero(trial_a == arm)) for arm in (0, 1)]
        self._arms = (data.arm(0), data.arm(1))

    def __call__(self, rows: np.ndarray, arm: int) -> float:
        counts = np.bincount(rows, minlength=self._weights.size)
        arm_counts = [counts.take(r) for r in self._arm_rows]
        if not (arm_counts[0].any() and arm_counts[1].any()):
            return math.nan
        np.multiply(self._design_weights, counts, out=self._weights)
        slopes = self._work.fit(self._weights, self._start)[0][1:]
        # over the drawn rows only, so that the odds are centred at the least
        # score among them, as ipw_mean_nonrandomized centres them
        drawn = np.flatnonzero(arm_counts[arm])
        c = arm_counts[arm].take(drawn).astype(float)
        x, y = self._arms[arm].x.take(drawn, axis=0), self._arms[arm].y.take(drawn)
        score = np.einsum("ij,j->i", x, slopes)
        w = c * np.exp(score.min() - score)
        return float(np.einsum("i,i", c, y) / c.sum() - np.einsum("i,i", w, y) / w.sum())


def bootstrap_se(data: ObservedDataset, spec: EstimatorSpec, b: int, seed: int) -> float:
    """Stratified-bootstrap standard error of one estimator on one dataset.

    Resampling is within stratum (trial rows and external rows separately) so
    the relative stratum sizes the design conditions on are preserved; models
    are refit on every resample.
    """
    if b < MIN_BOOTSTRAP_B:
        raise ValueError(f"bootstrap needs b >= {MIN_BOOTSTRAP_B}, got {b}")
    reps = bootstrap_replicates(
        data, lambda rows: spec.fit_and_evaluate(resampled_dataset(data, rows)).value, b, seed
    )
    return bootstrap_sd(reps)


def bootstrap_sd(reps: np.ndarray) -> float:
    """Sample SD of the resamples that did not fail; NaN with fewer than two."""
    good = reps[~np.isnan(reps)]
    return float(good.std(ddof=1)) if good.size > 1 else math.nan

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dgp import ActualPopulation, DgpSpec, OracleTruth, oracle_truth, simulate_actual_population
from .domain import (
    CensusNested,
    Design,
    NonNested,
    ObservedDataset,
    StepRule,
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
from .participation import fit_participation
from .sampling import apply_design

_MASK64 = (1 << 64) - 1


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


# seed-derivation tags
_SIM_TAG, _SAMPLE_TAG, _BOOT_TAG, _ORACLE_TAG = 1, 2, 3, 4


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

    def label(self) -> str:
        return f"{self.population.value}/{self.method.value}/a={self.arm}"

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

    def fit_and_evaluate(self, data: ObservedDataset, truncate_q=None) -> EstimateReport:
        """Fit whatever this estimator needs on ``data`` and evaluate it."""
        return self.evaluate(data, *fit_models([self], data), truncate_q)


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
    fit basis. ``s_shift`` adds a covariate-independent shift to both potential
    outcomes of non-randomized units, breaking exchangeability over
    participation: trial-fitted estimators keep their old limits while the
    truth moves by the shift.
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
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.n < 1:
            raise ValueError("population size must be >= 1")
        if self.bootstrap_b < 0:
            raise ValueError("bootstrap_b must be >= 0")
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
            if isinstance(rule, StepRule) and rule.coord >= kept:
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


SUMMARY_COLUMNS = (
    "estimand,arm,method,design,c,n,R,truth,mean,bias,sd,rmse,"
    "not_identifiable_frac,boot_se_mean"
)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def summary_rows_to_csv(rows) -> str:
    lines = [SUMMARY_COLUMNS]
    for r in rows:
        lines.append(
            ",".join(
                _csv_cell(v)
                for v in (
                    r.estimand, r.arm, r.method, r.design, r.c, r.n, r.replications,
                    r.truth, r.mean, r.bias, r.sd, r.rmse,
                    r.not_identifiable_frac, r.boot_se_mean,
                )
            )
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentSummary:
    rows: tuple[SummaryRow, ...]
    master_seed: int

    def csv_text(self) -> str:
        return summary_rows_to_csv(self.rows)

    def row(self, spec: EstimatorSpec) -> SummaryRow:
        for r in self.rows:
            if (
                r.estimand == spec.population.value
                and r.method == spec.method.value
                and r.arm == spec.arm
            ):
                return r
        raise KeyError(spec.label())


# ---------------------------------------------------------------------------
# Single-replication machinery


def _shift_nonrandomized(pop: ActualPopulation, delta: float) -> ActualPopulation:
    if delta == 0.0:
        return pop
    ext = pop.s == 0
    y0 = pop.y0 + np.where(ext, delta, 0.0)
    y1 = pop.y1 + np.where(ext, delta, 0.0)
    return ActualPopulation(pop.x, pop.s, pop.a, y0, y1, pop.y, pop.aux_split, pop.treatment_prob)


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
        pop = _shift_nonrandomized(pop, cfg.misspecify.s_shift)
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


def _replication_task(args):
    return _run_replication(*args)


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


def _oracle_seed(cfg: ExperimentConfig) -> int:
    if cfg.oracle_seed is not None:
        return cfg.oracle_seed
    return mix_seed(cfg.master_seed, _ORACLE_TAG)


def run_experiment(
    cfg: ExperimentConfig, workers: int = 1, oracle: OracleTruth | None = None
) -> ExperimentSummary:
    """Run all replications and reduce to one summary row per estimator spec.

    Deterministic given ``cfg.master_seed`` regardless of ``workers``:
    replications derive their own seeds and are reduced in index order.
    A precomputed ``oracle`` (matching ``cfg.dgp``) skips the truth run.
    """
    if oracle is None:
        oracle = oracle_truth(cfg.dgp, cfg.oracle_m, _oracle_seed(cfg))

    tasks = [(cfg, r) for r in range(cfg.replications)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(_replication_task, tasks, chunksize=max(1, cfg.replications // (4 * workers))))
    else:
        per_rep = [_run_replication(cfg, r) for r in range(cfg.replications)]

    rows = []
    for j, spec in enumerate(cfg.estimators):
        cells = [rep[j] for rep in per_rep]
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
    return ExperimentSummary(rows=tuple(rows), master_seed=cfg.master_seed)


def design_comparison(configs, workers: int = 1) -> tuple[SummaryRow, ...]:
    """Run each grid cell and concatenate summary rows (one sweep table).

    The truth is a property of the superpopulation, not of the design, so the
    oracle runs once per distinct (DGP, oracle m, oracle seed) in the grid and
    is shared by every cell that has it.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("design grid must be nonempty")
    oracles = {}
    rows = []
    for cfg in configs:
        key = (cfg.dgp, cfg.oracle_m, _oracle_seed(cfg))
        if key not in oracles:
            oracles[key] = oracle_truth(*key)
        rows.extend(run_experiment(cfg, workers=workers, oracle=oracles[key]).rows)
    return tuple(rows)


# ---------------------------------------------------------------------------
# Stratified bootstrap


def _resample_dataset(data: ObservedDataset, rng: np.random.Generator) -> ObservedDataset:
    """Resample trial and external rows separately, keeping the unsampled tally."""
    trial_idx = np.flatnonzero(data.trial_mask)
    ext_idx = np.flatnonzero(data.external_mask)
    parts = [trial_idx[rng.integers(0, trial_idx.size, trial_idx.size)]]
    if ext_idx.size:
        parts.append(ext_idx[rng.integers(0, ext_idx.size, ext_idx.size)])
    idx = np.concatenate(parts)
    return replace(data, x=data.x[idx], s=data.s[idx], a=data.a[idx], y=data.y[idx])


def bootstrap_replicates(data: ObservedDataset, stat_fn, b: int, seed: int) -> np.ndarray:
    """Vector of ``stat_fn`` evaluated on ``b`` stratified resamples (NaN on failure)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed & _MASK64)))
    out = np.empty(b)
    for i in range(b):
        try:
            out[i] = stat_fn(_resample_dataset(data, rng))
        except TrialportError:
            out[i] = math.nan
    return out


def bootstrap_se(data: ObservedDataset, spec: EstimatorSpec, b: int, seed: int) -> float:
    """Stratified-bootstrap standard error of one estimator on one dataset.

    Resampling is within stratum (trial rows and external rows separately) so
    the relative stratum sizes the design conditions on are preserved; models
    are refit on every resample.
    """
    if b < 100:
        raise ValueError(f"bootstrap needs b >= 100, got {b}")
    reps = bootstrap_replicates(data, lambda d: spec.fit_and_evaluate(d).value, b, seed)
    good = reps[~np.isnan(reps)]
    if good.size < 2:
        return math.nan
    return float(good.std(ddof=1))

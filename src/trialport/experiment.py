"""Estimator dispatch, Monte Carlo replication harness, stratified bootstrap, and sweeps.

:class:`EstimatorSpec` is the one map from a (method, study population, arm)
cell to the models it needs and the estimator function that evaluates it; the
harness and the command line both go through it.

One replication is simulate -> thin by design -> fit -> estimate. Replications
are fully independent: replication ``r`` derives every stream it needs from
``mix_seed(master_seed, tag, r)`` (splitmix64). The cells of a sweep that share
(DGP, n, master seed) therefore draw the same population in replication ``r``;
it is simulated once, and each of those cells thins, fits and estimates it in
turn. Every design keeps every trial row, in population order, so those cells
also share the trial-only outcome fit: it is made once per outcome basis
(misspecified or not) and handed to each of them. Failures inside a
replication (separation, rank deficiency, degenerate samples) are tallied,
never fatal.

The stratified bootstrap hands each resample to its statistic as per-row
counts; :class:`CountRefit`, the statistic of ``diagnose`` and of
:func:`bootstrap_se`, refits and evaluates estimator cells from them.

Processes and threads are spread here and nowhere else in the package. Every
entry point that takes ``workers`` keeps one contract:

- Output is byte-identical at any ``workers``: each task (a replication of a
  population, or a bootstrap resample) derives its streams from its own
  index, and results are reduced in index order.
- ``workers`` counts processes, not CPUs. Where more than one process has
  tasks to take, one pool runs them (:func:`_map_in_workers`).
- With one, replication tasks run in this process on two threads, this one
  and one helper, each taking whole tasks (:func:`_run_on_two_threads`). So
  ``workers=1`` may keep two CPUs busy, and at most two tasks' working sets
  are alive at once. A bootstrap in one process, and the Monte Carlo
  oracle always, run on the thread that calls them.
- No thread or process outlives the call.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dgp import (
    DgpSpec,
    OracleTruth,
    _stream,
    exact_truth,
    oracle_truth,
    simulate_actual_population,
)
from .domain import (
    CensusNested,
    Design,
    NonNested,
    ObservedDataset,
    SubsampledNested,
    SubsampledNestedCovariate,
    design_name,
)
from .errors import InsufficientData, NotIdentifiable, TrialportError
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
from .participation import (
    ParticipationModel,
    _fitted_model,
    _NewtonWorkspace,
    fit_participation,
    participation_design,
)
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

    def evaluate(
        self, data: ObservedDataset, pmodel, omodel, truncate_q=None, counts=None
    ) -> EstimateReport:
        """Evaluate this estimator on ``data`` with already-fitted models.

        ``pmodel``/``omodel`` may be None when the spec does not need them;
        ``counts`` are per-row frequency counts (see :mod:`.estimators`). The
        estimator functions are looked up as module globals at call time, so a
        wrapper installed on this module sees every call; ``counts`` is passed
        on only when given, so such a wrapper need not take it.
        """
        arm = self.arm
        kw = {} if counts is None else {"counts": counts}
        if self.method is Method.GFORMULA:
            if self.population is StudyPopulation.TARGET:
                return gformula_mean_target(data, omodel, arm, **kw)
            if self.population is StudyPopulation.NONRANDOMIZED:
                return gformula_mean_nonrandomized(data, omodel, arm, **kw)
            return gformula_mean_randomized(data, omodel, arm, **kw)
        if self.method is Method.TRIAL_ONLY:
            return trial_only_mean(data, arm, **kw)
        if self.population is StudyPopulation.TARGET:
            variant = "ht" if self.method is Method.IPW_HT else "hajek"
            return ipw_mean_target(data, pmodel, arm, variant, truncate_q, **kw)
        return ipw_mean_nonrandomized(data, pmodel, arm, truncate_q, **kw)

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
        if self.oracle_m < 100_000:
            raise ValueError(f"oracle sample size must be >= 1e5, got {self.oracle_m}")
        if isinstance(self.design, NonNested) and self.design.u_hidden is None:
            # else every replication's thinning would fail and the summary would read NaN
            raise ValueError(
                "simulating a non-nested design requires u_hidden, which resolved "
                "configs omit: add it back to the design"
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

# glibc's mallopt parameters, and the values the replication loop pins them to:
# its dynamic rule's 64-bit ceiling for the mmap threshold, and twice that
# for the trim threshold, as the rule keeps them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


@functools.cache
def _libc_mallopt():
    """The C library's ``mallopt`` with its signature declared, or None where it has none.

    Looked up once per process: each ``ctypes.CDLL`` builds a new function
    pointer class, which costs more than the call it serves.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for the life of this process.

    A replication allocates and frees arrays of several MiB. glibc starts
    both thresholds low and raises them only when the process frees an
    mmapped chunk larger than the mmap threshold, so left to that rule they
    depend on what ran before: below a replication's arrays, each array is
    mmapped or trimmed off the heap when freed, and the next replication
    faults its pages in again. Pinned above a replication's peak, the heap
    keeps them. Idempotent, and a no-op where the C library has no
    ``mallopt``.
    """
    mallopt = _libc_mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _population(cfgs, r: int):
    """Replication r's population of the (DGP, n, master seed) that ``cfgs`` share."""
    cfg = cfgs[0]
    return simulate_actual_population(cfg.dgp, cfg.n, seed=mix_seed(cfg.master_seed, _SIM_TAG, r))


def _thin(cfg: ExperimentConfig, pop, r: int):
    """One cell's dataset in replication r: ``pop`` thinned by its design, or None where that fails."""
    try:
        return apply_design(pop, cfg.design, seed=mix_seed(cfg.master_seed, _SAMPLE_TAG, r))
    except TrialportError:
        return None


def _analyse(cfg: ExperimentConfig, data, r: int, outcome_fits: dict):
    """Per-estimator (status, value, boot_se) triples of one cell on its replication-r dataset.

    ``data`` is None where the simulation or the thinning failed.
    ``outcome_fits`` maps an outcome basis (``misspecify.outcome``) to the
    replication's outcome model, or to None where its fit failed; a basis it
    does not hold yet is fitted on this cell's data and added. The fit reads
    only the trial rows, which every design keeps whole and in population
    order, so it is the model this cell would fit itself.
    """
    if data is None:
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
        basis = cfg.misspecify.outcome
        if basis not in outcome_fits:
            try:
                outcome_fits[basis] = fit_outcome(odata)
            except TrialportError:
                outcome_fits[basis] = None
        omodel = outcome_fits[basis]
        ofail = omodel is None

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


def _run_population(cfgs, r: int) -> list:
    """Replication r of every cell in ``cfgs``, which share (DGP, n, master seed): one task.

    Each cell thins, fits and estimates the one population with its own
    seeds, in order, so its results, a list of per-estimator (status, value,
    boot_se) triples, are what it would get alone. A failed shared outcome fit
    (see :func:`_analyse`) fails the g-formula cells of every cell that shares
    it, a failed simulation every cell, and a failed thinning only its own.
    The task drops its population once its last cell has thinned, and each
    cell's dataset before the next cell thins.
    """
    # here, so that it holds in every pool process however it was started, and
    # before the first simulation
    _pin_malloc_thresholds()
    try:
        pop = _population(cfgs, r)
    except TrialportError:
        pop = None
    results, outcome_fits = [], {}
    for i, cfg in enumerate(cfgs):
        data = None if pop is None else _thin(cfg, pop, r)
        if i == len(cfgs) - 1:
            pop = None  # the last cell has thinned
        results.append(_analyse(cfg, data, r, outcome_fits))
        del data  # freed before the next cell thins
    return results


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
    """``[fn(*shared, *task) for task in tasks]``, over :func:`_process_count` processes.

    With one, the calls run here; otherwise ``fn`` and ``shared`` reach each
    pool process once, through its initializer (inherited under fork, pickled
    under spawn or forkserver), and only the tasks and their results travel.
    """
    processes = _process_count(workers, len(tasks))
    if processes <= 1:
        return [fn(*shared, *task) for task in tasks]
    import numpy.random  # noqa: F401  (loaded once here, forked processes need not each load it)
    with ProcessPoolExecutor(processes, initializer=_install, initargs=(fn, shared)) as pool:
        # four batches per process, so that a process slowed by other load hands work on
        chunksize = max(1, len(tasks) // (4 * processes))
        return list(pool.map(_call_installed, *zip(*tasks), chunksize=chunksize))


def _run_on_two_threads(tasks) -> list:
    """``[_run_population(*task) for task in tasks]``, run by this thread and one helper thread.

    Each thread takes the next task that neither has taken and stores its
    results at the task's index. Simulation, thinning, fits and estimators
    spend most of their time in numpy kernels, which release the GIL, so on a
    second CPU the two tasks in flight run side by side. Once either thread
    has raised, neither takes another task, and the helper is joined before
    the first exception propagates.
    """
    import threading  # not at import: only this path needs it

    _pin_malloc_thresholds()  # before a second thread allocates
    out = [None] * len(tasks)
    lock = threading.Lock()  # over untaken and raised
    untaken, raised = iter(range(len(tasks))), []

    def take():
        with lock:
            return None if raised else next(untaken, None)

    def work():
        try:
            while (k := take()) is not None:
                out[k] = _run_population(*tasks[k])
        except BaseException as exc:  # re-raised on the calling thread below
            with lock:
                raised.append(exc)

    helper = threading.Thread(target=work, name="trialport-replications")
    helper.start()
    try:
        work()
    finally:
        helper.join()
    # glibc hands the helper's malloc arena to a later thread only once its OS
    # thread has exited, after join returns. Yield, so that on a busy CPU it
    # exits before the next call's helper starts, which would otherwise grow
    # an arena of its own to a task's working set.
    if hasattr(os, "sched_yield"):  # Unix only
        os.sched_yield()
    if raised:
        raise raised[0]
    return out


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


def _cell_truths(configs) -> list[OracleTruth]:
    """Each cell's truths: exact ones once per DGP, else the Monte Carlo oracle once per key."""
    truths, out = {}, []
    for cfg in configs:
        if cfg.dgp not in truths:
            truths[cfg.dgp] = exact_truth(cfg.dgp)
        key = cfg.dgp if truths[cfg.dgp] is not None else _oracle_key(cfg)
        if key not in truths:
            truths[key] = oracle_truth(*key)
        out.append(truths[key])
    return out


def _run_cells(configs, workers: int, truths) -> tuple[SummaryRow, ...]:
    """Every cell's summary rows, in order, from one task list of all populations.

    Cells that share (DGP, n, master seed) share replication r's population,
    so there is one task per such key and replication: it runs every cell of
    the key that has replication r (:func:`_run_population`). ``truths``
    holds each cell's :class:`OracleTruth`.
    """
    groups = {}
    for i, cfg in enumerate(configs):
        groups.setdefault((cfg.dgp, cfg.n, cfg.master_seed), []).append(i)
    tasks, members = [], []
    for group in groups.values():
        for r in range(max(configs[i].replications for i in group)):
            live = [i for i in group if configs[i].replications > r]
            members.append(live)
            tasks.append((tuple(configs[i] for i in live), r))
    if _process_count(workers, len(tasks)) > 1:
        per_task = _map_in_workers(_run_population, tasks, workers)
    else:
        per_task = _run_on_two_threads(tasks)
    # each cell's replications, in index order
    per_cell = [[] for _ in configs]
    for live, results in zip(members, per_task):
        for i, result in zip(live, results):
            per_cell[i].append(result)
    rows = []
    for cfg, oracle, reps in zip(configs, truths, per_cell):
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

    The truths are exact when ``cfg.dgp`` has an :func:`~trialport.dgp.exact_truth`;
    otherwise the Monte Carlo oracle draws them at ``cfg.oracle_m`` and
    ``cfg.oracle_seed``. A precomputed ``oracle`` (matching ``cfg.dgp``)
    skips the truth run. The run pins glibc's malloc thresholds for the life
    of every process it uses (:func:`_pin_malloc_thresholds`).
    """
    truths = _cell_truths((cfg,)) if oracle is None else [oracle]
    return ExperimentSummary(rows=_run_cells((cfg,), workers, truths))


def design_comparison(configs, workers: int = 1) -> tuple[SummaryRow, ...]:
    """Run each grid cell and concatenate summary rows (one sweep table).

    The truth is a property of the superpopulation, not of the design, so
    each distinct one is computed once (:func:`_cell_truths`) and shared by
    every cell that has it. A grid of k cells that share (DGP, n, master
    seed) simulates R populations, not k·R. Each cell's rows are the ones
    :func:`run_experiment` gives it alone.
    """
    configs = tuple(configs)
    if not configs:
        raise ValueError("design grid must be nonempty")
    return _run_cells(configs, workers, _cell_truths(configs))


# ---------------------------------------------------------------------------
# Stratified bootstrap


# spawn-key prefix for resample draws; distinct from the dgp and sampling prefixes
_RESAMPLE = 3


def _replicate(data: ObservedDataset, stat_fn, seed: int, i: int) -> float:
    """``stat_fn`` on resample ``i`` of the bootstrap with ``seed``; NaN where it fails."""
    rng = _stream(seed, _RESAMPLE, i)
    counts = np.empty(data.n_rows, dtype=np.intp)  # every row is in one stratum
    for rows in (data._trial_rows, data._external_rows):
        if rows.size:
            counts[rows] = np.bincount(rng.integers(0, rows.size, rows.size), minlength=rows.size)
    try:
        return stat_fn(counts)
    except TrialportError:
        return math.nan


def bootstrap_replicates(
    data: ObservedDataset, stat_fn, b: int, seed: int, workers: int = 1
) -> np.ndarray:
    """Vector of ``stat_fn`` over ``b`` stratified resamples (NaN where it fails).

    ``stat_fn`` receives one resample as per-row counts in ``data``: how often
    the resample drew each row, with as many draws with replacement from the
    trial rows as there are trial rows, then likewise from the external rows,
    all from resample ``i``'s own Philox stream, keyed ``(3, i)`` under
    ``seed``. :class:`CountRefit` refits and evaluates estimators from them.
    A ``TrialportError`` from ``stat_fn`` (an invalid resampled dataset, a
    failed fit) gives NaN. Each resample is one task of :func:`_map_in_workers`,
    so ``stat_fn`` must pickle where pool processes are not forked.
    """
    tasks = [(i,) for i in range(b)]
    return np.array(_map_in_workers(_replicate, tasks, workers, (data, stat_fn, seed)), dtype=float)


class CountRefit:
    """A signed sum of estimator cells, refit and evaluated from a resample's row counts.

    ``terms`` are ``(sign, EstimatorSpec)`` pairs, e.g. ``[(1, trial-only),
    (-1, external)]`` for ``diagnose``. Each call refits the models the terms
    need from the counts and evaluates the terms on them: what the resampled
    dataset would give. Participation is refit with weights design weight ×
    count from ``start`` (the full-sample model; None: from 0), in one Newton
    workspace that every resample in the process reuses, and which computes
    its pass at the start on the first refit, in the process that refits. A
    resample with no trial row in some arm, whose dataset would be invalid,
    raises ``InsufficientData``; a failed refit raises as the fit would.
    """

    def __init__(self, data: ObservedDataset, terms, start: ParticipationModel | None = None):
        self.data, self.terms = data, tuple(terms)
        self._needs_outcome = any(spec.needs_outcome for _, spec in self.terms)
        self._work = None
        if any(spec.needs_participation for _, spec in self.terms):
            xmat, labels, self._design_weights, norm = participation_design(data)
            self._work = _NewtonWorkspace(xmat, labels, norm)
            self._weights = np.empty(data.n_rows)
            self._start = None if start is None else start.coefficients

    def reports(self, counts: np.ndarray) -> list[EstimateReport]:
        """Each term's report on the resample with per-row ``counts``."""
        data = self.data
        for arm in (0, 1):
            if not counts.take(data.arm(arm).positions).any():
                raise InsufficientData(f"the resample draws no trial row of arm {arm}")
        pmodel = omodel = None
        if self._work is not None:
            np.multiply(self._design_weights, counts, out=self._weights)
            pmodel = _fitted_model(data.design, self._work.fit(self._weights, self._start))
        if self._needs_outcome:
            omodel = fit_outcome(data, counts)
        return [spec.evaluate(data, pmodel, omodel, counts=counts) for _, spec in self.terms]

    def __call__(self, counts: np.ndarray) -> float:
        reports = self.reports(counts)
        return sum(sign * report.value for (sign, _), report in zip(self.terms, reports))


def bootstrap_se(data: ObservedDataset, spec: EstimatorSpec, b: int, seed: int) -> float:
    """Stratified-bootstrap standard error of one estimator on one dataset.

    Resampling is within stratum (trial rows and external rows separately) so
    the relative stratum sizes the design conditions on are preserved; models
    are refit on every resample, from its row counts (:class:`CountRefit`),
    participation warm-started at the full-sample fit.
    """
    if b < MIN_BOOTSTRAP_B:
        raise ValueError(f"bootstrap needs b >= {MIN_BOOTSTRAP_B}, got {b}")
    start = fit_participation(data) if spec.needs_participation else None
    reps = bootstrap_replicates(data, CountRefit(data, [(1, spec)], start), b, seed)
    return bootstrap_sd(reps)


def bootstrap_sd(reps: np.ndarray) -> float:
    """Sample SD of the resamples that did not fail; NaN with fewer than two."""
    good = reps[~np.isnan(reps)]
    return float(good.std(ddof=1)) if good.size > 1 else math.nan

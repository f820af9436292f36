"""The benchmark's three workloads, their inputs and their output checks.

Every workload is built from the frozen DGP-1 of ``tests/support/oracles.py``
(one standard-normal covariate, participation logit (-1, 0.5)), whose stratum
means are known by Gauss-Hermite quadrature. Inputs derive from the workload
seed only. A pass is one repetition of the workload's timed unit; outputs of
every pass are checked against the quadrature truths.

* ``mc_study``: the criterion-3 protocol scaled down. ``run_experiment`` on
  census, sub-sampled (c = 0.3) and non-nested (u = 0.2) designs at n = 1e5,
  R = 100 each, one worker. Time is almost all the replication loop.
* ``design_sweep``: ``design_comparison`` over four designs at n = 2e4,
  R = 20, oracle_m = 1e7, two workers. Time is about 90% ``oracle_truth``,
  recomputed per cell for the same DGP and oracle seed.
* ``analyst_cli``: in-process ``trialport.cli.main``: one ``simulate`` to CSV,
  four ``estimate`` reads and one ``diagnose`` bootstrap (B = 200).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import trialport as tp
from trialport import cli, dataio
from trialport.estimators import Method, StudyPopulation
from trialport.experiment import summary_rows_to_csv

ROOT = Path(__file__).resolve().parent.parent


def _load_dgp1():
    path = ROOT / "tests" / "support" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_dgp1", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DGP1 = _load_dgp1()
STEP_RULE = tp.StepRule(coord=0, cutoff=0.0, low=0.2, high=0.8)

# quadrature truths by (estimand, arm)
TRUTH = {
    (population, arm): means[arm]
    for population, means in (
        ("target", DGP1.MEAN_TARGET),
        ("nonrandomized", DGP1.MEAN_NONRANDOMIZED),
        ("randomized", DGP1.MEAN_RANDOMIZED),
    )
    for arm in (0, 1)
}


def _outcome_variances(nodes: int = 301) -> dict:
    """Var(Y^a) overall and within each participation stratum, by quadrature."""
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    g0, g1 = DGP1.GAMMA
    p = 1.0 / (1.0 + np.exp(-(g0 + g1 * z)))
    out = {}
    for population, weight in (("target", w), ("randomized", w * p), ("nonrandomized", w * (1 - p))):
        share = weight.sum()
        ex = np.sum(weight * z) / share
        var_x = np.sum(weight * z * z) / share - ex * ex
        for arm, (_, slope) in DGP1.MEAN_COEF.items():
            out[(population, arm)] = (slope * slope * var_x + DGP1.NOISE_SD**2, float(share))
    return out


_VARIANCES = _outcome_variances()


def oracle_se(estimand: str, arm: int, m: int) -> float:
    """Standard error of the package's m-draw Monte Carlo oracle for one truth."""
    var, share = _VARIANCES[(estimand, arm)]
    return math.sqrt(var / (m * share))


def not_identifiable_expected(design: str, estimand: str) -> bool:
    """The design table: a non-nested design leaves the target mean unidentified."""
    return design == "non_nested" and estimand == "target"


def derived_seed(workload: str, seed: int, what: str) -> int:
    return random.Random(f"{workload}:{seed}:{what}").getrandbits(63)


def all_estimators():
    """The default estimator cells plus the two Horvitz-Thompson target cells."""
    return tp.default_estimators() + tuple(
        tp.EstimatorSpec(Method.IPW_HT, StudyPopulation.TARGET, arm) for arm in (0, 1)
    )


@dataclass
class Pass:
    wall_s: float
    replicates: int  # Monte Carlo replications or bootstrap resamples
    attempted: int  # estimator cells or CLI commands
    failed: int  # FAILED estimator cells or non-zero exits
    outputs: dict = field(default_factory=dict)


@dataclass
class CheckLog:
    """Output checks made so far; each failed one is a failed operation."""

    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


def check_summary_rows(log: CheckLog, rows, oracle_m: int, k_sd: float, where: str) -> None:
    """Identification pattern, oracle truth and unbiasedness of each summary row.

    An identifiable cell's mean must lie within ``k_sd * sd / sqrt(R) +
    4 * oracle-SE`` of the quadrature truth (criterion 3 uses k_sd = 3); the
    oracle's own truth must lie within 5 oracle-SE of it.
    """
    for row in rows:
        label = f"{where} {row.design} {row.estimand}/{row.method}/a={row.arm}"
        if not_identifiable_expected(row.design, row.estimand):
            log.expect(row.not_identifiable_frac == 1.0, f"{label}: expected not identifiable")
            continue
        truth = TRUTH[(row.estimand, row.arm)]
        se = oracle_se(row.estimand, row.arm, oracle_m)
        bound = k_sd * row.sd / math.sqrt(row.replications) + 4.0 * se
        log.expect(
            row.not_identifiable_frac == 0.0
            and abs(row.truth - truth) <= 5.0 * se
            and abs(row.mean - truth) <= bound,
            f"{label}: mean {row.mean!r} oracle {row.truth!r} vs truth {truth!r} "
            f"(bound {bound:.3g}, not identifiable {row.not_identifiable_frac})",
        )


# ---------------------------------------------------------------------------
# mc_study and design_sweep


@dataclass(frozen=True)
class ExperimentSize:
    n: int
    replications: int
    oracle_m: int
    workers: int = 1


class _ExperimentWorkload:
    """Replication studies over several designs that share one DGP and master seed."""

    designs: tuple
    estimators: tuple
    k_sd: float  # the bias bound's multiple of sd / sqrt(R)

    def __init__(self, seed: int, workdir: Path, size: ExperimentSize):
        self.size = size
        dgp = DGP1.make_dgp1(seed=derived_seed(self.name, seed, "dgp"))
        self.configs = [
            tp.ExperimentConfig(
                dgp=dgp,
                design=design,
                n=size.n,
                replications=size.replications,
                master_seed=derived_seed(self.name, seed, "master"),
                estimators=self.estimators,
                oracle_m=size.oracle_m,
            )
            for design in self.designs
        ]

    def provenance(self) -> dict:
        return {"n": self.size.n, "R": self.size.replications, "designs": len(self.designs),
                "B": 0, "oracle_m": self.size.oracle_m, "workers": self.size.workers}

    def run_pass(self, tracer=None) -> Pass:
        started = time.perf_counter()
        rows = self._rows(tracer)
        wall = time.perf_counter() - started
        return Pass(
            wall_s=wall,
            replicates=sum(cfg.replications for cfg in self.configs),
            attempted=sum(cfg.replications * len(cfg.estimators) for cfg in self.configs),
            failed=sum(row.n_failed for row in rows),
            outputs={"rows": rows, "csv": summary_rows_to_csv(rows)},
        )

    def check(self, passes) -> CheckLog:
        log = CheckLog()
        for i, p in enumerate(passes):
            check_summary_rows(log, p.outputs["rows"], self.size.oracle_m, self.k_sd, f"pass {i}")
            log.expect(p.outputs["csv"] == passes[0].outputs["csv"], f"pass {i}: summary bytes differ")
        return log


class McStudy(_ExperimentWorkload):
    name = "mc_study"
    min_passes = 1
    size = traced_size = ExperimentSize(n=100_000, replications=100, oracle_m=1_000_000)
    designs = (tp.CensusNested(), tp.SubsampledNested(c=0.3), tp.NonNested(u_hidden=0.2))
    estimators = all_estimators()
    k_sd = 3.0  # criterion 3

    def _rows(self, tracer):
        rows = []
        for cfg in self.configs:
            if tracer is not None:
                tracer.begin_op(f"run_experiment {type(cfg.design).__name__}")
            rows += tp.run_experiment(cfg, workers=self.size.workers).rows
        return rows


class DesignSweep(_ExperimentWorkload):
    name = "design_sweep"
    min_passes = 4
    size = ExperimentSize(n=20_000, replications=20, oracle_m=10_000_000, workers=2)
    # spans from pool workers are not collected, so traced runs use one worker
    traced_size = ExperimentSize(n=20_000, replications=20, oracle_m=10_000_000, workers=1)
    designs = (
        tp.CensusNested(),
        tp.SubsampledNested(c=0.3),
        tp.SubsampledNestedCovariate(c_rule=STEP_RULE),
        tp.NonNested(u_hidden=0.2),
    )
    estimators = tp.default_estimators()
    k_sd = 6.0  # R = 20 gives sd / sqrt(R) a t(19) law

    def _rows(self, tracer):
        if tracer is not None:
            tracer.begin_op("design_comparison")
        return tp.design_comparison(self.configs, workers=self.size.workers)


# ---------------------------------------------------------------------------
# analyst_cli


@dataclass(frozen=True)
class CliSize:
    n: int = 100_000
    bootstrap_b: int = 200


ESTIMATE_CALLS = (
    ("target", "gformula"),
    ("target", "ipw_hajek"),
    ("nonrandomized", "ipw"),
    ("randomized", "trial_only"),
)

# an estimate must lie within this many bootstrap SEs (from `diagnose`) of its truth
CLI_K_SE = 6.0


def invoke_cli(argv) -> tuple[int, str]:
    """Run ``trialport.cli.main`` in-process; a traceback counts as exit 1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except Exception:  # the CLI's contract is an exit code, never a traceback
            traceback.print_exc(file=sys.stderr)
            rc = 1
    return rc, out.getvalue()


class AnalystCli:
    name = "analyst_cli"
    min_passes = 3
    size = traced_size = CliSize()

    def __init__(self, seed: int, workdir: Path, size: CliSize):
        self.size = size
        workdir.mkdir(parents=True, exist_ok=True)
        dgp = DGP1.make_dgp1(seed=derived_seed(self.name, seed, "dgp"))
        config = workdir / "simulate.json"
        config.write_text(json.dumps({
            "dgp": dataio.dgp_to_dict(dgp),
            "design": dataio.design_to_dict(tp.SubsampledNestedCovariate(c_rule=STEP_RULE)),
            "n": size.n,
        }))
        self.data = workdir / "data"
        self.commands = [["simulate", str(config), str(self.data)]]
        self.commands += [
            ["estimate", str(self.data), "--estimand", estimand, "--method", method]
            for estimand, method in ESTIMATE_CALLS
        ]
        self.commands.append([
            "diagnose", str(self.data), "--method", "ipw",
            "--bootstrap-b", str(size.bootstrap_b),
            "--seed", str(derived_seed(self.name, seed, "diagnose")),
        ])

    def provenance(self) -> dict:
        return {"n": self.size.n, "R": 0, "B": self.size.bootstrap_b, "oracle_m": 0,
                "estimate_calls": len(ESTIMATE_CALLS), "workers": 1}

    def run_pass(self, tracer=None) -> Pass:
        results = []
        started = time.perf_counter()
        for argv in self.commands:
            if tracer is not None:
                tracer.begin_op(argv[0])
            results.append((argv, *invoke_cli(argv)))
        wall = time.perf_counter() - started
        csv_bytes = Path(f"{self.data}.csv").read_bytes() if results[0][1] == 0 else b""
        sidecar = json.loads(Path(f"{self.data}.json").read_text()) if results[0][1] == 0 else {}
        return Pass(
            wall_s=wall,
            replicates=2 * self.size.bootstrap_b,
            attempted=len(results),
            failed=sum(1 for _, rc, _ in results if rc != 0),
            outputs={"results": results, "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
                     "csv_rows": csv_bytes.count(b"\n") - 1,
                     "unsampled": sidecar.get("n_unsampled_nonrandomized")},
        )

    def check(self, passes) -> CheckLog:
        log = CheckLog()
        for i, p in enumerate(passes):
            check_cli_pass(log, p, self.size.n, f"pass {i}")
            log.expect(p.outputs["csv_sha256"] == passes[0].outputs["csv_sha256"],
                       f"pass {i}: simulated dataset bytes differ")
        return log


def _parse_json(log: CheckLog, text: str, label: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        log.expect(False, f"{label}: output is not JSON")
        return None


def check_cli_pass(log: CheckLog, p: Pass, n: int, where: str) -> None:
    """Exit codes, dataset size, and every estimate against the quadrature truths."""
    results = p.outputs["results"]
    for argv, rc, _ in results:
        log.expect(rc == 0, f"{where}: `{argv[0]}` exited {rc}")
    (_, sim_rc, _), estimates, (_, diag_rc, diag_out) = results[0], results[1:-1], results[-1]

    if sim_rc == 0:
        rows, unsampled = p.outputs["csv_rows"], p.outputs["unsampled"]
        log.expect(unsampled is not None and rows + unsampled == n,
                   f"{where}: {rows} CSV rows + {unsampled} unsampled != n = {n}")
    if diag_rc != 0:
        return
    diag = _parse_json(log, diag_out, f"{where} diagnose")
    if diag is None:
        return
    se = {}
    for arm_doc in diag["arms"]:
        arm, s = arm_doc["arm"], arm_doc["difference_bootstrap_se"]
        se[arm] = s
        log.expect(math.isfinite(s) and s > 0, f"{where} diagnose a={arm}: bootstrap SE {s}")
        tol = CLI_K_SE * s
        for key, truth in (
            ("mean_randomized", TRUTH[("randomized", arm)]),
            ("mean_nonrandomized", TRUTH[("nonrandomized", arm)]),
            ("difference", TRUTH[("randomized", arm)] - TRUTH[("nonrandomized", arm)]),
        ):
            log.expect(abs(arm_doc[key] - truth) <= tol,
                       f"{where} diagnose a={arm} {key} {arm_doc[key]!r} vs {truth!r} (tol {tol:.3g})")
    for argv, rc, out in estimates:
        if rc != 0:
            continue
        doc = _parse_json(log, out, f"{where} {' '.join(argv[2:])}")
        if doc is None:
            continue
        for report in doc["reports"]:
            estimand, arm = report["estimand"], report["arm"]
            truth, tol = TRUTH[(estimand, arm)], CLI_K_SE * se.get(arm, math.nan)
            log.expect(report["identifiable"] and abs(report["value"] - truth) <= tol,
                       f"{where} estimate {estimand}/{report['method']}/a={arm}: "
                       f"{report['value']!r} vs {truth!r} (tol {tol:.3g})")


WORKLOADS = {w.name: w for w in (McStudy, DesignSweep, AnalystCli)}

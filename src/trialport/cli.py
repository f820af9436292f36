"""Command-line interface: simulate | estimate | diagnose | experiment | sweep.

Exit codes are a stable contract: 0 success, 2 config/schema violation,
3 requested quantity not identifiable under the study design, 4 numerical or
fitting failure. Every command that draws randomness accepts ``--seed`` to
override the config's seed (``estimate`` draws none and takes no seed), and
every command that writes files records the fully resolved config next to
them. All randomness flows from the seeds in the resolved config; nothing is
drawn from the environment. Estimator choices are parsed into
:class:`~trialport.experiment.EstimatorSpec` cells, which do the fitting and
evaluation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .dgp import simulate_actual_population
from .errors import ConfigError, DataError, NotIdentifiable, TrialportError
from .estimators import Method, StudyPopulation
from .experiment import (
    DIAGNOSE_BOOT_TAG,
    SIMULATE_SAMPLING_TAG,
    CountRefit,
    EstimatorSpec,
    bootstrap_replicates,
    bootstrap_sd,
    design_comparison,
    fit_models,
    mix_seed,
    summary_rows_to_csv,
)
from .sampling import apply_design

EXIT_OK, EXIT_CONFIG, EXIT_NOT_IDENTIFIABLE, EXIT_NUMERICAL = 0, 2, 3, 4


def _dataset_paths(arg: str) -> tuple[Path, Path]:
    path = Path(arg)
    if path.suffix == ".csv":
        return path, path.with_suffix(".json")
    return Path(str(path) + ".csv"), Path(str(path) + ".json")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _check_writable(out: Path) -> None:
    """Reject an output path that cannot be a new file, before any work is done."""
    if out.is_dir():
        raise ConfigError(f"cannot write {out}: it is a directory")
    if not out.parent.is_dir():
        raise ConfigError(f"cannot write {out}: no directory {out.parent}")


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    cfg = dataio.load_json(args.config)
    dgp, design, n, sampling_seed = dataio.simulate_config_from_dict(cfg)
    if args.seed is not None:
        dgp = dataclasses.replace(dgp, seed=args.seed)
    if sampling_seed is None:
        sampling_seed = mix_seed(dgp.seed, SIMULATE_SAMPLING_TAG)
    csv_path, sidecar_path = _dataset_paths(args.out)
    _check_writable(csv_path)

    population = simulate_actual_population(dgp, n)
    data = apply_design(population, design, seed=sampling_seed)

    dataio.write_dataset(data, csv_path, sidecar_path)
    resolved = {
        "dgp": dataio.dgp_to_dict(dgp),
        "design": dataio.design_to_dict(design),
        "n": n,
        "sampling_seed": sampling_seed,
    }
    _write_json(csv_path.with_suffix(".config.json"), resolved)

    print(f"trial participants:            {data.n_trial}")
    print(f"sampled non-randomized:        {data.n_external}")
    if data.n_unsampled_nonrandomized is not None:
        print(f"unsampled non-randomized:      {data.n_unsampled_nonrandomized}")
    else:
        print("unsampled non-randomized:      unknown (non-nested design)")
    print(f"wrote {csv_path} and {sidecar_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate


def _cmd_estimate(args) -> int:
    method = "ipw_hajek" if args.method == "ipw" else args.method
    if args.truncate_q is not None:
        if method not in ("ipw_ht", "ipw_hajek"):
            raise ConfigError(f"--truncate-q applies only to the ipw methods, not {args.method}")
        if not 0.0 < args.truncate_q <= 1.0:  # also rejects nan
            raise ConfigError(f"--truncate-q must be in (0, 1], got {args.truncate_q}")
    arms = [0, 1] if args.arm == "both" else [int(args.arm)]
    specs = [
        dataio.estimator_spec_from_dict(
            {"method": method, "population": args.estimand, "arm": arm}, "estimate arguments"
        )
        for arm in arms
    ]
    csv_path, sidecar_path = _dataset_paths(args.dataset)
    data = dataio.read_dataset(csv_path, sidecar_path)

    pmodel, omodel = fit_models(specs, data)
    reports = [spec.evaluate(data, pmodel, omodel, args.truncate_q) for spec in specs]
    doc = {
        "reports": [r.to_dict() for r in reports],
        "config": {
            "dataset": str(csv_path),
            "estimand": args.estimand,
            "method": args.method,
            "arms": arms,
            "truncate_q": args.truncate_q,
        },
    }
    if args.out:
        lines = [reports[0].CSV_HEADER] + [r.to_csv_row() for r in reports]
        Path(args.out).write_text("\n".join(lines) + "\n")
        _write_json(Path(str(args.out) + ".config.json"), doc["config"])
    print(json.dumps(doc, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _cmd_diagnose(args) -> int:
    if args.bootstrap_b < 2:
        raise ConfigError(f"--bootstrap-b must be >= 2, got {args.bootstrap_b}")
    dataio.count(args.bootstrap_b, "--bootstrap-b")
    csv_path, sidecar_path = _dataset_paths(args.dataset)
    data = dataio.read_dataset(csv_path, sidecar_path)
    seed = args.seed if args.seed is not None else 0
    external_method = Method.IPW_HAJEK if args.method == "ipw" else Method.GFORMULA

    pairs = [
        (
            EstimatorSpec(Method.TRIAL_ONLY, StudyPopulation.RANDOMIZED, arm),
            EstimatorSpec(external_method, StudyPopulation.NONRANDOMIZED, arm),
        )
        for arm in (0, 1)
    ]
    # the full-sample models serve both arms; each resample refits its own
    # from its row counts, participation warm-started at the full-sample fit
    models = fit_models([spec for pair in pairs for spec in pair], data)
    # the replicates are the same at any process count, so use every CPU there is
    workers = _usable_cpus()
    arms_out = []
    for arm, (trial_spec, external_spec) in enumerate(pairs):
        trial = trial_spec.evaluate(data, *models).value
        external = external_spec.evaluate(data, *models).value
        stat = CountRefit(data, [(1, trial_spec), (-1, external_spec)], models[0])
        reps = bootstrap_replicates(
            data, stat, args.bootstrap_b, seed=mix_seed(seed, DIAGNOSE_BOOT_TAG, arm),
            workers=workers,
        )
        boot_se = bootstrap_sd(reps)
        arms_out.append(
            {
                "arm": arm,
                "mean_randomized": trial,
                "mean_nonrandomized": external,
                "difference": trial - external,
                # JSON has no NaN or infinity: a non-finite SE is written as null
                "difference_bootstrap_se": boot_se if math.isfinite(boot_se) else None,
            }
        )
    doc = {
        "arms": arms_out,
        "config": {
            "dataset": str(csv_path),
            "method": args.method,
            "bootstrap_b": args.bootstrap_b,
            "seed": seed,
        },
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment / sweep


def _resolved_config_doc(cfg, workers: int) -> dict:
    doc = dataio.experiment_config_to_dict(cfg)
    doc["workers"] = workers
    return doc


def _run_cells(args, docs) -> tuple[Path, list, tuple]:
    """Run the experiment config docs as one sweep and write its summary CSV.

    Returns (output path, parsed configs, summary rows). Every input and the
    output path are checked before the run starts.
    """
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    configs = []
    for doc in docs:
        cfg = dataio.experiment_config_from_dict(doc)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, master_seed=args.seed)
        configs.append(cfg)
    out = Path(args.out)
    _check_writable(out)
    rows = design_comparison(configs, workers=args.workers)
    out.write_text(summary_rows_to_csv(rows))
    return out, configs, rows


def _cmd_experiment(args) -> int:
    out, (cfg,), rows = _run_cells(args, [dataio.load_json(args.config)])
    _write_json(Path(str(out) + ".config.json"), _resolved_config_doc(cfg, args.workers))
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = dataio.load_json(args.config)
    grid = doc.pop("grid", None)
    if not isinstance(grid, list) or not grid:
        raise ConfigError("sweep config needs a nonempty 'grid' list of designs")
    out, configs, rows = _run_cells(args, [{**doc, "design": cell} for cell in grid])
    _write_json(
        Path(str(out) + ".config.json"),
        {"cells": [_resolved_config_doc(cfg, args.workers) for cfg in configs]},
    )
    print(f"wrote {out} ({len(rows)} rows over {len(configs)} cells)")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialport",
        description="Extend randomized-trial inferences to a target population: "
        "simulation, estimation, and Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("simulate", help="simulate a dataset under a study design")
    p.add_argument("config", help="JSON config with dgp, design, n")
    p.add_argument("out", help="output prefix or .csv path (writes .csv, .json, .config.json)")
    add_seed(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("estimate", help="fit models and estimate a potential outcome mean")
    p.add_argument("dataset", help="dataset prefix or .csv path (sidecar .json expected)")
    p.add_argument("--estimand", choices=["target", "nonrandomized", "randomized"], required=True)
    p.add_argument(
        "--method",
        choices=["gformula", "ipw", "ipw_ht", "ipw_hajek", "trial_only"],
        default="gformula",
    )
    p.add_argument("--arm", choices=["0", "1", "both"], default="both")
    p.add_argument("--truncate-q", type=float, default=None, help="weight truncation quantile")
    p.add_argument("--out", default=None, help="also write a one-row-per-arm CSV report")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("diagnose", help="compare randomized vs non-randomized outcome means")
    p.add_argument("dataset")
    p.add_argument("--method", choices=["gformula", "ipw"], default="gformula")
    p.add_argument("--bootstrap-b", type=int, default=200)
    add_seed(p)
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("experiment", help="run a Monte Carlo replication study")
    p.add_argument("config")
    p.add_argument("out", help="summary CSV path")
    p.add_argument("--workers", type=int, default=1)
    add_seed(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("sweep", help="run an experiment grid over designs")
    p.add_argument("config", help="experiment config plus a 'grid' list of designs")
    p.add_argument("out")
    p.add_argument("--workers", type=int, default=1)
    add_seed(p)
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotIdentifiable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IDENTIFIABLE
    except TrialportError as exc:  # fit failures: separation, rank, convergence, too few rows
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        if exc.filename is None:  # not a file that cannot be written, e.g. a failed fork
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

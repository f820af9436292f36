"""Paired in-process timing of two trialport checkouts.

Usage: python tools/paired_timing.py PARENT CHANGE [--sweep [--workers N]] [--seconds S]
       [--seed N]

Copies ``src/trialport`` of each checkout into a temporary directory under two
package names (the package imports itself relatively, so both load side by
side in one process) and builds perfbench's configs in each from that
package's own classes, on DGP-1 (one standard-normal covariate, participation
logit (-1, 0.5)). It then runs the two alternately, and stops with an error
where a pair's summary CSV bytes differ, or where a call leaves more threads
alive than it found (``threading.active_count()``). The side that runs first
alternates from pair to pair. After one untimed round it stops at the first
round that ends past ``--seconds``, and prints median times and the
geometric mean of the per-pair time ratios CHANGE / PARENT.

* Default, mc_study: n = 1e5, R = 100, census, c = 0.3 and non-nested with
  u = 0.2, with the default estimator cells plus the two Horvitz-Thompson
  target cells (12 cells). A pair is one ``run_experiment(cfg, workers=1)``
  call per side, design by design; medians are per design.
* ``--sweep``, design_sweep: census, c = 0.3, the step rule (0.2 below 0,
  0.8 above) and non-nested with u = 0.2, n = 2e4, R = 20 each, default
  estimator cells. A pair is one ``design_comparison(configs, workers=N)``
  call per side. ``--workers`` (default 1) picks the path: 1 runs the tasks
  in this process on two threads, more run them in a pool of N processes,
  as perfbench's untraced design_sweep does at 2.

Both modes use only public API, so they run against any checkout that has
``run_experiment`` and ``design_comparison``; each run pins glibc's malloc
thresholds itself. A pair times whole runs, so it sees whatever a run
overlaps across its replications.

One process, and no pool unless ``--sweep --workers`` is above 1: the two
halves of a pair run close together, so drift of a shared host, which moves
whole benchmark runs by seconds, cancels in the ratio. PARENT and CHANGE may
be the same checkout, which measures the method's own spread.
"""

import argparse
import importlib
import math
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

N = 100_000
REPLICATIONS = 100
SWEEP_N = 20_000
SWEEP_REPLICATIONS = 20


def load(checkout: Path, name: str, tmp: Path):
    """``checkout``'s package, imported under ``name`` from a copy in ``tmp``."""
    shutil.copytree(
        checkout / "src" / "trialport", tmp / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    return importlib.import_module(name)


def dgp1(tp, seed: int):
    return tp.DgpSpec(
        covariates=(tp.Normal(0.0, 1.0),),
        participation_logit=(-1.0, 0.5),
        treatment_prob=0.5,
        outcome_mean_a0=(1.0, 1.0),
        outcome_mean_a1=(2.0, 1.3),
        noise_sd=1.0,
        seed=seed,
        aux_split=1,
    )


def mc_study_configs(tp, master_seed: int):
    """perfbench mc_study's configs, built from ``tp``'s own classes."""
    estimators = importlib.import_module(f"{tp.__name__}.estimators")
    cells = tp.default_estimators() + tuple(
        tp.EstimatorSpec(estimators.Method.IPW_HT, estimators.StudyPopulation.TARGET, arm)
        for arm in (0, 1)
    )
    designs = (tp.CensusNested(), tp.SubsampledNested(c=0.3), tp.NonNested(u_hidden=0.2))
    return [
        tp.ExperimentConfig(
            dgp=dgp1(tp, master_seed + 1), design=design, n=N, replications=REPLICATIONS,
            master_seed=master_seed, estimators=cells, oracle_m=1_000_000,
        )
        for design in designs
    ]


def sweep_configs(tp, master_seed: int):
    """perfbench design_sweep's four cells, built from ``tp``'s own classes."""
    designs = (
        tp.CensusNested(),
        tp.SubsampledNested(c=0.3),
        tp.SubsampledNestedCovariate(c_rule=tp.StepRule(coord=0, cutoff=0.0, low=0.2, high=0.8)),
        tp.NonNested(u_hidden=0.2),
    )
    return [
        tp.ExperimentConfig(
            dgp=dgp1(tp, master_seed + 1), design=design, n=SWEEP_N,
            replications=SWEEP_REPLICATIONS, master_seed=master_seed, oracle_m=10_000_000,
        )
        for design in designs
    ]


def same(a, b) -> bool:
    # repr, so that NaN equals NaN and every float compares to the bit
    return repr(a) == repr(b)


def timed_pairs(calls, seconds: float) -> dict:
    """Per-name (parent times, change times) of ``calls`` run in alternating pairs.

    ``calls(side)`` gives a round's (name, thunk) pairs of side 0 (PARENT)
    or 1 (CHANGE), in the same order for both; round 0 is an untimed warm-up.
    Stops with an error where a pair's results differ, or where a call leaves
    more threads alive than it found.
    """
    times = {}
    started, rnd, k = time.perf_counter(), 0, 0
    while rnd == 0 or time.perf_counter() - started < seconds:
        rounds = [calls(side) for side in (0, 1)]
        for pair in zip(*rounds):
            (name, _), results = pair[0], [None, None]
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                threads = threading.active_count()
                t0 = time.perf_counter()
                results[side] = pair[side][1]()
                if rnd:
                    times.setdefault(name, ([], []))[side].append(time.perf_counter() - t0)
                if threading.active_count() > threads:
                    raise RuntimeError(
                        f"{name} round {rnd}: side {side} left "
                        f"{threading.active_count() - threads} more thread(s) alive"
                    )
            if not same(*results):
                raise RuntimeError(f"{name} round {rnd}: {results[0]} != {results[1]}")
            k += 1
        rnd += 1
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--sweep", action="store_true", help="time design_sweep's grid")
    parser.add_argument("--workers", type=int, default=1,
                        help="design_comparison's processes in --sweep mode")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=4401)
    args = parser.parse_args(argv)
    if args.workers != 1 and not args.sweep:
        parser.error("--workers applies to --sweep only")
    if args.workers < 1:
        parser.error("--workers must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load(path.resolve(), name, Path(tmp)) for path, name in
                 ((args.parent, "trialport_parent"), (args.change, "trialport_change"))]
        grids = [(sweep_configs if args.sweep else mc_study_configs)(tp, args.seed) for tp in sides]

        def calls(side):
            tp, configs = sides[side], grids[side]
            to_csv = importlib.import_module(f"{tp.__name__}.experiment").summary_rows_to_csv
            if args.sweep:
                return [("design_comparison",
                         lambda: to_csv(tp.design_comparison(configs, workers=args.workers)))]
            return [(type(cfg.design).__name__, lambda cfg=cfg: to_csv(tp.run_experiment(cfg).rows))
                    for cfg in configs]

        times = timed_pairs(calls, args.seconds)

    ratios = []
    label = "call" if args.sweep else "design"
    print(f"{label:<18}{'pairs':>6}{'parent ms':>11}{'change ms':>11}{'ratio':>8}")
    for name, (parent, change) in times.items():
        ratios += [c / p for p, c in zip(parent, change)]
        p_ms, c_ms = 1e3 * statistics.median(parent), 1e3 * statistics.median(change)
        print(f"{name:<18}{len(parent):>6}{p_ms:>11.2f}{c_ms:>11.2f}{c_ms / p_ms:>8.3f}")
    if not ratios:
        print("no timed pairs: raise --seconds")
        return 1
    geomean = math.exp(statistics.fmean(math.log(v) for v in ratios))
    faster = sum(v < 1.0 for v in ratios)
    print(f"paired time ratio change/parent: geometric mean {geomean:.3f} over {len(ratios)} "
          f"pairs; change faster in {faster}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

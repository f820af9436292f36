"""Paired in-process replication timing of two trialport checkouts.

Usage: python tools/paired_timing.py PARENT CHANGE [--seconds S] [--seed N]

Copies ``src/trialport`` of each checkout into a temporary directory under two
package names (the package imports itself relatively, so both load side by
side in one process) and builds perfbench mc_study's three configs in each:
DGP-1, n = 1e5, census, c = 0.3 and non-nested with u = 0.2, and the default
estimator cells plus the two Horvitz-Thompson target cells (12 cells). With
glibc's malloc thresholds pinned, it then calls ``_run_replication`` of the
two alternately, replication by replication and design by design, and stops
with an error where a pair's results differ. The side that runs first
alternates from pair to pair. After one untimed round it stops at the first
round that ends past ``--seconds``, and prints per-design median times and the
geometric mean of the per-pair time ratios CHANGE / PARENT.

One process and no pool: the two halves of a pair run milliseconds apart, so
drift of a shared host, which moves whole benchmark runs by seconds, cancels
in the ratio. PARENT and CHANGE may be the same checkout, which measures the
method's own spread.
"""

import argparse
import importlib
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

N = 100_000
REPLICATIONS = 100


def load(checkout: Path, name: str, tmp: Path):
    """``checkout``'s package, imported under ``name`` from a copy in ``tmp``."""
    shutil.copytree(
        checkout / "src" / "trialport", tmp / name, ignore=shutil.ignore_patterns("__pycache__")
    )
    return importlib.import_module(name)


def mc_study_configs(tp, master_seed: int):
    """perfbench mc_study's configs, built from ``tp``'s own classes."""
    estimators = importlib.import_module(f"{tp.__name__}.estimators")
    dgp = tp.DgpSpec(
        covariates=(tp.Normal(0.0, 1.0),),
        participation_logit=(-1.0, 0.5),
        treatment_prob=0.5,
        outcome_mean_a0=(1.0, 1.0),
        outcome_mean_a1=(2.0, 1.3),
        noise_sd=1.0,
        seed=master_seed + 1,
        aux_split=1,
    )
    cells = tp.default_estimators() + tuple(
        tp.EstimatorSpec(estimators.Method.IPW_HT, estimators.StudyPopulation.TARGET, arm)
        for arm in (0, 1)
    )
    designs = (tp.CensusNested(), tp.SubsampledNested(c=0.3), tp.NonNested(u_hidden=0.2))
    return [
        tp.ExperimentConfig(
            dgp=dgp, design=design, n=N, replications=REPLICATIONS,
            master_seed=master_seed, estimators=cells, oracle_m=1_000_000,
        )
        for design in designs
    ]


def same(a, b) -> bool:
    # repr, so that NaN equals NaN and every float compares to the bit
    return repr(a) == repr(b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=4401)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load(path.resolve(), name, Path(tmp)) for path, name in
                 ((args.parent, "trialport_parent"), (args.change, "trialport_change"))]
        runs = []
        for tp in sides:
            experiment = importlib.import_module(f"{tp.__name__}.experiment")
            experiment._pin_malloc_thresholds()
            runs.append((experiment._run_replication, mc_study_configs(tp, args.seed)))

        names = [type(cfg.design).__name__ for cfg in runs[0][1]]
        times = {name: ([], []) for name in names}
        started, r, k = time.perf_counter(), 0, 0
        while r == 0 or time.perf_counter() - started < args.seconds:
            for d, name in enumerate(names):
                results = [None, None]
                for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                    run, configs = runs[side]
                    t0 = time.perf_counter()
                    results[side] = run(configs[d], r)
                    if r:  # round 0 is a warm-up
                        times[name][side].append(time.perf_counter() - t0)
                if not same(*results):
                    raise RuntimeError(f"{name} replication {r}: {results[0]} != {results[1]}")
                k += 1
            r += 1

    ratios = []
    print(f"{'design':<18}{'pairs':>6}{'parent ms':>11}{'change ms':>11}{'ratio':>8}")
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

"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mc_study --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout against ``src/trialport`` (nothing is
installed or modified). ``--trace 0`` repeats the workload's timed pass until
``--seconds`` would be exceeded (at least the workload's minimum number of
passes) and reports the end-to-end metrics; ``--trace 1`` runs an untraced, a
traced and another untraced pass and reports the per-layer metrics. The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run's provenance. Both, with the spans of a traced
run, are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5

# One fresh interpreter's set-up: imports, then the workload's configs and files.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[1] + "/src"]
from pathlib import Path
from perfbench import workloads
cls = workloads.WORKLOADS[sys.argv[2]]
cls(int(sys.argv[3]), Path(sys.argv[4]), cls.size)
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "size": workload.provenance(),
    }


def measure_setup(name: str, seed: int, workdir: Path) -> float:
    """Median over fresh interpreters of import plus workload set-up, in seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT), name, str(seed), str(workdir)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seconds: float):
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - started
        if len(passes) >= workload.min_passes and elapsed + passes[-1].wall_s > seconds:
            return passes


def end_to_end_metrics(passes, setup_s: float, attempted: int, failed: int) -> dict:
    wall = sum(p.wall_s for p in passes)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "reps_per_s": (sum(p.replicates for p in passes) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/trialport/__init__.py", "tests/support/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a trialport source checkout; missing {missing}", file=sys.stderr)
        return 2
    # replace this script's own directory, whose module names could shadow others
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, workdir)
        workload = cls(args.seed, workdir, cls.traced_size if args.trace else cls.size)
        prov = provenance(args, workload)
        tracer = None
        if args.trace:
            # untraced passes on both sides cancel a drift in machine speed
            tracer = tracing.Tracer()
            passes = [workload.run_pass()]
            with tracing.instrument(tracer):
                passes.append(workload.run_pass(tracer))
            passes.append(workload.run_pass())
        else:
            passes = run_untraced(workload, args.seconds)
        log = workload.check(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes) + log.checks
    failed = sum(p.failed for p in passes) + len(log.failures)
    if tracer is not None:
        overhead = 2.0 * passes[1].wall_s / (passes[0].wall_s + passes[2].wall_s) - 1.0
        metrics = tracing.layer_metrics(tracer, overhead)
    else:
        metrics = end_to_end_metrics(passes, setup_s, attempted, failed)
    prov["pass_wall_s"] = [p.wall_s for p in passes]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    for message in log.failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "check_failures": log.failures, "result": result}, indent=2) + "\n")
    if tracer is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

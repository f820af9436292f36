"""In-memory span tracing of trialport's layers, installed from outside ``src/``.

Each public layer function is wrapped where its callers look it up: every
loaded ``trialport`` module attribute that *is* the original function object
is replaced by the wrapper, so ``trialport.experiment.fit_participation`` and
``trialport.cli.fit_participation`` are both traced. Spans are kept in memory
and written out once, by the caller, when the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Collects spans and per-layer counters for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.ops: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0

    def begin_op(self, label: str) -> None:
        """Start a new top-level operation; later spans carry its id."""
        self.ops.append(label)

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording a span named ``name`` on every call.

        ``count(counters, args, result)`` adds the layer's work counts, with
        ``args`` the call's arguments bound to ``fn``'s parameter names.
        Raised trialport errors are counted as ``not_identifiable`` or
        ``failed`` and re-raised.
        """
        from trialport.errors import NotIdentifiable, TrialportError

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            self.counters[f"{name}.calls"] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NotIdentifiable:
                self.counters[f"{name}.not_identifiable"] += 1
                raise
            except TrialportError:
                self.counters[f"{name}.failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, len(self.ops)))
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counters, bound.arguments, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {"ops": self.ops, "spans": [asdict(s) for s in self.spans]}


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_self_times(spans) -> dict[str, float]:
    """Per-name sum of (span duration - union of its children clipped to it)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.name] += (s.end - s.start) - _covered(k for k in kids if k[1] > k[0])
    return dict(out)


# ---------------------------------------------------------------------------
# Layer counters: each adds exact work counts from a call's arguments/result.


def _count_simulate(c, args, result):
    c["dgp.simulate.rows"] += args["n"]


# x (p columns) plus the participation, treatment and two noise draws, float64
def _count_oracle(c, args, result):
    m = args["m"]
    c["dgp.oracle.draws"] += m
    c["dgp.oracle.bytes_computed"] += m * (args["dgp"].p + 4) * 8


def _count_thinning(c, args, result):
    c["sampling.apply_design.rows_in"] += args["population"].x.shape[0]
    c["sampling.apply_design.rows_kept"] += result.n_rows


def _count_participation(c, args, result):
    c["participation.fit.rows"] += args["data"].n_rows
    c["participation.fit.newton_iters"] += result.iterations


def _count_bootstrap(c, args, result):
    c["experiment.bootstrap.resamples"] += args["b"]
    c["experiment.bootstrap.useful"] += sum(1 for v in result if not math.isnan(v))


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _count_write(c, args, result):
    c["dataio.write.rows"] += args["data"].n_rows
    c["dataio.write.bytes"] += _file_bytes(args["csv_path"], args["sidecar_path"])


def _count_read(c, args, result):
    c["dataio.read.rows"] += result.n_rows
    c["dataio.read.bytes"] += _file_bytes(args["csv_path"], args["sidecar_path"])


# (span name, defining module, function name, counter)
TARGETS = (
    ("dgp.simulate", "trialport.dgp", "simulate_actual_population", _count_simulate),
    ("dgp.oracle", "trialport.dgp", "oracle_truth", _count_oracle),
    ("sampling.apply_design", "trialport.sampling", "apply_design", _count_thinning),
    ("participation.fit", "trialport.participation", "fit_participation", _count_participation),
    ("outcome.fit", "trialport.outcome", "fit_outcome", None),
    ("estimators", "trialport.estimators", "gformula_mean_target", None),
    ("estimators", "trialport.estimators", "gformula_mean_nonrandomized", None),
    ("estimators", "trialport.estimators", "gformula_mean_randomized", None),
    ("estimators", "trialport.estimators", "ipw_mean_target", None),
    ("estimators", "trialport.estimators", "ipw_mean_nonrandomized", None),
    ("estimators", "trialport.estimators", "trial_only_mean", None),
    ("experiment.harness", "trialport.experiment", "run_experiment", None),
    ("experiment.harness", "trialport.experiment", "design_comparison", None),
    ("experiment.bootstrap", "trialport.experiment", "bootstrap_replicates", _count_bootstrap),
    ("dataio.write", "trialport.dataio", "write_dataset", _count_write),
    ("dataio.read", "trialport.dataio", "read_dataset", _count_read),
    ("cli", "trialport.cli", "main", None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every layer function (and dataset validation) for the block.

    A target the program no longer defines is skipped; its metrics read 0.
    """
    import trialport.cli  # noqa: F401  (loads every trialport module)
    from trialport.domain import ObservedDataset

    modules = [m for k, m in sys.modules.items() if k == "trialport" or k.startswith("trialport.")]
    saved = []
    try:
        for name, module_name, attr, count in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = tracer.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, key, original))
                        setattr(module, key, wrapper)
        post_init = ObservedDataset.__post_init__
        saved.append((ObservedDataset, "__post_init__", post_init))
        ObservedDataset.__post_init__ = tracer.wrap("domain.validate", post_init)
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)


# (metric, unit, better); the order is the order of BENCHMARK.json's per_layer
LAYER_METRICS = (
    ("dgp.simulate.calls", "count", "lower"),
    ("dgp.simulate.self_s", "s", "lower"),
    ("dgp.simulate.rows", "count", "lower"),
    ("dgp.oracle.calls", "count", "lower"),
    ("dgp.oracle.self_s", "s", "lower"),
    ("dgp.oracle.draws", "count", "lower"),
    ("dgp.oracle.bytes_computed", "B", "lower"),
    ("sampling.apply_design.calls", "count", "lower"),
    ("sampling.apply_design.self_s", "s", "lower"),
    ("sampling.apply_design.kept_frac", "fraction", "higher"),
    ("domain.validate.calls", "count", "lower"),
    ("domain.validate.self_s", "s", "lower"),
    ("participation.fit.calls", "count", "lower"),
    ("participation.fit.self_s", "s", "lower"),
    ("participation.fit.rows", "count", "lower"),
    ("participation.fit.newton_iters", "count", "lower"),
    ("participation.fit.failed", "count", "lower"),
    ("outcome.fit.calls", "count", "lower"),
    ("outcome.fit.self_s", "s", "lower"),
    ("outcome.fit.failed", "count", "lower"),
    ("estimators.calls", "count", "lower"),
    ("estimators.self_s", "s", "lower"),
    ("estimators.not_identifiable", "count", "lower"),
    ("experiment.harness.self_s", "s", "lower"),
    ("experiment.bootstrap.resamples", "count", "lower"),
    ("experiment.bootstrap.self_s", "s", "lower"),
    ("experiment.bootstrap.useful_frac", "fraction", "higher"),
    ("dataio.write.self_s", "s", "lower"),
    ("dataio.write.rows", "count", "lower"),
    ("dataio.write.bytes", "B", "lower"),
    ("dataio.read.self_s", "s", "lower"),
    ("dataio.read.rows", "count", "lower"),
    ("dataio.read.bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.simulate_s", "s", "lower"),
    ("cli.estimate_s", "s", "lower"),
    ("cli.diagnose_s", "s", "lower"),
    ("trace_overhead_frac", "fraction", "lower"),
)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, dict]:
    """Every LAYER_METRICS entry, computed from one traced pass."""
    c = dict(tracer.counters)
    values = {f"{name}.self_s": t for name, t in layer_self_times(tracer.spans).items()}
    values.update(c)
    rows_in = c.get("sampling.apply_design.rows_in", 0.0)
    values["sampling.apply_design.kept_frac"] = (
        c.get("sampling.apply_design.rows_kept", 0.0) / rows_in if rows_in else 0.0
    )
    resamples = c.get("experiment.bootstrap.resamples", 0.0)
    values["experiment.bootstrap.useful_frac"] = (
        c.get("experiment.bootstrap.useful", 0.0) / resamples if resamples else 0.0
    )
    # latency per CLI command (median over the pass's calls of that command)
    latencies = defaultdict(list)
    for span in tracer.spans:
        if span.name == "cli":
            latencies[tracer.ops[span.op - 1]].append(span.end - span.start)
    for command, times in latencies.items():
        values[f"cli.{command}_s"] = statistics.median(times)
    values["trace_overhead_frac"] = overhead_frac
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit, _ in LAYER_METRICS
    }

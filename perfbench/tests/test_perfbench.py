"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import trialport.cli  # noqa: E402
import trialport.domain  # noqa: E402
import trialport.experiment  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402
from perfbench.run import end_to_end_metrics  # noqa: E402

TINY = {
    "mc_study": workloads.ExperimentSize(n=20_000, replications=8, oracle_m=200_000),
    "design_sweep": workloads.ExperimentSize(n=20_000, replications=8, oracle_m=200_000, workers=2),
    "analyst_cli": workloads.CliSize(n=20_000, bootstrap_b=40),
}
SEED = 3


def make(name, tmp_path, **changes):
    cls = workloads.WORKLOADS[name]
    return cls(SEED, tmp_path, dataclasses.replace(TINY[name], **changes))


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_untraced_passes_are_correct(name, tmp_path):
    workload = make(name, tmp_path)
    passes = [workload.run_pass(), workload.run_pass()]
    log = workload.check(passes)
    assert log.failures == []
    assert log.checks > 0
    assert all(p.failed == 0 and p.attempted > 0 and p.wall_s > 0 for p in passes)
    metrics = end_to_end_metrics(passes, 0.5, sum(p.attempted for p in passes) + log.checks, 0)
    assert metrics["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_traced_pass_reports_every_layer_metric(name, tmp_path):
    workload = make(name, tmp_path, **({"workers": 1} if name == "design_sweep" else {}))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = workload.run_pass(tracer)
    assert workload.check([traced]).failures == []
    metrics = tracing.layer_metrics(tracer, 0.01)
    assert list(metrics) == [metric for metric, _, _ in tracing.LAYER_METRICS]
    value = {k: m["value"] for k, m in metrics.items()}
    assert value["participation.fit.calls"] > 0 and value["participation.fit.newton_iters"] > 0
    assert value["domain.validate.calls"] >= value["sampling.apply_design.calls"]
    if name == "analyst_cli":
        b = TINY[name].bootstrap_b
        assert value["experiment.bootstrap.resamples"] == 2 * b
        assert value["dataio.read.rows"] == 5 * value["dataio.write.rows"] > 0
        assert value["dgp.oracle.calls"] == 0
        assert 0 < value["cli.estimate_s"] < value["cli.diagnose_s"]
        assert value["cli.simulate_s"] > value["dataio.write.self_s"]
    else:
        size = TINY[name]
        cells = len(workload.configs)
        assert value["dgp.simulate.calls"] == cells * size.replications
        assert value["dgp.simulate.rows"] == cells * size.replications * size.n
        assert value["dgp.oracle.calls"] == cells
        assert value["dataio.write.rows"] == value["cli.self_s"] == 0
    # the patches are gone after the block
    assert not hasattr(trialport.experiment.fit_participation, "__wrapped__")
    assert not hasattr(trialport.cli.main, "__wrapped__")
    assert not hasattr(trialport.domain.ObservedDataset.__post_init__, "__wrapped__")


def test_check_flags_a_wrong_estimate(tmp_path, monkeypatch):
    original = trialport.experiment.trial_only_mean

    def biased(data, arm):
        report = original(data, arm)
        return dataclasses.replace(report, value=report.value + 0.5)

    monkeypatch.setattr(trialport.experiment, "trial_only_mean", biased)
    workload = make("mc_study", tmp_path)
    log = workload.check([workload.run_pass()])
    # two trial_only cells (arms 0, 1) in each of three designs
    assert len(log.failures) == 6
    assert all("randomized/trial_only" in f for f in log.failures)


def test_check_flags_a_nonzero_exit(tmp_path, monkeypatch):
    original = trialport.cli._cmd_estimate

    def fail_target(args):
        return 4 if args.estimand == "target" and args.method == "gformula" else original(args)

    monkeypatch.setattr(trialport.cli, "_cmd_estimate", fail_target)
    workload = make("analyst_cli", tmp_path)
    p = workload.run_pass()
    assert p.failed == 1
    log = workload.check([p])
    assert log.failures == ["pass 0: `estimate` exited 4"]


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(0, "outer", 0.0, 10.0, None, 1),
        S(1, "child", 1.0, 4.0, 0, 1),
        S(2, "child", 3.0, 6.0, 0, 1),  # overlaps its sibling: union 1..6
        S(3, "leaf", 2.0, 2.5, 1, 1),
        S(4, "child", 9.0, 12.0, 0, 1),  # runs past its parent: clipped to 9..10
        S(5, "other", 20.0, 21.0, None, 2),
    ]
    self_times = tracing.layer_self_times(spans)
    assert self_times["outer"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_times["child"] == pytest.approx((3.0 - 0.5) + 3.0 + 3.0)
    assert self_times["leaf"] == pytest.approx(0.5)
    assert self_times["other"] == pytest.approx(1.0)


def test_tracer_nests_spans_by_call_stack():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    tracer.begin_op("op")
    outer()
    spans = {s.name: s for s in tracer.spans}
    assert spans["inner"].parent == spans["outer"].id
    assert spans["outer"].parent is None
    assert {s.op for s in tracer.spans} == {1}
    assert tracer.counters["outer.calls"] == tracer.counters["inner.calls"] == 1


def test_benchmark_json_names_every_reported_metric():
    import json

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench["workloads"][i]["name"] for i in range(3)) == set(workloads.WORKLOADS)
    p = workloads.Pass(wall_s=1.0, replicates=1, attempted=1, failed=0)
    reported = end_to_end_metrics([p], 0.5, 1, 0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: m["unit"] for k, m in reported.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.LAYER_METRICS
    )

import errno
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import trialport as tp
from trialport import cli, dataio, experiment
from trialport.cli import main
from trialport.estimators import Method, StudyPopulation
from trialport.experiment import EstimatorSpec

from support import oracles, resamples


def dgp1_doc(seed=20240901, **overrides):
    doc = dataio.dgp_to_dict(oracles.make_dgp1(seed))
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def simulate(tmp_path, design=None, n=4_000, extra_args=(), name="data"):
    design = design if design is not None else {"variant": "census_nested"}
    cfg = write_config(tmp_path, {"dgp": dgp1_doc(), "design": design, "n": n})
    out = tmp_path / name
    code = main(["simulate", str(cfg), str(out), *extra_args])
    assert code == 0
    return out


def _reject_non_finite(token):
    raise ValueError(f"{token} is not valid JSON")


def run_json(capsys, args):
    """Run a CLI command and parse its stdout as JSON (draining prior output)."""
    capsys.readouterr()
    code = main(args)
    return code, capsys.readouterr()


def capture_replicates(monkeypatch) -> list:
    """Record, per ``cli.bootstrap_replicates`` call: (data, resample counts, replicates).

    The replicates are recorded here, as the call returns them; the counts of
    resample ``i`` are those of its row positions, drawn again from its keyed
    stream, since the calls of ``stat_fn`` may run in other processes.
    """
    calls = []
    original = cli.bootstrap_replicates

    def recording(data, stat_fn, b, seed, workers=1):
        reps = original(data, stat_fn, b, seed, workers)
        calls.append((data, [resamples.resample_counts(data, seed, i) for i in range(b)], reps))
        return reps

    monkeypatch.setattr(cli, "bootstrap_replicates", recording)
    return calls


def materialized_difference(data, counts, arm, method):
    """diagnose's replicate refit on the resampled dataset itself (NaN where that fails)."""
    trial = EstimatorSpec(Method.TRIAL_ONLY, StudyPopulation.RANDOMIZED, arm)
    external = EstimatorSpec(method, StudyPopulation.NONRANDOMIZED, arm)
    try:
        resample = resamples.materialized(data, counts)
        return trial.fit_and_evaluate(resample).value - external.fit_and_evaluate(resample).value
    except tp.TrialportError:
        return math.nan


def write_dataset(tmp_path, data, name="data"):
    out = tmp_path / name
    dataio.write_dataset(data, out.with_suffix(".csv"), out.with_suffix(".json"))
    return out


def degenerate_dataset(kind):
    """A census dataset on which some resamples, not the full sample, cannot be refit.

    Returns (dataset, the row that such a resample misses). "lone_arm": arm 1
    has a single trial row. "rare_level": a binary covariate is 1 on a single
    external row, so without it that column is all zeros.
    """
    rng = np.random.Generator(np.random.Philox(7))
    n_trial, n_external = 40, 40
    n = n_trial + n_external
    x = np.column_stack([rng.normal(size=n), np.zeros(n)])
    a = np.full(n, np.nan)
    y = np.full(n, np.nan)
    y[:n_trial] = rng.normal(size=n_trial)
    if kind == "lone_arm":
        a[:n_trial] = 0.0
        a[0] = 1.0
        lone = 0
        x = x[:, :1]
    else:
        a[:n_trial] = [i % 2 for i in range(n_trial)]
        lone = n_trial
        x[lone, 1] = 1.0
    data = tp.ObservedDataset(
        x=x, s=np.array([1] * n_trial + [0] * n_external), a=a, y=y,
        design=tp.CensusNested(), k=1, n_unsampled_nonrandomized=0,
    )
    return data, lone


class TestSimulate:
    def test_writes_deterministic_files(self, tmp_path, capsys):
        out = simulate(tmp_path)
        first = (out.with_suffix(".csv")).read_bytes()
        outputs = capsys.readouterr().out
        assert "trial participants" in outputs
        out2 = simulate(tmp_path, name="data2")
        assert (out2.with_suffix(".csv")).read_bytes() == first
        resolved = json.loads((tmp_path / "data.config.json").read_text())
        assert resolved["dgp"]["seed"] == 20240901

    def test_seed_override_changes_data_and_is_recorded(self, tmp_path):
        base = simulate(tmp_path, name="base")
        seeded = simulate(tmp_path, extra_args=("--seed", "99"), name="seeded")
        assert base.with_suffix(".csv").read_bytes() != seeded.with_suffix(".csv").read_bytes()
        resolved = json.loads((tmp_path / "seeded.config.json").read_text())
        assert resolved["dgp"]["seed"] == 99
        again = simulate(tmp_path, extra_args=("--seed", "99"), name="seeded2")
        assert again.with_suffix(".csv").read_bytes() == seeded.with_suffix(".csv").read_bytes()

    def test_missing_key_exits_2_naming_it(self, tmp_path, capsys):
        doc = {"dgp": dgp1_doc(), "design": {"variant": "census_nested"}, "n": 100}
        del doc["dgp"]["noise_sd"]
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", str(cfg), str(tmp_path / "x")])
        assert code == 2
        assert "noise_sd" in capsys.readouterr().err

    def test_csv_path_output_is_read_back_by_estimate(self, tmp_path, capsys):
        out = simulate(tmp_path, name="data.csv")
        assert sorted(p.name for p in tmp_path.glob("data*")) == [
            "data.config.json", "data.csv", "data.json",
        ]
        code, captured = run_json(capsys, ["estimate", str(out), "--estimand", "target"])
        assert code == 0
        assert json.loads(captured.out)["config"]["dataset"] == str(out)

    def test_non_nested_sidecar_lacks_unsampled_count(self, tmp_path):
        out = simulate(tmp_path, design={"variant": "non_nested", "u_hidden": 0.3})
        sidecar = json.loads(out.with_suffix(".json").read_text())
        assert "n_unsampled_nonrandomized" not in sidecar
        assert "u_hidden" not in json.dumps(sidecar)


class TestEstimate:
    def test_gformula_target_on_nested_data(self, tmp_path, capsys):
        out = simulate(tmp_path, design={"variant": "subsampled_nested", "c": 0.5})
        code, captured = run_json(capsys, [
            "estimate", str(out), "--estimand", "target", "--method", "gformula",
        ])
        assert code == 0
        doc = json.loads(captured.out)
        assert len(doc["reports"]) == 2
        for report in doc["reports"]:
            assert report["identifiable"] is True
            assert abs(report["value"] - oracles.MEAN_TARGET[report["arm"]]) < 0.25

    def test_target_on_non_nested_exits_3(self, tmp_path, capsys):
        out = simulate(tmp_path, design={"variant": "non_nested", "u_hidden": 0.3})
        code = main(["estimate", str(out), "--estimand", "target", "--method", "gformula"])
        assert code == 3
        assert "not identifiable under non-nested design" in capsys.readouterr().err

    def test_ipw_nonrandomized_works_non_nested(self, tmp_path, capsys):
        out = simulate(tmp_path, design={"variant": "non_nested", "u_hidden": 0.3})
        code, captured = run_json(capsys, [
            "estimate", str(out), "--estimand", "nonrandomized", "--method", "ipw",
            "--arm", "1",
        ])
        assert code == 0
        doc = json.loads(captured.out)
        assert abs(doc["reports"][0]["value"] - oracles.MEAN_NONRANDOMIZED[1]) < 0.25

    def test_csv_report_written(self, tmp_path, capsys):
        out = simulate(tmp_path)
        report_path = tmp_path / "report.csv"
        code = main([
            "estimate", str(out), "--estimand", "randomized", "--method", "trial_only",
            "--out", str(report_path),
        ])
        assert code == 0
        lines = report_path.read_text().splitlines()
        assert lines[0] == "estimand,arm,method,value,ess,max_weight,identifiable"
        assert len(lines) == 3

    def test_truncation_flag_changes_the_estimate(self, tmp_path, capsys):
        out = simulate(tmp_path, n=8_000)
        code, captured = run_json(capsys, [
            "estimate", str(out), "--estimand", "target", "--method", "ipw",
            "--arm", "1",
        ])
        plain = json.loads(captured.out)["reports"][0]
        code, captured = run_json(capsys, [
            "estimate", str(out), "--estimand", "target", "--method", "ipw",
            "--arm", "1", "--truncate-q", "0.8",
        ])
        truncated = json.loads(captured.out)["reports"][0]
        assert truncated["value"] != plain["value"]
        assert any("truncated" in w for w in truncated["warnings"])

    def test_fit_failure_exits_4(self, tmp_path, capsys):
        # two covariates that are exact duplicates: rank-deficient fits
        out = simulate(tmp_path)
        csv_path = out.with_suffix(".csv")
        lines = csv_path.read_text().splitlines()
        header = lines[0] + ",x2"
        rows = [line + "," + line.rsplit(",", 1)[1] for line in lines[1:]]
        csv_path.write_text("\n".join([header] + rows) + "\n")
        code = main(["estimate", str(out), "--estimand", "target", "--method", "gformula"])
        assert code == 4

    @pytest.mark.parametrize(
        "method,estimand",
        [("ipw_ht", "nonrandomized"), ("trial_only", "target"), ("ipw", "randomized")],
    )
    def test_invalid_method_estimand_pair_exits_2(self, tmp_path, capsys, method, estimand):
        out = simulate(tmp_path)
        code, captured = run_json(
            capsys, ["estimate", str(out), "--estimand", estimand, "--method", method]
        )
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_estimate_takes_no_seed(self, tmp_path):
        # estimate draws no randomness, so a seed would be a no-op
        out = simulate(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(out), "--estimand", "target", "--seed", "1"])
        assert exc.value.code == 2


DIAGNOSE_DESIGNS = [
    {"variant": "census_nested"},
    {"variant": "subsampled_nested_covariate",
     "c_table": {"type": "step", "coord": 0, "cutoff": 0.0, "low": 0.2, "high": 0.8}},
    {"variant": "non_nested", "u_hidden": 0.4},
]


class TestDiagnose:
    def test_reports_difference_with_bootstrap_se(self, tmp_path, capsys):
        out = simulate(tmp_path, n=6_000)
        code, captured = run_json(
            capsys, ["diagnose", str(out), "--bootstrap-b", "120", "--seed", "3"]
        )
        assert code == 0
        doc = json.loads(captured.out)
        arm1 = doc["arms"][1]
        expected = oracles.MEAN_RANDOMIZED[1] - oracles.MEAN_NONRANDOMIZED[1]
        assert arm1["difference"] == pytest.approx(expected, abs=0.15)
        assert arm1["difference_bootstrap_se"] > 0

    def test_no_covariate_tilt_no_difference(self, tmp_path, capsys):
        doc = {"dgp": dgp1_doc(participation_logit=[-1.0, 0.0]),
               "design": {"variant": "census_nested"}, "n": 6_000}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "flat"
        assert main(["simulate", str(cfg), str(out)]) == 0
        code, captured = run_json(
            capsys, ["diagnose", str(out), "--bootstrap-b", "120", "--seed", "3"]
        )
        assert code == 0
        report = json.loads(captured.out)
        for arm in report["arms"]:
            assert abs(arm["difference"]) <= 4 * arm["difference_bootstrap_se"]

    @pytest.mark.parametrize("b", [-5, 0, 1, 10**21])
    def test_too_few_bootstrap_resamples_exit_2(self, tmp_path, capsys, b):
        out = simulate(tmp_path)
        code, captured = run_json(capsys, ["diagnose", str(out), "--bootstrap-b", str(b)])
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_undefined_bootstrap_se_is_json_null(self, tmp_path, capsys, monkeypatch):
        # every resample failing leaves no SE; stdout must stay strict JSON
        def all_failed(data, stat_fn, b, seed, workers=1):
            return np.full(b, np.nan)

        monkeypatch.setattr(cli, "bootstrap_replicates", all_failed)
        out = simulate(tmp_path)
        code, captured = run_json(capsys, ["diagnose", str(out), "--bootstrap-b", "2"])
        assert code == 0
        doc = json.loads(captured.out, parse_constant=_reject_non_finite)
        assert [arm["difference_bootstrap_se"] for arm in doc["arms"]] == [None, None]
        assert all(math.isfinite(arm["difference"]) for arm in doc["arms"])

    @pytest.mark.parametrize("design", DIAGNOSE_DESIGNS, ids=lambda d: d["variant"])
    def test_ipw_replicates_match_refits_of_the_resampled_dataset(
        self, tmp_path, capsys, monkeypatch, design
    ):
        out = simulate(tmp_path, design=design, n=6_000)
        calls = capture_replicates(monkeypatch)
        argv = ["diagnose", str(out), "--method", "ipw", "--bootstrap-b", "60", "--seed", "5"]
        assert run_json(capsys, argv)[0] == 0
        assert len(calls) == 2
        for arm, (data, draws, reps) in enumerate(calls):
            assert len(draws) == 60
            ref = [materialized_difference(data, c, arm, Method.IPW_HAJEK) for c in draws]
            np.testing.assert_array_equal(np.isnan(reps), np.isnan(ref))
            np.testing.assert_allclose(reps, ref, rtol=1e-6)

    @pytest.mark.parametrize("design", DIAGNOSE_DESIGNS, ids=lambda d: d["variant"])
    def test_gformula_replicates_are_refits_of_the_resampled_dataset(
        self, tmp_path, capsys, monkeypatch, design
    ):
        out = simulate(tmp_path, design=design, n=6_000)
        calls = capture_replicates(monkeypatch)
        argv = ["diagnose", str(out), "--method", "gformula", "--bootstrap-b", "60", "--seed", "5"]
        assert run_json(capsys, argv)[0] == 0
        assert len(calls) == 2
        for arm, (data, draws, reps) in enumerate(calls):
            ref = [materialized_difference(data, c, arm, Method.GFORMULA) for c in draws]
            np.testing.assert_array_equal(np.isnan(reps), np.isnan(ref))
            np.testing.assert_allclose(reps, ref, rtol=1e-10)

    # a warning raised in another process never reaches this one, so one CPU count is 1
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("kind", ["lone_arm", "rare_level"])
    def test_degenerate_resamples_give_nan_replicates(
        self, tmp_path, capsys, monkeypatch, kind, cpus
    ):
        data, lone = degenerate_dataset(kind)
        out = write_dataset(tmp_path, data)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        calls = capture_replicates(monkeypatch)
        argv = ["diagnose", str(out), "--method", "ipw", "--bootstrap-b", "60", "--seed", "5"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, captured = run_json(capsys, argv)
        assert code == 0, captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "Warning" not in captured.err
        for _, draws, reps in calls:
            missed = np.array([counts[lone] == 0 for counts in draws])
            assert 0 < missed.sum() < missed.size
            np.testing.assert_array_equal(np.isnan(reps), missed)

    @pytest.mark.parametrize("method", ["ipw", "gformula"])
    def test_stdout_is_the_same_at_any_cpu_count(self, tmp_path, capsys, monkeypatch, method):
        out = simulate(tmp_path, design=DIAGNOSE_DESIGNS[1], n=2_000)
        argv = ["diagnose", str(out), "--method", method, "--bootstrap-b", "9", "--seed", "5"]
        stdouts = []
        for cpus in (1, 3):
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
            code, captured = run_json(capsys, argv)
            assert code == 0, captured.err
            assert not multiprocessing.active_children()
            stdouts.append(captured.out)
        assert stdouts[0] == stdouts[1]

    def test_usable_cpus_falls_back_to_the_cpu_count_without_affinity(self, monkeypatch):
        assert cli._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert cli._usable_cpus() == 5

    def test_missing_external_stratum_exits_4(self, tmp_path, capsys):
        out = simulate(tmp_path)
        csv_path = out.with_suffix(".csv")
        lines = [ln for ln in csv_path.read_text().splitlines() if not ln.startswith("external")]
        csv_path.write_text("\n".join(lines) + "\n")
        code = main(["diagnose", str(out), "--bootstrap-b", "120"])
        assert code == 4
        assert "non-randomized" in capsys.readouterr().err
        assert not multiprocessing.active_children()


class TestExperiment:
    def experiment_doc(self, n=800, replications=10, **overrides):
        doc = {
            "dgp": dgp1_doc(),
            "design": {"variant": "census_nested"},
            "n": n,
            "replications": replications,
            "master_seed": 77,
            "oracle_m": 200_000,
        }
        doc.update(overrides)
        return doc

    def test_smoke_run_writes_summary(self, tmp_path, capsys):
        import time

        cfg = write_config(tmp_path, self.experiment_doc())
        out = tmp_path / "summary.csv"
        started = time.perf_counter()
        assert main(["experiment", str(cfg), str(out)]) == 0
        assert time.perf_counter() - started < 10.0  # R=10 smoke budget
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "estimand,arm,method,design,c,n,R,truth,mean,bias,sd,rmse,"
            "not_identifiable_frac,boot_se_mean"
        )
        assert len(lines) == 11  # header + 10 default estimators
        resolved = json.loads((tmp_path / "summary.csv.config.json").read_text())
        assert resolved["master_seed"] == 77

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, self.experiment_doc(replications=6))
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(["experiment", str(cfg), str(out1), "--workers", "1"]) == 0
        assert main(["experiment", str(cfg), str(out2), "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_misspecified_covariate_design_without_auxiliary_left_exits_2(self, tmp_path, capsys):
        design = {"variant": "subsampled_nested_covariate",
                  "c_table": {"type": "step", "coord": 0, "cutoff": 0.0, "low": 0.2, "high": 0.8}}
        doc = self.experiment_doc(design=design, misspecify={"participation": True})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "summary.csv"
        capsys.readouterr()
        assert main(["experiment", str(cfg), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "auxiliary covariate" in err
        assert not out.exists()

    def test_step_rule_on_a_dropped_covariate_exits_2(self, tmp_path, capsys):
        # p = 2, both auxiliary; the misspecified fit keeps only x1, the rule reads x2
        dgp = dgp1_doc(
            covariates=[{"dist": "normal", "mean": 0.0, "sd": 1.0}] * 2,
            participation_logit=[-1.0, 0.5, 0.3],
            outcome_mean_a0=[1.0, 1.0, 0.5],
            outcome_mean_a1=[2.0, 1.3, 0.5],
            aux_split=2,
        )
        design = {"variant": "subsampled_nested_covariate",
                  "c_table": {"type": "step", "coord": 1, "cutoff": 0.0, "low": 0.2, "high": 0.8}}
        doc = self.experiment_doc(dgp=dgp, design=design, misspecify={"participation": True})
        out = tmp_path / "summary.csv"
        capsys.readouterr()
        assert main(["experiment", str(write_config(tmp_path, doc)), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "step rule coordinate 1" in err
        assert not out.exists()

    def test_resolved_non_nested_config_needs_u_hidden_back(self, tmp_path, capsys, monkeypatch):
        doc = self.experiment_doc(replications=3, design={"variant": "non_nested", "u_hidden": 0.3})
        first = tmp_path / "first.csv"
        assert main(["experiment", str(write_config(tmp_path, doc)), str(first)]) == 0
        resolved = json.loads((tmp_path / "first.csv.config.json").read_text())
        assert resolved["design"] == {"variant": "non_nested"}  # sidecars never carry u

        def no_run(*args, **kwargs):
            raise AssertionError("a refused config must not reach a truth or a simulation")

        monkeypatch.setattr(experiment, "exact_truth", no_run)
        monkeypatch.setattr(experiment, "simulate_actual_population", no_run)
        rerun = tmp_path / "rerun.csv"
        code, captured = run_json(
            capsys, ["experiment", str(tmp_path / "first.csv.config.json"), str(rerun)]
        )
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "u_hidden" in captured.err
        assert not rerun.exists()

        monkeypatch.undo()
        resolved["design"]["u_hidden"] = 0.3
        cfg = write_config(tmp_path, resolved, "restored.json")
        assert main(["experiment", str(cfg), str(rerun)]) == 0
        assert rerun.read_bytes() == first.read_bytes()

    def test_outcome_mean_flat_in_x_runs(self, tmp_path):
        # the oracle's self-check used to fail on summation rounding alone here
        doc = self.experiment_doc(replications=2, dgp=dgp1_doc(noise_sd=0, outcome_mean_a0=[0.1, 0.0]))
        assert main(["experiment", str(write_config(tmp_path, doc)), str(tmp_path / "out.csv")]) == 0

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, self.experiment_doc(replications=6))
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["experiment", str(cfg), str(out1), "--seed", "123"]) == 0
        assert main(["experiment", str(cfg), str(out2), "--seed", "124"]) == 0
        assert out1.read_bytes() != out2.read_bytes()
        resolved = json.loads((tmp_path / "s1.csv.config.json").read_text())
        assert resolved["master_seed"] == 123


class TestSweep:
    def test_one_block_of_rows_per_cell(self, tmp_path):
        doc = {
            "dgp": dgp1_doc(),
            "n": 800,
            "replications": 5,
            "master_seed": 9,
            "oracle_m": 200_000,
            "estimators": [{"method": "gformula", "population": "target", "arm": 1}],
            "grid": [
                {"variant": "subsampled_nested", "c": 0.25},
                {"variant": "subsampled_nested", "c": 0.5},
                {"variant": "census_nested"},
            ],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(cfg), str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # header + one estimator row per cell
        assert ",0.25," in lines[1] and ",0.5," in lines[2]

    def test_one_cell_sweep_writes_the_experiment_summary(self, tmp_path):
        doc = TestExperiment().experiment_doc(replications=4)
        experiment_out, sweep_out = tmp_path / "experiment.csv", tmp_path / "sweep.csv"
        assert main(["experiment", str(write_config(tmp_path, doc)), str(experiment_out)]) == 0
        doc["grid"] = [doc.pop("design")]
        assert main(["sweep", str(write_config(tmp_path, doc)), str(sweep_out)]) == 0
        assert sweep_out.read_bytes() == experiment_out.read_bytes()

    def test_a_non_nested_cell_without_u_hidden_exits_2(self, tmp_path, capsys):
        doc = TestExperiment().experiment_doc(replications=2)
        doc["grid"] = [doc.pop("design"), {"variant": "non_nested"}]
        out = tmp_path / "sweep.csv"
        code, captured = run_json(capsys, ["sweep", str(write_config(tmp_path, doc)), str(out)])
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and "u_hidden" in captured.err
        assert not out.exists()

    def test_missing_grid_exits_2(self, tmp_path, capsys):
        doc = {"dgp": dgp1_doc(), "n": 100, "replications": 2, "master_seed": 1}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", str(cfg), str(tmp_path / "x.csv")]) == 2
        assert "grid" in capsys.readouterr().err


# JSON that parses only past the recursion limit or the int-string digit limit
_TOO_DEEP = "[" * 100_000 + "]" * 100_000
_TOO_LONG_INTEGER = "1" * 5_000


def _edited_config(tmp_path, doc, edit):
    """Write ``doc`` after ``edit``; an edit that returns text replaces the whole file."""
    text = edit(doc)
    path = write_config(tmp_path, doc)
    if text is not None:
        path.write_text(text)
    return path


def _delete(path):
    path.unlink()


def _write(text):
    return lambda path: path.write_text(text)


def _edit_json(edit):
    def mutate(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    return mutate


class TestMalformedInput:
    """Malformed files and configs exit 2 with an error line, never a traceback."""

    @pytest.mark.parametrize("command", ["estimate", "diagnose"])
    @pytest.mark.parametrize(
        "suffix, mutate",
        [
            (".json", _delete),
            (".json", _write("{not json")),
            (".json", _write("[1, 2]")),
            (".json", _edit_json(lambda d: d.update(k="one"))),
            (".json", _edit_json(lambda d: d.update(n_unsampled_nonrandomized=None))),
            (".json", _edit_json(lambda d: d["design"].update(c="x"))),
            (".json", _edit_json(lambda d: d.update(design="census_nested"))),
            (".json", _write('{"k": ' + _TOO_DEEP + "}")),
            (".json", _write('{"k": ' + _TOO_LONG_INTEGER + "}")),
            (".csv", _delete),
            (".csv", lambda path: path.write_bytes(b"\xff\xfe\x00role")),
        ],
        ids=[
            "missing_sidecar", "sidecar_not_json", "sidecar_not_object", "k_not_integer",
            "unsampled_count_null", "c_not_number", "design_not_object",
            "sidecar_nested_too_deep", "sidecar_integer_too_long",
            "missing_csv", "csv_not_text",
        ],
    )
    def test_bad_dataset_exits_2(self, tmp_path, capsys, command, suffix, mutate):
        out = simulate(tmp_path, design={"variant": "subsampled_nested", "c": 0.5}, n=2_000)
        mutate(out.with_suffix(suffix))
        args = ["estimate", str(out), "--estimand", "target"]
        if command == "diagnose":
            args = ["diagnose", str(out), "--bootstrap-b", "2"]
        code, captured = run_json(capsys, args)
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "method, q",
        [
            ("ipw", "0"), ("ipw", "1.5"), ("ipw", "-1"), ("ipw", "nan"), ("ipw_ht", "inf"),
            ("gformula", "0.9"), ("trial_only", "0.9"),
        ],
        ids=[
            "zero", "above_one", "negative", "nan", "inf",
            "gformula_ignores_it", "trial_only_ignores_it",
        ],
    )
    def test_bad_truncation_quantile_exits_2(self, tmp_path, capsys, method, q):
        out = simulate(tmp_path, n=2_000)
        estimand = "randomized" if method == "trial_only" else "target"
        code, captured = run_json(capsys, [
            "estimate", str(out), "--estimand", estimand, "--method", method, "--truncate-q", q,
        ])
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert "--truncate-q" in captured.err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(n="abc"),
            lambda d: d.update(n=2.5),
            lambda d: d.update(n=True),
            lambda d: d.update(design={"variant": "subsampled_nested", "c": "x"}),
            lambda d: d.update(design=["census_nested"]),
            lambda d: d["dgp"].update(covariates=[5]),
            lambda d: d["dgp"].update(covariates=["normal"]),
            lambda d: d["dgp"]["covariates"][0].update(sd="1"),
            lambda d: d["dgp"]["covariates"][0].update(dist=["normal"]),
            lambda d: d["dgp"].update(participation_logit=[-1.0, "0.5"]),
            lambda d: d["dgp"].update(participation_logit=0.5),
            lambda d: d["dgp"].update(seed=None),
            lambda d: d.update(sampling_seed="7"),
            lambda d: '{"n": ' + _TOO_DEEP + "}",
            lambda d: '{"n": ' + _TOO_LONG_INTEGER + "}",
            lambda d: d.update(n=10**300),
            lambda d: d.update(n=2**62),
            # Python's json reads the NaN token; the rule would give every row `low`
            lambda d: d.update(design={"variant": "subsampled_nested_covariate", "c_table": {
                "type": "step", "coord": 0, "cutoff": math.nan, "low": 0.2, "high": 0.8}}),
        ],
        ids=[
            "n_string", "n_fraction", "n_bool", "c_not_number", "design_not_object",
            "covariate_number", "covariate_string", "sd_string", "dist_list", "logit_entry_string",
            "logit_not_list", "seed_null", "sampling_seed_string",
            "nested_too_deep", "integer_too_long", "n_beyond_any_array", "n_too_big_to_allocate",
            "step_cutoff_nan",
        ],
    )
    def test_bad_simulate_config_exits_2(self, tmp_path, capsys, edit):
        doc = {"dgp": dgp1_doc(), "design": {"variant": "census_nested"}, "n": 500}
        out = tmp_path / "data"
        cfg = _edited_config(tmp_path, doc, edit)
        code, captured = run_json(capsys, ["simulate", str(cfg), str(out)])
        assert code == 2
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(replications="ten"),
            lambda d: d.update(estimators={"method": "gformula"}),
            lambda d: d.update(estimators=[]),
            lambda d: d.update(estimators=["gformula"]),
            lambda d: d.update(estimators=[{"method": "gformula", "population": "target",
                                            "arm": [1]}]),
            lambda d: d.update(misspecify={"participation": "false"}),
            lambda d: d.update(misspecify=[]),
            lambda d: d.update(oracle_seed="1"),
            lambda d: d["dgp"].update(covariates=[None]),
            lambda d: d.update(bootstrap_b=50),
            lambda d: '{"replications": ' + _TOO_DEEP + "}",
            lambda d: '{"replications": ' + _TOO_LONG_INTEGER + "}",
            lambda d: d.update(n=10**300),
            lambda d: d.update(bootstrap_b=10**21),
            # DGP-1's truths are exact, so no oracle runs to reject it
            lambda d: d.update(oracle_m=50_000),
        ],
        ids=[
            "replications_string", "estimators_not_list", "estimators_empty", "estimator_not_object",
            "arm_list", "flag_string", "misspecify_not_object", "oracle_seed_string",
            "covariate_null", "bootstrap_b_below_minimum", "nested_too_deep", "integer_too_long",
            "n_beyond_any_array", "bootstrap_b_beyond_any_array", "oracle_m_below_minimum",
        ],
    )
    def test_bad_experiment_config_exits_2(self, tmp_path, capsys, edit):
        doc = TestExperiment().experiment_doc()
        out = tmp_path / "summary.csv"
        cfg = _edited_config(tmp_path, doc, edit)
        code, captured = run_json(capsys, ["experiment", str(cfg), str(out)])
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment", "sweep"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, command, workers):
        doc = TestExperiment().experiment_doc(replications=2)
        doc["grid"] = [doc["design"]]
        out = tmp_path / "summary.csv"
        cfg = write_config(tmp_path, doc)
        code, captured = run_json(capsys, [command, str(cfg), str(out), "--workers", workers])
        assert code == 2
        assert captured.err.startswith("error: ") and "--workers" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, out",
        [
            ("simulate", "nodir/sub/data"),
            ("estimate", "."),
            ("experiment", "nodir/summary.csv"),
            ("experiment", "."),
            ("sweep", "nodir/summary.csv"),
            ("sweep", "."),
        ],
        ids=[
            "simulate", "estimate", "experiment_missing_dir", "experiment_to_dir",
            "sweep_missing_dir", "sweep_to_dir",
        ],
    )
    def test_unwritable_output_path_exits_2(self, tmp_path, capsys, monkeypatch, command, out):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the run started before the output path was checked")

        out = str(tmp_path / out)
        if command == "simulate":
            monkeypatch.setattr(cli, "simulate_actual_population", must_not_run)
            cfg = write_config(tmp_path, {"dgp": dgp1_doc(), "design": {"variant": "census_nested"},
                                          "n": 500})
            args = ["simulate", str(cfg), out]
        elif command == "estimate":
            data = simulate(tmp_path, n=2_000)
            args = ["estimate", str(data), "--estimand", "target", "--out", out]
        else:
            # the truths are the first stage of every experiment and sweep run
            monkeypatch.setattr(experiment, "_cell_truths", must_not_run)
            doc = TestExperiment().experiment_doc(replications=2)
            doc["grid"] = [doc["design"]]
            args = [command, str(write_config(tmp_path, doc)), out]
        code, captured = run_json(capsys, args)
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_os_error_without_a_file_is_not_reported_as_a_config_error(
        self, tmp_path, monkeypatch
    ):
        def fork_failed(*args, **kwargs):
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "design_comparison", fork_failed)
        cfg = write_config(tmp_path, TestExperiment().experiment_doc(replications=2))
        with pytest.raises(BlockingIOError):
            main(["experiment", str(cfg), str(tmp_path / "summary.csv")])

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setattr(cli, "simulate_actual_population", no_memory)
        cfg = write_config(tmp_path, {"dgp": dgp1_doc(), "design": {"variant": "census_nested"},
                                      "n": 500})
        code, captured = run_json(capsys, ["simulate", str(cfg), str(tmp_path / "data")])
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


# any `import scipy...` in this interpreter raises ImportError; the pool's
# processes are forks of it, so they inherit the block
_NUMPY_ONLY_RUN = """
import sys
sys.modules["scipy"] = None
import trialport
from trialport.cli import main
cfg, data = sys.argv[1:]
codes = [
    main(["simulate", cfg, data]),
    main(["estimate", data, "--estimand", "target", "--method", "gformula"]),
    main(["estimate", data, "--estimand", "target", "--method", "ipw_hajek"]),
    main(["diagnose", data, "--bootstrap-b", "4", "--seed", "3"]),
]
print("codes", codes, "scipy", sorted(k for k in sys.modules if k.startswith("scipy") and k != "scipy"))
"""


class TestNumpyOnlyRuntime:
    def test_commands_run_without_scipy(self, tmp_path):
        doc = {"dgp": dgp1_doc(), "design": {"variant": "subsampled_nested", "c": 0.5}, "n": 2_000}
        cfg = write_config(tmp_path, doc)
        env = {**os.environ, "PYTHONPATH": str(Path(tp.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_ONLY_RUN, str(cfg), str(tmp_path / "data")],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "codes [0, 0, 0, 0] scipy []", proc.stderr

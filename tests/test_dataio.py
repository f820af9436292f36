import json

import numpy as np
import pytest

import trialport as tp
from trialport import dataio

from conftest import make_tiny_dataset
from support import oracles


class TestDatasetRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path, dgp1):
        pop = tp.simulate_actual_population(dgp1, 500)
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.4), seed=91)
        csv_path, sidecar = tmp_path / "d.csv", tmp_path / "d.json"
        dataio.write_dataset(data, csv_path, sidecar)
        back = dataio.read_dataset(csv_path, sidecar)
        assert np.array_equal(back.x, data.x)
        assert np.array_equal(back.s, data.s)
        assert np.array_equal(back.a, data.a, equal_nan=True)
        assert np.array_equal(back.y, data.y, equal_nan=True)
        assert back.design == data.design
        assert back.k == data.k
        assert back.treatment_prob == data.treatment_prob
        assert back.n_unsampled_nonrandomized == data.n_unsampled_nonrandomized

    def test_header_and_row_layout(self):
        data = make_tiny_dataset(n_trial=2, n_external=1, p=2)
        text = dataio.dataset_to_csv_text(data)
        lines = text.splitlines()
        assert lines[0] == "role,a,y,x1,x2"
        trial_cells = lines[1].split(",")
        assert trial_cells[0] == "trial"
        assert trial_cells[1] in ("0", "1")
        ext_cells = lines[3].split(",")
        assert ext_cells[:3] == ["external", "", ""]

    def test_sidecar_hides_unknowns(self, tmp_path):
        data = make_tiny_dataset(design=tp.NonNested(u_hidden=0.3))
        doc = dataio.dataset_sidecar_dict(data)
        assert "n_unsampled_nonrandomized" not in doc
        assert "u_hidden" not in json.dumps(doc)

    def test_sidecar_records_nested_tally(self):
        data = make_tiny_dataset(design=tp.SubsampledNested(c=0.4), n_unsampled=7)
        doc = dataio.dataset_sidecar_dict(data)
        assert doc["n_unsampled_nonrandomized"] == 7
        assert doc["design"] == {"variant": "subsampled_nested", "c": 0.4}

    def test_rejects_external_rows_with_outcomes(self, tmp_path):
        csv_path, sidecar = tmp_path / "d.csv", tmp_path / "d.json"
        csv_path.write_text("role,a,y,x1\ntrial,0,1.0,0.1\ntrial,1,1.0,0.2\nexternal,1,,0.3\n")
        sidecar.write_text(json.dumps({"design": {"variant": "census_nested"}, "k": 1,
                                       "treatment_prob": 0.5, "n_unsampled_nonrandomized": 0}))
        with pytest.raises(tp.DataError) as err:
            dataio.read_dataset(csv_path, sidecar)
        assert "line 4" in str(err.value)


class TestDesignSerialization:
    def test_step_rule_round_trip(self):
        design = tp.SubsampledNestedCovariate(
            c_rule=tp.StepRule(coord=1, cutoff=0.5, low=0.2, high=0.8)
        )
        back = dataio.design_from_dict(dataio.design_to_dict(design))
        assert back == design

    def test_sampling_rule_must_be_a_step_rule(self):
        with pytest.raises(tp.DataError):
            tp.SubsampledNestedCovariate(c_rule=lambda aux: np.full(aux.shape[0], 0.5))

    def test_non_nested_round_trip_never_leaks_u(self):
        doc = dataio.design_to_dict(tp.NonNested(u_hidden=0.25))
        assert doc == {"variant": "non_nested"}
        assert dataio.design_from_dict(doc).u_hidden is None

    def test_config_side_may_carry_u_for_simulation(self):
        design = dataio.design_from_dict({"variant": "non_nested", "u_hidden": 0.25})
        assert design.u_hidden == 0.25


class TestDgpSerialization:
    def test_round_trip(self, dgp1):
        back = dataio.dgp_from_dict(dataio.dgp_to_dict(dgp1))
        assert back == dgp1

    def test_exact_key_names(self, dgp1):
        doc = dataio.dgp_to_dict(dgp1)
        assert set(doc) == {
            "covariates", "participation_logit", "treatment_prob",
            "outcome_mean_a0", "outcome_mean_a1", "noise_sd", "seed", "aux_split",
        }

    def test_missing_key_is_named(self, dgp1):
        doc = dataio.dgp_to_dict(dgp1)
        del doc["noise_sd"]
        with pytest.raises(tp.ConfigError) as err:
            dataio.dgp_from_dict(doc)
        assert "noise_sd" in str(err.value)

    def test_all_distribution_kinds(self):
        dgp = tp.DgpSpec(
            covariates=(tp.Normal(0.0, 1.0), tp.Bernoulli(0.3), tp.Uniform(-1.0, 2.0)),
            participation_logit=(-1.0, 0.5, 0.2, -0.1),
            treatment_prob=0.4,
            outcome_mean_a0=(1.0, 1.0, 0.0, 0.5),
            outcome_mean_a1=(2.0, 1.3, -0.2, 0.0),
            noise_sd=0.5,
            seed=7,
            aux_split=2,
        )
        assert dataio.dgp_from_dict(dataio.dgp_to_dict(dgp)) == dgp


class TestExperimentConfig:
    def base_doc(self, dgp1):
        return {
            "dgp": dataio.dgp_to_dict(dgp1),
            "design": {"variant": "census_nested"},
            "n": 100,
            "replications": 5,
            "master_seed": 4,
        }

    def test_round_trip(self, dgp1):
        doc = self.base_doc(dgp1)
        cfg = dataio.experiment_config_from_dict(doc)
        assert dataio.experiment_config_from_dict(dataio.experiment_config_to_dict(cfg)) == cfg

    def test_explicit_estimators(self, dgp1):
        doc = self.base_doc(dgp1)
        doc["estimators"] = [{"method": "gformula", "population": "target", "arm": 1}]
        cfg = dataio.experiment_config_from_dict(doc)
        assert len(cfg.estimators) == 1

    def test_invalid_estimator_combination_is_config_error(self, dgp1):
        doc = self.base_doc(dgp1)
        doc["estimators"] = [{"method": "trial_only", "population": "target", "arm": 1}]
        with pytest.raises(tp.ConfigError):
            dataio.experiment_config_from_dict(doc)

    @pytest.mark.parametrize("key", ["n", "replications", "oracle_m", "bootstrap_b"])
    def test_counts_are_bounded(self, dgp1, key):
        doc = self.base_doc(dgp1)
        doc[key] = dataio.MAX_COUNT
        assert getattr(dataio.experiment_config_from_dict(doc), key) == dataio.MAX_COUNT
        doc[key] = dataio.MAX_COUNT + 1
        with pytest.raises(tp.ConfigError, match=key):
            dataio.experiment_config_from_dict(doc)

    def test_missing_required_key_is_named(self, dgp1):
        doc = self.base_doc(dgp1)
        del doc["replications"]
        with pytest.raises(tp.ConfigError) as err:
            dataio.experiment_config_from_dict(doc)
        assert "replications" in str(err.value)

import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


CENSUS_SIDECAR = {"design": {"variant": "census_nested"}, "k": 1, "treatment_prob": 0.5,
                  "n_unsampled_nonrandomized": 0}
HEADER = "role,a,y,x1\n"
TRIAL_0 = "trial,0,1.5,0.1\n"
TRIAL_1 = "trial,1,2.5,0.2\n"
EXTERNAL = "external,,,0.3\n"
VALID = HEADER + TRIAL_0 + TRIAL_1 + EXTERNAL


def read_text(tmp_path, text, sidecar=CENSUS_SIDECAR):
    csv_path, sidecar_path = tmp_path / "d.csv", tmp_path / "d.json"
    csv_path.write_bytes(text.encode())
    sidecar_path.write_text(json.dumps(sidecar))
    return dataio.read_dataset(csv_path, sidecar_path)


def _bad_cell(column, cell):
    cells = ["trial", "0", "1.5", "0.1"]
    cells[column] = cell
    return HEADER + TRIAL_0 + ",".join(cells) + "\n" + TRIAL_1 + EXTERNAL


_WHAT = {1: "treatment", 2: "outcome", 3: "covariate"}


class TestReaderErrorContract:
    """Each malformed file names its first bad line the way it always has."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (HEADER + TRIAL_0 + "trial,1,2.5\n" + EXTERNAL, "line 3: expected 4 cells, got 3"),
            (VALID + "external,,,0.3,0.4\n", "line 5: expected 4 cells, got 5"),
            (HEADER + "trial,0,1.5,0.1,9\ntrial,1,2.5,0.2,9\n", "line 2: expected 4 cells, got 5"),
            (HEADER + TRIAL_0 + "\n" + TRIAL_1 + EXTERNAL, "line 3: expected 4 cells, got 0"),
            (HEADER + TRIAL_0 + "  \n" + TRIAL_1 + EXTERNAL, "line 3: expected 4 cells, got 1"),
            (VALID + "\n", "line 5: expected 4 cells, got 0"),
            (HEADER + TRIAL_0 + "bogus,1,2.5,0.2\n" + EXTERNAL, "line 3: unknown role 'bogus'"),
            (HEADER + TRIAL_0 + " trial,1,2.5,0.2\n", "line 3: unknown role ' trial'"),
            (HEADER + TRIAL_0 + TRIAL_1 + "external,1,,0.3\n",
             "line 4: external rows must not carry a/y"),
            (HEADER + TRIAL_0 + TRIAL_1 + "external,,2.0,0.3\n",
             "line 4: external rows must not carry a/y"),
            (HEADER + TRIAL_0 + TRIAL_1 + "external,nan,,0.3\n",
             "line 4: external rows must not carry a/y"),
            (HEADER + "trial,x,1.5,0.1\n" + "bogus,1,2.5,0.2\n",
             "line 2: cannot parse treatment value 'x'"),
            (HEADER + "trial,0,1.5,0.1,\n" + "trial,x,1.5,0.1\n",
             "line 2: expected 4 cells, got 5"),
            ("", "empty dataset file"),
            ("role,y,a,x1\n" + TRIAL_0, "header must start with role,a,y"),
            ("\n" + TRIAL_0, "header must start with role,a,y"),
            (HEADER, "dataset must contain at least one trial participant"),
            (HEADER + "\n", "line 2: expected 4 cells, got 0"),
            (HEADER + TRIAL_0 + "trial,nan,2.5,0.2\n" + EXTERNAL,
             "trial rows must carry finite treatment and outcome"),
        ],
        ids=[
            "too_few_cells", "too_many_cells", "every_row_too_wide", "blank_line",
            "whitespace_line", "trailing_blank_line", "unknown_role", "padded_role",
            "external_a", "external_y", "external_nan_a", "first_error_wins",
            "cell_count_checked_first", "empty_file", "bad_header", "blank_header",
            "header_only", "header_and_blank_line", "trial_nan_treatment",
        ],
    )
    def test_malformed_file_message(self, tmp_path, text, message):
        with pytest.raises(tp.DataError) as err:
            read_text(tmp_path, text)
        assert message in str(err.value)

    @pytest.mark.parametrize("column", [1, 2, 3])
    @pytest.mark.parametrize("cell", ["", "abc", "#"])
    def test_unparsable_cell_names_column_and_line(self, tmp_path, column, cell):
        with pytest.raises(tp.DataError) as err:
            read_text(tmp_path, _bad_cell(column, cell))
        assert str(err.value) == f"line 3: cannot parse {_WHAT[column]} value {cell!r}"

    def _assert_same_arrays(self, got, want):
        for name in ("x", "s", "a", "y"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True)

    @pytest.mark.parametrize(
        "text",
        [
            '"role","a","y","x1"\n"trial","0","1.5","0.1"\n'
            '"trial",1,"2.5",0.2\n"external","","",0.3\n',
            VALID.replace("\n", "\r\n"),
            VALID[:-1],
            HEADER + "trial, 0 ,1.5 ,\t0.1\n" + TRIAL_1 + EXTERNAL,
            HEADER + "trial,0,1.5,0_0.1\n" + TRIAL_1 + EXTERNAL.replace("0.3", "0.3e0"),
        ],
        ids=["quoted", "crlf", "no_final_newline", "padded_numbers", "underscore_digits"],
    )
    def test_accepted_spellings_read_the_same_values(self, tmp_path, text):
        want = read_text(tmp_path, VALID)
        self._assert_same_arrays(read_text(tmp_path, text), want)

    def test_no_covariates(self, tmp_path):
        data = read_text(tmp_path, "role,a,y\ntrial,0,1.5\ntrial,1,2.5\nexternal,,\n",
                         {**CENSUS_SIDECAR, "k": 0})
        assert data.x.shape == (3, 0)
        assert np.array_equal(data.y, [1.5, 2.5, np.nan], equal_nan=True)

    @pytest.mark.parametrize("text", [VALID, HEADER, HEADER + TRIAL_0 + "\n", _bad_cell(3, "#")])
    def test_no_warning_reaches_stderr(self, tmp_path, capfd, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                read_text(tmp_path, text)
            except tp.DataError:
                pass
        assert capfd.readouterr().err == ""


class TestLineEnds:
    """Only a newline ends a line; a CRLF or a lone CR becomes one as the file is read.

    Any other line break stays in its cell, where it is whitespace around a number.
    """

    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_other_line_breaks_stay_in_the_cell(self, tmp_path, char):
        data = read_text(tmp_path, HEADER + "trial,0,1.5,0.1" + char + "\n" + TRIAL_1 + EXTERNAL)
        assert data.x[:, 0].tolist() == [0.1, 0.2, 0.3]

    def test_line_numbers_count_newlines_only(self, tmp_path):
        text = HEADER + "trial,0,1.5,0.1\x0c\n" + TRIAL_1 + "bogus,,,0.3\n"
        with pytest.raises(tp.DataError) as err:
            read_text(tmp_path, text)
        assert str(err.value) == "line 4: unknown role 'bogus'"

    def test_carriage_return_ends_a_line(self, tmp_path):
        data = read_text(tmp_path, VALID.replace("\n", "\r"))
        assert data.x[:, 0].tolist() == [0.1, 0.2, 0.3]


def reference_csv_text(data):
    """The per-row writer that the column-wise ``dataset_to_csv_text`` replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["role", "a", "y"] + [f"x{j + 1}" for j in range(data.p)])
    for i in range(data.n_rows):
        xs = [repr(float(v)) for v in data.x[i]]
        if data.s[i] == 1:
            writer.writerow(["trial", str(int(data.a[i])), repr(float(data.y[i]))] + xs)
        else:
            writer.writerow(["external", "", ""] + xs)
    return buf.getvalue()


EDGE_FLOATS = (-0.0, 5e-324, 1e308, 1.0, 1e16, 0.1)
cell_values = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


@st.composite
def datasets(draw):
    """Census datasets with p in {0, 1, 3}, both arms, and edge-case floats in every column."""
    p = draw(st.sampled_from([0, 1, 3]))
    rows = draw(st.lists(st.sampled_from([-1, 0, 1]), max_size=12)) + [0, 1]  # -1: external
    arms = np.array(draw(st.permutations(rows)), dtype=float)
    n = arms.size
    trial = arms >= 0
    y = np.full(n, np.nan)
    y[trial] = draw(st.lists(cell_values, min_size=int(trial.sum()), max_size=int(trial.sum())))
    x = draw(st.lists(cell_values, min_size=n * p, max_size=n * p))
    return tp.ObservedDataset(
        x=np.array(x, dtype=float).reshape(n, p),
        s=trial.astype(int),
        a=np.where(trial, arms, np.nan),
        y=y,
        design=tp.CensusNested(),
        k=0,
        n_unsampled_nonrandomized=0,
    )


def _bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=datasets())
    def test_write_then_read_is_bit_identical(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("rt")
        dataio.write_dataset(data, path / "d.csv", path / "d.json")
        back = dataio.read_dataset(path / "d.csv", path / "d.json")
        for name in ("x", "s", "a", "y"):
            assert _bits(getattr(back, name)) == _bits(getattr(data, name))

    @settings(max_examples=60, deadline=None)
    @given(data=datasets())
    def test_read_then_write_is_byte_identical(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("rt")
        dataio.write_dataset(data, path / "d.csv", path / "d.json")
        text = (path / "d.csv").read_text()
        back = dataio.read_dataset(path / "d.csv", path / "d.json")
        assert dataio.dataset_to_csv_text(back) == text

    @settings(max_examples=100, deadline=None)
    @given(data=datasets())
    def test_writer_matches_the_per_row_reference(self, data):
        assert dataio.dataset_to_csv_text(data) == reference_csv_text(data)

    def test_writer_matches_the_reference_across_blocks(self, dgp1):
        pop = tp.simulate_actual_population(dgp1, 20_000)
        data = tp.apply_design(pop, tp.SubsampledNested(c=0.4), seed=3)
        assert data.n_rows > 2 * dataio._WRITE_BLOCK and data.n_rows % dataio._WRITE_BLOCK
        assert dataio.dataset_to_csv_text(data) == reference_csv_text(data)


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

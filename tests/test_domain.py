import numpy as np
import pytest
from hypothesis import given, strategies as st

import trialport as tp
from trialport.domain import design_name, known_sampling_fractions, redacted

from conftest import make_tiny_dataset

ALL = frozenset(tp.Estimand)
S0_ONLY = frozenset({tp.Estimand.MEAN_NONRANDOMIZED})


class TestIdentificationMatrix:
    def test_census_identifies_everything(self):
        assert tp.identification_matrix(tp.CensusNested()) == ALL

    def test_non_nested_identifies_only_nonrandomized_mean(self):
        got = tp.identification_matrix(tp.NonNested())
        assert got == S0_ONLY
        assert tp.Estimand.MEAN_TARGET not in got

    def test_subsampled_c1_matches_census(self):
        assert tp.identification_matrix(tp.SubsampledNested(c=1.0)) == tp.identification_matrix(
            tp.CensusNested()
        )

    def test_covariate_design_matches_nested(self):
        design = tp.SubsampledNestedCovariate(c_rule=tp.StepRule(low=0.2, high=0.8))
        assert tp.identification_matrix(design) == ALL

    @given(c=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False))
    def test_pure_and_total_over_subsampling_fractions(self, c):
        design = tp.SubsampledNested(c=c)
        first = tp.identification_matrix(design)
        assert first == tp.identification_matrix(design) == ALL

    @given(u=st.one_of(st.none(), st.floats(min_value=1e-9, max_value=1.0, allow_nan=False)))
    def test_non_nested_never_includes_target(self, u):
        assert tp.Estimand.MEAN_TARGET not in tp.identification_matrix(tp.NonNested(u_hidden=u))


class TestDesigns:
    def test_subsampled_rejects_bad_fraction(self):
        for c in (0.0, -0.1, 1.5):
            with pytest.raises(tp.DataError):
                tp.SubsampledNested(c=c)

    def test_step_rule_values(self):
        rule = tp.StepRule(coord=0, cutoff=0.0, low=0.2, high=0.8)
        aux = np.array([[-1.0], [0.0], [2.0]])
        assert rule(aux).tolist() == [0.2, 0.2, 0.8]

    def test_step_rule_rejects_out_of_range(self):
        with pytest.raises(tp.DataError):
            tp.StepRule(low=0.0, high=0.5)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"cutoff": float("nan")}, "cutoff must not be NaN"),
            ({"coord": 0.5}, "coordinate must be an integer"),
            ({"coord": True}, "coordinate must be an integer"),
            ({"coord": "0"}, "coordinate must be an integer"),
        ],
        ids=["cutoff_nan", "coord_fraction", "coord_bool", "coord_string"],
    )
    def test_step_rule_rejects_malformed_fields(self, fields, message):
        with pytest.raises(tp.DataError, match=message):
            tp.StepRule(**fields)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: tp.SubsampledNested(c=True),
            lambda: tp.SubsampledNested(c=np.True_),
            lambda: tp.StepRule(low=True),
            lambda: tp.StepRule(high=True),
            lambda: tp.StepRule(cutoff=True),
            lambda: tp.StepRule(cutoff=False),
            lambda: tp.NonNested(u_hidden=True),
        ],
        ids=["c", "c_numpy", "low", "high", "cutoff", "cutoff_false", "u_hidden"],
    )
    def test_boolean_fields_are_refused(self, make):
        # True passes the range checks as 1, but would be written to JSON as true
        with pytest.raises(tp.DataError, match="must be a number, got"):
            make()

    def test_step_rule_accepts_numpy_integer_coord(self):
        rule = tp.StepRule(coord=np.int64(1), cutoff=0.0, low=0.2, high=0.8)
        assert rule(np.array([[5.0, -1.0], [-5.0, 1.0]])).tolist() == [0.2, 0.8]

    def test_known_fractions_unknown_for_non_nested(self):
        with pytest.raises(tp.NotIdentifiable):
            known_sampling_fractions(tp.NonNested(u_hidden=0.3), np.zeros((3, 1)))

    def test_redaction_strips_u(self):
        assert redacted(tp.NonNested(u_hidden=0.3)).u_hidden is None
        census = tp.CensusNested()
        assert redacted(census) is census

    def test_design_names(self):
        assert design_name(tp.CensusNested()) == "census_nested"
        assert design_name(tp.NonNested()) == "non_nested"


def _columns(**edits):
    """A valid five-row census dataset's columns (two trial rows per arm, one external).

    Each keyword sets ``column[row] = value`` from a ``(row, value)`` pair.
    """
    cols = {
        "x": np.zeros((5, 1)),
        "s": np.array([1, 1, 1, 1, 0]),
        "a": np.array([0.0, 0.0, 1.0, 1.0, np.nan]),
        "y": np.array([0.5, 0.5, 0.5, 0.5, np.nan]),
    }
    for name, (row, value) in edits.items():
        cols[name][row] = value
    return cols


class TestObservedDataset:
    def test_requires_trial_rows_in_both_arms(self):
        with pytest.raises(tp.DataError):
            tp.ObservedDataset(
                x=np.zeros((2, 1)),
                s=np.array([1, 1]),
                a=np.array([1.0, 1.0]),  # arm 0 missing
                y=np.array([0.5, 0.5]),
                design=tp.CensusNested(),
                n_unsampled_nonrandomized=0,
            )

    def test_rejects_outcomes_on_external_rows(self):
        with pytest.raises(tp.DataError):
            tp.ObservedDataset(
                x=np.zeros((3, 1)),
                s=np.array([1, 1, 0]),
                a=np.array([0.0, 1.0, 1.0]),
                y=np.array([0.5, 0.5, np.nan]),
                design=tp.CensusNested(),
                n_unsampled_nonrandomized=0,
            )

    def test_unsampled_count_presence_tracks_design(self):
        with pytest.raises(tp.DataError):
            tp.ObservedDataset(
                x=np.zeros((2, 1)),
                s=np.array([1, 1]),
                a=np.array([0.0, 1.0]),
                y=np.array([0.5, 0.5]),
                design=tp.NonNested(),
                n_unsampled_nonrandomized=3,
            )
        with pytest.raises(tp.DataError):
            tp.ObservedDataset(
                x=np.zeros((2, 1)),
                s=np.array([1, 1]),
                a=np.array([0.0, 1.0]),
                y=np.array([0.5, 0.5]),
                design=tp.CensusNested(),
                n_unsampled_nonrandomized=None,
            )

    @pytest.mark.parametrize(
        "s",
        [
            np.array([1.0, 1.0, 0.6]),
            np.array([1.0, 1.0, -0.5]),
            np.array([1, 1, 256]),
            [1, 1, 256],
            np.array([1.0, 1.0, np.nan]),
        ],
        ids=["fraction", "negative", "int64_256", "list_256", "nan"],
    )
    def test_rejects_s_outside_0_1_before_the_cast(self, s):
        # an int8 cast would turn each of these into 0, an external row
        with pytest.raises(tp.DataError, match="s must be 0/1"):
            tp.ObservedDataset(
                x=np.zeros((3, 1)),
                s=s,
                a=np.array([0.0, 1.0, np.nan]),
                y=np.array([0.5, 0.5, np.nan]),
                design=tp.CensusNested(),
                n_unsampled_nonrandomized=0,
            )

    @pytest.mark.parametrize(
        "cols, message",
        [
            ({**_columns(), "y": np.zeros(4)}, "x, s, a, y must have matching first dimension"),
            (_columns(x=((0, 0), np.inf)), "covariates must be finite"),
            (_columns(s=(4, 2)), "s must be 0/1"),
            (
                {"x": np.zeros((2, 1)), "s": np.zeros(2), "a": np.full(2, np.nan),
                 "y": np.full(2, np.nan)},
                "dataset must contain at least one trial participant",
            ),
            (_columns(a=(0, np.nan)), "trial rows must carry finite treatment and outcome"),
            (_columns(y=(3, np.inf)), "trial rows must carry finite treatment and outcome"),
            (_columns(a=(1, 2.0)), "treatment must be binary"),
            (
                _columns(a=(slice(0, 2), 1.0)),
                "dataset must contain at least one trial participant in arm 0",
            ),
            (
                _columns(a=(slice(2, 4), 0.0)),
                "dataset must contain at least one trial participant in arm 1",
            ),
            (_columns(a=(4, 1.0)), "non-randomized rows must not carry treatment or outcome"),
            (_columns(y=(4, 0.3)), "non-randomized rows must not carry treatment or outcome"),
            # two defects: an external row's treatment does not count towards arm 1,
            # and the missing arm reports before the external-row check
            (
                {**_columns(), "a": np.array([0.0, 0.0, 0.0, 0.0, 1.0])},
                "dataset must contain at least one trial participant in arm 1",
            ),
        ],
        ids=[
            "shape", "x_not_finite", "s_not_0_1", "no_trial_row", "trial_a_not_finite",
            "trial_y_not_finite", "a_not_binary", "no_arm_0", "no_arm_1", "external_a",
            "external_y", "no_arm_1_and_external_a",
        ],
    )
    def test_each_validation_check_reports_its_message(self, cols, message):
        with pytest.raises(tp.DataError) as err:
            tp.ObservedDataset(**cols, design=tp.CensusNested(), n_unsampled_nonrandomized=0)
        assert str(err.value) == message

    def test_accepts_boolean_s(self):
        data = tp.ObservedDataset(
            x=np.zeros((3, 1)),
            s=np.array([True, True, False]),
            a=np.array([0.0, 1.0, np.nan]),
            y=np.array([0.5, 0.5, np.nan]),
            design=tp.CensusNested(),
            n_unsampled_nonrandomized=0,
        )
        assert data.s.dtype == np.int8 and data.s.tolist() == [1, 1, 0]

    def test_constructor_redacts_hidden_u(self):
        data = make_tiny_dataset(design=tp.NonNested(u_hidden=0.4))
        assert data.design.u_hidden is None

    def test_prob_treatment(self, tiny_dataset):
        assert tiny_dataset.prob_treatment(1) == 0.5
        assert tiny_dataset.prob_treatment(0) == 0.5
        with pytest.raises(ValueError):
            tiny_dataset.prob_treatment(2)

    def test_arrays_are_read_only(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.x[0, 0] = 99.0

"""On-disk formats: dataset CSV + sidecar JSON, generator and experiment configs.

Dataset CSV columns are exactly ``role,a,y,x1,...,xp`` with role in
{trial, external}; treatment and outcome cells are empty on external rows.
The reader takes LF, CRLF or CR line ends (the file is read with universal
newlines; any other line-break character, such as a form feed, stays in its
cell), csv quoting with ``"``, no comment lines and no blank lines (a blank
line is a row of 0 cells). A cell is a number when ``float()`` reads it. A
well-formed file is parsed in one bulk pass; a malformed one is then walked
row by row to name its first bad line.

The sidecar JSON records the design variant, its known sampling fraction (or
rule), the auxiliary split k, the randomization probability, and — for nested
designs only — the count of unsampled non-randomized individuals. The hidden
``u`` of a simulated non-nested design is never written anywhere.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .dgp import Bernoulli, CovariateDist, DgpSpec, Normal, Uniform
from .domain import (
    CensusNested,
    Design,
    NonNested,
    ObservedDataset,
    StepRule,
    SubsampledNested,
    SubsampledNestedCovariate,
    is_nested,
)
from .errors import ConfigError, DataError
from .estimators import Method, StudyPopulation
from .experiment import EstimatorSpec, ExperimentConfig, MisspecifySpec


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _require(d: dict, key: str, where: str):
    if key not in _object(d, where):
        raise ConfigError(f"missing required key '{key}' in {where}")
    return d[key]


def _number(value, what: str) -> float:
    """A JSON number as float; anything else (strings, booleans, null) is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    """A JSON integer (an integral float such as 1e5 included) as int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


# bound on every count an input gives (population size, replications, oracle
# draws, bootstrap resamples): a larger run does not fit in memory or finish, and
# numpy turns the largest sizes into a ValueError instead of a MemoryError
MAX_COUNT = 10**9


def count(value, what: str) -> int:
    """A JSON integer no larger than ``MAX_COUNT``; each caller checks its lower bound."""
    value = _integer(value, what)
    if value > MAX_COUNT:
        raise ConfigError(f"{what} must be at most {MAX_COUNT}, got {value}")
    return value


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


def _numbers(value, what: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list of numbers, got {value!r}")
    return tuple(_number(v, f"{what}[{i}]") for i, v in enumerate(value))


# ---------------------------------------------------------------------------
# Designs


def design_to_dict(design: Design) -> dict:
    if isinstance(design, CensusNested):
        return {"variant": "census_nested"}
    if isinstance(design, SubsampledNested):
        return {"variant": "subsampled_nested", "c": design.c}
    if isinstance(design, SubsampledNestedCovariate):
        rule = design.c_rule
        return {
            "variant": "subsampled_nested_covariate",
            "c_table": {
                "type": "step",
                "coord": rule.coord,
                "cutoff": rule.cutoff,
                "low": rule.low,
                "high": rule.high,
            },
        }
    if isinstance(design, NonNested):
        return {"variant": "non_nested"}  # u_hidden intentionally not recorded
    raise ConfigError(f"unknown design {design!r}")


def design_from_dict(d: dict, where: str = "design") -> Design:
    variant = _require(d, "variant", where)
    if variant == "census_nested":
        return CensusNested()
    if variant == "subsampled_nested":
        return SubsampledNested(c=_number(_require(d, "c", where), f"{where}.c"))
    if variant == "subsampled_nested_covariate":
        table = _require(d, "c_table", where)
        where += ".c_table"
        if _object(table, where).get("type", "step") != "step":
            raise ConfigError(f"unsupported c_table type {table.get('type')!r} in {where}")
        return SubsampledNestedCovariate(
            c_rule=StepRule(
                coord=_integer(table.get("coord", 0), f"{where}.coord"),
                cutoff=_number(table.get("cutoff", 0.0), f"{where}.cutoff"),
                low=_number(_require(table, "low", where), f"{where}.low"),
                high=_number(_require(table, "high", where), f"{where}.high"),
            )
        )
    if variant == "non_nested":
        u = d.get("u_hidden")
        return NonNested(u_hidden=_number(u, f"{where}.u_hidden") if u is not None else None)
    raise ConfigError(f"unknown design variant '{variant}' in {where}")


# ---------------------------------------------------------------------------
# Generating processes

_DIST_KEYS = {"normal": ("mean", "sd"), "bernoulli": ("p",), "uniform": ("lo", "hi")}


def _dist_to_dict(dist: CovariateDist) -> dict:
    if isinstance(dist, Normal):
        return {"dist": "normal", "mean": dist.mean, "sd": dist.sd}
    if isinstance(dist, Bernoulli):
        return {"dist": "bernoulli", "p": dist.p}
    if isinstance(dist, Uniform):
        return {"dist": "uniform", "lo": dist.lo, "hi": dist.hi}
    raise ConfigError(f"unknown covariate distribution {dist!r}")


def _dist_from_dict(d: dict, where: str) -> CovariateDist:
    kind = _require(d, "dist", where)
    if not isinstance(kind, str) or kind not in _DIST_KEYS:
        raise ConfigError(f"unknown covariate distribution '{kind}' in {where}")
    args = {k: _number(_require(d, k, where), f"{where}.{k}") for k in _DIST_KEYS[kind]}
    return {"normal": Normal, "bernoulli": Bernoulli, "uniform": Uniform}[kind](**args)


def dgp_to_dict(dgp: DgpSpec) -> dict:
    out = {
        "covariates": [_dist_to_dict(d) for d in dgp.covariates],
        "participation_logit": list(dgp.participation_logit),
        "treatment_prob": dgp.treatment_prob,
        "outcome_mean_a0": list(dgp.outcome_mean_a0),
        "outcome_mean_a1": list(dgp.outcome_mean_a1),
        "noise_sd": dgp.noise_sd,
        "seed": dgp.seed,
    }
    if dgp.aux_split:
        out["aux_split"] = dgp.aux_split
    return out


def dgp_from_dict(d: dict, where: str = "dgp") -> DgpSpec:
    covs = _require(d, "covariates", where)
    if not isinstance(covs, list) or not covs:
        raise ConfigError(f"'covariates' must be a nonempty list in {where}")
    try:
        return DgpSpec(
            covariates=tuple(
                _dist_from_dict(c, f"{where}.covariates[{i}]") for i, c in enumerate(covs)
            ),
            participation_logit=_numbers(
                _require(d, "participation_logit", where), f"{where}.participation_logit"
            ),
            treatment_prob=_number(
                _require(d, "treatment_prob", where), f"{where}.treatment_prob"
            ),
            outcome_mean_a0=_numbers(
                _require(d, "outcome_mean_a0", where), f"{where}.outcome_mean_a0"
            ),
            outcome_mean_a1=_numbers(
                _require(d, "outcome_mean_a1", where), f"{where}.outcome_mean_a1"
            ),
            noise_sd=_number(_require(d, "noise_sd", where), f"{where}.noise_sd"),
            seed=_integer(_require(d, "seed", where), f"{where}.seed"),
            aux_split=_integer(d.get("aux_split", 0), f"{where}.aux_split"),
        )
    except DataError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Dataset CSV + sidecar


# rows per block of the CSV writer: cell strings for the whole file at once
# would take several times the memory of its text
_WRITE_BLOCK = 4096


def dataset_to_csv_text(data: ObservedDataset) -> str:
    header = ",".join(["role", "a", "y"] + [f"x{j + 1}" for j in range(data.p)])
    blocks = [header + "\n"]
    for start in range(0, data.n_rows, _WRITE_BLOCK):
        rows = slice(start, start + _WRITE_BLOCK)
        # column by column: a cell is repr(float), or "0"/"1" for a treatment,
        # so none needs csv quoting; external rows leave a and y (NaN there) empty
        arm = np.where(data.s[rows] == 1, data.a[rows] + 1.0, 0.0).astype(int).tolist()
        y = list(map(repr, data.y[rows].tolist()))
        columns = [
            map(("external", "trial", "trial").__getitem__, arm),
            map(("", "0", "1").__getitem__, arm),
            map({"nan": ""}.get, y, y),  # trial outcomes are finite
            *(map(repr, column) for column in data.x[rows].T.tolist()),
        ]
        blocks.append("\n".join(map(",".join, zip(*columns))) + "\n")
    return "".join(blocks)


def dataset_sidecar_dict(data: ObservedDataset) -> dict:
    out = {
        "design": design_to_dict(data.design),
        "k": data.k,
        "treatment_prob": data.treatment_prob,
    }
    if is_nested(data.design):
        out["n_unsampled_nonrandomized"] = data.n_unsampled_nonrandomized
    return out


def write_dataset(data: ObservedDataset, csv_path, sidecar_path) -> None:
    Path(csv_path).write_text(dataset_to_csv_text(data))
    Path(sidecar_path).write_text(json.dumps(dataset_sidecar_dict(data), indent=2) + "\n")


def _lines(text: str):
    """``text`` split at each newline only, as ``str.splitlines`` splits it at every line break."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    if start < len(text):
        yield text[start:]


# the parsed table's role codes; np.loadtxt turns the KeyError of an unknown
# role, like any converter's error, into a ValueError
_ROLES = {"trial": 1.0, "external": 0.0}


def _a_or_y(cell: str) -> float:
    """A treatment or outcome cell; NaN when empty."""
    return float(cell) if cell else math.nan


def _a_or_y_bulk(cell: str) -> float:
    """``_a_or_y``, refusing a spelt-out NaN, so that a NaN in the table marks an empty cell."""
    value = _a_or_y(cell)
    if cell and math.isnan(value):
        raise ValueError(f"{cell!r} reads as NaN")
    return value


_BULK = {0: _ROLES.__getitem__, 1: _a_or_y_bulk, 2: _a_or_y_bulk}


def _parse_rows(csv_path, converters: dict) -> np.ndarray:
    """The data rows of a dataset CSV as one float table (role 1 trial, 0 external)."""
    # from the file, not from its text in memory: a StringIO of the text costs
    # four bytes a character
    with open(csv_path) as fh, warnings.catch_warnings():
        # a body of blank lines warns that it holds no data; the row count catches it
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            fh, delimiter=",", comments=None, quotechar='"', skiprows=1, ndmin=2,
            converters=converters,
        )


def _parse_cell(text: str, what: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"line {line}: cannot parse {what} value {text!r}") from None


def _raise_first_bad_row(text: str, p: int, csv_path) -> None:
    """Raise the DataError of the file's first malformed row; return if there is none."""
    try:
        rows = list(csv.reader(_lines(text)))
    except csv.Error as exc:
        raise DataError(f"cannot read {csv_path}: {exc}") from exc
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != p + 3:
            raise DataError(f"line {line_no}: expected {p + 3} cells, got {len(row)}")
        role = row[0]
        if role == "trial":
            _parse_cell(row[1], "treatment", line_no)
            _parse_cell(row[2], "outcome", line_no)
        elif role == "external":
            if row[1] or row[2]:
                raise DataError(f"line {line_no}: external rows must not carry a/y")
        else:
            raise DataError(f"line {line_no}: unknown role {role!r}")
        for v in row[3:]:
            _parse_cell(v, "covariate", line_no)


def read_dataset(csv_path, sidecar_path) -> ObservedDataset:
    sidecar = load_json(sidecar_path)
    design = design_from_dict(_require(sidecar, "design", "sidecar"), "sidecar.design")

    try:
        text = Path(csv_path).read_text()
        header = next(csv.reader(_lines(text)), None)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {csv_path}: {exc}") from exc
    if header is None:
        raise DataError(f"{csv_path}: empty dataset file")
    if header[:3] != ["role", "a", "y"]:
        raise DataError(f"{csv_path}: header must start with role,a,y")
    p = len(header) - 3

    # one bulk parse; the per-row pass runs only when it fails or skipped a line
    n_rows = text.count("\n") - text.endswith("\n")
    table = np.empty((0, p + 3))
    if n_rows:
        try:
            table = _parse_rows(csv_path, _BULK)
        except ValueError:
            table = None
    if (
        table is None
        or table.shape != (n_rows, p + 3)
        or not (np.isnan(table[:, 1:3]) == (table[:, :1] == 0.0)).all()  # a, y empty iff external
    ):
        _raise_first_bad_row(text, p, csv_path)
        # every row is well formed, but spelt in ways that only float() reads
        # ("1_0", digits of other scripts, a trial's "nan")
        converters = {**_BULK, 1: _a_or_y, 2: _a_or_y, **dict.fromkeys(range(3, p + 3), float)}
        try:
            table = _parse_rows(csv_path, converters)
        except ValueError as exc:
            raise DataError(f"cannot read {csv_path}: {exc}") from exc

    return ObservedDataset(
        x=np.ascontiguousarray(table[:, 3:]),
        s=table[:, 0].astype(int),
        a=table[:, 1].copy(),
        y=table[:, 2].copy(),
        design=design,
        k=_integer(sidecar.get("k", 0), "sidecar.k"),
        treatment_prob=_number(sidecar.get("treatment_prob", 0.5), "sidecar.treatment_prob"),
        n_unsampled_nonrandomized=(
            _integer(
                _require(sidecar, "n_unsampled_nonrandomized", "sidecar"),
                "sidecar.n_unsampled_nonrandomized",
            )
            if is_nested(design)
            else None
        ),
    )


# ---------------------------------------------------------------------------
# Command configs


def simulate_config_from_dict(d: dict):
    """Returns (dgp, design, n, sampling_seed)."""
    dgp = dgp_from_dict(_require(d, "dgp", "config"))
    design = design_from_dict(_require(d, "design", "config"), "config.design")
    n = count(_require(d, "n", "config"), "config.n")
    sampling_seed = d.get("sampling_seed")
    if sampling_seed is not None:
        sampling_seed = _integer(sampling_seed, "config.sampling_seed")
    return dgp, design, n, sampling_seed


def estimator_spec_from_dict(d: dict, where: str) -> EstimatorSpec:
    try:
        return EstimatorSpec(
            method=Method(_require(d, "method", where)),
            population=StudyPopulation(_require(d, "population", where)),
            arm=_integer(_require(d, "arm", where), f"{where}.arm"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid estimator in {where}: {exc}") from exc


def estimator_spec_to_dict(spec: EstimatorSpec) -> dict:
    return {"method": spec.method.value, "population": spec.population.value, "arm": spec.arm}


def experiment_config_from_dict(d: dict) -> ExperimentConfig:
    kwargs = {}
    if "estimators" in d:
        if not isinstance(d["estimators"], list):
            raise ConfigError("'estimators' must be a list")
        kwargs["estimators"] = tuple(
            estimator_spec_from_dict(e, f"config.estimators[{i}]")
            for i, e in enumerate(d["estimators"])
        )
    mis = _object(d.get("misspecify", {}), "config.misspecify")
    oracle_seed = d.get("oracle_seed")
    try:
        return ExperimentConfig(
            dgp=dgp_from_dict(_require(d, "dgp", "config")),
            design=design_from_dict(_require(d, "design", "config"), "config.design"),
            n=count(_require(d, "n", "config"), "config.n"),
            replications=count(_require(d, "replications", "config"), "config.replications"),
            master_seed=_integer(_require(d, "master_seed", "config"), "config.master_seed"),
            misspecify=MisspecifySpec(
                participation=_flag(
                    mis.get("participation", False), "config.misspecify.participation"
                ),
                outcome=_flag(mis.get("outcome", False), "config.misspecify.outcome"),
                s_shift=_number(mis.get("s_shift", 0.0), "config.misspecify.s_shift"),
            ),
            bootstrap_b=count(d.get("bootstrap_b", 0), "config.bootstrap_b"),
            oracle_m=count(d.get("oracle_m", 1_000_000), "config.oracle_m"),
            oracle_seed=(
                _integer(oracle_seed, "config.oracle_seed") if oracle_seed is not None else None
            ),
            **kwargs,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def experiment_config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {
        "dgp": dgp_to_dict(cfg.dgp),
        "design": design_to_dict(cfg.design),
        "n": cfg.n,
        "replications": cfg.replications,
        "master_seed": cfg.master_seed,
        "estimators": [estimator_spec_to_dict(s) for s in cfg.estimators],
        "misspecify": {
            "participation": cfg.misspecify.participation,
            "outcome": cfg.misspecify.outcome,
            "s_shift": cfg.misspecify.s_shift,
        },
        "bootstrap_b": cfg.bootstrap_b,
        "oracle_m": cfg.oracle_m,
    }
    if cfg.oracle_seed is not None:
        out["oracle_seed"] = cfg.oracle_seed
    return out


def load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError) as exc:  # not JSON, nested too deep, over-long integer
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return doc

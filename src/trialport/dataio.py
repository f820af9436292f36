"""On-disk formats: dataset CSV + sidecar JSON, generator and experiment configs.

Dataset CSV columns are exactly ``role,a,y,x1,...,xp`` with role in
{trial, external}; treatment and outcome cells are empty on external rows.
The sidecar JSON records the design variant, its known sampling fraction (or
rule), the auxiliary split k, the randomization probability, and — for nested
designs only — the count of unsampled non-randomized individuals. The hidden
``u`` of a simulated non-nested design is never written anywhere.
"""

from __future__ import annotations

import csv
import io
import json
import math
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


def dataset_to_csv_text(data: ObservedDataset) -> str:
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


def _parse_cell(text: str, what: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(f"line {line}: cannot parse {what} value {text!r}") from None


def read_dataset(csv_path, sidecar_path) -> ObservedDataset:
    sidecar = load_json(sidecar_path)
    design = design_from_dict(_require(sidecar, "design", "sidecar"), "sidecar.design")

    try:
        rows = list(csv.reader(Path(csv_path).read_text().splitlines()))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {csv_path}: {exc}") from exc
    if not rows:
        raise DataError(f"{csv_path}: empty dataset file")
    header = rows[0]
    if header[:3] != ["role", "a", "y"]:
        raise DataError(f"{csv_path}: header must start with role,a,y")
    p = len(header) - 3

    s, a, y, x = [], [], [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != p + 3:
            raise DataError(f"line {line_no}: expected {p + 3} cells, got {len(row)}")
        role = row[0]
        if role == "trial":
            s.append(1)
            a.append(_parse_cell(row[1], "treatment", line_no))
            y.append(_parse_cell(row[2], "outcome", line_no))
        elif role == "external":
            if row[1] or row[2]:
                raise DataError(f"line {line_no}: external rows must not carry a/y")
            s.append(0)
            a.append(math.nan)
            y.append(math.nan)
        else:
            raise DataError(f"line {line_no}: unknown role {role!r}")
        x.append([_parse_cell(v, "covariate", line_no) for v in row[3:]])

    return ObservedDataset(
        x=np.asarray(x, dtype=float).reshape(len(s), p),
        s=np.asarray(s),
        a=np.asarray(a),
        y=np.asarray(y),
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

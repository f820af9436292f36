"""Core data model: study designs, the observed dataset, and the identifiability gate.

Two families of study design are represented. In *nested* designs the trial is
embedded in a sample of the actual population and the sampling probability of
non-randomized individuals is known (a constant ``c``, or a step rule on one
auxiliary covariate). In *non-nested* (composite dataset) designs the external
sample was obtained separately with an unknown sampling fraction ``u``; the
analyst never learns ``u`` or the number of unsampled individuals.

Per-unit data: every randomized individual contributes covariates, treatment,
and outcome; sampled non-randomized individuals contribute covariates only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DataError, NoExternalRows, NotIdentifiable


class Estimand(enum.Enum):
    """Quantities whose identifiability depends on the study design."""

    MEAN_TARGET = "mean_target"                              # E[Y^a]
    MEAN_NONRANDOMIZED = "mean_nonrandomized"                # E[Y^a | S=0]
    MARGINAL_PARTICIPATION = "marginal_participation"        # Pr[S=1]
    CONDITIONAL_PARTICIPATION = "conditional_participation"  # Pr[S=1 | X]


# ---------------------------------------------------------------------------
# Study designs


def _reject_bool(value, what: str, kind: str = "a number") -> None:
    """Refuse a boolean where a number is expected.

    ``True`` passes numeric checks as 1, but the package's JSON writers keep it
    as ``true``, which its own readers refuse.
    """
    if isinstance(value, (bool, np.bool_)):
        raise DataError(f"{what} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class CensusNested:
    """Nested design where the whole actual population contributes data."""


@dataclass(frozen=True)
class SubsampledNested:
    """Nested design keeping non-randomized units with known constant probability ``c``."""

    c: float

    def __post_init__(self):
        _reject_bool(self.c, "sampling fraction c")
        if not (isinstance(self.c, (int, float)) and 0.0 < self.c <= 1.0):
            raise DataError(f"sampling fraction c must be in (0, 1], got {self.c}")


@dataclass(frozen=True)
class StepRule:
    """Sampling fraction that steps between two values on one auxiliary coordinate.

    Returns ``high`` where the coordinate exceeds ``cutoff``, else ``low``.
    """

    coord: int = 0
    cutoff: float = 0.0
    low: float = 0.5
    high: float = 1.0

    def __post_init__(self):
        for name in ("cutoff", "low", "high"):
            _reject_bool(getattr(self, name), f"step rule {name}")
        for v in (self.low, self.high):
            if not 0.0 < v <= 1.0:
                raise DataError(f"step rule values must be in (0, 1], got {v}")
        # a NaN cutoff would send every row to ``low``: aux > nan is always false
        if np.isnan(self.cutoff):
            raise DataError("step rule cutoff must not be NaN")
        if isinstance(self.coord, bool) or not isinstance(self.coord, (int, np.integer)):
            raise DataError(f"step rule coordinate must be an integer, got {self.coord!r}")
        if self.coord < 0:
            raise DataError("step rule coordinate must be non-negative")

    def __call__(self, aux: np.ndarray) -> np.ndarray:
        aux = np.asarray(aux, dtype=float)
        if self.coord >= aux.shape[1]:
            raise DataError(
                f"step rule needs auxiliary coordinate {self.coord}, "
                f"but only {aux.shape[1]} are available"
            )
        return np.where(aux[:, self.coord] > self.cutoff, self.high, self.low)


@dataclass(frozen=True)
class SubsampledNestedCovariate:
    """Nested design whose sampling fraction is a known function of auxiliary covariates.

    ``c_rule`` maps an (n, k) block of auxiliary covariates to per-row sampling
    fractions in (0, 1].
    """

    c_rule: StepRule

    def __post_init__(self):
        if not isinstance(self.c_rule, StepRule):
            raise DataError(f"c_rule must be a StepRule, got {type(self.c_rule).__name__}")


@dataclass(frozen=True)
class NonNested:
    """Composite dataset design: external sampling fraction ``u`` is unknown.

    ``u_hidden`` exists only so simulators and oracles can generate data; it is
    stripped before a dataset ever reaches estimator code (see
    :func:`redacted`) and is never serialized.
    """

    u_hidden: float | None = None

    def __post_init__(self):
        _reject_bool(self.u_hidden, "u_hidden")
        if self.u_hidden is not None and not (0.0 < self.u_hidden <= 1.0):
            raise DataError(f"u_hidden must be in (0, 1], got {self.u_hidden}")


Design = Union[CensusNested, SubsampledNested, SubsampledNestedCovariate, NonNested]

_NESTED_TYPES = (CensusNested, SubsampledNested, SubsampledNestedCovariate)


def is_nested(design: Design) -> bool:
    return isinstance(design, _NESTED_TYPES)


def design_name(design: Design) -> str:
    return {
        CensusNested: "census_nested",
        SubsampledNested: "subsampled_nested",
        SubsampledNestedCovariate: "subsampled_nested_covariate",
        NonNested: "non_nested",
    }[type(design)]


def redacted(design: Design) -> Design:
    """Estimator-facing view of a design: hides the simulator-only ``u``."""
    if isinstance(design, NonNested):
        return NonNested(u_hidden=None)
    return design


def known_sampling_fractions(design: Design, aux: np.ndarray) -> np.ndarray:
    """Known per-row sampling fractions of non-randomized units.

    ``aux`` is the (n, k) auxiliary-covariate block of the rows in question;
    any other shape is a :class:`DataError`.
    Raises :class:`NotIdentifiable` for non-nested designs, where the fraction
    is unknown by definition.
    """
    aux = np.asarray(aux, dtype=float)
    if aux.ndim != 2:
        raise DataError(f"auxiliary block must be 2-D, got shape {aux.shape}")
    n = aux.shape[0]
    if isinstance(design, CensusNested):
        return np.ones(n)
    if isinstance(design, SubsampledNested):
        return np.full(n, design.c)
    if isinstance(design, SubsampledNestedCovariate):
        return design.c_rule(aux)
    raise NotIdentifiable(
        "sampling fraction of non-randomized units is unknown under a non-nested design"
    )


_ALL_ESTIMANDS = frozenset(Estimand)
_NON_NESTED_ESTIMANDS = frozenset({Estimand.MEAN_NONRANDOMIZED})


def identification_matrix(design: Design) -> frozenset[Estimand]:
    """Which estimands the study design identifies.

    Nested designs (census, sub-sampled, covariate sub-sampled) identify all
    four; non-nested designs identify only the mean among non-randomized
    individuals, because the unknown sampling fraction enters every other
    quantity without cancelling.
    """
    if is_nested(design):
        return _ALL_ESTIMANDS
    if isinstance(design, NonNested):
        return _NON_NESTED_ESTIMANDS
    raise TypeError(f"not a study design: {design!r}")


# ---------------------------------------------------------------------------
# Observed dataset


@dataclass(frozen=True, eq=False)
class ObservedDataset:
    """Design-masked analysis data: one row per sampled unit, in column form.

    Rows with ``s == 1`` are trial participants carrying treatment and outcome;
    rows with ``s == 0`` are sampled non-randomized individuals carrying
    covariates only (``a``/``y`` are NaN there by contract).
    ``n_unsampled_nonrandomized`` counts the dropped S=0 units and is present
    exactly when the design is nested.
    """

    x: np.ndarray
    s: np.ndarray
    a: np.ndarray
    y: np.ndarray
    design: Design
    k: int = 0
    treatment_prob: float = 0.5
    n_unsampled_nonrandomized: int | None = None

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        a = np.asarray(self.a, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        # s is checked as given (its rows are where s == 1 and s == 0), so the
        # int8 cast after validation cannot relabel a value such as 0.6 or 256
        object.__setattr__(self, "s", np.asarray(self.s))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)
        # u must never be visible downstream, even on hand-built datasets
        object.__setattr__(self, "design", redacted(self.design))
        self._validate()
        s = self.s.astype(np.int8, copy=False)
        object.__setattr__(self, "s", s)
        for arr in (x, s, a, y):
            arr.flags.writeable = False

    def _validate(self):
        n = self.x.shape[0]
        if self.s.shape != (n,) or self.a.shape != (n,) or self.y.shape != (n,):
            raise DataError("x, s, a, y must have matching first dimension")
        if not np.all(np.isfinite(self.x)):
            raise DataError("covariates must be finite")
        trial_rows = self._trial_rows
        if trial_rows.size + self._external_rows.size != n:
            raise DataError("s must be 0/1")
        if not trial_rows.size:
            raise DataError("dataset must contain at least one trial participant")
        a, y = self.a.take(trial_rows), self.y.take(trial_rows)
        if not (np.isfinite(a).all() and np.isfinite(y).all()):
            raise DataError("trial rows must carry finite treatment and outcome")
        in_arm = (np.count_nonzero(a == 0), np.count_nonzero(a == 1))
        if sum(in_arm) != a.size:
            raise DataError("treatment must be binary")
        for arm in (0, 1):
            if not in_arm[arm]:
                raise DataError(f"dataset must contain at least one trial participant in arm {arm}")
        ext_rows = self._external_rows
        if np.isfinite(self.a.take(ext_rows)).any() or np.isfinite(self.y.take(ext_rows)).any():
            raise DataError("non-randomized rows must not carry treatment or outcome")
        if not (0 <= self.k <= self.p):
            raise DataError(f"k={self.k} out of range for p={self.p}")
        if isinstance(self.design, SubsampledNestedCovariate) and self.k < 1:
            raise DataError("covariate-dependent sampling requires at least one auxiliary covariate")
        if not (0.0 < self.treatment_prob < 1.0):
            raise DataError("treatment_prob must be in (0, 1)")
        if is_nested(self.design):
            if self.n_unsampled_nonrandomized is None or self.n_unsampled_nonrandomized < 0:
                raise DataError("nested designs must carry a non-negative unsampled count")
        elif self.n_unsampled_nonrandomized is not None:
            raise DataError("the unsampled count is unknown under a non-nested design")

    # -- shapes and rows ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    # positions of the trial and external rows: selecting rows with take is
    # several times faster than with a boolean mask, so every selection uses them
    @cached_property
    def _trial_rows(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.s == 1))

    @cached_property
    def _external_rows(self) -> np.ndarray:
        return _read_only(np.flatnonzero(self.s == 0))

    @property
    def n_trial(self) -> int:
        return self._trial_rows.size

    @property
    def n_external(self) -> int:
        return self._external_rows.size

    @property
    def aux(self) -> np.ndarray:
        """Auxiliary block X1 = x[:, :k]."""
        return self.x[:, : self.k]

    def prob_treatment(self, arm: int) -> float:
        """Known randomization probability Pr[A=arm | X, S=1]."""
        if arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {arm}")
        return self.treatment_prob if arm == 1 else 1.0 - self.treatment_prob

    # -- estimator inputs ---------------------------------------------------
    #
    # Every g-formula and weighting estimator under a design standardizes over
    # the same rows with the same known design weights, so each piece is built
    # on first use and kept for the dataset's lifetime. The dataset is frozen
    # and its arrays are read-only, so nothing here can go stale; every cached
    # array is read-only too. A piece that the design does not identify raises
    # on each access instead of being kept.

    def arm(self, arm: int) -> _ArmRows:
        """The trial rows of treatment arm ``arm`` (0 or 1)."""
        if arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {arm}")
        return self._arms[arm]

    @cached_property
    def _arms(self) -> tuple[_ArmRows, _ArmRows]:
        trial_a = self.a.take(self._trial_rows)
        out = []
        for arm in (0, 1):
            rows = self._trial_rows.take(np.flatnonzero(trial_a == arm))
            x, y = self.x.take(rows, axis=0), self.y.take(rows)
            out.append(_ArmRows(_read_only(x), _read_only(y), _read_only(rows)))
        return tuple(out)

    @cached_property
    def trial_x(self) -> np.ndarray:
        return _read_only(self.x.take(self._trial_rows, axis=0))

    @cached_property
    def external_x(self) -> np.ndarray:
        return _read_only(self.x.take(self._external_rows, axis=0))

    @cached_property
    def design_weights(self) -> np.ndarray:
        """1 on trial rows and 1/c (or 1/c(X1)) on external rows.

        The known fraction c(X1) is evaluated at every row. Raises
        :class:`NotIdentifiable` under a non-nested design.
        """
        fractions = known_sampling_fractions(self.design, self.aux)
        weights = np.ones(self.n_rows)
        ext = self._external_rows
        weights[ext] = 1.0 / fractions.take(ext)
        return _read_only(weights)

    @cached_property
    def target(self) -> _WeightedSample:
        """Weights whose empirical law is the target covariate distribution.

        The design weights: trial rows count once and each sampled external
        row stands for 1/c units. Requires a nested design — without a known
        fraction the target distribution cannot be reconstructed.
        """
        if Estimand.MEAN_TARGET not in identification_matrix(self.design):
            raise NotIdentifiable(
                "the target-population covariate distribution is "
                "not identifiable under non-nested design"
            )
        return _WeightedSample.of(self.design_weights)

    @cached_property
    def nonrandomized(self) -> _WeightedSample:
        """Weights representing the covariate law of the S=0 stratum.

        Zero on trial rows. Under a nested design external rows carry their
        design weight: 1/c(X1) under covariate-dependent sampling, where the
        sampled externals are not a simple random sample of the stratum, and
        the constant 1/c otherwise. Under a non-nested design, where c is
        unknown, they weigh 1. A constant weight cancels in every normalized
        mean, so its value does not matter.
        """
        if not self.n_external:
            raise NoExternalRows("dataset has no sampled non-randomized rows")
        ext = self._external_rows
        external = self.design_weights.take(ext) if is_nested(self.design) else np.ones(ext.size)
        weights = np.zeros(self.n_rows)
        weights[ext] = external
        return _WeightedSample.of(weights)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _weight_diagnostics(weights: np.ndarray, counts=None) -> tuple[float, float]:
    """(max normalized weight, effective sample size) of the positive weights.

    A row of count k in per-row ``counts`` counts as k rows; None counts each once.
    """
    w, c = weights, 1.0 if counts is None else counts
    if w.min() <= 0 or (counts is not None and counts.min() <= 0):
        kept = np.flatnonzero((w > 0) & (c > 0))
        w, c = w.take(kept), c if counts is None else c.take(kept)
    v = w / (w * c).sum()
    return float(v.max()), float(1.0 / (c * v * v).sum())


@dataclass(frozen=True)
class _WeightedSample:
    """Per-record standardization weights with their total; diagnostics on first read."""

    weights: np.ndarray
    total: float

    @classmethod
    def of(cls, weights: np.ndarray) -> "_WeightedSample":
        total = float(weights.sum())
        if np.any(weights < 0) or total <= 0:
            raise ValueError("weights must be non-negative with positive total")
        return cls(_read_only(weights), total)

    @cached_property
    def diagnostics(self) -> tuple[float, float]:
        """See :func:`_weight_diagnostics`."""
        return _weight_diagnostics(self.weights)

    def counted(self, counts=None) -> tuple[np.ndarray, float, Callable[[], tuple[float, float]]]:
        """(weights, total, diagnose), each row's weight times its count (None: once).

        ``diagnose()`` gives the diagnostics of the counted rows; nothing
        computes them before it is called.
        """
        if counts is None:
            return self.weights, self.total, lambda: self.diagnostics
        weights = self.weights * counts
        return weights, float(weights.sum()), lambda: _weight_diagnostics(self.weights, counts)


@dataclass(frozen=True)
class _ArmRows:
    """One treatment arm's trial rows: their covariates, outcomes and positions in the dataset."""

    x: np.ndarray
    y: np.ndarray
    positions: np.ndarray

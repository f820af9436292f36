"""Per-arm linear outcome regression among trial participants.

Fits E[Y | X, S=1, A=a] by ordinary least squares on each arm's trial rows,
via QR decomposition. Non-randomized rows never enter the fit. Basis
expansion (interactions, splines) is the caller's responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ObservedDataset
from .errors import InsufficientData, RankDeficient


@dataclass(frozen=True)
class OutcomeModel:
    """Per-arm coefficients (intercept, slopes) of the trial outcome regression."""

    coef_a0: np.ndarray
    coef_a1: np.ndarray
    residual_variance: tuple[float, float]
    n_per_arm: tuple[int, int]

    def __post_init__(self):
        for name in ("coef_a0", "coef_a1"):
            coef = np.asarray(getattr(self, name), dtype=float)
            if coef.ndim != 1 or not np.all(np.isfinite(coef)):
                raise ValueError(f"{name} must be a finite 1-D vector")
            object.__setattr__(self, name, coef)
            coef.flags.writeable = False

    def coef(self, arm: int) -> np.ndarray:
        if arm not in (0, 1):
            raise ValueError(f"arm must be 0 or 1, got {arm}")
        return self.coef_a1 if arm == 1 else self.coef_a0

    def to_dict(self) -> dict:
        return {
            "coef_a0": [float(v) for v in self.coef_a0],
            "coef_a1": [float(v) for v in self.coef_a1],
            "residual_variance": list(self.residual_variance),
            "n_per_arm": list(self.n_per_arm),
        }


def _ols_qr(xmat: np.ndarray, y: np.ndarray, n_rows: int, guard=None) -> np.ndarray:
    """Least-squares coefficients; ``n_rows`` is the row count that rounding scales with.

    The rank guard runs on ``guard`` (rows spanning xmat's row space), if given.
    Back substitution solves R b = Q^T y row by row from the last up, as LAPACK's dtrsv.
    """
    q, r = np.linalg.qr(xmat)
    rg = r if guard is None else np.linalg.qr(guard, mode="r")
    # |R_jj| is column j's distance from the span of the columns before it;
    # relative to the column's norm, ||R[:, j]|| = ||x_j||, it does not depend on units.
    # Householder QR of an n x q matrix carries a backward error of up to
    # n*q*eps times each column's norm (Higham 2002, section 19.3)
    tol = n_rows * rg.shape[1] * np.finfo(float).eps * np.linalg.norm(rg, axis=0)
    if rg.shape[0] < rg.shape[1] or np.any(np.abs(np.diag(rg)) <= tol):
        raise RankDeficient("outcome design matrix is rank deficient")
    z = q.T @ y
    for j in range(z.size - 1, -1, -1):
        z[j] = (z[j] - r[j, j + 1:] @ z[j + 1:]) / r[j, j]
    return z


def fit_outcome(data: ObservedDataset, counts=None) -> OutcomeModel:
    """OLS fit of the outcome on covariates within each treatment arm's trial rows.

    With per-row ``counts``, each row enters scaled by sqrt(count), and the row
    check and residual dof use the counts' sum: the fit of the resampled rows.
    The rank guard then sees the counted rows unscaled: sqrt(count) rounds, and
    can lift a column that a few distinct rows make dependent above its tolerance.
    """
    coefs, variances, sizes = [], [], []
    for arm in (0, 1):
        rows, guard = data.arm(arm), None
        if counts is None:
            n_arm = rows.y.size
            xmat, y = np.column_stack([np.ones(n_arm), rows.x]), rows.y
        else:
            arm_counts = counts.take(rows.positions)
            n_arm = int(arm_counts.sum())
            root = np.sqrt(arm_counts)
            xmat, y = np.column_stack([root, rows.x * root[:, None]]), rows.y * root
            drawn = rows.x[arm_counts > 0]
            guard = np.column_stack([np.ones(len(drawn)), drawn])
        if n_arm < data.p + 2:
            raise InsufficientData(
                f"arm {arm} has {n_arm} trial rows; need at least p+2 = {data.p + 2}"
            )
        coef = _ols_qr(xmat, y, n_arm, guard)
        # einsum, not `@`: OpenBLAS runs long dot and matrix-vector products
        # on several threads, which then spin for ~0.1 s on cores that other
        # replication workers use
        resid = y - np.einsum("ij,j->i", xmat, coef)
        dof = n_arm - (data.p + 1)
        variances.append(float(np.einsum("i,i", resid, resid) / dof) if dof > 0 else 0.0)
        coefs.append(coef)
        sizes.append(n_arm)
    return OutcomeModel(
        coef_a0=coefs[0],
        coef_a1=coefs[1],
        residual_variance=(variances[0], variances[1]),
        n_per_arm=(sizes[0], sizes[1]),
    )


def predict(model: OutcomeModel, arm: int, x: np.ndarray) -> np.ndarray:
    """Predicted outcome means under ``arm`` at the rows of the (n, p) block ``x``."""
    coef = model.coef(arm)
    return coef[0] + np.einsum("ij,j->i", x, coef[1:])  # not `@`, see fit_outcome

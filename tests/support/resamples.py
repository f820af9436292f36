"""Reference resamples: the bootstrap's draws as row positions, and the datasets they make.

``bootstrap_replicates`` hands its statistic per-row counts. These helpers
draw the same resample as positions, the way the counts are defined (trial
draws, then external draws, from resample ``i``'s keyed stream), and build
the resampled dataset itself, so that a count-weighted result can be checked
against the one on the materialized rows.
"""

import dataclasses

import numpy as np

from trialport import dgp, experiment


def resample_rows(data, seed: int, i: int) -> np.ndarray:
    """Row positions of resample ``i`` of the bootstrap with ``seed``."""
    rng = dgp._stream(seed, experiment._RESAMPLE, i)
    parts = []
    for rows in (data._trial_rows, data._external_rows):
        if rows.size:
            parts.append(rows.take(rng.integers(0, rows.size, rows.size)))
    return np.concatenate(parts)


def resample_counts(data, seed: int, i: int) -> np.ndarray:
    """Per-row counts of resample ``i``: ``np.bincount`` of its row positions."""
    return np.bincount(resample_rows(data, seed, i), minlength=data.n_rows)


def materialized(data, counts: np.ndarray):
    """The resampled dataset: row j of ``data`` repeated ``counts[j]`` times.

    Raises ``DataError`` where those rows make no valid dataset.
    """
    rows = np.repeat(np.arange(data.n_rows), counts)
    return dataclasses.replace(
        data, x=data.x.take(rows, axis=0), s=data.s.take(rows), a=data.a.take(rows),
        y=data.y.take(rows),
    )

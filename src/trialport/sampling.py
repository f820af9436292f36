"""Apply a study design to a simulated actual population.

Thinning is independent Bernoulli per unit (the per-unit sampling-probability
statements of the designs), driven by a counter-based stream so a fixed seed
gives identical output regardless of partitioning. Fixed-size sampling without
replacement is deliberately not offered.
"""

from __future__ import annotations

import numpy as np

from .dgp import ActualPopulation, _stream
from .domain import Design, NonNested, ObservedDataset, known_sampling_fractions
from .errors import DataError

# spawn-key prefix for thinning draws; distinct from the dgp module's prefixes
_THIN = 2


def apply_design(population: ActualPopulation, design: Design, seed: int) -> ObservedDataset:
    """Produce the design-masked observed dataset.

    Every trial participant is kept (Pr[D=1|S=1] = 1 in all designs).
    Non-randomized units are kept independently with the design's probability
    (where it is 1 for every unit, as in a census, nothing is drawn); kept
    ones carry no treatment or outcome: the population has a = -1 and y = NaN
    there, and a = -1 becomes NaN. For nested designs the number of
    dropped units is recorded; for non-nested designs it is unknown and absent.
    """
    keep = population.s == 1
    if not keep.any():
        raise DataError("population contains no trial participants")
    external = np.flatnonzero(~keep)

    if isinstance(design, NonNested):
        if design.u_hidden is None:
            raise DataError("simulating a non-nested design requires u_hidden")
        prob = design.u_hidden
    else:
        prob = known_sampling_fractions(design, population.x[external, : population.aux_split])
    # a census (every fraction 1) keeps every row: each uniform draw is below 1
    census = bool(np.all(np.equal(prob, 1.0)))
    if not census:
        keep[external] = _stream(seed, _THIN, 0).random(external.size) < prob
    rows = None if census else np.flatnonzero(keep)
    # free the positions (8 bytes a unit) before the dataset's arrays
    del keep, external, prob
    if rows is None:
        # copies, so that the population's arrays stay writeable
        n_unsampled = 0
        x, s, y = population.x.copy(), population.s.copy(), population.y.copy()
        a = population.a.astype(float)
    else:
        n_unsampled = len(population) - rows.size
        x, s, y = population.x.take(rows, axis=0), population.s.take(rows), population.y.take(rows)
        a = population.a.take(rows).astype(float)
        del rows
    a[a < 0] = np.nan
    return ObservedDataset(
        x=x,
        s=s,
        a=a,
        y=y,
        design=design,
        k=population.aux_split,
        treatment_prob=population.treatment_prob,
        n_unsampled_nonrandomized=None if isinstance(design, NonNested) else n_unsampled,
    )

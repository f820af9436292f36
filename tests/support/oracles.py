"""Independent oracle for the standard test generating process ("DGP-1").

DGP-1: a single standard-normal covariate, participation logit (-1, 0.5),
randomization probability 0.5, outcome means m0(x) = 1 + x and
m1(x) = 2 + 1.3 x, unit noise.

All stratum quantities reduce to one-dimensional Gaussian integrals, computed
here by Gauss-Hermite quadrature — a route fully independent of the package's
Monte Carlo oracle. The frozen constants below were produced by
``recompute_constants()`` and cross-checked against ``scipy.integrate.quad``
and a 1e7-draw Monte Carlo run; ``test_acceptance`` re-verifies them at import
time via ``assert_constants_fresh()``.
"""

import numpy as np

import trialport as tp

GAMMA = (-1.0, 0.5)
TREATMENT_PROB = 0.5
MEAN_COEF = {0: (1.0, 1.0), 1: (2.0, 1.3)}
NOISE_SD = 1.0

# frozen quadrature values
P_S1 = 0.279419184756701            # Pr[S=1] = E[expit(-1 + 0.5 X)]
EX_S1 = 0.343464555552372           # E[X | S=1]
EX_S0 = -0.133185041948227          # E[X | S=0]
SDX_S1 = 0.975344167548328          # SD(X | S=1)
SDX_S0 = 0.977447302298326          # SD(X | S=0)
MEAN_TARGET = (1.0, 2.0)            # E[Y^a] = b0 + b1 * E[X]
MEAN_RANDOMIZED = (1.343464555552372, 2.446503922218084)
MEAN_NONRANDOMIZED = (0.866814958051773, 1.826859445467305)


def make_dgp1(seed: int, noise_sd: float = NOISE_SD) -> tp.DgpSpec:
    return tp.DgpSpec(
        covariates=(tp.Normal(0.0, 1.0),),
        participation_logit=GAMMA,
        treatment_prob=TREATMENT_PROB,
        outcome_mean_a0=MEAN_COEF[0],
        outcome_mean_a1=MEAN_COEF[1],
        noise_sd=noise_sd,
        seed=seed,
        aux_split=1,
    )


def recompute_constants(nodes: int = 301) -> dict:
    """Re-derive every frozen constant by Gauss-Hermite quadrature."""
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    p = 1.0 / (1.0 + np.exp(-(GAMMA[0] + GAMMA[1] * z)))
    p_s1 = float(np.sum(w * p))
    ex_s1 = float(np.sum(w * z * p) / p_s1)
    ex_s0 = float(np.sum(w * z * (1.0 - p)) / (1.0 - p_s1))
    sdx_s1 = float(np.sqrt(np.sum(w * (z - ex_s1) ** 2 * p) / p_s1))
    sdx_s0 = float(np.sqrt(np.sum(w * (z - ex_s0) ** 2 * (1.0 - p)) / (1.0 - p_s1)))
    moments = {"P_S1": p_s1, "EX_S1": ex_s1, "EX_S0": ex_s0, "SDX_S1": sdx_s1, "SDX_S0": sdx_s0}
    for arm, (b0, b1) in MEAN_COEF.items():
        moments[f"MEAN_TARGET_{arm}"] = b0  # E[X] = 0
        moments[f"MEAN_RANDOMIZED_{arm}"] = b0 + b1 * ex_s1
        moments[f"MEAN_NONRANDOMIZED_{arm}"] = b0 + b1 * ex_s0
    return moments


def assert_constants_fresh():
    m = recompute_constants()
    assert abs(m["P_S1"] - P_S1) < 1e-12
    assert abs(m["EX_S1"] - EX_S1) < 1e-12
    assert abs(m["EX_S0"] - EX_S0) < 1e-12
    assert abs(m["SDX_S1"] - SDX_S1) < 1e-12
    assert abs(m["SDX_S0"] - SDX_S0) < 1e-12
    for arm in (0, 1):
        assert abs(m[f"MEAN_TARGET_{arm}"] - MEAN_TARGET[arm]) < 1e-12
        assert abs(m[f"MEAN_RANDOMIZED_{arm}"] - MEAN_RANDOMIZED[arm]) < 1e-12
        assert abs(m[f"MEAN_NONRANDOMIZED_{arm}"] - MEAN_NONRANDOMIZED[arm]) < 1e-12

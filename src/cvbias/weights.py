"""Two-model decision aids: model-averaging weights and the rule of four."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonPositiveSE

RULE_OF_FOUR_CUTOFF = 4.0
# the trapezoidal rule needs ~36 se nodes; above this se the large-se
# expansion is within 1e-12 at no cost
TRAPEZOID_SE_MAX = 1000.0
Z_MAX = 9.0


def prob_better_normal(delta: float, se: float) -> float:
    """Probability the higher-elpd model is truly better, normal approximation.

    Mass of N(delta, se^2) above zero: Phi(delta / se).
    """
    if se <= 0:
        raise NonPositiveSE("se must be > 0")
    return 0.5 * math.erfc(-delta / (se * math.sqrt(2.0)))


def pseudo_bma(delta: float) -> float:
    """Pseudo-BMA weight of the model with elpd advantage ``delta``."""
    return float(_logistic(delta))


def _logistic(x):
    # the usual expit formula: below about -709 exp(-x) overflows to inf
    # and the result is 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def pseudo_bma_plus(delta: float, se: float) -> float:
    """Pseudo-BMA weight integrated over N(0, se^2) uncertainty in delta.

    ``E[logistic(delta + se * Z)]`` with Z ~ N(0, 1). For se <= 1000 this is
    the trapezoidal rule in Z with step min(0.5, 0.5 / se) on |Z| <= 9: the
    integrand is analytic in the strip |Im Z| < pi / se, so the rule
    converges geometrically and matches adaptive quadrature within about
    1e-14. Above se = 1000 it is the two-term expansion
    ``Phi(t) - (pi^2 / 6) * t * phi(t) / se^2`` with t = delta / se, whose
    error falls like se^-4 from about 1e-12 at the switch.
    """
    if se <= 0:
        raise NonPositiveSE("se must be > 0")
    if se > TRAPEZOID_SE_MAX:
        t = delta / se
        phi = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        return prob_better_normal(delta, se) - math.pi**2 / 6.0 * t * phi / (se * se)
    h = min(0.5, 0.5 / se)
    m = math.ceil(Z_MAX / h)
    z = h * np.arange(-m, m + 1)
    w = np.exp(-0.5 * z * z)
    return float(h / math.sqrt(2.0 * math.pi) * np.sum(w * _logistic(delta + se * z)))


def rule_of_four(delta: float) -> bool:
    """Safe to select on the point estimate iff |delta| >= 4."""
    return bool(abs(delta) >= RULE_OF_FOUR_CUTOFF)


@dataclass(frozen=True)
class WeightReport:
    """Weight and decision summary for one model pair."""

    delta: float
    se: float
    prob_better: float
    pseudo_bma: float
    pseudo_bma_plus: float
    rule_of_four_safe: bool

    def to_dict(self) -> dict:
        return asdict(self)


def weight_report(delta: float, se: float) -> WeightReport:
    """Assemble a WeightReport, taking the se -> 0 limits for exact ties.

    With se = 0 the normal-approximation probability degenerates to an
    indicator (0.5 at delta = 0) and pseudo-BMA+ collapses to pseudo-BMA.
    """
    if se < 0:
        raise NonPositiveSE("se must be >= 0")
    if se == 0:
        prob = 0.5 if delta == 0 else float(delta > 0)
        pbp = pseudo_bma(delta)
    else:
        prob = prob_better_normal(delta, se)
        pbp = pseudo_bma_plus(delta, se)
    return WeightReport(
        delta=float(delta),
        se=float(se),
        prob_better=prob,
        pseudo_bma=pseudo_bma(delta),
        pseudo_bma_plus=pbp,
        rule_of_four_safe=rule_of_four(delta),
    )

"""Two-model decision aids: model-averaging weights and the rule of four."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonPositiveSE

RULE_OF_FOUR_CUTOFF = 4.0
GH_NODES = 61
GH_NODES_CAP = 4001
NEWTON_NODES_MAX = 150  # larger rules come from roots_hermite's asymptotic route


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


@lru_cache(maxsize=16)
def _hermgauss(n: int):
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n <= NEWTON_NODES_MAX:
        return _newton_hermgauss(n)
    # imported here, so that pseudo-BMA+ is the one caller that pays for the
    # import: numpy's hermgauss takes far too long at the thousands of nodes
    # large se needs, and the rest of the package runs on numpy alone
    from scipy.special import roots_hermite

    return roots_hermite(n)


def _orthonormal_hermite(n: int, x):
    """p_{n-1}(x) and p_n(x), Hermite polynomials orthonormal under exp(-x^2)."""
    prev, cur = np.zeros_like(x), np.full_like(x, np.pi**-0.25)
    for k in range(n):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * x * cur - math.sqrt(k / (k + 1)) * prev
    return prev, cur


def _newton_hermgauss(n: int):
    """The n-point Gauss-Hermite rule by Newton's method on elementwise numpy.

    ``roots_hermite`` builds rules of up to 150 nodes with an eigensolver
    from a linear-algebra package it imports only then. That made the peak
    memory of ``compare`` depend on whether some pair had a small se, by
    about 7 MiB.

    Newton starts from Tricomi's asymptotic positive nodes, as the large
    rules of ``roots_hermite`` do; the weights are 1 / (n p_{n-1}(x)^2).
    """
    m, nu = n // 2, 2.0 * n + 1.0
    c = (4.0 * m - 4.0 * np.arange(1, m + 1) + 3.0) * np.pi / nu
    tau = np.full(m, 0.5 * np.pi)
    for _ in range(6):  # tau - sin(tau) = c
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    s = np.cos(0.5 * tau) ** 2
    x = np.sqrt(nu * s - (1.25 / (1.0 - s) ** 2 - 1.0 / (1.0 - s) - 0.25) / (3.0 * nu))
    for _ in range(10):
        prev, cur = _orthonormal_hermite(n, x)
        step = cur / (math.sqrt(2.0 * n) * prev)
        x = x - step
        if not np.any(np.abs(step) > 1e-15 * np.maximum(x, 1.0)):
            break
    x = np.concatenate([-x[::-1], np.zeros(n % 2), x])
    prev, _ = _orthonormal_hermite(n, x)
    return x, 1.0 / (n * prev**2)


def _auto_nodes(se: float) -> int:
    # the logistic's poles sit at |Im z| = pi, i.e. pi/(sqrt(2)*se) in node
    # units, so the rule must densify roughly like se^2 to hold 1e-8
    return min(max(GH_NODES, int(24.0 * se * se) + 1), GH_NODES_CAP)


def pseudo_bma_plus(delta: float, se: float, n_nodes: int | None = None) -> float:
    """Pseudo-BMA weight integrated over N(0, se^2) uncertainty in delta.

    Gauss-Hermite quadrature of ``E[logistic(delta + z)]``, z ~ N(0, se^2).
    The node count (never below 61) scales with se so the result matches
    adaptive quadrature to better than 1e-8 for se up to ~20.
    """
    if se <= 0:
        raise NonPositiveSE("se must be > 0")
    nodes, w = _hermgauss(n_nodes if n_nodes is not None else _auto_nodes(se))
    z = np.sqrt(2.0) * se * nodes
    return float(np.sum(w * _logistic(delta + z)) / np.sqrt(np.pi))


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
        return {
            "delta": self.delta,
            "se": self.se,
            "prob_better": self.prob_better,
            "pseudo_bma": self.pseudo_bma,
            "pseudo_bma_plus": self.pseudo_bma_plus,
            "rule_of_four_safe": self.rule_of_four_safe,
        }


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

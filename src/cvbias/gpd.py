"""Generalized Pareto tail fitting and the k-hat reliability diagnostic.

The shape estimate k-hat controls how many fractional moments the tail has;
values above :func:`khat_threshold` flag a tail too heavy for the smoothing
and order-statistic machinery built on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameter,
    NonPositiveExceedance,
    TooFewSamples,
    TooFewTailSamples,
)

MIN_TAIL_SIZE = 5
KHAT_CAP = 0.7

# Quartile-anchored prior on the profile parameter and pseudo-count shrinking
# k-hat toward 0.5; both stabilise small tails without moving large ones.
_PROFILE_PRIOR = 3.0
_KHAT_PRIOR_DRAWS = 10.0
_GRID_CHUNK = 512


@dataclass(frozen=True)
class GpdFit:
    """Generalized Pareto fit to exceedances above ``cutoff``.

    ``sigma_hat`` is the scale, ``k_hat`` the shape (positive = heavy tail),
    ``tail_size`` the number of exceedances used.
    """

    k_hat: float
    sigma_hat: float
    tail_size: int
    cutoff: float


def fit_gpd(exceedances, cutoff: float = 0.0) -> GpdFit:
    """Fit a generalized Pareto distribution to positive exceedances.

    Profile-posterior-mean estimator: the re-parameterised rate theta is
    averaged over a deterministic grid of ``30 * ceil(sqrt(n))`` points
    weighted by profile likelihood, then (k, sigma) are recovered from the
    posterior-mean theta.

    Raises
    ------
    TooFewTailSamples
        If fewer than ``MIN_TAIL_SIZE`` exceedances are supplied.
    NonPositiveExceedance
        If any exceedance is not strictly positive.
    """
    x = np.sort(np.asarray(exceedances, dtype=float))
    n = x.size
    if n < MIN_TAIL_SIZE:
        raise TooFewTailSamples(
            f"need at least {MIN_TAIL_SIZE} exceedances, got {n}"
        )
    if x[0] <= 0 or not np.isfinite(x[-1]):
        raise NonPositiveExceedance("exceedances must be finite and > 0")

    m = 30 * math.ceil(math.sqrt(n))
    quartile = x[int(n / 4 + 0.5) - 1]
    theta = 1.0 / x[-1] + (
        1.0 - np.sqrt(m / (np.arange(1.0, m + 1) - 0.5))
    ) / (_PROFILE_PRIOR * quartile)

    # mean log1p(-theta*x) per grid point, chunked to bound memory
    k_grid = np.empty(m)
    for lo in range(0, m, _GRID_CHUNK):
        hi = min(lo + _GRID_CHUNK, m)
        k_grid[lo:hi] = np.log1p(-theta[lo:hi, None] * x).mean(axis=1)

    log_lik = n * (np.log(-theta / k_grid) - k_grid - 1.0)
    log_lik -= log_lik.max()
    weights = np.exp(log_lik)
    weights /= weights.sum()

    theta_hat = float(np.sum(theta * weights))
    k_hat = float(np.mean(np.log1p(-theta_hat * x)))
    sigma_hat = -k_hat / theta_hat
    k_hat = (n * k_hat + _KHAT_PRIOR_DRAWS * 0.5) / (n + _KHAT_PRIOR_DRAWS)
    return GpdFit(
        k_hat=float(k_hat),
        sigma_hat=float(sigma_hat),
        tail_size=int(n),
        cutoff=float(cutoff),
    )


def tail_cutoff(sample, max_tail_fraction: float = 0.2):
    """Locate the tail cutoff of ``sample`` and return its exceedances.

    The tail size is ``M = ceil(min(max_tail_fraction * S, 3 * sqrt(S)))``;
    the cutoff is the order statistic at rank ``S - M`` and the returned
    exceedances are the values strictly above it, shifted by the cutoff
    (ascending). An empty exceedance array signals a degenerate tail.

    Returns
    -------
    (cutoff, exceedances)
    """
    s = np.asarray(sample, dtype=float)
    n = s.size
    if n < 10:
        raise TooFewSamples(f"need at least 10 samples for a tail cutoff, got {n}")
    m = math.ceil(min(max_tail_fraction * n, 3.0 * math.sqrt(n)))
    srt = np.sort(s)
    cutoff = float(srt[n - m - 1])
    tail = srt[n - m :]
    exceedances = tail[tail > cutoff] - cutoff
    return cutoff, exceedances


def khat_threshold(sample_size: int) -> float:
    """Largest k-hat for which a tail of ``sample_size`` points is reliable.

    ``min(1 - 1/log10(sample_size), 0.7)``; -inf for a single point.
    """
    if sample_size < 1:
        raise InvalidParameter("sample_size must be >= 1")
    if sample_size == 1:
        return float("-inf")
    return min(1.0 - 1.0 / math.log10(sample_size), KHAT_CAP)


def gpd_quantile(p, k_hat: float, sigma_hat: float):
    """Inverse CDF of the generalized Pareto distribution (location 0)."""
    p = np.asarray(p, dtype=float)
    if k_hat == 0.0:
        return -sigma_hat * np.log1p(-p)
    return sigma_hat * np.expm1(-k_hat * np.log1p(-p)) / k_hat

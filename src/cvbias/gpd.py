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
# doubles (128 KiB) in the profile grid's one working buffer
_GRID_BUFFER = 1 << 14


@dataclass(frozen=True)
class GpdFit:
    """Generalized Pareto fit to exceedances above a tail cutoff.

    ``sigma_hat`` is the scale, ``k_hat`` the shape (positive = heavy tail).
    """

    k_hat: float
    sigma_hat: float


def fit_gpd(exceedances) -> GpdFit:
    """Fit a generalized Pareto distribution to positive exceedances.

    Profile-posterior-mean estimator: the re-parameterised rate theta is
    averaged over a deterministic grid of ``30 * ceil(sqrt(n))`` points
    weighted by profile likelihood, then (k, sigma) are recovered from the
    posterior-mean theta.

    A tail that cannot be fitted in floating point, such as one whose
    lower quartile is subnormal, gets ``k_hat = +inf`` and
    ``sigma_hat = nan``.

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
    k_hat, sigma_hat = _fit_rows(x[None, :])
    return GpdFit(k_hat=float(k_hat[0]), sigma_hat=float(sigma_hat[0]))


def _fit_rows(x: np.ndarray):
    """``fit_gpd``'s (k_hat, sigma_hat) for every row of ``x``.

    ``x`` is r x n: each row holds n ascending, finite, positive
    exceedances. Row i gets exactly the floating-point operations that
    ``fit_gpd(x[i])`` would, so its estimates are bit-identical. A row that
    cannot be fitted in floating point (a subnormal quartile) gets
    k_hat = +inf and sigma_hat = nan.
    """
    r, n = x.shape
    m = 30 * math.ceil(math.sqrt(n))
    quartile = x[:, int(n / 4 + 0.5) - 1]
    # a subnormal quartile overflows theta: its row is reported unfittable
    # below, so no floating-point warning escapes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta = 1.0 / x[:, -1:] + (
            1.0 - np.sqrt(m / (np.arange(1.0, m + 1) - 0.5))
        ) / (_PROFILE_PRIOR * quartile[:, None])

        # mean log1p(-theta*x) per grid point, a few grid points at a time
        # through one buffer that stays in cache
        step = min(m, max(1, _GRID_BUFFER // n))
        buf = np.empty(step * n)
        neg_theta = -theta
        k_grid = np.empty((r, m))
        for i in range(r):
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                block = buf[: (hi - lo) * n].reshape(hi - lo, n)
                np.multiply(neg_theta[i, lo:hi, None], x[i], out=block)
                np.log1p(block, out=block)
                np.add.reduce(block, axis=1, out=k_grid[i, lo:hi])
        k_grid /= n

        rate = -theta / k_grid
        # at theta = 0 (a tied tail can put a grid point there) -theta/k is
        # 0/0; its limit is 1/mean(x), the exponential tail
        at_zero = theta == 0.0
        if at_zero.any():
            limit = np.broadcast_to(1.0 / x.mean(axis=1, keepdims=True), rate.shape)
            rate[at_zero] = limit[at_zero]
        log_lik = n * (np.log(rate) - k_grid - 1.0)
        log_lik -= log_lik.max(axis=1, keepdims=True)
        weights = np.exp(log_lik)
        weights /= weights.sum(axis=1, keepdims=True)

        theta_hat = np.sum(theta * weights, axis=1)
        k_hat = np.mean(np.log1p(-theta_hat[:, None] * x), axis=1)
        sigma_hat = -k_hat / theta_hat
    k_hat = (n * k_hat + _KHAT_PRIOR_DRAWS * 0.5) / (n + _KHAT_PRIOR_DRAWS)
    # a row whose estimates are not finite cannot be fitted in floating point
    unfit = ~(np.isfinite(k_hat) & np.isfinite(sigma_hat))
    k_hat[unfit] = np.inf
    sigma_hat[unfit] = np.nan
    return k_hat, sigma_hat


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


def gpd_quantile(p, k_hat, sigma_hat):
    """Inverse CDF of the generalized Pareto distribution (location 0).

    ``k_hat`` and ``sigma_hat`` may be arrays that broadcast against ``p``.
    """
    p = np.asarray(p, dtype=float)
    k = np.asarray(k_hat, dtype=float)
    log_surv = np.log1p(-p)
    zero = k == 0.0
    q = sigma_hat * np.expm1(-k * log_surv) / np.where(zero, 1.0, k)
    return np.where(zero, -sigma_hat * log_surv, q)

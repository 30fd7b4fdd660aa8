"""LOO-CV elpd estimation from pointwise log-likelihood matrices.

When only full-posterior draws are available, leave-one-out predictive
densities are estimated by importance sampling with the largest weights
replaced by expected order statistics of a generalized Pareto fit
(Pareto-smoothed importance sampling). The per-observation k-hat of that
fit doubles as a self-diagnostic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import gpd
from .errors import (
    DegenerateWeights,
    EmptyVector,
    NonFiniteInput,
    ShapeMismatch,
    TooFewObservations,
)

MIN_DRAWS_FOR_PSIS = 100

# each observation smooths its largest min(0.2 S, 3 sqrt(S)) of S weights
TAIL_FRACTION = 0.2


@dataclass(frozen=True)
class ElpdEstimate:
    """Pointwise LOO elpd with its sum, standard error and diagnostics.

    ``khat_per_obs`` and ``n_draws`` are None for exact (refit-based) LOO
    and set together by PSIS. ``+inf`` entries mark observations whose
    importance weights had no fittable tail.
    """

    pointwise: np.ndarray
    estimate: float
    se: float
    model_id: str = "model"
    khat_per_obs: np.ndarray | None = None
    n_draws: int | None = None

    @property
    def n_obs(self) -> int:
        return self.pointwise.size

    @property
    def reliable(self) -> bool:
        """True when no observation's k-hat exceeds its sample-size threshold."""
        if self.khat_per_obs is None:
            return True
        return bool(np.all(self.khat_per_obs < gpd.khat_threshold(self.n_draws)))


@dataclass(frozen=True)
class ElpdDiff:
    """Pairwise elpd difference (model_a minus model_b)."""

    model_a: str
    model_b: str
    estimate: float
    se_diff: float


def elpd_se(pointwise):
    """Standard error of a pointwise elpd vector: sqrt(n/(n-1) * sum((x-mean)^2)).

    A 2-d array (c x n, one vector per row) gives the c standard errors of
    its rows.
    """
    x = np.atleast_1d(np.asarray(pointwise, dtype=float))
    n = x.shape[-1]
    if n < 2:
        raise TooFewObservations("standard error needs at least 2 observations")
    # squaring in place keeps one centred copy alive, not two
    d = x - x.mean(axis=-1, keepdims=True)
    se = np.sqrt(n / (n - 1.0) * np.sum(np.square(d, out=d), axis=-1))
    return float(se) if x.ndim == 1 else se


def mlpd(pointwise) -> float:
    """Mean log predictive density of a pointwise vector."""
    x = np.asarray(pointwise, dtype=float)
    if x.size == 0:
        raise EmptyVector("mlpd of an empty vector")
    return float(x.mean())


def _sum_and_se(pointwise: np.ndarray) -> tuple[float, float]:
    """The sum of a finite pointwise elpd vector and its standard error;
    NonFiniteInput if either leaves the float range."""
    try:
        total = math.fsum(pointwise)
    except OverflowError:
        raise NonFiniteInput("pointwise elpd overflows when summed") from None
    # finite squares can still overflow once centred and scaled
    with np.errstate(over="ignore", invalid="ignore"):
        se = elpd_se(pointwise)
    if not math.isfinite(se):
        raise NonFiniteInput("pointwise elpd overflows when squared")
    return total, se


def from_pointwise(pointwise, model_id: str = "model") -> ElpdEstimate:
    """Wrap an exact pointwise elpd vector into an ElpdEstimate."""
    x = np.asarray(pointwise, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("pointwise elpd contains non-finite entries")
    estimate, se = _sum_and_se(x)
    return ElpdEstimate(pointwise=x, estimate=estimate, se=se, model_id=model_id)


def elpd_diff(a: ElpdEstimate, b: ElpdEstimate) -> ElpdDiff:
    """Paired elpd difference a - b with its own standard error."""
    if a.pointwise.shape != b.pointwise.shape:
        raise ShapeMismatch(
            f"pointwise shapes differ: {a.pointwise.shape} vs {b.pointwise.shape}"
        )
    # each input's squares can be finite while their difference's overflow
    with np.errstate(over="ignore", invalid="ignore"):
        d = a.pointwise - b.pointwise
        se = elpd_se(d)
    if not math.isfinite(se):
        raise NonFiniteInput(
            f"paired difference of {a.model_id!r} and {b.model_id!r} overflows when squared"
        )
    return ElpdDiff(
        model_a=a.model_id,
        model_b=b.model_id,
        estimate=float(math.fsum(d)),
        se_diff=se,
    )


def _smooth_rows(lw: np.ndarray) -> np.ndarray:
    """Pareto-smooth every row of ``lw`` in place; returns each row's k-hat.

    Rows hold ascending log weights that end at 0. A row whose tail has
    fewer than ``gpd.MIN_TAIL_SIZE`` exceedances (or that has fewer than 10
    draws), or whose tail cannot be fitted, is left as it is, with k-hat
    ``+inf``. Only the M + 1 largest weights of a row, cutoff included, are
    exponentiated.
    """
    r, S = lw.shape
    khat = np.full(r, np.inf)
    if S < 10:
        return khat
    M = math.ceil(min(TAIL_FRACTION * S, 3.0 * math.sqrt(S)))
    w = np.exp(lw[:, S - M - 1 :])
    cutoff, tail = w[:, :1], w[:, 1:]
    # ascending rows: the exceedances are a suffix, and ties at the cutoff
    # shorten it
    exceed = np.count_nonzero(tail > cutoff, axis=1)
    # a set, not np.unique, which would import numpy.ma
    for m in sorted(set(exceed[exceed >= gpd.MIN_TAIL_SIZE].tolist())):
        rows = np.flatnonzero(exceed == m)
        c = cutoff[rows]
        k, sigma = gpd._fit_rows(tail[rows, -m:] - c)
        khat[rows] = k
        # an unfittable tail (k-hat +inf) stays unsmoothed
        fitted = np.isfinite(k)
        rows, c, k, sigma = rows[fitted], c[fitted], k[fitted], sigma[fitted]
        probs = (np.arange(m) + 0.5) / m
        smoothed = c + gpd.gpd_quantile(probs, k[:, None], sigma[:, None])
        np.minimum(smoothed, tail[rows, -1:], out=smoothed)
        lw[rows, -m:] = np.log(smoothed)
    return khat


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) of every row, shifted by its maximum; overwrites ``a``."""
    top = a.max(axis=1, keepdims=True)
    a -= top
    np.exp(a, out=a)
    return top[:, 0] + np.log(a.sum(axis=1))


# draws x observations per block: each block's sorted copy and temporaries
# stay small whatever the matrix size
_BLOCK = 1 << 15


def elpd_loo_psis(loglik, model_id: str = "model") -> ElpdEstimate:
    """PSIS-LOO elpd estimate from a draws-by-observations log-lik matrix.

    Per observation i the raw ratios exp(-loglik[:, i]) are normalized in
    log space, their largest weights Pareto-smoothed and truncated at the
    raw maximum, and elpd_i computed as the log of the self-normalized
    importance-sampling estimate. Each observation's draws are sorted
    first, so the result does not depend on their order. Observations
    whose tail cannot be fit carry ``khat = +inf`` instead of failing;
    constant ones are exact and carry ``khat = -inf``.
    """
    values = np.asarray(loglik, dtype=float)
    if values.ndim != 2:
        raise ShapeMismatch("log-likelihood matrix must be 2-d (draws x obs)")
    if values.shape[1] < 2:
        raise ShapeMismatch("need at least 2 observations")
    if not np.all(np.isfinite(values)):
        raise NonFiniteInput("log-likelihood matrix contains non-finite entries")
    S, n = values.shape
    if S < MIN_DRAWS_FOR_PSIS:
        warnings.warn(
            f"PSIS with {S} draws is unreliable; use at least {MIN_DRAWS_FOR_PSIS}",
            stacklevel=2,
        )
    pointwise = np.empty(n)
    khat = np.empty(n)
    width = max(1, _BLOCK // S)
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        # ascending log ratios, one row per observation
        lr = np.negative(values[:, lo:hi].T, order="C")
        lr.sort(axis=1)
        # a constant integrand needs no weights: elpd_i is its value
        const = np.flatnonzero(lr[:, 0] == lr[:, -1])
        exact = -lr[const, 0]
        lw = lr - lr[:, -1:]
        khat[lo:hi] = _smooth_rows(lw)
        # log weights plus log-likelihoods, into the ratios' buffer
        np.subtract(lw, lr, out=lr)
        pointwise[lo:hi] = _logsumexp_rows(lr) - _logsumexp_rows(lw)
        pointwise[lo + const] = exact
        khat[lo + const] = -np.inf
    if not np.all(np.isfinite(pointwise)):
        raise DegenerateWeights("importance weights failed to normalize")
    estimate, se = _sum_and_se(pointwise)
    return ElpdEstimate(
        pointwise=pointwise,
        estimate=estimate,
        se=se,
        model_id=model_id,
        khat_per_obs=khat,
        n_draws=S,
    )

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
    TooFewSamples,
)

MIN_DRAWS_FOR_PSIS = 100


@dataclass(frozen=True)
class LogLikMatrix:
    """Pointwise log predictive densities, draws x observations (nats)."""

    values: np.ndarray
    model_id: str = "model"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ShapeMismatch("log-likelihood matrix must be 2-d (draws x obs)")
        if values.shape[1] < 2:
            raise ShapeMismatch("need at least 2 observations")
        if not np.all(np.isfinite(values)):
            raise NonFiniteInput("log-likelihood matrix contains non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    @property
    def n_obs(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ElpdEstimate:
    """Pointwise LOO elpd with its sum, standard error and diagnostics.

    ``khat_per_obs`` is None for exact (refit-based) LOO. ``+inf`` entries
    mark observations whose importance weights had no fittable tail.
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
        cap = gpd.khat_threshold(self.n_draws if self.n_draws else 1)
        return bool(np.all(self.khat_per_obs < cap))


@dataclass(frozen=True)
class ElpdDiff:
    """Pairwise elpd difference (model_a minus model_b)."""

    model_a: str
    model_b: str
    pointwise_diff: np.ndarray
    estimate: float
    se_diff: float


def elpd_se(pointwise):
    """Standard error of a pointwise elpd vector: sqrt(n/(n-1) * sum((x-mean)^2)).

    A 2-d array (n x c) gives the c standard errors of its columns.
    """
    x = np.atleast_1d(np.asarray(pointwise, dtype=float))
    n = x.shape[0]
    if n < 2:
        raise TooFewObservations("standard error needs at least 2 observations")
    # squaring in place keeps one centred copy alive, not two
    d = x - x.mean(axis=0)
    se = np.sqrt(n / (n - 1.0) * np.sum(np.square(d, out=d), axis=0))
    return float(se) if x.ndim == 1 else se


def mlpd(pointwise) -> float:
    """Mean log predictive density of a pointwise vector."""
    x = np.asarray(pointwise, dtype=float)
    if x.size == 0:
        raise EmptyVector("mlpd of an empty vector")
    return float(x.mean())


def from_pointwise(pointwise, model_id: str = "model") -> ElpdEstimate:
    """Wrap an exact pointwise elpd vector into an ElpdEstimate."""
    x = np.asarray(pointwise, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("pointwise elpd contains non-finite entries")
    return ElpdEstimate(
        pointwise=x,
        estimate=float(math.fsum(x)),
        se=elpd_se(x),
        model_id=model_id,
    )


def elpd_diff(a: ElpdEstimate, b: ElpdEstimate) -> ElpdDiff:
    """Paired elpd difference a - b with its own standard error."""
    if a.pointwise.shape != b.pointwise.shape:
        raise ShapeMismatch(
            f"pointwise shapes differ: {a.pointwise.shape} vs {b.pointwise.shape}"
        )
    d = a.pointwise - b.pointwise
    return ElpdDiff(
        model_a=a.model_id,
        model_b=b.model_id,
        pointwise_diff=d,
        estimate=float(math.fsum(d)),
        se_diff=elpd_se(d),
    )


def smooth_log_weights(log_ratios, max_tail_fraction: float = 0.2):
    """Pareto-smooth a vector of log importance ratios.

    Returns ``(log_weights, khat)`` with the weights normalized so the raw
    maximum is 0 in log space. Smoothed tail weights never exceed the raw
    maximum. ``khat`` is ``-inf`` when the ratios are constant (nothing to
    smooth) and ``+inf`` when the tail is too small or degenerate to fit.

    Input must already be in ascending order; callers sort first so results
    are invariant to draw permutations.
    """
    lr = np.asarray(log_ratios, dtype=float)
    lw = lr - lr[-1]
    if lw[0] == lw[-1]:
        return lw, float("-inf")
    w = np.exp(lw)
    try:
        cutoff, exceedances = gpd.tail_cutoff(w, max_tail_fraction)
    except TooFewSamples:
        return lw, float("inf")
    m = exceedances.size
    if m < gpd.MIN_TAIL_SIZE:
        return lw, float("inf")
    fit = gpd.fit_gpd(exceedances, cutoff=cutoff)
    probs = (np.arange(m) + 0.5) / m
    smoothed = cutoff + gpd.gpd_quantile(probs, fit.k_hat, fit.sigma_hat)
    smoothed = np.minimum(smoothed, w[-1])
    out = lw.copy()
    out[-m:] = np.log(smoothed)
    return out, float(fit.k_hat)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))), shifted by the maximum so that no term overflows."""
    m = a.max()
    return m + math.log(np.exp(a - m).sum())


def _elpd_column(ll, max_tail_fraction: float):
    """LOO elpd and k-hat for one observation's log-likelihood column."""
    if ll.max() == ll.min():
        # constant integrand: importance weights are irrelevant
        return float(ll[0]), float("-inf")
    order = np.argsort(-ll, kind="stable")
    ll_sorted = ll[order]
    lw, khat = smooth_log_weights(-ll_sorted, max_tail_fraction)
    value = float(_logsumexp(lw + ll_sorted) - _logsumexp(lw))
    if not np.isfinite(value):
        raise DegenerateWeights("importance weights failed to normalize")
    return value, khat


def elpd_loo_psis(
    loglik, model_id: str | None = None, max_tail_fraction: float = 0.2
) -> ElpdEstimate:
    """PSIS-LOO elpd estimate from a draws-by-observations log-lik matrix.

    Per observation i the raw ratios exp(-loglik[:, i]) are normalized in
    log space, their largest weights Pareto-smoothed and truncated at the
    raw maximum, and elpd_i computed as the log of the self-normalized
    importance-sampling estimate. Observations whose tail cannot be fit
    carry ``khat = +inf`` instead of failing.
    """
    if not isinstance(loglik, LogLikMatrix):
        loglik = LogLikMatrix(np.asarray(loglik, dtype=float), model_id or "model")
    if model_id is None:
        model_id = loglik.model_id
    if loglik.n_draws < MIN_DRAWS_FOR_PSIS:
        warnings.warn(
            f"PSIS with {loglik.n_draws} draws is unreliable; "
            f"use at least {MIN_DRAWS_FOR_PSIS}",
            stacklevel=2,
        )
    n = loglik.n_obs
    pointwise = np.empty(n)
    khat = np.empty(n)
    for i in range(n):
        pointwise[i], khat[i] = _elpd_column(loglik.values[:, i], max_tail_fraction)
    return ElpdEstimate(
        pointwise=pointwise,
        estimate=float(math.fsum(pointwise)),
        se=elpd_se(pointwise),
        model_id=model_id,
        khat_per_obs=khat,
        n_draws=loglik.n_draws,
    )

"""Expected-maximum thresholds for elpd differences under a no-winner null.

If none of K candidate models truly beats the baseline and their elpd
difference point estimates behave like roughly normal draws centred at
zero, the largest of them is expected to reach about
``blom_max(K) * sigma_hat``. A maximum below that threshold carries no
selection signal; a maximum above it marks a model worth selecting.

The centring and the normal shape are assumptions, not guarantees. When the
baseline is itself the true model and each candidate adds one irrelevant
predictor (the nested null of ``cvbias.sim``), each exact-LOO difference
behaves like ``chi2_1 / 2 - 1``: mean near -0.5, median near -0.78 and
right-skewed (skewness near 2.8), so zero-anchored thresholds overshoot the
observed maxima at small K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np

from . import gpd
from .errors import InvalidParameter, NonPositiveSigma, TooFewModels
from .psisloo import ElpdDiff, ElpdEstimate, elpd_diff

DEFAULT_ALPHA = 0.5
DEFAULT_MULTIPLIER = 1.5
EQUIV_TOL = 1e-12

# Below this many difference points the tail diagnostic has fewer than the
# minimum exceedances a GPD fit needs, so the threshold is undiagnosable.
MIN_MODELS_FOR_DIAGNOSTIC = 10


def check_alpha(alpha: float) -> None:
    """Raise InvalidParameter unless alpha lies in the admissible [0.39, 0.5]."""
    if not 0.39 <= alpha <= 0.5:
        raise InvalidParameter(f"alpha must lie in [0.39, 0.5], got {alpha}")


def check_multiplier(multiplier: float) -> None:
    """Raise InvalidParameter unless the bias multiplier is >= 0."""
    if not multiplier >= 0:
        raise InvalidParameter(f"multiplier must be >= 0, got {multiplier}")


def blom_max(K: int, alpha: float = DEFAULT_ALPHA) -> float:
    """Approximate expected maximum of K iid standard normal draws.

    ``Phi^{-1}((K - alpha) / (K - 2*alpha + 1))``; alpha = 0.5 is the
    conservative end of the admissible [0.39, 0.5] interval.
    """
    if K < 1:
        raise InvalidParameter("K must be >= 1")
    check_alpha(alpha)
    return NormalDist().inv_cdf((K - alpha) / (K - 2.0 * alpha + 1.0))


class HalfNormalFit(NamedTuple):
    sigma_hat: float
    median_hat: float


def halfnormal_sigma(diff_points) -> HalfNormalFit:
    """Half-normal MLE scale of the upper half of ``diff_points``.

    ``sigma_hat = sqrt((2/K) * sum_{d >= median} (d - median)^2)``.
    """
    d = np.asarray(diff_points, dtype=float)
    K = d.size
    if K < 2:
        raise TooFewModels("half-normal scale needs at least 2 difference points")
    # np.median's value, summed from +0.0 as its mean is, by sorting:
    # np.median would import numpy.ma
    srt = np.sort(d)
    mid = srt[K // 2]
    m = float(0.0 + mid if K % 2 else (0.0 + srt[K // 2 - 1] + mid) / 2)
    upper = d[d >= m] - m
    return HalfNormalFit(float(np.sqrt(2.0 / K * np.sum(upper**2))), m)


class ThresholdResult(NamedTuple):
    threshold: float
    s_k: float
    sigma_hat: float
    median_hat: float
    max_diff: float
    n_models: int
    all_equivalent: bool


def threshold(diff_points, alpha: float = DEFAULT_ALPHA) -> ThresholdResult:
    """Expected-maximum threshold for a vector of elpd difference estimates.

    The candidates are all equivalent to the baseline when the maximum
    difference stays below ``blom_max(K, alpha) * sigma_hat`` (equality, up
    to 1e-12, counts as equivalent so that identical models compare equal).
    """
    d = np.asarray(diff_points, dtype=float)
    hn = halfnormal_sigma(d)
    s_k = blom_max(d.size, alpha)
    thr = s_k * hn.sigma_hat
    mx = float(d.max())
    return ThresholdResult(
        threshold=float(thr),
        s_k=s_k,
        sigma_hat=hn.sigma_hat,
        median_hat=hn.median_hat,
        max_diff=mx,
        n_models=d.size,
        all_equivalent=bool(mx < thr + EQUIV_TOL),
    )


def bias_estimate(
    K: int,
    sigma_hat: float,
    multiplier: float = DEFAULT_MULTIPLIER,
    alpha: float = DEFAULT_ALPHA,
) -> float:
    """Selection-induced bias estimate ``multiplier * blom_max(K) * sigma_hat``.

    The default multiplier 1.5 encodes the assumed negative correlation
    between cross-validated scores and generalisation loss; 1 and 2 bound
    the no-correlation and full-reflection cases.
    """
    if sigma_hat < 0:
        raise NonPositiveSigma("sigma_hat must be >= 0")
    check_multiplier(multiplier)
    return float(multiplier * blom_max(K, alpha) * sigma_hat)


class TailDiagnostic(NamedTuple):
    khat: float
    reliable: bool


def diagnose_tail(diff_points) -> TailDiagnostic:
    """GPD shape diagnostic for the right tail of elpd differences.

    Fits the upper half of the difference points (so 10 models yield the
    5-exceedance minimum) and compares k-hat against
    ``khat_threshold(K)``. ``khat = +inf`` marks a degenerate tail.
    """
    d = np.asarray(diff_points, dtype=float)
    K = d.size
    if K < MIN_MODELS_FOR_DIAGNOSTIC:
        raise TooFewModels(
            f"tail diagnostic needs at least {MIN_MODELS_FOR_DIAGNOSTIC} "
            f"difference points, got {K}"
        )
    cutoff, exceedances = gpd.tail_cutoff(d, max_tail_fraction=0.5)
    if exceedances.size < gpd.MIN_TAIL_SIZE:
        return TailDiagnostic(float("inf"), False)
    khat = gpd.fit_gpd(exceedances, cutoff=cutoff).k_hat
    return TailDiagnostic(float(khat), bool(khat < gpd.khat_threshold(K)))


def median_baseline(estimates: Sequence[ElpdEstimate]):
    """Pick the lower-median model as baseline and diff the rest against it.

    Ties at the median resolve to the lowest model index. Returns
    ``(baseline_id, diffs)`` with diffs in the original model order.
    """
    if len(estimates) < 3:
        raise TooFewModels("median baseline needs at least 3 models")
    order = np.argsort([e.estimate for e in estimates], kind="stable")
    base = estimates[int(order[(len(estimates) - 1) // 2])]
    diffs = [elpd_diff(e, base) for e in estimates if e is not base]
    return base.model_id, diffs


def prob_select_suboptimal(mu: float, sigma: float) -> float:
    """Probability that a noisy difference estimate flips the selection.

    Mass of N(mu, sigma^2) below zero, i.e. Phi(-mu/sigma).
    """
    if sigma <= 0:
        raise NonPositiveSigma("sigma must be > 0")
    return 0.5 * math.erfc(mu / (sigma * math.sqrt(2.0)))


@dataclass(frozen=True)
class ElpdComparison:
    """K-model comparison against a common baseline.

    ``threshold = s_k * sigma_hat`` exactly, ``bias_hat`` is the threshold
    scaled by the recorded multiplier, and ``reliable`` is False whenever
    the tail diagnostic is unavailable (K < 10) or fails.
    """

    diffs: tuple[ElpdDiff, ...]
    baseline_id: str
    K: int
    sigma_hat: float
    median_hat: float
    s_k: float
    threshold: float
    bias_hat: float
    multiplier: float
    alpha: float
    max_diff: float
    all_equivalent: bool
    khat_tail: float | None
    reliable: bool

    def to_dict(self) -> dict:
        return {
            "baseline_id": self.baseline_id,
            "K": self.K,
            "sigma_hat": self.sigma_hat,
            "median_hat": self.median_hat,
            "s_k": self.s_k,
            "threshold": self.threshold,
            "bias_hat": self.bias_hat,
            "multiplier": self.multiplier,
            "alpha": self.alpha,
            "max_diff": self.max_diff,
            "all_equivalent": self.all_equivalent,
            "khat_tail": self.khat_tail,
            "reliable": self.reliable,
            "diffs": [
                {
                    "model": d.model_a,
                    "baseline": d.model_b,
                    "estimate": d.estimate,
                    "se_diff": d.se_diff,
                    "above_threshold": bool(d.estimate >= self.threshold + EQUIV_TOL),
                }
                for d in self.diffs
            ],
        }


def build_comparison(
    estimates: Sequence[ElpdEstimate],
    baseline: str = "median",
    alpha: float = DEFAULT_ALPHA,
    multiplier: float = DEFAULT_MULTIPLIER,
) -> ElpdComparison:
    """Assemble the full threshold/bias/diagnostic report for a model set.

    ``baseline`` is either ``"median"`` or an explicit model id. A single
    difference point (two models) degenerates to a zero threshold, in which
    case only a non-positive maximum counts as equivalent.
    """
    if len(estimates) < 2:
        raise TooFewModels("comparison needs at least 2 models")
    check_multiplier(multiplier)
    if baseline == "median":
        baseline_id, diffs = median_baseline(estimates)
    else:
        by_id = {e.model_id: e for e in estimates}
        if baseline not in by_id:
            raise TooFewModels(f"baseline model {baseline!r} not among inputs")
        base = by_id[baseline]
        baseline_id = baseline
        diffs = [elpd_diff(e, base) for e in estimates if e is not base]

    dvals = np.array([d.estimate for d in diffs])
    if dvals.size >= 2:
        res = threshold(dvals, alpha)
        sigma_hat, median_hat, s_k = res.sigma_hat, res.median_hat, res.s_k
        thr, mx, equivalent = res.threshold, res.max_diff, res.all_equivalent
    else:
        # two-model comparison: no spread to estimate, threshold collapses to 0
        sigma_hat, median_hat = 0.0, float(dvals[0])
        s_k = blom_max(1, alpha)
        thr = 0.0
        mx = float(dvals[0])
        equivalent = bool(mx < EQUIV_TOL)

    if dvals.size >= MIN_MODELS_FOR_DIAGNOSTIC:
        khat_tail, reliable = diagnose_tail(dvals)
        khat_out = khat_tail if math.isfinite(khat_tail) else None
    else:
        khat_out, reliable = None, False

    return ElpdComparison(
        diffs=tuple(diffs),
        baseline_id=baseline_id,
        K=int(dvals.size),
        sigma_hat=sigma_hat,
        median_hat=median_hat,
        s_k=s_k,
        threshold=thr,
        bias_hat=float(multiplier * thr),
        multiplier=multiplier,
        alpha=alpha,
        max_diff=mx,
        all_equivalent=equivalent,
        khat_tail=khat_out,
        reliable=reliable,
    )

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
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import NamedTuple, Sequence

import numpy as np

from . import gpd
from .errors import InvalidParameter, TooFewObservations
from .psisloo import ElpdDiff, ElpdEstimate, elpd_diff

DEFAULT_ALPHA = 0.5
# the bias is multiplier * threshold; 1.5 encodes the assumed negative
# correlation between cross-validated scores and generalisation loss, and
# 1 and 2 bound the no-correlation and full-reflection cases
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
    """Raise InvalidParameter unless the bias multiplier is finite and >= 0."""
    if not (multiplier >= 0 and math.isfinite(multiplier)):
        raise InvalidParameter(f"multiplier must be finite and >= 0, got {multiplier}")


def check_finite(value: float, what: str, multiplier: float) -> float:
    """``value``, or InvalidParameter if the multiplier scaled it out of range."""
    if not math.isfinite(value):
        raise InvalidParameter(f"{what} is not finite with multiplier {multiplier}")
    return value


def check_baseline(model_ids: Sequence[str], baseline: str) -> None:
    """Raise TooFewObservations unless there are at least 2 models, at least
    3 under ``"median"``, and InvalidParameter unless any other baseline is
    one of the ids. The command line checks this before it reads a file."""
    if len(model_ids) < 2:
        raise TooFewObservations("comparison needs at least 2 models")
    if baseline == "median":
        if len(model_ids) < 3:
            raise TooFewObservations("median baseline needs at least 3 models")
    elif baseline not in model_ids:
        raise InvalidParameter(f"baseline model {baseline!r} not among inputs")


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

    ``sigma_hat = sqrt((2/K) * sum_{d >= median} (d - median)^2)``; a
    single point is its own median and gives ``sigma_hat = 0``.
    """
    d = np.asarray(diff_points, dtype=float)
    K = d.size
    if K < 1:
        raise TooFewObservations("half-normal scale needs at least 1 difference point")
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
    all_equivalent: bool


def threshold(diff_points, alpha: float, K: int) -> ThresholdResult:
    """Expected-maximum threshold ``blom_max(K, alpha) * sigma_hat`` for a
    vector of elpd difference estimates.

    The only place the threshold is formed. Each caller passes its own
    count K: ``build_comparison`` the number of differences, ``correct_path``
    the model size, and ``sim.run_many_k`` the K models of its design,
    baseline included, over their K - 1 differences.

    The candidates are all equivalent to the baseline when the maximum
    difference stays below the threshold (equality, up to 1e-12, counts as
    equivalent so that identical models compare equal).
    """
    d = np.asarray(diff_points, dtype=float)
    hn = halfnormal_sigma(d)
    s_k = blom_max(K, alpha)
    thr = s_k * hn.sigma_hat
    mx = float(d.max())
    return ThresholdResult(
        threshold=float(thr),
        s_k=s_k,
        sigma_hat=hn.sigma_hat,
        median_hat=hn.median_hat,
        max_diff=mx,
        all_equivalent=bool(mx < thr + EQUIV_TOL),
    )


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
        raise TooFewObservations(
            f"tail diagnostic needs at least {MIN_MODELS_FOR_DIAGNOSTIC} "
            f"difference points, got {K}"
        )
    _, exceedances = gpd.tail_cutoff(d, max_tail_fraction=0.5)
    if exceedances.size < gpd.MIN_TAIL_SIZE:
        return TailDiagnostic(float("inf"), False)
    khat = gpd.fit_gpd(exceedances).k_hat
    return TailDiagnostic(float(khat), bool(khat < gpd.khat_threshold(K)))


def median_baseline(estimates: Sequence[ElpdEstimate]):
    """Pick the lower-median model as baseline and diff the rest against it.

    Ties at the median resolve to the lowest model index. Returns
    ``(baseline_id, diffs)`` with diffs in the original model order.
    """
    check_baseline([e.model_id for e in estimates], "median")
    order = np.argsort([e.estimate for e in estimates], kind="stable")
    base = estimates[int(order[(len(estimates) - 1) // 2])]
    diffs = [elpd_diff(e, base) for e in estimates if e is not base]
    return base.model_id, diffs


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
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record["diffs"] = [
            {
                "model": d.model_a,
                "baseline": d.model_b,
                "estimate": d.estimate,
                "se_diff": d.se_diff,
                "above_threshold": bool(d.estimate >= self.threshold + EQUIV_TOL),
            }
            for d in self.diffs
        ]
        return record


def build_comparison(
    estimates: Sequence[ElpdEstimate],
    baseline: str = "median",
    alpha: float = DEFAULT_ALPHA,
    multiplier: float = DEFAULT_MULTIPLIER,
) -> ElpdComparison:
    """Assemble the full threshold/bias/diagnostic report for a model set.

    ``baseline`` is either ``"median"`` or an explicit model id. A single
    difference point (two models) has ``sigma_hat = 0`` and
    ``blom_max(1) = 0``, so a zero threshold: only a non-positive maximum
    counts as equivalent.
    """
    check_baseline([e.model_id for e in estimates], baseline)
    check_multiplier(multiplier)
    if baseline == "median":
        baseline_id, diffs = median_baseline(estimates)
    else:
        base = {e.model_id: e for e in estimates}[baseline]
        baseline_id = baseline
        diffs = [elpd_diff(e, base) for e in estimates if e is not base]

    dvals = np.array([d.estimate for d in diffs])
    res = threshold(dvals, alpha, dvals.size)
    if dvals.size >= MIN_MODELS_FOR_DIAGNOSTIC:
        khat_tail, reliable = diagnose_tail(dvals)
        khat_out = khat_tail if math.isfinite(khat_tail) else None
    else:
        khat_out, reliable = None, False

    return ElpdComparison(
        diffs=tuple(diffs),
        baseline_id=baseline_id,
        K=int(dvals.size),
        sigma_hat=res.sigma_hat,
        median_hat=res.median_hat,
        s_k=res.s_k,
        threshold=res.threshold,
        bias_hat=check_finite(float(multiplier * res.threshold), "bias", multiplier),
        multiplier=multiplier,
        alpha=alpha,
        max_diff=res.max_diff,
        all_equivalent=res.all_equivalent,
        khat_tail=khat_out,
        reliable=reliable,
    )

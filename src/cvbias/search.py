"""LOO-CV forward search with order-statistic bias correction and stopping rules.

Each step adds the predictor with the best LOO elpd among the remaining
candidates. Because every step is an argmax over noisy estimates, the raw
cumulative path overstates predictive gains; ``correct_path`` subtracts the
per-step bias estimate wherever the step's gain sits below the expected
maximum of equally-useless candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conjlm import (
    Dataset,
    NigPrior,
    _border,
    _border_terms,
    _factorize,
    _leverages,
    _predictive_logpdf,
    _score_extensions,
    elpd_loo_exact,
)
from .errors import (
    EmptyCandidateSet,
    IncompletePath,
    InvalidParameter,
    SchemaMismatch,
)
from .orderstats import blom_max, check_multiplier, halfnormal_sigma
from .psisloo import elpd_se


@dataclass(frozen=True)
class SearchStep:
    """One forward-search step (model size = step index + 1)."""

    predictor_added: int
    candidates_evaluated: int
    raw_diff: float
    elpd_after: float
    corrected_diff: float
    corrected_elpd_after: float
    candidate_diffs: np.ndarray
    candidate_ses: np.ndarray
    pointwise: np.ndarray
    threshold_at_step: float = 0.0
    bias_at_step: float = 0.0
    test_mlpd_after: float | None = None
    post_bulge: bool = False


@dataclass(frozen=True)
class SearchPath:
    """Forward-search trajectory from the intercept-only model."""

    steps: tuple[SearchStep, ...]
    base_elpd: float
    base_pointwise: np.ndarray
    data: Dataset
    prior: NigPrior
    max_size: int
    test_mlpd_base: float | None = None

    @property
    def n_obs(self) -> int:
        return self.data.n

    def sizes(self) -> np.ndarray:
        return np.arange(len(self.steps) + 1)

    def raw_elpds(self) -> np.ndarray:
        return np.array([self.base_elpd] + [s.elpd_after for s in self.steps])

    def corrected_elpds(self) -> np.ndarray:
        return np.array(
            [self.base_elpd] + [s.corrected_elpd_after for s in self.steps]
        )

    def test_mlpds(self) -> np.ndarray | None:
        if self.test_mlpd_base is None:
            return None
        return np.array(
            [self.test_mlpd_base] + [s.test_mlpd_after for s in self.steps]
        )

    def predictors(self) -> list[int]:
        return [s.predictor_added for s in self.steps]

    def to_rows(self) -> list[dict]:
        """Long-format rows (one per model size, size 0 included)."""
        n = self.n_obs
        rows = [
            {
                "size": 0,
                "predictor_added": None,
                "candidates_evaluated": None,
                "raw_diff": 0.0,
                "corrected_diff": 0.0,
                "threshold": 0.0,
                "bias": 0.0,
                "elpd": self.base_elpd,
                "corrected_elpd": self.base_elpd,
                "mlpd": self.base_elpd / n,
                "corrected_mlpd": self.base_elpd / n,
                "test_mlpd": self.test_mlpd_base,
                "post_bulge": False,
            }
        ]
        for k, s in enumerate(self.steps, start=1):
            rows.append(
                {
                    "size": k,
                    "predictor_added": s.predictor_added,
                    "candidates_evaluated": s.candidates_evaluated,
                    "raw_diff": s.raw_diff,
                    "corrected_diff": s.corrected_diff,
                    "threshold": s.threshold_at_step,
                    "bias": s.bias_at_step,
                    "elpd": s.elpd_after,
                    "corrected_elpd": s.corrected_elpd_after,
                    "mlpd": s.elpd_after / n,
                    "corrected_mlpd": s.corrected_elpd_after / n,
                    "test_mlpd": s.test_mlpd_after,
                    "post_bulge": s.post_bulge,
                }
            )
        return rows


@dataclass(frozen=True)
class StopVerdicts:
    """Model sizes selected by each stopping rule."""

    bulge_size: int
    two_sigma_size: int
    corrected_max_size: int
    two_sigma_delta_size: int
    three_sigma_delta_size: int

    def to_dict(self) -> dict:
        return {
            "bulge_size": self.bulge_size,
            "two_sigma_size": self.two_sigma_size,
            "corrected_max_size": self.corrected_max_size,
            "two_sigma_delta_size": self.two_sigma_delta_size,
            "three_sigma_delta_size": self.three_sigma_delta_size,
        }


def forward_search(data: Dataset, prior: NigPrior, max_size: int) -> SearchPath:
    """Greedy forward search maximizing the exact LOO elpd point estimate.

    Each step scores all its candidates from the current model's carried
    posterior in one BLAS-3 pass (``conjlm._score_extensions``). The diffs
    against the current model and their paired standard errors come from
    that n x c block; only the chosen column is kept. The chosen model's
    posterior is then bordered from its column's terms: only the starting
    model, and a chosen candidate that breached the closed form's guard,
    are factorized. Ties break to the lowest predictor index. Each step's
    corrected fields hold its raw values until ``correct_path``.
    """
    p = data.p
    if max_size > p:
        raise EmptyCandidateSet(f"max_size {max_size} exceeds {p} predictors")
    if max_size < 1:
        raise InvalidParameter(f"max_size must be >= 1, got {max_size}")

    base = elpd_loo_exact(data.subset(()), prior)
    prev_elpd, prev_pointwise = base.estimate, base.pointwise
    model = _factorize(data, prior, ())
    steps: list[SearchStep] = []
    for _ in range(max_size):
        cands = [j for j in range(p) if j not in model.cols]
        pointwise, estimates, U, s, ey, ok = _score_extensions(
            data, prior, model, cands
        )
        diffs = estimates - prev_elpd
        best = int(np.argmax(diffs))
        # a copy, so that no step keeps the n x c block alive
        chosen = pointwise[:, best].copy()
        pointwise -= prev_pointwise[:, None]
        ses = elpd_se(pointwise)
        # free the block before the next step's kernel builds its own
        del pointwise
        elpd_after = float(estimates[best])
        j = cands[best]
        steps.append(
            SearchStep(
                predictor_added=j,
                candidates_evaluated=len(cands),
                raw_diff=float(diffs[best]),
                elpd_after=elpd_after,
                corrected_diff=float(diffs[best]),
                corrected_elpd_after=elpd_after,
                candidate_diffs=diffs,
                candidate_ses=ses,
                pointwise=chosen,
            )
        )
        if ok[best]:
            model = _border(model, j, data.X[:, j], U[:, best], s[best], ey[best])
        else:
            model = _factorize(data, prior, model.cols + (j,))
        prev_elpd, prev_pointwise = elpd_after, chosen

    return SearchPath(
        steps=tuple(steps),
        base_elpd=base.estimate,
        base_pointwise=base.pointwise,
        data=data,
        prior=prior,
        max_size=max_size,
    )


def correct_path(
    path: SearchPath,
    multiplier: float = 1.5,
    alpha: float = 0.5,
) -> SearchPath:
    """Apply the order-statistic bias correction along a search path.

    At each step the threshold is ``blom_max(K, alpha) * sigma_hat`` with
    sigma_hat estimated from that step's candidate diffs; gains below the
    threshold are reduced by ``multiplier * threshold``. Steps past the
    raw-path bulge are left uncorrected and flagged, since beyond it
    over-fitting is already evident.

    K is the model size, so the allowance grows as selection decisions
    compound and the first step is never corrected.
    """
    check_multiplier(multiplier)
    raw = path.raw_elpds()
    bulge_size = int(np.argmax(raw))

    new_steps: list[SearchStep] = []
    corrected_diffs: list[float] = []
    for idx, s in enumerate(path.steps):
        size = idx + 1
        if size >= 2 and s.candidate_diffs.size >= 2:
            sigma_hat = halfnormal_sigma(s.candidate_diffs).sigma_hat
        else:
            sigma_hat = 0.0
        thr = blom_max(size, alpha) * sigma_hat
        bias = multiplier * thr
        post_bulge = size > bulge_size
        if post_bulge or abs(s.raw_diff) >= thr:
            corrected = s.raw_diff
        else:
            corrected = s.raw_diff - bias
        corrected_diffs.append(corrected)
        new_steps.append(
            replace(
                s,
                corrected_diff=corrected,
                corrected_elpd_after=math.fsum([path.base_elpd] + corrected_diffs),
                threshold_at_step=float(thr),
                bias_at_step=float(bias),
                post_bulge=post_bulge,
            )
        )
    return replace(path, steps=tuple(new_steps))


def stopping_rules(path: SearchPath) -> StopVerdicts:
    """Evaluate all stopping rules on a completed path.

    bulge: argmax of the raw cumulative elpd. 2-sigma: smallest size whose
    raw elpd is within two paired standard errors of the bulge. corrected
    max: argmax of the corrected path. The incremental sigma-delta rules
    stop at the first size where no candidate's gain clears m * se(gain).
    """
    if len(path.steps) < path.max_size:
        raise IncompletePath(
            f"path has {len(path.steps)} steps, expected {path.max_size}"
        )
    raw = path.raw_elpds()
    bulge_size = int(np.argmax(raw))
    corrected_max_size = int(np.argmax(path.corrected_elpds()))

    pointwise = [path.base_pointwise] + [s.pointwise for s in path.steps]
    bulge_pw = pointwise[bulge_size]
    two_sigma_size = bulge_size
    for size in range(bulge_size + 1):
        se = 0.0 if size == bulge_size else elpd_se(pointwise[size] - bulge_pw)
        if raw[size] >= raw[bulge_size] - 2.0 * se:
            two_sigma_size = size
            break

    def first_stop(m: float) -> int:
        for idx, s in enumerate(path.steps):
            if not np.any(s.candidate_diffs - m * s.candidate_ses >= 0.0):
                return idx
        return len(path.steps)

    return StopVerdicts(
        bulge_size=bulge_size,
        two_sigma_size=two_sigma_size,
        corrected_max_size=corrected_max_size,
        two_sigma_delta_size=first_stop(2.0),
        three_sigma_delta_size=first_stop(3.0),
    )


def evaluate_test(path: SearchPath, test_data: Dataset) -> SearchPath:
    """Fill per-size test mlpd of each step's model fitted on the training data.

    The training posterior is carried along the path by the same bordering
    as ``forward_search``; with the added column's u = P^-1 A'x, s and
    g = e'y/s, each test row's location grows by e_t g and its leverage by
    e_t^2/s, where e_t = x_t - a_t'u. A step whose s is rounding noise is
    refactorized instead, and so fails as a refit of a singular model does.

    Predictors are matched by position, so when both datasets carry column
    names they must be the same names in the same order.
    """
    train, prior = path.data, path.prior
    if test_data.p != train.p:
        raise SchemaMismatch(
            f"test data has {test_data.p} predictors, training had {train.p}"
        )
    if test_data.intercept != train.intercept:
        raise SchemaMismatch("test and training data differ in the intercept")
    names = zip(train.columns or (), test_data.columns or ())
    for i, (a, b) in enumerate(names, start=1):
        if a != b:
            raise SchemaMismatch(
                f"test predictor {i} is {b!r} where training has {a!r}"
            )
    a_n = prior.a0 + train.n / 2.0
    model = _factorize(train, prior, ())
    At = test_data.subset(()).design()
    loc, lev = At @ model.mean_n, _leverages(At, model.cov)

    def test_mlpd(loc, lev, b_n) -> float:
        return float(np.mean(_predictive_logpdf(test_data.y, loc, lev, a_n, b_n)))

    base_mlpd = test_mlpd(loc, lev, model.b_n)
    new_steps = []
    for step in path.steps:
        j = step.predictor_added
        x, xt = train.X[:, j], test_data.X[:, j]
        U, _, s, ey, noise = _border_terms(model, x[:, None], train.y, prior)
        At_next = np.column_stack([At, xt])
        if noise[0]:
            model = _factorize(train, prior, model.cols + (j,))
            loc, lev = At_next @ model.mean_n, _leverages(At_next, model.cov)
        else:
            et = xt - At @ U[:, 0]
            loc = loc + et * (ey[0] / s[0])
            lev = lev + et**2 / s[0]
            model = _border(model, j, x, U[:, 0], s[0], ey[0])
        At = At_next
        m = test_mlpd(loc, lev, model.b_n)
        new_steps.append(replace(step, test_mlpd_after=m))
    return replace(path, steps=tuple(new_steps), test_mlpd_base=base_mlpd)

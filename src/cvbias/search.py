"""LOO-CV forward search with order-statistic bias correction and stopping rules.

Each step adds the predictor with the best LOO elpd among the remaining
candidates. Because every step is an argmax over noisy estimates, the raw
cumulative path overstates predictive gains; ``correct_path`` subtracts the
per-step bias estimate wherever the step's gain sits below the expected
maximum of equally-useless candidates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .conjlm import (
    Dataset,
    NigPrior,
    _border,
    _border_rows,
    _predictive_logpdf,
    _score_extensions,
    elpd_loo_exact,
    fit,
    log_pred,
)
from .errors import InvalidParameter, NonFiniteInput, SchemaMismatch
from .orderstats import (
    DEFAULT_ALPHA,
    DEFAULT_MULTIPLIER,
    check_alpha,
    check_finite,
    check_multiplier,
    threshold,
)
from .psisloo import elpd_se, mlpd


@dataclass(frozen=True)
class SearchStep:
    """The model of one size on a forward-search path, and the step that
    reached it.

    ``candidate_diffs`` and ``candidate_ses`` hold one entry per candidate
    scored at this step, so their size is the step's candidate count. The
    intercept-only model adds no predictor and scores no candidate.
    """

    predictor_added: int | None
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

    @property
    def candidates_evaluated(self) -> int:
        return self.candidate_diffs.size


@dataclass(frozen=True)
class SearchPath:
    """Forward-search trajectory: ``steps[k]`` is the model of size k, and
    ``steps[0]`` the intercept-only model it starts from."""

    steps: tuple[SearchStep, ...]

    def raw_elpds(self) -> np.ndarray:
        return np.array([s.elpd_after for s in self.steps])

    def corrected_elpds(self) -> np.ndarray:
        return np.array([s.corrected_elpd_after for s in self.steps])

    def test_mlpds(self) -> np.ndarray | None:
        if self.steps[0].test_mlpd_after is None:
            return None
        return np.array([s.test_mlpd_after for s in self.steps])

    def predictors(self) -> list[int]:
        return [s.predictor_added for s in self.steps[1:]]

    def to_rows(self) -> list[dict]:
        """Long-format rows: row k is the model of size k."""
        n = self.steps[0].pointwise.size
        return [
            {
                "size": k,
                "predictor_added": s.predictor_added,
                "candidates_evaluated": s.candidates_evaluated or None,
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
            for k, s in enumerate(self.steps)
        ]


@dataclass(frozen=True)
class StopVerdicts:
    """Model sizes selected by each stopping rule."""

    bulge_size: int
    two_sigma_size: int
    corrected_max_size: int
    two_sigma_delta_size: int
    three_sigma_delta_size: int

    def to_dict(self) -> dict:
        return asdict(self)


def _predictor(data: Dataset, j: int) -> str:
    """Predictor ``j`` of ``data`` as messages name it: quoted, or numbered from 1."""
    return repr(data.columns[j]) if data.columns else str(j + 1)


def _require_finite_squares(data: Dataset, which: str) -> None:
    """Raise NonFiniteInput naming the first column of ``data``, or its
    response, whose sum of squares overflows.

    Every fit squares the predictors and the response; an overflow there
    makes the elpds NaN, infinite or silently wrong.
    """
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->j", data.X, data.X)
        y_squares = np.einsum("i,i->", data.y, data.y)
    bad = np.flatnonzero(~np.isfinite(squares))
    if bad.size:
        name = _predictor(data, int(bad[0]))
        raise NonFiniteInput(f"{which} predictor {name} overflows when squared")
    if not np.isfinite(y_squares):
        raise NonFiniteInput(f"{which} response overflows when squared")


@np.errstate(over="ignore", invalid="ignore")
def forward_search(
    data: Dataset, prior: NigPrior, max_size: int, test: Dataset | None = None
) -> SearchPath:
    """Greedy forward search maximizing the exact LOO elpd point estimate.

    Each step scores all its candidates from the current model's carried
    ``PosteriorFit`` in one BLAS-3 pass (``conjlm._score_extensions``) over
    a candidate-major block, one contiguous row of n values per candidate,
    giving the diffs and paired standard errors; only the chosen row is
    kept. The chosen column's u = P^-1 A'x, s and e'y border that fit, or
    the kernel's own fit of the extended model takes its place where that
    model breached the closed form's guard; only the starting model is fit
    here. Ties break to the lowest predictor index.
    Each step's corrected fields hold its raw values until ``correct_path``.
    A predictor or response of ``data`` or ``test`` whose sum of squares
    overflows is rejected before any fit. Squares that fit can still
    overflow in later products: numpy overflows quietly here, and the
    column is named once the base elpd, a candidate's elpd or paired SE,
    or a test mlpd it enters is not finite.

    A ``test`` set, matched to ``data`` by predictor position (and by name,
    when both have names), is scored at every size from the same posterior:
    ``conjlm._border_rows`` moves its rows with the chosen column's terms,
    or predicts them from the kernel's fit of a model that breached the
    guard.
    """
    p = data.p
    if p == 0:
        # else the default max_size of the command line, p, fails as a size
        raise SchemaMismatch("training data has no predictor columns")
    if test is not None:
        if test.p != p:
            raise SchemaMismatch(f"test data has {test.p} predictors, training had {p}")
        names = zip(data.columns or (), test.columns or ())
        for i, (a, b) in enumerate(names, start=1):
            if a != b:
                raise SchemaMismatch(
                    f"test predictor {i} is {b!r} where training has {a!r}"
                )
    if max_size > p:
        raise InvalidParameter(f"max_size {max_size} exceeds {p} predictors")
    if max_size < 1:
        raise InvalidParameter(f"max_size must be >= 1, got {max_size}")
    _require_finite_squares(data, "training")
    if test is not None:
        _require_finite_squares(test, "test")

    cols: tuple[int, ...] = ()
    base = elpd_loo_exact(data.subset(cols), prior)
    if not math.isfinite(base.estimate):
        raise NonFiniteInput("training response overflows the base model's LOO elpd")
    post = fit(data.subset(cols), prior)
    test_mlpd = None
    if test is not None:
        At = test.subset(cols).design()
        test_mlpd = mlpd(log_pred(post, At, test.y))
        if not math.isfinite(test_mlpd):
            raise NonFiniteInput("test response overflows the base model's mlpd")
        # the intercept-only model gives every row one location and leverage
        loc, lev = post.mean_n[0], post.h[0]
    steps = [
        SearchStep(
            predictor_added=None,
            raw_diff=0.0,
            elpd_after=base.estimate,
            corrected_diff=0.0,
            corrected_elpd_after=base.estimate,
            candidate_diffs=np.empty(0),
            candidate_ses=np.empty(0),
            pointwise=base.pointwise,
            test_mlpd_after=test_mlpd,
        )
    ]
    for _ in range(max_size):
        prev = steps[-1]
        cands = [j for j in range(p) if j not in cols]
        # each candidate's column gathered into one contiguous row; the
        # kernel holds the block's only reference and frees it early
        pointwise, estimates, U, s, ey, refits = _score_extensions(post, data.X.T[cands])
        diffs = estimates - prev.elpd_after
        best = int(np.argmax(diffs))
        # a copy, so that no step keeps the c x n block alive
        chosen = pointwise[best].copy()
        pointwise -= prev.pointwise
        ses = elpd_se(pointwise)
        # free the block before the next step's kernel builds its own
        del pointwise
        bad = np.flatnonzero(~(np.isfinite(estimates) & np.isfinite(ses)))
        if bad.size:
            size, name = len(cols) + 1, _predictor(data, cands[bad[0]])
            raise NonFiniteInput(f"training predictor {name} overflows the LOO elpd at size {size}")
        elpd_after = float(estimates[best])
        j = cands[best]
        cols += (j,)
        terms = U[best], s[best], ey[best], refits[best]
        if test is not None:
            x = test.X[:, j]
            loc, lev, b_n = _border_rows(At, x, loc, lev, post.b_n, *terms)
            At = np.column_stack([At, x])
            test_mlpd = mlpd(_predictive_logpdf(test.y, loc, lev, post.a_n, b_n))
            if not math.isfinite(test_mlpd):
                name = _predictor(test, j)
                raise NonFiniteInput(f"test predictor {name} overflows the mlpd at size {len(cols)}")
        post = _border(post, data.X[:, j], *terms)
        steps.append(
            SearchStep(
                predictor_added=j,
                raw_diff=float(diffs[best]),
                elpd_after=elpd_after,
                corrected_diff=float(diffs[best]),
                corrected_elpd_after=elpd_after,
                candidate_diffs=diffs,
                candidate_ses=ses,
                pointwise=chosen,
                test_mlpd_after=test_mlpd,
            )
        )
    return SearchPath(steps=tuple(steps))


def correct_path(
    path: SearchPath,
    multiplier: float = DEFAULT_MULTIPLIER,
    alpha: float = DEFAULT_ALPHA,
) -> SearchPath:
    """Apply the order-statistic bias correction along a search path.

    At each step the threshold is ``orderstats.threshold`` of that step's
    candidate diffs, the expected maximum of K null diffs; gains below the
    threshold are reduced by ``multiplier * threshold``. Steps past the
    raw-path bulge are left uncorrected and flagged, since beyond it
    over-fitting is already evident.

    K is the model size, so the allowance grows as selection decisions
    compound; sizes 0 and 1 keep a threshold and bias of 0, and their raw
    diffs.
    """
    check_multiplier(multiplier)
    check_alpha(alpha)
    raw = path.raw_elpds()
    bulge_size = int(np.argmax(raw))

    new_steps: list[SearchStep] = []
    corrected_diffs: list[float] = []
    for size, s in enumerate(path.steps):
        # sizes 0 and 1 are never corrected: size 0 scores no candidate, the
        # expected maximum at K = 1 is 0, and 0 times an infinite sigma_hat
        # would be NaN
        thr = threshold(s.candidate_diffs, alpha, size).threshold if size >= 2 else 0.0
        bias = check_finite(multiplier * thr, f"bias at size {size}", multiplier)
        post_bulge = size > bulge_size
        if post_bulge or abs(s.raw_diff) >= thr:
            corrected = s.raw_diff
        else:
            corrected = s.raw_diff - bias
        corrected_diffs.append(corrected)
        try:
            corrected_elpd = math.fsum([path.steps[0].elpd_after] + corrected_diffs)
        except OverflowError:  # finite terms whose sum leaves the float range
            corrected_elpd = math.inf
        what = f"corrected elpd at size {size}"
        new_steps.append(
            replace(
                s,
                corrected_diff=corrected,
                corrected_elpd_after=check_finite(corrected_elpd, what, multiplier),
                threshold_at_step=thr,
                bias_at_step=bias,
                post_bulge=post_bulge,
            )
        )
    return replace(path, steps=tuple(new_steps))


def stopping_rules(path: SearchPath) -> StopVerdicts:
    """Evaluate all stopping rules on the model sizes a path holds.

    bulge: argmax of the raw cumulative elpd. 2-sigma: smallest size whose
    raw elpd is within two paired standard errors of the bulge. corrected
    max: argmax of the corrected path. The incremental sigma-delta rules
    stop at the first size from which no candidate's gain clears
    m * se(gain); they read the steps from size 1 on, since size 0 scores
    no candidate.
    """
    raw = path.raw_elpds()
    bulge_size = int(np.argmax(raw))
    corrected_max_size = int(np.argmax(path.corrected_elpds()))

    bulge_pw = path.steps[bulge_size].pointwise
    two_sigma_size = bulge_size
    for size in range(bulge_size + 1):
        se = elpd_se(path.steps[size].pointwise - bulge_pw)
        if raw[size] >= raw[bulge_size] - 2.0 * se:
            two_sigma_size = size
            break

    def first_stop(m: float) -> int:
        for size, s in enumerate(path.steps[1:]):
            if not np.any(s.candidate_diffs - m * s.candidate_ses >= 0.0):
                return size
        return len(path.steps) - 1

    return StopVerdicts(
        bulge_size=bulge_size,
        two_sigma_size=two_sigma_size,
        corrected_max_size=corrected_max_size,
        two_sigma_delta_size=first_stop(2.0),
        three_sigma_delta_size=first_stop(3.0),
    )

"""Conjugate Bayesian linear regression with exact leave-one-out elpd.

Normal-inverse-gamma prior, analytic posterior, Student-t posterior
predictive. Exact LOO comes from a rank-one downdate of the full-data
posterior (verified against per-observation refits), giving LOO elpds with
zero Monte-Carlo error at negligible cost.

The prior is centred at zero with scale ``v0 * I``, so every model has one
posterior representation: the d x d inverse P^-1 of its posterior precision
P = A'A + I/v0, formed once per fit. The posterior mean, the leverages, the
predictive density and ``draw_posterior`` all read that one matrix.

``elpd_loo_extensions`` scores every one-column extension of a model in one
call, as a forward-search step needs: one inverse of the current model's
precision, one BLAS-3 pass that updates leverages, fitted values and
scale for all candidate columns at once (block-inverse identity), and the
closed-form LOO on the n x c block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NonFiniteInput,
    TooFewObservations,
)
from .psisloo import ElpdEstimate, elpd_se

DIFFUSE_V0 = 100.0
TIGHT_V0 = 0.25


@dataclass(frozen=True)
class Dataset:
    """Predictor matrix and response; the intercept column is implicit."""

    X: np.ndarray
    y: np.ndarray
    intercept: bool = True
    columns: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
            raise DimensionMismatch("X must be (n, p) and y length n")
        if y.size < 1:
            raise TooFewObservations("dataset needs at least 1 observation")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise NonFiniteInput("dataset contains non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def design(self) -> np.ndarray:
        if self.intercept:
            return np.hstack([np.ones((self.n, 1)), self.X])
        return self.X

    def subset(self, cols: Sequence[int]) -> "Dataset":
        cols = tuple(cols)
        names = tuple(self.columns[c] for c in cols) if self.columns else None
        return Dataset(self.X[:, cols], self.y, self.intercept, names)


@dataclass(frozen=True)
class NigPrior:
    """Normal-inverse-gamma prior: beta | s2 ~ N(0, s2*v0*I), s2 ~ IG(a0, b0)."""

    v0: float = DIFFUSE_V0
    a0: float = 1.0
    b0: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.a0, self.b0)):
            raise InvalidParameter("a0 and b0 must be finite and > 0")
        # 1/v0 enters the posterior precision, so it must be finite too
        v0 = self.v0
        if np.ndim(v0) != 0 or not (0 < v0 < math.inf and 1.0 / v0 < math.inf):
            raise InvalidParameter("v0 must be a finite scalar > 0 with finite 1/v0")

    @classmethod
    def diffuse(cls) -> "NigPrior":
        return cls(v0=DIFFUSE_V0)

    @classmethod
    def tight(cls) -> "NigPrior":
        return cls(v0=TIGHT_V0)


@dataclass(frozen=True)
class PosteriorFit:
    """Posterior state: beta | s2, y ~ N(mean_n, s2*P^-1), s2 ~ IG(a_n, b_n).

    ``cov`` is the inverse P^-1 of the posterior precision P, so the
    coefficients' posterior covariance given s2 is ``s2 * cov``.
    """

    mean_n: np.ndarray
    cov: np.ndarray
    a_n: float
    b_n: float

    @property
    def dim(self) -> int:
        return self.mean_n.size


def fit(data: Dataset, prior: NigPrior) -> PosteriorFit:
    """Conjugate update of the normal-inverse-gamma prior on ``data``."""
    if data.n < 2:
        raise TooFewObservations("fitting needs at least 2 observations")
    cov, mean_n, _, b_n = _posterior(data.design(), data.y, prior)
    return PosteriorFit(
        mean_n=mean_n,
        cov=cov,
        a_n=float(prior.a0 + data.n / 2.0),
        b_n=float(b_n),
    )


def _posterior(A: np.ndarray, y: np.ndarray, prior: NigPrior):
    """Invert the posterior precision P = A'A + I/v0 of design ``A`` once.

    Returns P^-1, ``mean_n``, the residuals ``y - A mean_n`` and ``b_n``.
    Raises ``InvalidParameter`` when P is singular in floating point, as
    with duplicate predictor columns so large that 1/v0 is lost beside A'A.
    """
    P = A.T @ A
    P[np.diag_indices_from(P)] += 1.0 / prior.v0
    try:
        cov = np.linalg.inv(P)
    except np.linalg.LinAlgError:
        raise InvalidParameter(
            "posterior precision is singular: predictors are collinear or too "
            "large in scale for the prior"
        ) from None
    mean_n = cov @ (A.T @ y)
    resid = y - A @ mean_n
    b_n = prior.b0 + 0.5 * (resid @ resid + mean_n @ mean_n / prior.v0)
    return cov, mean_n, resid, b_n


def _leverages(A: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Diagonal of ``A P^-1 A'`` for ``cov`` = P^-1."""
    return np.einsum("ij,ij->i", A @ cov, A)


def _student_t_logpdf(y, loc, scale2, df):
    z2 = (y - loc) ** 2 / scale2
    return (
        math.lgamma((df + 1.0) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * np.log(df * np.pi * scale2)
        - (df + 1.0) / 2.0 * np.log1p(z2 / df)
    )


def log_pred(fit_: PosteriorFit, x_new, y_new):
    """Log posterior predictive density at (x_new, y_new).

    ``x_new`` is a design row (intercept included) or a matrix of rows, in
    which case ``y_new`` is the matching vector.
    """
    x = np.atleast_2d(np.asarray(x_new, dtype=float))
    if x.shape[1] != fit_.dim:
        raise DimensionMismatch(
            f"x_new has {x.shape[1]} columns, fit expects {fit_.dim}"
        )
    y = np.asarray(y_new, dtype=float)
    loc = x @ fit_.mean_n
    scale2 = (fit_.b_n / fit_.a_n) * (1.0 + _leverages(x, fit_.cov))
    out = _student_t_logpdf(y, loc, scale2, 2.0 * fit_.a_n)
    if np.ndim(y_new) == 0 and np.ndim(x_new) == 1:
        return float(out[0])
    return out


def log_pred_dataset(fit_: PosteriorFit, data: Dataset) -> np.ndarray:
    """Pointwise log posterior predictive density over a dataset."""
    return log_pred(fit_, data.design(), data.y)


def elpd_loo_exact(
    data: Dataset,
    prior: NigPrior,
    model_id: str = "model",
    method: str = "downdate",
) -> ElpdEstimate:
    """Exact LOO elpd: each observation predicted from the fit without it.

    ``method="downdate"`` removes each row from the full posterior in
    closed form; ``"refit"`` refits n times and is kept as the slow
    reference (the two agree to well below 1e-8).
    """
    if data.n < 3:
        raise TooFewObservations("exact LOO needs at least 3 observations")
    if method == "refit":
        pointwise = _loo_refit(data, prior)
    elif method == "downdate":
        pointwise = _loo_downdate(data, prior)
    else:
        raise InvalidParameter(f"unknown method {method!r}")
    # fsum over Python floats: the same correctly rounded sum, without one
    # numpy scalar per element
    return ElpdEstimate(
        pointwise=pointwise,
        estimate=math.fsum(pointwise.tolist()),
        se=elpd_se(pointwise),
        model_id=model_id,
    )


def elpd_loo_extensions(
    data: Dataset,
    prior: NigPrior,
    current: Sequence[int],
    candidates: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Exact LOO elpd of the model on ``current`` extended by each candidate.

    Returns ``(pointwise, estimates)``: column k of the n x c block
    ``pointwise`` is what ``elpd_loo_exact(data.subset(current + (j,)),
    prior).pointwise`` returns for the k-th candidate j (within 1e-9), and
    ``estimates[k]`` is its ``math.fsum``. All come from one inverse of the
    current model's posterior precision P. With the hat matrix
    H = A P^-1 A', e = x - H x and s = x'e + 1/v0, adding column x moves the
    leverages to h + e^2/s, the fitted values to mu + e (e'y)/s and b_n to
    b_n - (e'y)^2/(2s); all candidates go through one BLAS-3 pass.
    Only candidates whose extended model breaches the closed form's guard
    (leverage >= 1 - 1e-10, a downdated scale <= 0, or s <= n*eps*x'x,
    where s is rounding noise) are scored on their own, by
    ``elpd_loo_exact``, which factorizes that model's precision.
    """
    current = tuple(current)
    candidates = list(candidates)
    if data.n < 3:
        raise TooFewObservations("exact LOO needs at least 3 observations")
    A = data.subset(current).design()
    y = data.y
    cov, _, resid, b_n = _posterior(A, y, prior)
    h = _leverages(A, cov)
    Xc = data.X[:, candidates]
    # in-place updates keep at most three n x c arrays alive at once, so
    # peak memory stays near that of a single-candidate fit
    E = A @ (cov @ (A.T @ Xc))
    np.subtract(Xc, E, out=E)
    s = np.einsum("ij,ij->j", Xc, E) + 1.0 / prior.v0
    # s >= 1/v0 in exact arithmetic; below n*eps*x'x it is rounding noise
    s_floor = data.n * np.finfo(float).eps * np.einsum("ij,ij->j", Xc, Xc)
    del Xc
    ey = E.T @ y
    resid_ext = E * (ey / s)
    np.subtract(resid[:, None], resid_ext, out=resid_ext)
    omh = np.square(E, out=E)
    omh /= s
    np.subtract((1.0 - h)[:, None], omh, out=omh)
    pointwise, ok = _loo_closed_form(
        resid_ext, omh, b_n - ey**2 / (2.0 * s), prior.a0 + data.n / 2.0
    )
    ok &= s > s_floor
    for k in np.flatnonzero(~ok):
        sub = data.subset(current + (candidates[k],))
        pointwise[:, k] = elpd_loo_exact(sub, prior).pointwise
    # fsum over Python floats, one column at a time: the correctly rounded
    # sum keeps near-ties in a search's argmax stable
    estimates = np.array(
        [math.fsum(pointwise[:, k].tolist()) for k in range(len(candidates))]
    )
    return pointwise, estimates


def _loo_closed_form(resid, omh, b_n, a_n):
    """Exact-LOO log predictive density of every observation, in closed form.

    ``resid`` holds the full-data residuals y - mu, ``omh`` the complements
    1 - h of the leverages, ``b_n`` and ``a_n`` the full-data posterior;
    2-d arrays hold one model per column. Without row i the posterior has
    shape a_n - 1/2 and scale b_i = b_n - r_i^2 / (2 (1 - h_i)), and y_i is
    Student-t with location y_i - r_i / (1 - h_i) and squared scale
    (b_i / (a_n - 1/2)) / (1 - h_i). Overwrites ``resid``.

    Returns the densities and, per model, whether the closed form holds:
    False where some leverage reaches 1 - 1e-10 or some b_i <= 0.
    """
    a_i = a_n - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.square(resid, out=resid)
        q /= omh
        q *= 0.5
        b_i = b_n - q
        ok = (np.min(omh, axis=0) > 1e-10) & (np.min(b_i, axis=0) > 0)
        q /= b_i
        np.log1p(q, out=q)
        q *= -(a_i + 0.5)
        b_i /= omh
        b_i *= 2.0 * np.pi
        np.log(b_i, out=b_i)
        b_i *= 0.5
        q -= b_i
    q += math.lgamma(a_i + 0.5) - math.lgamma(a_i)
    return q, ok


def _loo_downdate(data: Dataset, prior: NigPrior) -> np.ndarray:
    X = data.design()
    cov, _, resid, b_n = _posterior(X, data.y, prior)
    pointwise, ok = _loo_closed_form(
        resid, 1.0 - _leverages(X, cov), b_n, prior.a0 + data.n / 2.0
    )
    return pointwise if ok else _loo_refit(data, prior)


def _loo_refit(data: Dataset, prior: NigPrior) -> np.ndarray:
    n = data.n
    pointwise = np.empty(n)
    X_full = data.design()
    for i in range(n):
        keep = np.arange(n) != i
        sub = Dataset(data.X[keep], data.y[keep], data.intercept, data.columns)
        pointwise[i] = log_pred(fit(sub, prior), X_full[i], data.y[i])
    return pointwise


class PosteriorDraws(NamedTuple):
    coefficients: np.ndarray  # draws x dim
    sigma2: np.ndarray  # draws


def draw_posterior(fit_: PosteriorFit, S: int, seed=None) -> PosteriorDraws:
    """S exact draws of (coefficients, noise variance) from the posterior."""
    if S < 1:
        raise InvalidParameter("S must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sigma2 = fit_.b_n / rng.gamma(fit_.a_n, 1.0, size=S)
    z = rng.standard_normal((S, fit_.dim))
    chol = np.linalg.cholesky(fit_.cov)
    coefficients = fit_.mean_n + (z @ chol.T) * np.sqrt(sigma2)[:, None]
    return PosteriorDraws(coefficients=coefficients, sigma2=sigma2)


def pointwise_loglik(data: Dataset, draws: PosteriorDraws) -> np.ndarray:
    """Draws-by-observations log-likelihood matrix under Gaussian noise."""
    X = data.design()
    mu = draws.coefficients @ X.T
    s2 = draws.sigma2[:, None]
    return -0.5 * (np.log(2.0 * np.pi * s2) + (data.y[None, :] - mu) ** 2 / s2)

"""Conjugate Bayesian linear regression with exact leave-one-out elpd.

Normal-inverse-gamma prior, analytic posterior, Student-t posterior
predictive. Exact LOO comes from a rank-one downdate of the full-data
posterior (verified against per-observation refits), giving LOO elpds with
zero Monte-Carlo error at negligible cost.

``elpd_loo_extensions`` scores every one-column extension of a model in one
call, as a forward-search step needs: one Cholesky factorization of the
current model, one BLAS-3 pass that updates leverages, fitted values and
scale for all candidate columns at once (block-inverse identity), and the
closed-form LOO on the n x c block. It applies to priors with a scalar
``v0`` and zero mean, which covers both presets; any other prior scores
each extension on its own with ``elpd_loo_exact``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaln

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
    """Normal-inverse-gamma prior: beta | s2 ~ N(mean, s2*V0), s2 ~ IG(a0, b0).

    ``v0`` may be a scalar (V0 = v0*I), a diagonal vector, or a full matrix.
    """

    mean: float | np.ndarray = 0.0
    v0: float | np.ndarray = DIFFUSE_V0
    a0: float = 1.0
    b0: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.a0, self.b0)):
            raise InvalidParameter("a0 and b0 must be finite and > 0")
        if not np.all(np.isfinite(self.mean)):
            raise InvalidParameter("prior mean must be finite")
        v = np.asarray(self.v0, dtype=float)
        if v.ndim <= 1:
            if not np.all(np.isfinite(v) & (v > 0)):
                raise InvalidParameter("prior scale v0 must be finite and > 0")
            return
        if (
            v.ndim != 2
            or v.shape[0] != v.shape[1]
            or not np.all(np.isfinite(v))
            or not np.allclose(v, v.T, rtol=1e-10, atol=0.0)
        ):
            raise InvalidParameter("prior scale matrix must be square, finite and symmetric")
        try:
            np.linalg.cholesky(v)
        except np.linalg.LinAlgError:
            raise InvalidParameter("prior scale matrix must be positive-definite") from None

    @classmethod
    def diffuse(cls) -> "NigPrior":
        return cls(v0=DIFFUSE_V0)

    @classmethod
    def tight(cls) -> "NigPrior":
        return cls(v0=TIGHT_V0)

    def mean_vector(self, d: int) -> np.ndarray:
        m = np.asarray(self.mean, dtype=float)
        if m.ndim == 0:
            return np.full(d, float(m))
        if m.shape != (d,):
            raise DimensionMismatch(f"prior mean has shape {m.shape}, expected ({d},)")
        return m

    def precision_matrix(self, d: int) -> np.ndarray:
        v = np.asarray(self.v0, dtype=float)
        if v.ndim == 0:
            return np.eye(d) / float(v)
        if v.ndim == 1:
            if v.shape != (d,):
                raise DimensionMismatch("prior scale diagonal has wrong length")
            return np.diag(1.0 / v)
        if v.shape != (d, d):
            raise DimensionMismatch("prior scale matrix has wrong shape")
        return np.linalg.inv(v)


@dataclass(frozen=True)
class PosteriorFit:
    """Posterior state: beta | s2, y ~ N(mean_n, s2*v_n), s2 ~ IG(a_n, b_n)."""

    mean_n: np.ndarray
    v_n: np.ndarray
    a_n: float
    b_n: float
    log_marginal: float

    @property
    def dim(self) -> int:
        return self.mean_n.size


def fit(data: Dataset, prior: NigPrior) -> PosteriorFit:
    """Conjugate update of the normal-inverse-gamma prior on ``data``."""
    if data.n < 2:
        raise TooFewObservations("fitting needs at least 2 observations")
    X = data.design()
    n, d = X.shape
    cf, mean_n, _, b_n, lam0 = _posterior(X, data.y, prior)
    v_n = cho_solve(cf, np.eye(d))
    a_n = prior.a0 + n / 2.0
    logdet_lam_n = 2.0 * np.sum(np.log(np.diag(cf[0])))
    logdet_lam0 = np.linalg.slogdet(lam0)[1]
    log_marginal = (
        -0.5 * n * math.log(2.0 * math.pi)
        + 0.5 * (logdet_lam0 - logdet_lam_n)
        + prior.a0 * math.log(prior.b0)
        - a_n * math.log(b_n)
        + gammaln(a_n)
        - gammaln(prior.a0)
    )
    return PosteriorFit(
        mean_n=mean_n,
        v_n=v_n,
        a_n=float(a_n),
        b_n=float(b_n),
        log_marginal=float(log_marginal),
    )


def _posterior(A: np.ndarray, y: np.ndarray, prior: NigPrior):
    """Factor the posterior precision of design ``A`` once.

    Returns its Cholesky factor, ``mean_n``, the residuals ``y - A mean_n``,
    ``b_n`` and the prior precision.
    """
    d = A.shape[1]
    m0 = prior.mean_vector(d)
    lam0 = prior.precision_matrix(d)
    cf = cho_factor(lam0 + A.T @ A)
    mean_n = cho_solve(cf, lam0 @ m0 + A.T @ y)
    resid = y - A @ mean_n
    dm = mean_n - m0
    b_n = prior.b0 + 0.5 * (resid @ resid + dm @ lam0 @ dm)
    return cf, mean_n, resid, b_n, lam0


def _leverages(A: np.ndarray, cf) -> np.ndarray:
    """Diagonal of ``A P^-1 A'`` for the Cholesky factor ``cf`` of P."""
    return np.einsum("ij,ji->i", A, cho_solve(cf, A.T))


def _student_t_logpdf(y, loc, scale2, df):
    z2 = (y - loc) ** 2 / scale2
    return (
        gammaln((df + 1.0) / 2.0)
        - gammaln(df / 2.0)
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
    q = np.einsum("ij,jk,ik->i", x, fit_.v_n, x)
    scale2 = (fit_.b_n / fit_.a_n) * (1.0 + q)
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
    return _estimate(pointwise, model_id)


def elpd_loo_extensions(
    data: Dataset,
    prior: NigPrior,
    current: Sequence[int],
    candidates: Sequence[int],
) -> list[ElpdEstimate]:
    """Exact LOO elpd of the model on ``current`` extended by each candidate.

    Returns what ``elpd_loo_exact(data.subset(current + (j,)), prior)``
    returns for every ``j`` in ``candidates`` (pointwise within 1e-9), from
    one factorization of the current design A. With the hat matrix
    H = A P^-1 A', e = x - H x and s = x'e + 1/v0, adding column x moves the
    leverages to h + e^2/s, the fitted values to mu + e (e'y)/s and b_n to
    b_n - (e'y)^2/(2s); all candidates go through one BLAS-3 pass.
    Candidates whose extended model breaches the closed form's guard
    (leverage >= 1 - 1e-10, a downdated scale <= 0, or s <= 0 from
    rounding), and every candidate
    under a prior without scalar ``v0`` and zero mean, are scored by
    ``elpd_loo_exact``.
    """
    current = tuple(current)
    candidates = list(candidates)

    def one_by_one(j):
        return elpd_loo_exact(data.subset(current + (j,)), prior)

    if np.ndim(prior.v0) != 0 or np.ndim(prior.mean) != 0 or prior.mean != 0:
        return [one_by_one(j) for j in candidates]
    if data.n < 3:
        raise TooFewObservations("exact LOO needs at least 3 observations")
    A = data.subset(current).design()
    y = data.y
    cf, _, resid, b_n, _ = _posterior(A, y, prior)
    h = _leverages(A, cf)
    Xc = data.X[:, candidates]
    # in-place updates keep at most three n x c arrays alive at once, so
    # peak memory stays near that of a single-candidate fit
    E = A @ cho_solve(cf, A.T @ Xc)
    np.subtract(Xc, E, out=E)
    s = np.einsum("ij,ij->j", Xc, E) + 1.0 / prior.v0
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
    ok &= s > 0
    return [
        _estimate(pointwise[:, k].copy()) if ok[k] else one_by_one(j)
        for k, j in enumerate(candidates)
    ]


def _estimate(pointwise: np.ndarray, model_id: str = "model") -> ElpdEstimate:
    # fsum over Python floats: the same correctly rounded sum, without one
    # numpy scalar per element
    return ElpdEstimate(
        pointwise=pointwise,
        estimate=math.fsum(pointwise.tolist()),
        se=elpd_se(pointwise),
        model_id=model_id,
    )


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
    q += gammaln(a_i + 0.5) - gammaln(a_i)
    return q, ok


def _loo_downdate(data: Dataset, prior: NigPrior) -> np.ndarray:
    X = data.design()
    cf, _, resid, b_n, _ = _posterior(X, data.y, prior)
    pointwise, ok = _loo_closed_form(
        resid, 1.0 - _leverages(X, cf), b_n, prior.a0 + data.n / 2.0
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
    chol = np.linalg.cholesky(fit_.v_n)
    coefficients = fit_.mean_n + (z @ chol.T) * np.sqrt(sigma2)[:, None]
    return PosteriorDraws(coefficients=coefficients, sigma2=sigma2)


def pointwise_loglik(data: Dataset, draws: PosteriorDraws) -> np.ndarray:
    """Draws-by-observations log-likelihood matrix under Gaussian noise."""
    X = data.design()
    mu = draws.coefficients @ X.T
    s2 = draws.sigma2[:, None]
    return -0.5 * (np.log(2.0 * np.pi * s2) + (data.y[None, :] - mu) ** 2 / s2)

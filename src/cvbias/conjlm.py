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
call, as a forward-search step needs: one BLAS-3 pass over the current
model's P^-1 that updates leverages, fitted values and scale for all
candidate columns at once (block-inverse identity), and the closed-form
LOO on the n x c block. A forward search carries the chosen extension's
posterior to the next step by bordering P^-1 with that column's terms, so
only its starting model is factorized.
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
        # columns of a validated dataset are finite: skip __post_init__
        sub = object.__new__(Dataset)
        sub.__dict__.update(
            X=self.X[:, cols], y=self.y, intercept=self.intercept, columns=names
        )
        return sub


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


def _predictive_logpdf(y, loc, leverage, a_n, b_n):
    """Student-t posterior predictive log density of ``y`` at design rows
    with location x'mean_n ``loc`` and leverage x'P^-1x ``leverage``."""
    scale2 = (b_n / a_n) * (1.0 + leverage)
    df = 2.0 * a_n
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
    out = _predictive_logpdf(y, loc, _leverages(x, fit_.cov), fit_.a_n, fit_.b_n)
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
    ``estimates[k]`` is its ``math.fsum``, bit for bit. One inverse of the
    current model's posterior precision P serves all candidates (see
    ``_score_extensions``).
    """
    if data.n < 3:
        raise TooFewObservations("exact LOO needs at least 3 observations")
    model = _factorize(data, prior, current)
    pointwise, estimates, *_ = _score_extensions(data, prior, model, candidates)
    return pointwise, estimates


class _Model(NamedTuple):
    """One model's posterior, carried from one forward-search step to the next.

    ``cols`` are its predictors, ``A`` its design, ``cov`` the inverse
    P^-1 of its posterior precision, ``h`` the leverages diag(A P^-1 A')
    and ``resid`` the residuals y - A mean_n.
    """

    cols: tuple[int, ...]
    A: np.ndarray
    cov: np.ndarray
    mean_n: np.ndarray
    h: np.ndarray
    resid: np.ndarray
    b_n: float


def _factorize(data: Dataset, prior: NigPrior, cols: Sequence[int]) -> _Model:
    """The model on ``cols`` from one inverse of its posterior precision."""
    cols = tuple(cols)
    A = data.subset(cols).design()
    cov, mean_n, resid, b_n = _posterior(A, data.y, prior)
    return _Model(cols, A, cov, mean_n, _leverages(A, cov), resid, b_n)


def _border_terms(model: _Model, X: np.ndarray, y: np.ndarray, prior: NigPrior):
    """Terms of extending ``model`` by each column x of ``X``.

    Returns U = P^-1 A'X, E = X - A U (columns e = x - H x for the hat
    matrix H), s = x'e + 1/v0, E'y, and where s is rounding noise: s >= 1/v0
    in exact arithmetic, so s <= n*eps*x'x means the extended precision is
    singular in floating point.
    """
    U = model.cov @ (model.A.T @ X)
    E = model.A @ U
    np.subtract(X, E, out=E)
    s = np.einsum("ij,ij->j", X, E) + 1.0 / prior.v0
    noise = s <= X.shape[0] * np.finfo(float).eps * np.einsum("ij,ij->j", X, X)
    return U, E, s, E.T @ y, noise


def _border(model: _Model, j: int, x: np.ndarray, u, s, ey) -> _Model:
    """``model`` extended by predictor ``j`` with column ``x``, by bordering.

    With u = P^-1 A'x, e = x - A u and g = e'y/s: P^-1 gains u u'/s, -u/s
    and 1/s, the mean becomes (mean_n - u g, g), the leverages h + e^2/s,
    the residuals r - e g and b_n falls by (e'y)^2/(2s).
    """
    e = x - model.A @ u
    g = ey / s
    d = u.size
    cov = np.empty((d + 1, d + 1))
    cov[:d, :d] = np.outer(u, u)
    cov[:d, :d] /= s
    cov[:d, :d] += model.cov
    cov[:d, d] = cov[d, :d] = -u / s
    cov[d, d] = 1.0 / s
    return _Model(
        cols=model.cols + (j,),
        A=np.column_stack([model.A, x]),
        cov=cov,
        mean_n=np.append(model.mean_n - u * g, g),
        h=model.h + e**2 / s,
        resid=model.resid - e * g,
        b_n=model.b_n - ey**2 / (2.0 * s),
    )


def _score_extensions(
    data: Dataset, prior: NigPrior, model: _Model, candidates: Sequence[int]
):
    """Exact LOO of ``model`` extended by each candidate, from its P^-1.

    Returns ``(pointwise, estimates, U, s, ey, ok)``: the n x c block, its
    column sums and, per candidate, ``_border_terms``' U, s and e'y and
    whether the closed form held. Adding column x moves the leverages to
    h + e^2/s, the residuals to r - e (e'y)/s and b_n to b_n - (e'y)^2/(2s);
    all candidates go through one BLAS-3 pass. Only candidates whose
    extended model breaches the closed form's guard (leverage >= 1 - 1e-10,
    a downdated scale <= 0, or s rounding noise) are scored on their own,
    by ``elpd_loo_exact``, which factorizes that model's precision.
    """
    candidates = list(candidates)
    Xc = data.X[:, candidates]
    U, E, s, ey, noise = _border_terms(model, Xc, data.y, prior)
    # in-place updates keep at most three n x c arrays alive at once, so
    # peak memory stays near that of a single-candidate fit
    del Xc
    resid_ext = E * (ey / s)
    np.subtract(model.resid[:, None], resid_ext, out=resid_ext)
    omh = np.square(E, out=E)
    omh /= s
    np.subtract((1.0 - model.h)[:, None], omh, out=omh)
    pointwise, ok = _loo_closed_form(
        resid_ext, omh, model.b_n - ey**2 / (2.0 * s), prior.a0 + data.n / 2.0
    )
    ok &= ~noise
    del E, omh
    for k in np.flatnonzero(~ok):
        sub = data.subset(model.cols + (candidates[k],))
        pointwise[:, k] = elpd_loo_exact(sub, prior).pointwise
    return pointwise, _column_fsums(pointwise), U, s, ey, ok


def _column_fsums(block: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every column of ``block``, bit for bit, in one pass.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 2008): with
    sigma = 2^(ceil(log2 max|col|) + ceil(log2(n + 2))), the high parts
    q = (sigma + x) - sigma of a column sum exactly in any order, and
    x - q is exact. Passes repeat on the remainders until they are all
    zero; ``math.fsum`` of a column's few exact partial sums is then the
    correctly rounded total. Non-finite columns, and columns whose sigma
    would overflow, are summed by ``math.fsum`` directly.
    """
    n, c = block.shape
    shift = math.ceil(math.log2(n + 2))
    out = np.empty(c)

    def ceil_log2(top):
        mant, expo = np.frexp(top)
        return expo - (mant == 0.5)

    top = np.max(np.abs(block), axis=0)
    fast = np.isfinite(top)
    fast[fast] = ceil_log2(top[fast]) + shift <= 1023
    for k in np.flatnonzero(~fast):
        out[k] = math.fsum(block[:, k].tolist())
    cols = np.flatnonzero(fast)
    r = block[:, cols]
    q = np.empty_like(r)
    top = top[cols]
    partials = [np.zeros(cols.size)]
    while top.any():
        sigma = np.ldexp(1.0, ceil_log2(top) + shift)
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        partials.append(q.sum(axis=0))
        top = np.abs(r, out=q).max(axis=0)
    out[cols] = [math.fsum(col) for col in np.array(partials).T.tolist()]
    return out


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

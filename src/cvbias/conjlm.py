"""Conjugate Bayesian linear regression with exact leave-one-out elpd.

Normal-inverse-gamma prior, analytic posterior, Student-t posterior
predictive. Exact LOO comes from a rank-one downdate of the full-data
posterior (verified against per-observation refits), giving LOO elpds with
zero Monte-Carlo error at negligible cost.

The prior is centred at zero with scale ``v0 * I``, so every model has one
posterior representation, ``PosteriorFit``: the d x d inverse P^-1 of its
posterior precision P = A'A + I/v0, formed once by ``fit``, with the
posterior mean and scale and the training design, leverages and residuals
that exact LOO reads. The predictive density, exact LOO, the bordered
extensions and ``draw_posterior`` all read that one fit; no other module
touches P^-1. Every log density, exact LOO or held out, ends in the one
Student-t kernel ``_student_t_logpdf``.

``_score_extensions`` scores every one-column extension of a model, as a
forward-search step needs: one BLAS-3 pass over the current model's P^-1
that updates leverages, fitted values and scale for all candidate columns
at once (block-inverse identity), and the closed-form LOO on the c x n
block. The block is candidate-major: each candidate is one contiguous row
of n observations, so every per-candidate reduction and broadcast runs
along a row. A replication axis makes the block m x c x n: m responses
that share the model's design, as the many-candidate null's replications
share the intercept-only baseline, go through the same pass. A forward search
carries the chosen extension's ``PosteriorFit`` to the next step by
bordering P^-1 with that column's terms, so only its starting model is
fit; ``_border_rows`` moves any design rows of a bordered model, training
or held-out, one replication or many.

``draw_posterior`` and ``pointwise_loglik`` turn a conjugate fit into a
draws-by-observations log-likelihood matrix, the input that
``psisloo.elpd_loo_psis`` takes.
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
        return np.hstack([np.ones((self.n, 1)), self.X])

    @classmethod
    def _trusted(cls, X, y, columns=None) -> "Dataset":
        """A dataset from float arrays known to be finite and well shaped,
        built without ``__post_init__``'s checks."""
        data = object.__new__(cls)
        data.__dict__.update(X=X, y=y, columns=columns)
        return data

    def subset(self, cols: Sequence[int]) -> "Dataset":
        cols = tuple(cols)
        names = tuple(self.columns[c] for c in cols) if self.columns else None
        return Dataset._trusted(self.X[:, cols], self.y, names)


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


# the priors a command line or config names
PRIOR_PRESETS = {
    "diffuse": NigPrior.diffuse,
    "tight": NigPrior.tight,
}


@dataclass(frozen=True)
class PosteriorFit:
    """Posterior state: beta | s2, y ~ N(mean_n, s2*P^-1), s2 ~ IG(a_n, b_n).

    ``cov`` is the inverse P^-1 of the posterior precision P, so the
    coefficients' posterior covariance given s2 is ``s2 * cov``. ``A`` is
    the training design, ``h`` its leverages diag(A P^-1 A') and ``resid``
    the residuals y - A mean_n, which exact LOO and bordering read.
    """

    mean_n: np.ndarray
    cov: np.ndarray
    a_n: float
    b_n: float
    A: np.ndarray
    h: np.ndarray
    resid: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean_n.size


def fit(data: Dataset, prior: NigPrior) -> PosteriorFit:
    """Conjugate update of the normal-inverse-gamma prior on ``data``.

    Inverts the posterior precision P = A'A + I/v0 once. Raises
    ``InvalidParameter`` when P is singular in floating point, as with
    duplicate predictor columns so large that 1/v0 is lost beside A'A.
    """
    if data.n < 2:
        raise TooFewObservations("fitting needs at least 2 observations")
    A = data.design()
    P = A.T @ A
    P[np.diag_indices_from(P)] += 1.0 / prior.v0
    try:
        cov = np.linalg.inv(P)
    except np.linalg.LinAlgError:
        raise InvalidParameter(
            "posterior precision is singular: predictors are collinear or too "
            "large in scale for the prior"
        ) from None
    mean_n = cov @ (A.T @ data.y)
    resid = data.y - A @ mean_n
    return PosteriorFit(
        mean_n=mean_n,
        cov=cov,
        a_n=float(prior.a0 + data.n / 2.0),
        b_n=float(prior.b0 + 0.5 * (resid @ resid + mean_n @ mean_n / prior.v0)),
        A=A,
        h=np.einsum("ij,ij->i", A @ cov, A),
        resid=resid,
    )


def _predict(post: PosteriorFit, A: np.ndarray):
    """Location ``A mean_n`` and leverages diag(A P^-1 A') of design rows ``A``."""
    return A @ post.mean_n, np.einsum("ij,ij->i", A @ post.cov, A)


def _student_t_logpdf(u, v, a):
    """Student-t log density, in place: with df = 2a, squared scale s^2
    and z the standardized value, ``u`` holds z^2/df and ``v`` df s^2/2,
    and the density is lgamma(a + 1/2) - lgamma(a) - log(2 pi v)/2
    - (a + 1/2) log1p(u). Overwrites ``u`` and ``v``.
    """
    np.log1p(u, out=u)
    u *= -(a + 0.5)
    v *= 2.0 * np.pi
    np.log(v, out=v)
    v *= 0.5
    u -= v
    u += math.lgamma(a + 0.5) - math.lgamma(a)
    return u


def _predictive_logpdf(y, loc, leverage, a_n, b_n):
    """Student-t posterior predictive log density of ``y`` at design rows
    with location x'mean_n ``loc`` and leverage x'P^-1x ``leverage``: df
    2a_n and squared scale (b_n / a_n)(1 + leverage)."""
    v = b_n * (1.0 + leverage)
    return _student_t_logpdf(0.5 * (y - loc) ** 2 / v, v, a_n)


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
    loc, lev = _predict(fit_, x)
    out = _predictive_logpdf(y, loc, lev, fit_.a_n, fit_.b_n)
    if np.ndim(y_new) == 0 and np.ndim(x_new) == 1:
        return float(out[0])
    return out


def _require_loo_rows(n: int) -> None:
    if n < 3:
        raise TooFewObservations("exact LOO needs at least 3 observations")


def elpd_loo_exact(data: Dataset, prior: NigPrior, model_id: str = "model") -> ElpdEstimate:
    """Exact LOO elpd: each observation predicted from the fit without it.

    Each row is removed from the full posterior in closed form; the n
    refits of ``_loo_refit`` stand in when the closed form's guard breaks.
    """
    _require_loo_rows(data.n)
    post = fit(data, prior)
    pointwise, ok = _loo_closed_form(post.resid, 1.0 - post.h, post.b_n, post.a_n)
    if not ok:
        pointwise = _loo_refit(data, prior)
    # fsum over Python floats: the same correctly rounded sum, without one
    # numpy scalar per element
    return ElpdEstimate(
        pointwise=pointwise,
        estimate=math.fsum(pointwise.tolist()),
        se=elpd_se(pointwise),
        model_id=model_id,
    )


def _border_terms(post: PosteriorFit, X: np.ndarray, xx: np.ndarray, prior: NigPrior):
    """Terms of extending the model fit ``post`` by each candidate column x,
    a row of the c x n ``X`` whose sums of squares x'x are ``xx``.

    Returns U (rows u' for u = P^-1 A'x), E (rows e = x - H x for the hat
    matrix H), s = x'e + 1/v0, and where s is rounding noise: s >= 1/v0 in
    exact arithmetic, so s <= n*eps*x'x means the extended precision is
    singular in floating point. A zero column extends the model to itself
    (e = 0, s = 1/v0).
    """
    # the d x c product P^-1 A'X, transposed: X A P^-1 gives the same U but
    # touches more of BLAS's packing buffers (~64 KiB more RSS at n = 1000)
    U = (post.cov @ (post.A.T @ X.T)).T
    E = U @ post.A.T
    np.subtract(X, E, out=E)
    s = np.einsum("ij,ij->i", X, E) + 1.0 / prior.v0
    noise = s <= X.shape[1] * np.finfo(float).eps * xx
    return U, E, s, noise


def _border(post: PosteriorFit, x: np.ndarray, u, s, ey) -> PosteriorFit:
    """``post`` extended by the predictor column ``x``, by bordering.

    With u = P^-1 A'x and g = e'y/s: P^-1 gains u u'/s, -u/s and 1/s and
    the mean becomes (mean_n - u g, g); ``_border_rows`` moves the training
    rows and b_n.
    """
    # the residuals y - A mean_n move against the locations A mean_n
    neg_resid, h, b_n = _border_rows(post.A, x, -post.resid, post.h, post.b_n, u, s, ey)
    g = ey / s
    d = u.size
    cov = np.empty((d + 1, d + 1))
    cov[:d, :d] = np.outer(u, u)
    cov[:d, :d] /= s
    cov[:d, :d] += post.cov
    cov[:d, d] = cov[d, :d] = -u / s
    cov[d, d] = 1.0 / s
    return PosteriorFit(
        mean_n=np.append(post.mean_n - u * g, g),
        cov=cov,
        a_n=post.a_n,
        b_n=float(b_n),
        A=np.column_stack([post.A, x]),
        h=h,
        resid=-neg_resid,
    )


def _border_rows(A, x, loc, lev, b_n, u, s, ey, refits=()):
    """Locations ``loc`` and leverages ``lev`` of the design rows ``A``, and
    the scale ``b_n`` of their model, once the model is bordered by a column
    whose values at the rows are ``x`` and whose terms are u, s and e'y
    (``_border_terms``).

    With e = x - A u and g = e'y/s, each location moves to loc + e g, each
    leverage to lev + e^2/s and b_n to b_n - (e'y)^2/(2s). A leading axis
    on every argument holds replications, each with its own model. A model
    whose closed form broke is fit on its own: ``refits`` pairs its index
    with that fit, whose b_n it takes and from which its rows are predicted.
    """
    e = x - (A @ u[..., None])[..., 0]
    loc = loc + e * np.asarray(ey / s)[..., None]
    lev = lev + e**2 / np.asarray(s)[..., None]
    # halved after the division: 2s can overflow where s does not
    b_n = np.asarray(b_n - ey**2 / s / 2.0)
    for i, post in refits:
        loc[i], lev[i] = _predict(post, np.column_stack([A[i], x[i]]))
        b_n[i] = post.b_n
    return loc, lev, b_n


def _score_extensions(
    post: PosteriorFit, X: np.ndarray, xx: np.ndarray, y: np.ndarray, prior: NigPrior, model
):
    """Exact LOO of the model fit as ``post`` extended by each candidate
    column, a row of ``X``, from its P^-1.

    ``X`` is c x n, ``xx`` its rows' sums of squares and ``y`` the
    response. For m replications that share the design of ``post`` (its
    P^-1, A and h) but not their responses, ``X`` is m x c x n, ``xx`` m x
    c, ``y`` m x n, and ``post``'s ``resid`` m x n and ``b_n`` length m.
    Returns ``(pointwise, estimates, U, s, ey, ok)``: the block of
    pointwise elpds, shaped as ``X``, its row sums and, per candidate,
    ``_border_terms``' u (U is [m x] c x d) and s, e'y and whether the
    closed form held. All candidates go through one BLAS-3 pass and
    ``_extension_loo``. Only a candidate whose extended model breaches the
    closed form's guard (leverage >= 1 - 1e-10, a downdated scale <= 0, or
    s rounding noise) is scored on its own, by ``elpd_loo_exact`` on the
    dataset ``model(*index)`` of its extended model.
    """
    *shape, n = X.shape
    _require_loo_rows(n)
    U, E, s, noise = _border_terms(post, X.reshape(-1, n), xx.reshape(-1), prior)
    U, E = U.reshape(*shape, -1), E.reshape(X.shape)
    # X is dead from here on: a block the caller built in the call itself
    # (as forward_search's gathered rows) is freed before the closed
    # form's blocks are made
    del X
    s, noise = s.reshape(shape), noise.reshape(shape)
    ey = (E @ y[..., None])[..., 0]
    pointwise, ok = _extension_loo(
        post.resid[..., None, :], 1.0 - post.h, np.asarray(post.b_n)[..., None],
        post.a_n, E, s, ey,
    )
    ok &= ~noise
    del E
    for index in zip(*np.nonzero(~ok)):
        pointwise[index] = elpd_loo_exact(model(*index), prior).pointwise
    estimates = _row_fsums(pointwise.reshape(-1, n)).reshape(shape)
    return pointwise, estimates, U, s, ey, ok


def _extension_loo(resid, omh, b_n, a_n, E, s, ey):
    """Closed-form exact LOO of a model extended by each candidate column,
    whose e is a row of ``E``.

    ``resid``, ``omh`` (1 - h) and ``b_n`` are the model's, shaped to
    broadcast against ``E`` (observations on its last axis) and, for
    ``b_n``, against ``s`` and ``ey`` (e'y). Adding a column moves the
    residuals to r - e (e'y)/s, the leverages to h + e^2/s and b_n to
    b_n - (e'y)^2/(2s). Returns ``_loo_closed_form``'s densities and guard,
    and overwrites ``E``: with in-place updates at most three arrays of E's
    size are alive at once, so peak memory stays near that of a
    single-candidate fit.
    """
    resid_ext = E * (ey / s)[..., None]
    np.subtract(resid, resid_ext, out=resid_ext)
    omh_ext = np.square(E, out=E)
    omh_ext /= s[..., None]
    np.subtract(omh, omh_ext, out=omh_ext)
    return _loo_closed_form(resid_ext, omh_ext, (b_n - ey**2 / s / 2.0)[..., None], a_n)


def _row_fsums(block: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every row of ``block``, bit for bit, in one pass.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 2008): with max|x| taken over
    the whole block and sigma = 2^(ceil(log2 max|x|) + ceil(log2(n + 2))),
    the high parts q = (sigma + x) - sigma of a row sum exactly in any
    order, and x - q is exact. Passes repeat on the remainders until they
    are all zero; ``math.fsum`` of a row's few exact partial sums is then
    the correctly rounded total. One sigma serves every row, so each pass
    is a scalar operation on the block. Non-finite rows, and rows whose
    sigma would overflow, are summed by ``math.fsum`` directly.
    """
    c, n = block.shape
    shift = math.ceil(math.log2(n + 2))
    out = np.empty(c)
    top = np.maximum(block.max(axis=1), -block.min(axis=1))
    # NaN compares False: a non-finite row is never fast
    fast = top <= 2.0 ** (1023 - shift)
    for k in np.flatnonzero(~fast):
        out[k] = math.fsum(block[k].tolist())
    r = block[fast]
    q = np.empty_like(r)
    top = float(top[fast].max(initial=0.0))
    partials = [np.zeros(len(r))]
    while top:
        mant, expo = math.frexp(top)
        sigma = math.ldexp(1.0, expo - (mant == 0.5) + shift)
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        partials.append(q.sum(axis=1))
        top = max(r.max(), -r.min())
    out[fast] = [math.fsum(row) for row in np.array(partials).T.tolist()]
    return out


def _loo_closed_form(resid, omh, b_n, a_n):
    """Exact-LOO log predictive density of every observation, in closed form.

    ``resid`` holds the full-data residuals y - mu, ``omh`` the complements
    1 - h of the leverages, ``b_n`` and ``a_n`` the full-data posterior;
    observations run along the last axis, and the leading axes of a block
    hold one model per row. Without row i the posterior has
    shape a_n - 1/2 and scale b_i = b_n - r_i^2 / (2 (1 - h_i)), and y_i is
    Student-t with location y_i - r_i / (1 - h_i) and squared scale
    (b_i / (a_n - 1/2)) / (1 - h_i), which ``_student_t_logpdf`` scores.
    Overwrites ``resid``.

    Returns the densities and, per model, whether the closed form holds:
    False where some leverage reaches 1 - 1e-10 or some b_i <= 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.square(resid, out=resid)
        q /= omh
        q *= 0.5
        b_i = b_n - q
        ok = (np.min(omh, axis=-1) > 1e-10) & (np.min(b_i, axis=-1) > 0)
        q /= b_i
        b_i /= omh
        return _student_t_logpdf(q, b_i, a_n - 0.5), ok


def _loo_refit(data: Dataset, prior: NigPrior) -> np.ndarray:
    """Exact-LOO pointwise elpd by n refits: ``elpd_loo_exact``'s fallback
    and the slow reference of the tests."""
    n = data.n
    pointwise = np.empty(n)
    X_full = data.design()
    for i in range(n):
        keep = np.arange(n) != i
        sub = Dataset(data.X[keep], data.y[keep], columns=data.columns)
        pointwise[i] = log_pred(fit(sub, prior), X_full[i], data.y[i])
    return pointwise


class PosteriorDraws(NamedTuple):
    coefficients: np.ndarray  # draws x dim
    sigma2: np.ndarray  # draws


def draw_posterior(fit_: PosteriorFit, S: int, seed=None) -> PosteriorDraws:
    """S exact draws of (coefficients, noise variance) from the posterior.

    With ``pointwise_loglik`` they give the log-likelihood matrix that
    ``psisloo.elpd_loo_psis`` scores.
    """
    if S < 1:
        raise InvalidParameter("S must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sigma2 = fit_.b_n / rng.gamma(fit_.a_n, 1.0, size=S)
    z = rng.standard_normal((S, fit_.dim))
    chol = np.linalg.cholesky(fit_.cov)
    coefficients = fit_.mean_n + (z @ chol.T) * np.sqrt(sigma2)[:, None]
    return PosteriorDraws(coefficients=coefficients, sigma2=sigma2)


def pointwise_loglik(data: Dataset, draws: PosteriorDraws) -> np.ndarray:
    """Draws-by-observations log-likelihood matrix under Gaussian noise.

    Rows are ``draw_posterior`` draws and columns the rows of ``data``, as
    ``psisloo.elpd_loo_psis`` takes it.
    """
    X = data.design()
    mu = draws.coefficients @ X.T
    s2 = draws.sigma2[:, None]
    return -0.5 * (np.log(2.0 * np.pi * s2) + (data.y[None, :] - mu) ** 2 / s2)

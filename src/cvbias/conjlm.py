"""Conjugate Bayesian linear regression with exact leave-one-out elpd.

Normal-inverse-gamma prior, analytic posterior, Student-t posterior
predictive. Exact LOO comes from a rank-one downdate of the full-data
posterior (verified against per-observation refits), giving LOO elpds with
zero Monte-Carlo error at negligible cost.

The prior is centred at zero with scale ``v0 * I``, so every model has one
posterior representation, ``PosteriorFit``: the d x d inverse P^-1 of its
posterior precision P = A'A + I/v0, formed only by ``_fit`` (of one or m
responses on a design), with the posterior mean and scale, the training
design, leverages and residuals that exact LOO reads, and the response
and prior it was fit with. The predictive density, exact LOO, the
bordered extensions and ``draw_posterior`` all read that one fit; no
other module touches P^-1 or the prior's a0, b0 and v0. Every log
density, exact LOO or held out, ends in the one Student-t kernel
``_student_t_logpdf``.

``_score_extensions`` scores every one-column extension of a model, as a
forward-search step needs: one BLAS-3 pass over the current model's P^-1
that updates leverages, fitted values and scale for all candidate columns
at once (block-inverse identity), and the closed-form LOO on the c x n
block, ``_loo_guard`` on every row before ``_loo_density`` forms any
density. The block is candidate-major, and the kernel lays it out
row-major: each candidate is one contiguous row of n observations, so
every per-candidate reduction and broadcast runs along a row. A
replication axis makes the block m x c x n: m responses that share the
model's design, as the many-candidate null's replications share the
intercept-only baseline (one stacked ``_fit``), go through the same
pass. A forward search carries the chosen extension's ``PosteriorFit``
to the next step by bordering P^-1 with that column's terms, so only its
starting model is fit; ``_border_rows`` moves any
design rows of a bordered model, training or held-out, one replication or
many. Only an extension that breaches the closed form's guard is fit on
its own, once, by ``_fit`` of its design and scored by ``_loo``; that fit
travels with its bordering terms and stands in for the bordered model.

``draw_posterior`` and ``pointwise_loglik`` turn a conjugate fit into a
draws-by-observations log-likelihood matrix, the input that
``psisloo.elpd_loo_psis`` takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidParameter, NonFiniteInput, ShapeMismatch, TooFewObservations
from .psisloo import ElpdEstimate, elpd_se

DIFFUSE_V0 = 100.0
TIGHT_V0 = 0.25


@dataclass(frozen=True)
class Dataset:
    """Predictor matrix and response; the intercept column is implicit.

    Every dataset is built through ``__post_init__``, which makes ``X`` and
    ``y`` float arrays and checks their shapes, finiteness and names.
    """

    X: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
            raise ShapeMismatch("X must be (n, p) and y length n")
        if self.columns is not None and len(self.columns) != X.shape[1]:
            raise ShapeMismatch(f"{len(self.columns)} column names for {X.shape[1]} predictors")
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

    def subset(self, cols: Sequence[int]) -> "Dataset":
        """The dataset of columns ``cols``, in that order, checked like any
        other; it shares ``y`` with this one."""
        cols = tuple(cols)
        names = tuple(self.columns[c] for c in cols) if self.columns else None
        return Dataset(self.X[:, cols], self.y, names)


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
    the residuals y - A mean_n, which exact LOO and bordering read, with
    the response ``y`` and the ``prior`` of the fit; a ``_fit`` of m
    responses has m rows of ``y``, ``resid``, ``mean_n`` and b_n.
    """

    mean_n: np.ndarray
    cov: np.ndarray
    a_n: float
    b_n: float
    A: np.ndarray
    h: np.ndarray
    resid: np.ndarray
    y: np.ndarray
    prior: NigPrior

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


def fit(data: Dataset, prior: NigPrior) -> PosteriorFit:
    """Conjugate update of the normal-inverse-gamma prior on ``data``: ``_fit`` of its design."""
    return _fit(data.design(), data.y, prior)


def _fit(A: np.ndarray, y: np.ndarray, prior: NigPrior) -> PosteriorFit:
    """The posterior of the design ``A`` and response ``y``, or of the m
    responses, rows of an m x n ``y``, that share ``A``: every product runs
    per response, so row r is bit for bit the fit of ``y[r]`` alone.

    Inverts P = A'A + I/v0 once. ``A`` is laid out row-major first, so a
    fit rounds alike whatever the layout of the design it was given.
    Raises ``InvalidParameter`` when P is singular in floating point, as
    with duplicate predictor columns so large that 1/v0 is lost beside A'A.
    """
    A = np.ascontiguousarray(A)
    if A.shape[0] < 2:
        raise TooFewObservations("fitting needs at least 2 observations")
    P = A.T @ A
    P[np.diag_indices_from(P)] += 1.0 / prior.v0
    try:
        cov = np.linalg.inv(P)
    except np.linalg.LinAlgError:
        raise InvalidParameter(
            "posterior precision is singular: predictors are collinear or too "
            "large in scale for the prior"
        ) from None
    mean_n = (cov @ (A.T @ y[..., None]))[..., 0]
    resid = y - (A @ mean_n[..., None])[..., 0]
    rr, mm = ((v[..., None, :] @ v[..., None])[..., 0, 0] for v in (resid, mean_n))
    b_n = prior.b0 + 0.5 * (rr + mm / prior.v0)
    return PosteriorFit(
        mean_n=mean_n,
        cov=cov,
        a_n=float(prior.a0 + A.shape[0] / 2.0),
        b_n=float(b_n) if y.ndim == 1 else b_n,
        A=A,
        h=np.einsum("ij,ij->i", A @ cov, A),
        resid=resid,
        y=y,
        prior=prior,
    )


def _predict(post: PosteriorFit, A: np.ndarray):
    """Location ``A mean_n`` and leverages diag(A P^-1 A') of design rows
    ``A``, laid out row-major as ``_fit`` lays out its design."""
    A = np.ascontiguousarray(A)
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

    ``x_new`` is a design row (intercept included), or a matrix of rows
    whose ``y_new`` is the matching vector; one row takes a scalar too.
    """
    x = np.atleast_2d(np.asarray(x_new, dtype=float))
    y = np.asarray(y_new, dtype=float)
    shapes = {x.shape[:1], ()} if len(x) == 1 else {x.shape[:1]}
    if x.shape[1:] != (fit_.dim,) or y.shape not in shapes:
        raise ShapeMismatch(f"x_new {x.shape} and y_new {y.shape} for dimension {fit_.dim}")
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
    pointwise = _loo(fit(data, prior))
    # fsum over Python floats: the same correctly rounded sum, without one
    # numpy scalar per element
    return ElpdEstimate(
        pointwise=pointwise,
        estimate=math.fsum(pointwise.tolist()),
        se=elpd_se(pointwise),
        model_id=model_id,
    )


def _loo(post: PosteriorFit) -> np.ndarray:
    """Exact-LOO pointwise elpds of the fit ``post``: rows removed in
    closed form, or by the n refits of ``_loo_refit`` of its design and
    response where the closed form's guard breaks."""
    # the guard overwrites the residuals it is given
    q, omh = post.resid.copy(), 1.0 - post.h
    if not _loo_guard(q, omh, post.b_n).all():
        return _loo_refit(post.A, post.y, post.prior)
    return _loo_density(q, omh, post.b_n, post.a_n)


def _border_terms(post: PosteriorFit, X: np.ndarray):
    """Terms of extending the model fit ``post`` by each candidate column x,
    a row of the c x n ``X``.

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
    s = np.einsum("ij,ij->i", X, E) + 1.0 / post.prior.v0
    noise = s <= X.shape[1] * np.finfo(float).eps * np.einsum("ij,ij->i", X, X)
    return U, E, s, noise


def _border(post: PosteriorFit, x: np.ndarray, u, s, ey, refit=None) -> PosteriorFit:
    """``post`` extended by the predictor column ``x``, by bordering, or
    ``refit``, the extended model's own fit, where there is one
    (``_score_extensions``).

    With u = P^-1 A'x and g = e'y/s: P^-1 gains u u'/s, -u/s and 1/s and
    the mean becomes (mean_n - u g, g); ``_border_rows`` moves the training
    rows and b_n.
    """
    if refit is not None:
        return refit
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
    return replace(
        post,
        mean_n=np.append(post.mean_n - u * g, g),
        cov=cov,
        b_n=float(b_n),
        A=np.column_stack([post.A, x]),
        h=h,
        resid=-neg_resid,
    )


def _border_rows(A, x, loc, lev, b_n, u, s, ey, refits=None):
    """Locations ``loc`` and leverages ``lev`` of the design rows ``A``, and
    the scale ``b_n`` of their model, once the model is bordered by a column
    whose values at the rows are ``x`` and whose terms are u, s and e'y
    (``_border_terms``).

    With e = x - A u and g = e'y/s, each location moves to loc + e g, each
    leverage to lev + e^2/s and b_n to b_n - (e'y)^2/(2s). A leading axis
    on every argument holds replications, each with its own model.
    ``refits``, shaped like ``s``, holds the extended model's own fit where
    its closed form broke (``_score_extensions``) and None elsewhere; a
    model with a fit takes its b_n and has its rows predicted from it.
    """
    e = x - (A @ u[..., None])[..., 0]
    loc = loc + e * np.asarray(ey / s)[..., None]
    lev = lev + e**2 / np.asarray(s)[..., None]
    # halved after the division: 2s can overflow where s does not
    b_n = np.asarray(b_n - ey**2 / s / 2.0)
    # ndenumerate, as one model's fit is a scalar, not a 0-d array
    for i, post in np.ndenumerate(refits):
        if post is not None:
            loc[i], lev[i] = _predict(post, np.column_stack([A[i], x[i]]))
            b_n[i] = post.b_n
    return loc, lev, b_n


def _score_extensions(post, X):
    """Exact LOO of the model fit as ``post`` extended by each candidate
    column, a row of ``X``, from its P^-1.

    ``X`` is c x n. For m replications that share the design of ``post``
    (its P^-1, A and h) but not their responses, ``post`` is a ``_fit`` of
    the m x n responses and ``X`` is m x c x n. ``X`` is laid out row-major
    first, so the results do not depend on the layout it came in.
    Returns ``(pointwise, estimates, U, s, ey, refits)``: the block of
    pointwise elpds, shaped as ``X``, its row sums and, per candidate,
    ``_border_terms``' u (U is [m x] c x d) and s, e'y and the extended
    model's own fit or None. All candidates go through one BLAS-3 pass,
    which moves residuals, leverages and b_n to r - e (e'y)/s, h + e^2/s
    and b_n - (e'y)^2/(2s) in place on E (at most three arrays of E's size
    are alive at once), then ``_loo_guard`` and ``_loo_density``. A
    candidate whose extended model breaches the guard in some row, or
    whose s is rounding noise, has its row copied out before ``X`` is
    dropped and any density formed, so a block handed straight in is freed
    by then; it is fit on its own by ``_fit``, of ``post``'s A with that
    row appended (a zero row too: the fit has the extended model's
    dimension) and its replication's response, and scored by ``_loo``;
    ``refits`` holds that fit, for ``_border`` and ``_border_rows`` to
    carry, so no caller fits the model again. The row sums are numpy's,
    taken once that candidate's row is in the block, so every total is
    formed the same way: identical rows give equal totals, and a caller's
    argmax breaks their tie to the lowest index.
    """
    X = np.ascontiguousarray(X)
    *shape, n = X.shape
    _require_loo_rows(n)
    U, E, s, noise = _border_terms(post, X.reshape(-1, n))
    U, E = U.reshape(*shape, -1), E.reshape(X.shape)
    s, noise = s.reshape(shape), noise.reshape(shape)
    ey = (E @ post.y[..., None])[..., 0]
    q = E * (ey / s)[..., None]
    np.subtract(post.resid[..., None, :], q, out=q)
    omh = np.square(E, out=E)
    omh /= s[..., None]
    np.subtract(1.0 - post.h, omh, out=omh)
    b_n = (np.asarray(post.b_n)[..., None] - ey**2 / s / 2.0)[..., None]
    breach = ~_loo_guard(q, omh, b_n).all(axis=-1) | noise
    rows = X[breach]
    del X
    pointwise = _loo_density(q, omh, b_n, post.a_n)
    refits = np.full(shape, None, dtype=object)
    for index, x in zip(zip(*np.nonzero(breach)), rows):
        refits[index] = _fit(np.column_stack([post.A, x]), post.y[index[:-1]], post.prior)
        pointwise[index] = _loo(refits[index])
    estimates = pointwise.sum(axis=-1)
    return pointwise, estimates, U, s, ey, refits


def _loo_guard(q, omh, b_n):
    """Where exact LOO's closed form holds, per observation: ``q`` holds
    the full-data residuals r and ``omh`` the 1 - h, observations last,
    and ``b_n`` the scale, broadcast against them. Squares ``q`` in place
    to r^2 / (2 (1 - h)) and flags the rows whose 1 - h clears the cut and
    whose downdated scale b_n - q is > 0, tested as ``q < b_n``, the same
    test in floating point, so no b_i is formed.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        np.square(q, out=q)
        q /= omh
        q *= 0.5
        return (omh > 1e-10) & (q < b_n)


def _loo_density(q, omh, b_n, a_n):
    """Exact-LOO log predictive densities from ``_loo_guard``'s ``q``; a
    leading axis of a block holds one model per row. Without row i the
    posterior has shape a_n - 1/2 and scale b_i = b_n - q_i, and y_i is
    Student-t with location y_i - r_i / (1 - h_i) and squared scale
    (b_i / (a_n - 1/2)) / (1 - h_i), which ``_student_t_logpdf`` scores.
    Overwrites ``q``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        b_i = b_n - q
        q /= b_i
        b_i /= omh
        return _student_t_logpdf(q, b_i, a_n - 0.5)


def _loo_refit(A: np.ndarray, y: np.ndarray, prior: NigPrior) -> np.ndarray:
    """Exact-LOO pointwise elpd of the design ``A`` and response ``y`` by n
    refits: ``_loo``'s fallback and the slow reference of the tests."""
    n = y.size
    pointwise = np.empty(n)
    for i in range(n):
        keep = np.arange(n) != i
        post = _fit(A[keep], y[keep], prior)
        loc, lev = _predict(post, A[i : i + 1])
        pointwise[i] = _predictive_logpdf(y[i], loc, lev, post.a_n, post.b_n)[0]
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

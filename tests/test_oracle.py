"""Exact LOO and held-out log densities against a 60-digit reference.

The reference reads the float64 inputs exactly and works in mpmath at 60
significant digits: ``mp_posterior`` fits the normal-inverse-gamma
posterior from the rows it is given, ``mp_logpdf`` scores a row with its
Student-t posterior predictive, and ``mp_loo`` refits without each row and
sums the densities with ``mp.fsum``. Checking a computation against one at
much higher precision follows Higham, *Accuracy and Stability of Numerical
Algorithms* (SIAM 2002).

Bound on well-conditioned designs: every density a float64 path gives is
within ``bound(data, prior) * max(1, |reference|)`` of the reference, with
bound = 64 eps kappa(P) (a_n + 1/2) for the posterior precision
P = A'A + I/v0 of the model fit to ``data`` (kappa its 2-norm condition
number). The fast paths read locations, leverages and b_n through P^-1,
whose relative error is of order kappa(P) eps, and the Student-t density
multiplies the relative error of its log1p argument by at most a_n + 1/2.
Measured on 150 designs of n <= 30, p <= 6 under both priors (kappa up to
~5e3), ``elpd_loo_exact`` came within 12.5 eps kappa (a_n + 1/2) of the
reference, and ``_score_extensions`` and ``log_pred`` within
1.4 eps kappa (a_n + 1/2) on 60 more; 64 leaves five times the worst. A
sum of n densities gets n times the bound.

The hard designs of ``HARD`` put a near-twin column (x0 plus 1e-7 noise)
beside x0 and scale every predictor row, so that kappa(P) is 1e11 to
1e15: there the paths through P^-1 miss by far more than a QR of the
prior-augmented design would (about 1e-10 to 1e-8). They are strict
xfails at today's errors until the LOO stack is that accurate.
"""

import functools
from dataclasses import replace as dc_replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbias import conjlm, search, sim
from cvbias.conjlm import Dataset, NigPrior, elpd_loo_exact, fit, log_pred
from cvbias.sim import NestedDgpSpec, gen_nested

EPS = np.finfo(float).eps
PRIORS = {"diffuse": NigPrior.diffuse(), "tight": NigPrior.tight()}


def mp_posterior(rows, ys, prior):
    """``(P^-1, mean, a_n, b_n)`` of the design ``rows`` and responses ``ys``
    (mpf values), at the working precision."""
    n, d = len(rows), len(rows[0])
    v0 = mp.mpf(prior.v0)
    P = mp.matrix(
        [
            [mp.fsum(r[j] * r[k] for r in rows) + (1 / v0 if j == k else 0) for k in range(d)]
            for j in range(d)
        ]
    )
    cov = mp.inverse(P)
    mean = cov * mp.matrix([mp.fsum(r[j] * y for r, y in zip(rows, ys)) for j in range(d)])
    rss = mp.fsum((y - mp.fsum(r[j] * mean[j] for j in range(d))) ** 2 for r, y in zip(rows, ys))
    a_n = mp.mpf(prior.a0) + mp.mpf(n) / 2
    b_n = mp.mpf(prior.b0) + (rss + mp.fsum(m**2 for m in mean) / v0) / 2
    return cov, mean, a_n, b_n


def mp_logpdf(post, x, y):
    """Student-t posterior predictive log density of ``y`` at design row ``x``."""
    cov, mean, a_n, b_n = post
    d = len(x)
    loc = mp.fsum(x[j] * mean[j] for j in range(d))
    scale2 = b_n / a_n * (1 + mp.fsum(x[j] * cov[j, k] * x[k] for j in range(d) for k in range(d)))
    df = 2 * a_n
    return (
        mp.loggamma((df + 1) / 2)
        - mp.loggamma(df / 2)
        - mp.log(df * mp.pi * scale2) / 2
        - (df + 1) / 2 * mp.log1p((y - loc) ** 2 / (df * scale2))
    )


def mp_rows(data: Dataset):
    """The design rows and responses of ``data`` as exact mpf values."""
    return [[mp.mpf(v) for v in row] for row in data.design().tolist()], [
        mp.mpf(v) for v in data.y.tolist()
    ]


def mp_loo(data: Dataset, prior: NigPrior):
    """Pointwise exact-LOO densities (floats) and their ``mp.fsum`` total:
    each row scored by the posterior refit without it."""
    with mp.workdps(60):
        rows, ys = mp_rows(data)
        pointwise = [
            mp_logpdf(mp_posterior(rows[:i] + rows[i + 1 :], ys[:i] + ys[i + 1 :], prior),
                      rows[i], ys[i])
            for i in range(data.n)
        ]
        return np.array([float(v) for v in pointwise]), float(mp.fsum(pointwise))


def mp_held_out(train: Dataset, test: Dataset, prior: NigPrior) -> np.ndarray:
    """Log densities of the rows of ``test`` under the posterior of ``train``."""
    with mp.workdps(60):
        post = mp_posterior(*mp_rows(train), prior)
        return np.array([float(mp_logpdf(post, x, y)) for x, y in zip(*mp_rows(test))])


def bound(data: Dataset, prior: NigPrior) -> float:
    """64 eps kappa(P) (a_n + 1/2) for the model fit to ``data``."""
    A = data.design()
    P = A.T @ A + np.eye(A.shape[1]) / prior.v0
    return 64 * EPS * np.linalg.cond(P) * (prior.a0 + data.n / 2 + 0.5)


def assert_within(got, ref, tol):
    """|got - ref| <= tol * max(1, |ref|), elementwise."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.all(np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref)))


def design(n, p, seed, twin_scale=None, row_scale=None) -> Dataset:
    """Correlated predictors and a response with two active columns; with
    ``twin_scale``, the last column is x0 plus 1e-7 noise and every predictor
    row is scaled by ``twin_scale`` after the response is drawn. With
    ``row_scale``, row 0 of the predictors alone is scaled by it then."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) + 0.5 * rng.standard_normal((n, 1))
    if twin_scale:
        X[:, -1] = X[:, 0] + 1e-7 * rng.standard_normal(n)
    y = X[:, 0] - 0.5 * X[:, min(1, p - 1)] + rng.standard_normal(n)
    if twin_scale:
        X *= twin_scale
    if row_scale:
        X[0] *= row_scale
    return Dataset(X, y)


@functools.lru_cache(maxsize=None)
def cached_loo(n, p, seed, prior_name, cols=None, twin_scale=None, row_scale=None):
    data = design(n, p, seed, twin_scale, row_scale)
    return mp_loo(data if cols is None else data.subset(cols), PRIORS[prior_name])


class TestElpdLooExact:
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(
        n=st.integers(3, 12),
        p=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        prior_name=st.sampled_from(sorted(PRIORS)),
    )
    def test_small_draws(self, n, p, seed, prior_name):
        data, prior = design(n, p, seed), PRIORS[prior_name]
        pointwise, total = mp_loo(data, prior)
        got = elpd_loo_exact(data, prior)
        tol = bound(data, prior)
        assert_within(got.pointwise, pointwise, tol)
        assert_within(got.estimate, total, n * tol)

    @pytest.mark.parametrize("prior_name", sorted(PRIORS))
    def test_largest_design(self, prior_name):
        data, prior = design(30, 6, 3), PRIORS[prior_name]
        pointwise, total = cached_loo(30, 6, 3, prior_name)
        got = elpd_loo_exact(data, prior)
        tol = bound(data, prior)
        assert_within(got.pointwise, pointwise, tol)
        assert_within(got.estimate, total, 30 * tol)


@pytest.mark.parametrize("prior_name", sorted(PRIORS))
def test_score_extensions_candidates(prior_name):
    # the model (0,) extended by each of the other columns, in one pass
    data, prior = design(20, 4, 5), PRIORS[prior_name]
    cands = [1, 2, 3]
    X = data.X.T[cands]
    pointwise, estimates, *_ = conjlm._score_extensions(
        fit(data.subset((0,)), prior), X, np.einsum("ij,ij->i", X, X), data.y, prior
    )
    for k, j in enumerate(cands):
        ref_pointwise, ref_total = cached_loo(20, 4, 5, prior_name, (0, j))
        tol = bound(data.subset((0, j)), prior)
        assert_within(pointwise[k], ref_pointwise, tol)
        assert_within(estimates[k], ref_total, 20 * tol)


@pytest.mark.parametrize("prior_name", sorted(PRIORS))
def test_forward_path(prior_name):
    # every size of a search: the carried posterior is bordered by each
    # chosen column, and the test rows move with it
    train, test, prior = design(20, 4, 5), design(10, 4, 8), PRIORS[prior_name]
    path = search.forward_search(train, prior, 4, test=test)
    chosen = path.predictors()
    for size, (elpd, test_mlpd) in enumerate(zip(path.raw_elpds(), path.test_mlpds())):
        cols = tuple(chosen[:size])
        tol = bound(train.subset(cols), prior)
        _, ref_total = cached_loo(20, 4, 5, prior_name, cols)
        assert_within(elpd, ref_total, 20 * tol)
        ref_mlpd = np.mean(mp_held_out(train.subset(cols), test.subset(cols), prior))
        assert_within(test_mlpd, ref_mlpd, tol)


@pytest.mark.parametrize("prior_name", sorted(PRIORS))
def test_log_pred(prior_name):
    train, test, prior = design(30, 6, 6), design(20, 6, 7), PRIORS[prior_name]
    got = log_pred(fit(train, prior), test.design(), test.y)
    assert_within(got, mp_held_out(train, test, prior), bound(train, prior))


@pytest.mark.parametrize("prior_name", sorted(PRIORS))
def test_log_pred_of_a_huge_response(prior_name):
    # (y - loc)^2 fits in a float, though (y - loc)^2 / scale^2 would not
    x = np.array([[0.3], [1.2], [-0.7], [1.1], [-0.2], [0.8]])
    train = Dataset(x, np.array([-1.2, 0.5, 0.2, -0.4, 0.9, 0.1]))
    test, prior = Dataset(x[2:3], np.array([1.3e154])), PRIORS[prior_name]
    got = log_pred(fit(train, prior), test.design(), test.y)
    assert np.isfinite(got).all()
    assert_within(got, mp_held_out(train, test, prior), bound(train, prior))


@pytest.mark.parametrize("prior_name", sorted(PRIORS))
def test_many_k_block(prior_name):
    # three replications of K = 4 at n = 10, each with 15 test rows
    prior = PRIORS[prior_name]
    specs = [NestedDgpSpec(n=10, K=4, beta_delta=0.5, seed=s) for s in (11, 12, 13)]
    datasets = [gen_nested(spec) for spec in specs]
    tests = [gen_nested(dc_replace(spec, n=15, seed=spec.seed + 10)) for spec in specs]
    block = sim._score_many_k(datasets, prior)
    estimates = block[1]
    selected = np.argmax(estimates[:, 1:] - estimates[:, :1], axis=1)
    elpds = sim._many_k_test_elpds(
        block, selected,
        np.array([t.y for t in tests]),
        np.array([t.X[:, 0] for t in tests]),
        np.array([t.X[:, s] for t, s in zip(tests, selected)]),
    )
    for r, (data, test) in enumerate(zip(datasets, tests)):
        models = [(), (int(selected[r]),), (0,)]
        for k, cols in enumerate([()] + [(j,) for j in range(3)]):
            _, ref_total = mp_loo(data.subset(cols), prior)
            assert_within(estimates[r, k], ref_total, 10 * bound(data.subset(cols), prior))
        for got, cols in zip(elpds, models):
            ref = 10 * np.mean(mp_held_out(data.subset(cols), test.subset(cols), prior))
            assert_within(got[r], ref, 10 * bound(data.subset(cols), prior))


# (n, p, seed, row scale). Today's |error| of the elpd_loo_exact total,
# diffuse and tight: 6.9e-3 and 1.9e-4; 2.2 and 1.9e-3; 6.1e-3 and 6.0e-5
HARD = [(8, 2, 0, 1e6), (8, 3, 0, 1e6), (30, 5, 4, 1e5)]
HARD_TARGET = 1e-7


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="P^-1 squares the condition number of a near-twin design",
)
@pytest.mark.parametrize("prior_name", sorted(PRIORS))
@pytest.mark.parametrize("n, p, seed, scale", HARD, ids=["n8p2", "n8p3", "n30p5"])
def test_hard_designs(n, p, seed, scale, prior_name):
    _, total = cached_loo(n, p, seed, prior_name, twin_scale=scale)
    got = elpd_loo_exact(design(n, p, seed, scale), PRIORS[prior_name]).estimate
    assert_within(got, total, HARD_TARGET)


# (n, p, seed, scale of row 0): the scaled row's leverage nears 1. Where a
# case misses, today's relative error of the elpd_loo_exact total: at x1e5
# the closed form's guard holds (1 - h reads ~4e-9) and the closed form
# misses by 3.4e-2 (diffuse) and 1.0e-2 (tight); at x1e8, 1 - h is lost
# to rounding: diffuse reads it below 0, and its n refits, all but one
# still holding the scaled row, miss by 3.7e-3; tight reads 8.1e-4, and
# the closed form misses by 0.47. With one predictor, the x1e8 cases go
# through the refits under both priors, and every case is within 1e-9.
_CANCELS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="1 - h cancels beside a row of leverage near 1",
)
LEVERAGE = [
    pytest.param(8, 2, 0, 1e3, id="n8p2-x1e3"),
    pytest.param(8, 2, 0, 1e5, id="n8p2-x1e5", marks=_CANCELS),
    pytest.param(8, 2, 0, 1e8, id="n8p2-x1e8", marks=_CANCELS),
    pytest.param(10, 1, 2, 1e3, id="n10p1-x1e3"),
    pytest.param(10, 1, 2, 1e5, id="n10p1-x1e5"),
    pytest.param(10, 1, 2, 1e8, id="n10p1-x1e8"),
]


@pytest.mark.parametrize("prior_name", sorted(PRIORS))
@pytest.mark.parametrize("n, p, seed, scale", LEVERAGE)
def test_leverage_near_one(n, p, seed, scale, prior_name):
    _, total = cached_loo(n, p, seed, prior_name, row_scale=scale)
    got = elpd_loo_exact(design(n, p, seed, row_scale=scale), PRIORS[prior_name]).estimate
    assert_within(got, total, HARD_TARGET)

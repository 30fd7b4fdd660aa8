import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.stats import t as student_t

from cvbias import conjlm
from cvbias.conjlm import (
    Dataset,
    NigPrior,
    draw_posterior,
    elpd_loo_exact,
    fit,
    log_pred,
    pointwise_loglik,
)
from cvbias.errors import (
    CvBiasError,
    DimensionMismatch,
    InvalidParameter,
    NonFiniteInput,
    TooFewObservations,
)


@pytest.fixture
def small_data():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((20, 3))
    y = X @ np.array([1.0, -0.5, 0.0]) + rng.standard_normal(20)
    return Dataset(X, y)


class TestDataset:
    def test_subset_builds_without_rechecking(self, monkeypatch):
        data = Dataset(np.arange(12.0).reshape(4, 3), np.ones(4), columns=("a", "b", "c"))

        def fail(self):
            raise AssertionError("subset re-ran the dataset checks")

        monkeypatch.setattr(Dataset, "__post_init__", fail)
        sub = data.subset((2, 0))
        assert np.array_equal(sub.X, data.X[:, [2, 0]]) and sub.y is data.y
        assert (sub.columns, sub.p) == (("c", "a"), 2)
        monkeypatch.undo()
        with pytest.raises(NonFiniteInput):
            Dataset(np.array([[1.0], [np.nan]]), np.zeros(2))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteInput):
            Dataset(np.array([[1.0], [np.nan]]), np.array([0.0, 1.0]))

    def test_design_prepends_intercept(self):
        d = Dataset(np.ones((3, 2)), np.zeros(3))
        assert d.design().shape == (3, 3)
        assert np.all(d.design()[:, 0] == 1.0)

    def test_empty_subset_is_intercept_only(self):
        d = Dataset(np.ones((3, 2)), np.zeros(3))
        assert d.subset(()).design().shape == (3, 1)

    def test_subset_keeps_column_names(self):
        d = Dataset(np.ones((3, 3)), np.zeros(3), columns=("a", "b", "c"))
        assert d.subset((2, 0)).columns == ("c", "a")


_TINY = Dataset(
    np.random.default_rng(20).standard_normal((8, 2)),
    np.random.default_rng(21).standard_normal(8),
)


class TestNigPrior:
    @settings(max_examples=60, deadline=None)
    @given(
        v0=st.floats(allow_nan=False, max_value=1e6),
        a0=st.floats(allow_nan=False, max_value=1e6),
        b0=st.floats(allow_nan=False, max_value=1e6),
    )
    @example(v0=5e-324, a0=1.0, b0=1.0)
    @example(v0=1e-310, a0=1.0, b0=1.0)
    def test_scalar_domains(self, v0, a0, b0):
        # every accepted prior must also fit: 1/v0 enters the posterior precision
        if v0 > 0 and math.isfinite(1.0 / v0) and a0 > 0 and b0 > 0:
            prior = NigPrior(v0=v0, a0=a0, b0=b0)
            assert np.isfinite(elpd_loo_exact(_TINY, prior).estimate)
        else:
            with pytest.raises(InvalidParameter):
                NigPrior(v0=v0, a0=a0, b0=b0)

    def test_errors_are_cvbias_value_errors(self):
        for kwargs in ({"v0": -1.0}, {"a0": -1.0}, {"b0": 0.0}, {"v0": np.ones((2, 3))}):
            with pytest.raises(CvBiasError) as info:
                NigPrior(**kwargs)
            assert isinstance(info.value, ValueError)


class TestFit:
    def test_diffuse_posterior_matches_ols(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((200, 2))
        y = X @ np.array([2.0, -1.0]) + 0.5 * rng.standard_normal(200)
        data = Dataset(X, y)
        post = fit(data, NigPrior(v0=1e8))
        ols, *_ = np.linalg.lstsq(data.design(), y, rcond=None)
        assert post.mean_n == pytest.approx(ols, abs=1e-5)

    def test_tight_prior_shrinks_to_zero(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((50, 2))
        y = X @ np.array([2.0, -1.0]) + rng.standard_normal(50)
        post = fit(Dataset(X, y), NigPrior(v0=1e-12))
        assert np.max(np.abs(post.mean_n)) < 1e-6

    def test_posterior_a_n(self, small_data):
        post = fit(small_data, NigPrior(a0=1.5))
        assert post.a_n == 1.5 + small_data.n / 2


class TestLogPred:
    def test_density_normalizes(self, small_data):
        post = fit(small_data, NigPrior.diffuse())
        x = np.array([1.0, 0.3, -0.2, 0.8])
        total, _ = quad(lambda v: np.exp(log_pred(post, x, v)), -60, 60, limit=200)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_symmetric_about_location(self, small_data):
        post = fit(small_data, NigPrior.diffuse())
        x = np.array([1.0, -1.0, 0.5, 2.0])
        loc = x @ post.mean_n
        for delta in (0.3, 1.7):
            assert log_pred(post, x, loc + delta) == pytest.approx(
                log_pred(post, x, loc - delta), rel=1e-12
            )

    def test_large_n_matches_plugin_normal(self):
        rng = np.random.default_rng(25)
        n = 10000
        X = rng.standard_normal((n, 1))
        sigma = 0.7
        y = 1.0 + 2.0 * X[:, 0] + sigma * rng.standard_normal(n)
        post = fit(Dataset(X, y), NigPrior.diffuse())
        x = np.array([1.0, 0.5])
        y_new = 2.3
        plugin = -0.5 * np.log(2 * np.pi * sigma**2) - (y_new - x @ post.mean_n) ** 2 / (
            2 * sigma**2
        )
        assert log_pred(post, x, y_new) == pytest.approx(plugin, abs=1e-2)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 30),
        p=st.integers(1, 6),
        tight=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_student_t_from_inverse_precision(self, n, p, tight, seed):
        prior = NigPrior.tight() if tight else NigPrior.diffuse()
        train = _dataset(n, p, seed, False)
        test = _dataset(n, p, seed + 1, False)
        X, y, Xt = train.design(), train.y, test.design()
        V = np.linalg.inv(X.T @ X + np.eye(p + 1) / prior.v0)
        mean = V @ X.T @ y
        a_n = prior.a0 + n / 2.0
        b_n = prior.b0 + 0.5 * (np.sum((y - X @ mean) ** 2) + mean @ mean / prior.v0)
        scale2 = b_n / a_n * (1.0 + np.einsum("ij,jk,ik->i", Xt, V, Xt))
        ref = student_t.logpdf(test.y, 2.0 * a_n, loc=Xt @ mean, scale=np.sqrt(scale2))
        got = log_pred(fit(train, prior), test.design(), test.y)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_dimension_mismatch(self, small_data):
        post = fit(small_data, NigPrior.diffuse())
        with pytest.raises(DimensionMismatch):
            log_pred(post, np.ones(2), 0.0)


class TestElpdLooExact:
    def test_downdate_matches_refit(self, small_data):
        prior = NigPrior.diffuse()
        dd = elpd_loo_exact(small_data, prior)
        rf = conjlm._loo_refit(small_data, prior)
        assert dd.pointwise == pytest.approx(rf, abs=1e-8)

    def test_duplicated_rows_have_equal_pointwise(self):
        rng = np.random.default_rng(26)
        X = rng.standard_normal((10, 2))
        y = rng.standard_normal(10)
        X2, y2 = np.vstack([X, X[:1]]), np.append(y, y[0])
        est = elpd_loo_exact(Dataset(X2, y2), NigPrior.diffuse())
        assert est.pointwise[0] == pytest.approx(est.pointwise[10], abs=1e-6)

    def test_intercept_only_gaussian_entropy(self):
        rng = np.random.default_rng(27)
        data = Dataset(np.empty((100, 0)), rng.standard_normal(100))
        est = elpd_loo_exact(data, NigPrior.diffuse())
        expected = -np.log(np.sqrt(2 * np.pi)) - 0.5
        assert est.estimate / 100 == pytest.approx(expected, abs=0.1)

    def test_permutation_invariance(self, small_data):
        prior = NigPrior.diffuse()
        base = elpd_loo_exact(small_data, prior)
        perm = np.random.default_rng(28).permutation(small_data.n)
        shuffled = Dataset(small_data.X[perm], small_data.y[perm])
        est = elpd_loo_exact(shuffled, prior)
        assert est.pointwise == pytest.approx(base.pointwise[perm], rel=1e-9)

    def test_loo_below_in_sample(self):
        # summed LOO lpd should not beat in-sample lpd (median over seeds)
        prior = NigPrior.diffuse()
        gaps = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((30, 3))
            y = rng.standard_normal(30)
            data = Dataset(X, y)
            loo = elpd_loo_exact(data, prior).estimate
            in_sample = float(np.sum(log_pred(fit(data, prior), data.design(), data.y)))
            gaps.append(loo - in_sample)
        assert np.median(gaps) <= 0.0

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            elpd_loo_exact(
                Dataset(np.ones((2, 1)), np.zeros(2)), NigPrior.diffuse()
            )


def _dataset(n, p, seed, duplicate):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if duplicate:
        X[:, -1] = X[:, 0]
    y = 0.5 * X[:, 0] + rng.standard_normal(n)
    return Dataset(X, y)


def _squares(X):
    """Each candidate row's sum of squares, the kernel's noise floor input."""
    return np.einsum("...i,...i->...", X, X)


class TestElpdLooExtensions:
    """Exact LOO of each one-column extension, by ``conjlm._score_extensions``."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(5, 30),
        p=st.integers(2, 6),
        n_current=st.integers(0, 3),
        duplicate=st.booleans(),
        tight=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_refit(self, n, p, n_current, duplicate, tight, seed):
        data = _dataset(n, p, seed, duplicate)
        prior = NigPrior.tight() if tight else NigPrior.diffuse()
        current = tuple(range(min(n_current, p - 1)))
        cands = [j for j in range(p) if j not in current]
        post = fit(data.subset(current), prior)
        X = data.X.T[cands]
        pointwise, estimates, *_ = conjlm._score_extensions(
            post, X, _squares(X), data.y, prior, lambda k: data.subset(current + (cands[k],))
        )
        assert pointwise.shape == (len(cands), n)
        assert estimates.shape == (len(cands),)
        for k, j in enumerate(cands):
            ref = conjlm._loo_refit(data.subset(current + (j,)), prior)
            assert np.max(np.abs(pointwise[k] - ref)) <= 1e-9
            assert estimates[k] == math.fsum(pointwise[k])

    def test_leaves_its_inputs_unchanged(self):
        # the kernel works in blocks of its own: the candidate rows, their
        # squares, the response and the carried fit are read, never written
        data = _dataset(20, 5, 4, False)
        prior = NigPrior.diffuse()
        post = fit(data.subset((0,)), prior)
        X = data.X.T[1:]
        xx, y = _squares(X), data.y.copy()
        inputs = [X, xx, y, post.mean_n, post.cov, post.A, post.h, post.resid]
        before = [a.copy() for a in inputs]
        conjlm._score_extensions(post, X, xx, y, prior, lambda k: data.subset((0, k + 1)))
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)

    def test_leverage_guard_scores_through_elpd_loo_exact(self, monkeypatch):
        # a column that singles out row 0 gives that row leverage ~1 under a
        # near-flat prior: the closed form cannot hold there
        rng = np.random.default_rng(29)
        X = np.column_stack([rng.standard_normal(12), np.eye(12)[0]])
        data = Dataset(X, rng.standard_normal(12), columns=("x", "spike"))
        prior = NigPrior(v0=1e12)
        scored = []
        original = conjlm.elpd_loo_exact

        def spy(sub, prior_, *args, **kwargs):
            scored.append(sub.columns)
            return original(sub, prior_, *args, **kwargs)

        monkeypatch.setattr(conjlm, "elpd_loo_exact", spy)
        post = fit(data.subset(()), prior)
        X = data.X.T.copy()
        pointwise, estimates, *_ = conjlm._score_extensions(
            post, X, _squares(X), data.y, prior, lambda k: data.subset((k,))
        )
        assert scored == [("spike",)]
        ref = conjlm._loo_refit(data.subset((1,)), prior)
        assert np.max(np.abs(pointwise[1] - ref)) <= 1e-9
        assert estimates[1] == math.fsum(pointwise[1])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(5, 30),
        m=st.integers(1, 4),
        c=st.integers(1, 5),
        shared=st.integers(0, 2),
        n_test=st.integers(1, 10),
        tight=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_replication_axis_matches_one_call_per_replication(
        self, n, m, c, shared, n_test, tight, seed
    ):
        # m responses and candidate blocks over one shared design; the last
        # replication's first candidate has a 1e8 entry that puts its row's
        # leverage at 1, so that model is scored on its own
        rng = np.random.default_rng(seed)
        prior = NigPrior.tight() if tight else NigPrior.diffuse()
        Z = rng.standard_normal((n, shared))
        X = rng.standard_normal((m, c, n))
        X[-1, 0, 0] = 1e8
        Y = rng.standard_normal((m, n))
        datasets = [Dataset(np.column_stack([Z, X[r].T]), Y[r]) for r in range(m)]
        current = tuple(range(shared))
        fits = [fit(ds.subset(current), prior) for ds in datasets]
        stacked = replace(
            fits[0],
            mean_n=np.column_stack([f.mean_n for f in fits]),
            b_n=np.array([f.b_n for f in fits]),
            resid=np.array([f.resid for f in fits]),
        )
        got = conjlm._score_extensions(
            stacked, X, _squares(X), Y, prior,
            lambda r, k: datasets[r].subset(current + (shared + k,)),
        )
        pointwise, estimates, U, s, ey, ok = got
        assert pointwise.shape == (m, c, n) and U.shape == (m, c, shared + 1)
        assert not ok[-1, 0]
        for r, (ds, post) in enumerate(zip(datasets, fits)):
            want = conjlm._score_extensions(
                post, X[r], _squares(X[r]), ds.y, prior,
                lambda k: ds.subset(current + (shared + k,)),
            )
            assert np.array_equal(ok[r], want[-1])
            # the stacked products may round otherwise: a relative bound,
            # with a floor of a few ulps of the replication's largest entry
            # for values that cancel to near zero
            for block, one in zip((pointwise[r], estimates[r], U[r], s[r], ey[r]), want):
                floor = 8 * np.finfo(float).eps * np.max(np.abs(one))
                np.testing.assert_allclose(block, one, rtol=1e-12, atol=floor)

        # the test rows of each replication's model, bordered by its first
        # candidate; the last replication's is refit
        At = np.concatenate([np.ones((m, n_test, 1)), rng.standard_normal((m, n_test, shared))], 2)
        xt = rng.standard_normal((m, n_test))
        refit = fit(datasets[-1].subset(current + (shared,)), prior)
        rows = [conjlm._predict(post, At[r]) for r, post in enumerate(fits)]
        loc, lev = (np.array(v) for v in zip(*rows))
        b_n = stacked.b_n
        terms = U[:, 0], s[:, 0], ey[:, 0]
        moved = conjlm._border_rows(At, xt, loc, lev, b_n, *terms, [(m - 1, refit)])
        for r in range(m):
            refits = [((), refit)] if r == m - 1 else []
            one = conjlm._border_rows(
                At[r], xt[r], loc[r], lev[r], b_n[r], *(v[r] for v in terms), refits
            )
            for block, want in zip(moved, one):
                assert np.array_equal(block[r], want)

    @pytest.mark.parametrize("prior", ["diffuse", "tight"])
    def test_border_where_twice_s_overflows(self, prior):
        # s = x'e + 1/v0 is ~1.2e308: 2s overflowed, and b_n kept its value
        rng = np.random.default_rng(0)
        x = np.array([1.2e154, 1.0, -1.0, 0.5, 0.3, -0.2])
        data = Dataset(x[:, None], rng.standard_normal(6))
        prior = conjlm.PRIOR_PRESETS[prior]()
        post = fit(data.subset(()), prior)
        with np.errstate(over="raise"):
            U, E, s, _ = conjlm._border_terms(post, x[None], _squares(x[None]), prior)
            bordered = conjlm._border(post, x, U[0], s[0], E[0] @ data.y)
        assert s[0] > np.finfo(float).max / 2.0
        assert bordered.b_n == pytest.approx(fit(data, prior).b_n, rel=1e-12)


def _fsum_or_error(values):
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)


@st.composite
def sum_blocks(draw):
    """c x n blocks whose rows stress exact summation."""
    n = draw(st.integers(1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(
            st.sampled_from(["any", "wide", "subnormal", "cancel", "zeros", "huge", "special"])
        )
        if kind == "any":
            elements = st.floats(allow_nan=False, allow_infinity=False)
        elif kind == "wide":
            elements = st.builds(
                lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)
            )
        elif kind == "subnormal":
            elements = st.floats(-2.3e-308, 2.3e-308)
        elif kind == "zeros":
            elements = st.sampled_from([0.0, -0.0])
        elif kind == "huge":
            elements = st.floats(-1.7976931348623157e308, 1.7976931348623157e308).map(
                lambda x: math.copysign(max(abs(x), 1e307), x)
            )
        elif kind == "special":
            elements = st.sampled_from([1.0, -2.5, math.inf, -math.inf, math.nan])
        if kind == "cancel":
            half = draw(hnp.arrays(np.float64, (n + 1) // 2, elements=st.floats(-1e200, 1e200)))
            row = np.concatenate([half, -half[: n // 2]])
            if n % 2:
                row[n // 2] = -row[n // 2]
                row[-1] = 0.0
            row = row[draw(st.permutations(range(n)))]
        else:
            row = draw(hnp.arrays(np.float64, n, elements=elements))
        rows.append(row)
    return np.array(rows)


class TestRowFsums:
    @settings(max_examples=300, deadline=None)
    @given(sum_blocks())
    @example(np.zeros((1, 1)))
    @example(np.full((1, 3), -0.0))
    @example(np.array([[1e308, 1e308, -1e308]]))
    @example(np.array([[2.0**-1074, -(2.0**-1074), 2.0**-1074]]))
    @example(np.array([[1e300, 1.0, -1e300], [1.0, 1e-300, -1.0]]))
    def test_matches_fsum_bit_for_bit(self, block):
        expected = [_fsum_or_error(row) for row in block.tolist()]
        if any(isinstance(e, type) for e in expected):
            with pytest.raises((OverflowError, ValueError)):
                conjlm._row_fsums(block)
            return
        got = conjlm._row_fsums(block)
        # exact equality (NaN matches NaN), and the same sign of zero
        np.testing.assert_array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_leaves_the_block_unchanged(self):
        block = np.random.default_rng(3).standard_normal((4, 50))
        before = block.copy()
        conjlm._row_fsums(block)
        assert np.array_equal(block, before)


class TestDrawPosterior:
    def test_mean_recovered(self, small_data):
        post = fit(small_data, NigPrior.diffuse())
        draws = draw_posterior(post, 100000, seed=1)
        mc_se = np.sqrt(np.diag(post.cov) * np.mean(draws.sigma2)) / np.sqrt(1e5)
        assert np.all(
            np.abs(draws.coefficients.mean(axis=0) - post.mean_n) < 3.5 * mc_se
        )

    def test_seeded_streams_identical(self, small_data):
        post = fit(small_data, NigPrior.diffuse())
        a = draw_posterior(post, 50, seed=42)
        b = draw_posterior(post, 50, seed=42)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.sigma2, b.sigma2)

    def test_single_draw(self, small_data):
        post = fit(small_data, NigPrior.diffuse())
        draws = draw_posterior(post, 1, seed=0)
        assert draws.coefficients.shape == (1, post.dim)
        assert draws.sigma2.shape == (1,)
        assert draws.sigma2[0] > 0

    def test_pointwise_loglik_shape(self, small_data):
        post = fit(small_data, NigPrior.diffuse())
        draws = draw_posterior(post, 7, seed=3)
        ll = pointwise_loglik(small_data, draws)
        assert ll.shape == (7, small_data.n)
        assert np.all(np.isfinite(ll))

import math

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
    elpd_loo_extensions,
    fit,
    log_pred,
    log_pred_dataset,
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
        assert (sub.intercept, sub.columns, sub.p) == (True, ("c", "a"), 2)
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
        train = _dataset(n, p, False, seed, False)
        test = _dataset(n, p, False, seed + 1, False)
        X, y = train.X, train.y
        V = np.linalg.inv(X.T @ X + np.eye(p) / prior.v0)
        mean = V @ X.T @ y
        a_n = prior.a0 + n / 2.0
        b_n = prior.b0 + 0.5 * (np.sum((y - X @ mean) ** 2) + mean @ mean / prior.v0)
        scale2 = b_n / a_n * (1.0 + np.einsum("ij,jk,ik->i", test.X, V, test.X))
        ref = student_t.logpdf(test.y, 2.0 * a_n, loc=test.X @ mean, scale=np.sqrt(scale2))
        got = log_pred_dataset(fit(train, prior), test)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_dimension_mismatch(self, small_data):
        post = fit(small_data, NigPrior.diffuse())
        with pytest.raises(DimensionMismatch):
            log_pred(post, np.ones(2), 0.0)


class TestElpdLooExact:
    def test_downdate_matches_refit(self, small_data):
        prior = NigPrior.diffuse()
        dd = elpd_loo_exact(small_data, prior, method="downdate")
        rf = elpd_loo_exact(small_data, prior, method="refit")
        assert dd.pointwise == pytest.approx(rf.pointwise, abs=1e-8)

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
            in_sample = float(np.sum(log_pred_dataset(fit(data, prior), data)))
            gaps.append(loo - in_sample)
        assert np.median(gaps) <= 0.0

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            elpd_loo_exact(
                Dataset(np.ones((2, 1)), np.zeros(2)), NigPrior.diffuse()
            )


def _dataset(n, p, intercept, seed, duplicate):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if duplicate:
        X[:, -1] = X[:, 0]
    y = 0.5 * X[:, 0] + rng.standard_normal(n)
    return Dataset(X, y, intercept=intercept)


class TestElpdLooExtensions:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(5, 30),
        p=st.integers(2, 6),
        n_current=st.integers(0, 3),
        intercept=st.booleans(),
        duplicate=st.booleans(),
        tight=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_refit(self, n, p, n_current, intercept, duplicate, tight, seed):
        data = _dataset(n, p, intercept, seed, duplicate)
        prior = NigPrior.tight() if tight else NigPrior.diffuse()
        current = tuple(range(min(n_current, p - 1)))
        cands = [j for j in range(p) if j not in current]
        pointwise, estimates = elpd_loo_extensions(data, prior, current, cands)
        assert pointwise.shape == (n, len(cands))
        assert estimates.shape == (len(cands),)
        for k, j in enumerate(cands):
            ref = elpd_loo_exact(data.subset(current + (j,)), prior, method="refit")
            assert np.max(np.abs(pointwise[:, k] - ref.pointwise)) <= 1e-9
            assert estimates[k] == math.fsum(pointwise[:, k])

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
        pointwise, estimates = elpd_loo_extensions(data, prior, (), [0, 1])
        assert scored == [("spike",)]
        ref = original(data.subset((1,)), prior, method="refit")
        assert np.max(np.abs(pointwise[:, 1] - ref.pointwise)) <= 1e-9
        assert estimates[1] == math.fsum(pointwise[:, 1])


def _fsum_or_error(column):
    try:
        return math.fsum(column)
    except (OverflowError, ValueError) as exc:
        return type(exc)


@st.composite
def sum_blocks(draw):
    """n x c blocks whose columns stress exact summation."""
    n = draw(st.integers(1, 40))
    columns = []
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
            col = np.concatenate([half, -half[: n // 2]])
            if n % 2:
                col[n // 2] = -col[n // 2]
                col[-1] = 0.0
            col = col[draw(st.permutations(range(n)))]
        else:
            col = draw(hnp.arrays(np.float64, n, elements=elements))
        columns.append(col)
    return np.column_stack(columns)


class TestColumnFsums:
    @settings(max_examples=300, deadline=None)
    @given(sum_blocks())
    @example(np.zeros((1, 1)))
    @example(np.full((3, 1), -0.0))
    @example(np.array([[1e308], [1e308], [-1e308]]))
    @example(np.array([[2.0**-1074], [-(2.0**-1074)], [2.0**-1074]]))
    @example(np.array([[1e300, 1.0], [1.0, 1e-300], [-1e300, -1.0]]))
    def test_matches_fsum_bit_for_bit(self, block):
        expected = [_fsum_or_error(block[:, k].tolist()) for k in range(block.shape[1])]
        if any(isinstance(e, type) for e in expected):
            with pytest.raises((OverflowError, ValueError)):
                conjlm._column_fsums(block)
            return
        got = conjlm._column_fsums(block)
        # exact equality (NaN matches NaN), and the same sign of zero
        np.testing.assert_array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_leaves_the_block_unchanged(self):
        block = np.random.default_rng(3).standard_normal((50, 4))
        before = block.copy()
        conjlm._column_fsums(block)
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

import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import t as student_t

from conftest import loo_refit
from cvbias import conjlm, sim
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
    def test_subset_takes_columns_in_order_and_shares_y(self):
        data = Dataset(np.arange(12.0).reshape(4, 3), np.ones(4), columns=("a", "b", "c"))
        sub = data.subset((2, 0))
        assert np.array_equal(sub.X, data.X[:, [2, 0]]) and sub.y is data.y
        assert (sub.columns, sub.p) == (("c", "a"), 2)
        with pytest.raises(NonFiniteInput):
            Dataset(np.array([[1.0], [np.nan]]), np.zeros(2))

    def test_subset_checks_its_columns(self):
        # a NaN written into X after construction is caught by the subset
        data = Dataset(np.ones((3, 2)), np.zeros(3))
        data.X[1, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            data.subset((0,))

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

    @pytest.mark.parametrize("names", [("a",), ("a", "b", "c", "d"), ()])
    def test_column_names_must_match_the_predictors(self, names):
        # one name per predictor column, or a one-line error naming both counts
        X = np.random.default_rng(0).standard_normal((20, 3))
        with pytest.raises(DimensionMismatch, match=f"{len(names)} column names for 3 predictor"):
            Dataset(X, np.zeros(20), columns=names)

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

    @pytest.mark.parametrize("prior", ["diffuse", "tight"])
    @pytest.mark.parametrize("n, p", [(30, 0), (100, 3), (1000, 3)])
    def test_stacked_fit_is_one_fit_per_response(self, n, p, prior):
        # m responses on one design: row r of the stacked fit is bit for bit
        # the fit of response r alone, and the shared parts are that fit's
        rng = np.random.default_rng(n + p)
        X = rng.standard_normal((n, p))
        Y = 1.0 + rng.standard_normal((5, n))
        prior = conjlm.PRIOR_PRESETS[prior]()
        stacked = conjlm._fit(Dataset(X, Y[0]).design(), Y, prior)
        assert stacked.mean_n.shape == (5, p + 1) and stacked.b_n.shape == (5,)
        for r, y in enumerate(Y):
            one = fit(Dataset(X, y), prior)
            for name in ("mean_n", "resid", "b_n"):
                assert np.array_equal(getattr(stacked, name)[r], getattr(one, name)), name
            for name in ("cov", "a_n", "A", "h"):
                assert np.array_equal(getattr(stacked, name), getattr(one, name)), name

    @pytest.mark.parametrize("prior", ["diffuse", "tight"])
    def test_fit_does_not_depend_on_the_designs_layout(self, prior):
        # a subset's design() is column-major and the full design() row-major:
        # the two fits of the same columns are equal bit for bit
        prior = conjlm.PRIOR_PRESETS[prior]()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            data = Dataset(rng.standard_normal((200, 6)), rng.standard_normal(200))
            subset = data.subset(range(6))
            assert not subset.design().flags.c_contiguous
            whole, part = fit(data, prior), fit(subset, prior)
            for name in ("mean_n", "cov", "a_n", "b_n", "A", "h", "resid"):
                assert np.array_equal(getattr(whole, name), getattr(part, name)), (seed, name)

    @pytest.mark.parametrize("prior", ["diffuse", "tight"])
    def test_fit_carries_its_response_and_prior(self, small_data, prior):
        # exact LOO and the kernel read them from the fit, bordered or stacked
        prior = conjlm.PRIOR_PRESETS[prior]()
        post = fit(small_data.subset((0,)), prior)
        assert post.y is small_data.y and post.prior == prior
        x = small_data.X[:, 1]
        U, E, s, _ = conjlm._border_terms(post, x[None])
        bordered = conjlm._border(post, x, U[0], s[0], E[0] @ post.y)
        assert bordered.y is small_data.y and bordered.prior == prior
        Y = np.array([small_data.y, -small_data.y])
        stacked = conjlm._fit(post.A, Y, prior)
        assert stacked.y is Y and stacked.prior == prior


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
        cases = [
            (np.ones(2), 0.0, r"x_new \(1, 2\) and y_new \(\) for dimension 4"),
            (np.ones((2, 4, 4)), np.zeros(2), r"x_new \(2, 4, 4\) and y_new \(2,\)"),
            # a response that does not match the rows one for one is not
            # broadcast against them
            (np.ones((5, 4)), [0.3], r"x_new \(5, 4\) and y_new \(1,\)"),
            (np.ones((5, 4)), 0.3, r"x_new \(5, 4\) and y_new \(\)"),
            (np.ones(4), [0.1, 0.2], r"x_new \(1, 4\) and y_new \(2,\)"),
            (np.ones((5, 4)), np.zeros((5, 5)), r"x_new \(5, 4\) and y_new \(5, 5\)"),
            (np.ones((5, 4)), np.zeros(3), r"x_new \(5, 4\) and y_new \(3,\)"),
        ]
        for x_new, y_new, match in cases:
            with pytest.raises(DimensionMismatch, match=match):
                log_pred(post, x_new, y_new)

    def test_rows_score_alike_in_either_layout(self, small_data):
        post = fit(small_data, NigPrior.diffuse())
        rng = np.random.default_rng(22)
        rows = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
        y = rng.standard_normal(30)
        by_row, by_column = np.ascontiguousarray(rows), np.asfortranarray(rows)
        assert not by_column.flags.c_contiguous
        got = log_pred(post, by_row, y)
        assert np.array_equal(got.view(np.uint64), log_pred(post, by_column, y).view(np.uint64))

    def test_one_row_takes_a_scalar_or_a_vector_of_one(self, small_data):
        post = fit(small_data, NigPrior.diffuse())
        x = np.array([1.0, 0.3, -0.2, 0.8])
        one = log_pred(post, x, 0.5)
        assert isinstance(one, float)
        assert log_pred(post, x, [0.5]).tolist() == [one]
        assert log_pred(post, x[None], 0.5).tolist() == [one]


class TestElpdLooExact:
    def test_downdate_matches_refit(self, small_data):
        prior = NigPrior.diffuse()
        dd = elpd_loo_exact(small_data, prior)
        rf = loo_refit(small_data, prior)
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
        pointwise, estimates, *_ = conjlm._score_extensions(post, X)
        assert pointwise.shape == (len(cands), n)
        assert estimates.shape == (len(cands),)
        for k, j in enumerate(cands):
            ref = loo_refit(data.subset(current + (j,)), prior)
            assert np.max(np.abs(pointwise[k] - ref)) <= 1e-9
            assert estimates[k] == pointwise[k].sum()

    def test_leaves_its_inputs_unchanged(self):
        # the kernel works in blocks of its own: the candidate rows and the
        # carried fit, its response included, are read, never written
        data = _dataset(20, 5, 4, False)
        prior = NigPrior.diffuse()
        post = fit(data.subset((0,)), prior)
        X = data.X.T[1:]
        inputs = [X, post.y, post.mean_n, post.cov, post.A, post.h, post.resid]
        before = [a.copy() for a in inputs]
        conjlm._score_extensions(post, X)
        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)

    def test_leverage_guard_fits_and_scores_the_model_on_its_own(self, monkeypatch):
        # a column that singles out row 0 gives that row leverage ~1 under a
        # near-flat prior: the closed form cannot hold there
        rng = np.random.default_rng(29)
        X = np.column_stack([rng.standard_normal(12), np.eye(12)[0]])
        data = Dataset(X, rng.standard_normal(12), columns=("x", "spike"))
        prior = NigPrior(v0=1e12)
        scored = []
        original = conjlm._loo

        def spy(post_):
            scored.append((post_.A, post_.y))
            return original(post_)

        monkeypatch.setattr(conjlm, "_loo", spy)
        post = fit(data.subset(()), prior)
        pointwise, estimates, *_, refits = conjlm._score_extensions(post, data.X.T.copy())
        # the kernel fits the spike's model, [1, spike], to the response
        [(A, y)] = scored
        assert np.array_equal(A, data.subset((1,)).design()) and np.array_equal(y, data.y)
        ref = loo_refit(data.subset((1,)), prior)
        assert np.max(np.abs(pointwise[1] - ref)) <= 1e-9
        assert estimates[1] == pointwise[1].sum()
        # the model's own fit comes back whole: its residuals are not the
        # closed form's scratch space
        assert refits[0] is None
        want = fit(data.subset((1,)), prior)
        for name in ("mean_n", "cov", "a_n", "b_n", "A", "h", "resid", "y"):
            assert np.array_equal(getattr(refits[1], name), getattr(want, name)), name
        assert refits[1].prior == prior

    def test_candidate_block_is_freed_before_any_density(self, monkeypatch):
        # a block passed straight in is dropped, its breaching spike row
        # copied out, before the densities are formed; the spike's model is
        # still fit from that copy
        rng = np.random.default_rng(29)
        data = Dataset(np.column_stack([rng.standard_normal(12), np.eye(12)[0]]),
                       rng.standard_normal(12))
        prior = NigPrior(v0=1e12)
        post = fit(data.subset(()), prior)
        blocks = [data.X.T.copy()]
        block = weakref.ref(blocks[0])
        alive = []
        original = conjlm._loo_density

        def spy(*args):
            alive.append(block() is not None)
            return original(*args)

        monkeypatch.setattr(conjlm, "_loo_density", spy)
        *_, refits = conjlm._score_extensions(post, blocks.pop())
        assert alive and not any(alive)
        assert refits[0] is None
        assert np.array_equal(refits[1].A, data.subset((1,)).design())

    @pytest.mark.parametrize("prior", ["diffuse", "tight"])
    def test_block_layout_does_not_move_the_results(self, prior):
        # forward-search step blocks at n = 1000 and p = 40, and a one-
        # replication many-K block: a column-major copy scores bit for bit
        # as the block itself
        prior = conjlm.PRIOR_PRESETS[prior]()
        train, _ = sim.gen_block(sim.BlockDgpSpec(n=1000, p=40, rho=0.5, seed=1))
        blocks = [(fit(train.subset(range(k)), prior), train.X.T[k:].copy()) for k in (0, 3, 6)]
        ds = sim.gen_nested(sim.NestedDgpSpec(n=100, K=50, seed=1))
        base = conjlm._fit(np.ones((100, 1)), ds.y[None], prior)
        many_k = np.zeros((1, 50, 100))
        many_k[0, 1:] = ds.X.T
        blocks.append((base, many_k))
        for post, X in blocks:
            assert X.flags.c_contiguous
            got = conjlm._score_extensions(post, X)
            want = conjlm._score_extensions(post, np.asfortranarray(X))
            for a, b in zip(got[:-1], want[:-1]):
                assert np.array_equal(a, b)

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
        # leverage at 1, so that model is fit and scored on its own
        rng = np.random.default_rng(seed)
        prior = NigPrior.tight() if tight else NigPrior.diffuse()
        Z = rng.standard_normal((n, shared))
        X = rng.standard_normal((m, c, n))
        X[-1, 0, 0] = 1e8
        Y = rng.standard_normal((m, n))
        datasets = [Dataset(np.column_stack([Z, X[r].T]), Y[r]) for r in range(m)]
        current = tuple(range(shared))
        fits = [fit(ds.subset(current), prior) for ds in datasets]
        stacked = conjlm._fit(fits[0].A, Y, prior)
        got = conjlm._score_extensions(stacked, X)
        pointwise, estimates, U, s, ey, refits = got
        assert pointwise.shape == (m, c, n) and U.shape == (m, c, shared + 1)
        assert refits.shape == (m, c) and refits[-1, 0] is not None
        for r, (ds, post) in enumerate(zip(datasets, fits)):
            want = conjlm._score_extensions(post, X[r])
            assert [f is None for f in refits[r]] == [f is None for f in want[-1]]
            # the stacked products may round otherwise: a relative bound,
            # with a floor of a few ulps of the replication's largest entry
            # for values that cancel to near zero
            for block, one in zip((pointwise[r], estimates[r], U[r], s[r], ey[r]), want):
                floor = 8 * np.finfo(float).eps * np.max(np.abs(one))
                np.testing.assert_allclose(block, one, rtol=1e-12, atol=floor)

        # the test rows of each replication's model, bordered by its first
        # candidate; the last replication's are predicted from its own fit
        At = np.concatenate([np.ones((m, n_test, 1)), rng.standard_normal((m, n_test, shared))], 2)
        xt = rng.standard_normal((m, n_test))
        refit = fit(datasets[-1].subset(current + (shared,)), prior)
        assert np.array_equal(refits[-1, 0].mean_n, refit.mean_n)
        assert refits[-1, 0].b_n == refit.b_n
        rows = [conjlm._predict(post, At[r]) for r, post in enumerate(fits)]
        loc, lev = (np.array(v) for v in zip(*rows))
        b_n = stacked.b_n
        terms = U[:, 0], s[:, 0], ey[:, 0], refits[:, 0]
        moved = conjlm._border_rows(At, xt, loc, lev, b_n, *terms)
        for r in range(m):
            # one replication's fit is a scalar, not a 0-d array
            one = conjlm._border_rows(
                At[r], xt[r], loc[r], lev[r], b_n[r], *(v[r] for v in terms)
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
            U, E, s, _ = conjlm._border_terms(post, x[None])
            bordered = conjlm._border(post, x, U[0], s[0], E[0] @ data.y)
        assert s[0] > np.finfo(float).max / 2.0
        assert bordered.b_n == pytest.approx(fit(data, prior).b_n, rel=1e-12)


class TestLooGuard:
    """``conjlm._loo_guard``: where exact LOO's closed form holds, per row."""

    def test_matches_the_downdated_scale_rule(self):
        # q < b_n is b_n - q > 0 under gradual underflow, at signed zeros,
        # the smallest subnormal, infinities and NaN alike
        tiny = np.nextafter(0.0, 1.0)
        values = np.array(
            [0.0, -0.0, tiny, -tiny, 2 * tiny, 1e-160, 1e-10, 0.5, 1.0, -1.0, 2.0,
             np.inf, -np.inf, np.nan]
        )
        r, omh = (v.reshape(-1, 1) for v in np.meshgrid(values, values))
        # scales at, just above and just below every finite downdate
        with np.errstate(all="ignore"):
            q = 0.5 * (r**2 / omh)
            finite = q[np.isfinite(q)]
            b_n = np.concatenate(
                [values, finite, np.nextafter(finite, np.inf), np.nextafter(finite, -np.inf)]
            )
            got = r.copy()
            flags = conjlm._loo_guard(got, omh, b_n)
            assert np.array_equal(got, q, equal_nan=True)
            assert np.array_equal(flags, (omh > 1e-10) & (b_n - q > 0))

    @pytest.mark.parametrize(
        "model, flagged", [((), []), ((0,), [0]), ((1,), []), ((2,), [0])]
    )
    def test_flags_the_rows_whose_downdated_scale_cancels(self, model, flagged):
        # a response of 1e9 in row 0 leaves b_n - q at rounding level there
        # for some models of the same data, and only there
        rng = np.random.default_rng(3)
        X, Y = rng.standard_normal((2, 8, 3)), rng.standard_normal((2, 8))
        Y[1, 0] = 1e9
        post = fit(Dataset(X[1], Y[1]).subset(model), NigPrior.diffuse())
        ok = conjlm._loo_guard(post.resid.copy(), 1.0 - post.h, post.b_n)
        assert np.flatnonzero(~ok).tolist() == flagged


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

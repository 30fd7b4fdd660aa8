import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from cvbias import conjlm, gpd, psisloo
from cvbias.errors import (
    DegenerateWeights,
    EmptyVector,
    NonFiniteInput,
    ShapeMismatch,
    TooFewObservations,
    TooFewSamples,
)
from cvbias.psisloo import (
    elpd_diff,
    elpd_loo_psis,
    elpd_se,
    from_pointwise,
    mlpd,
)


def oracle_smooth(lr):
    """One column's Pareto smoothing through the 1-d tail and GPD calls."""
    lw = lr - lr[-1]
    w = np.exp(lw)
    try:
        cutoff, exceedances = gpd.tail_cutoff(w)
    except TooFewSamples:
        return lw, float("inf")
    m = exceedances.size
    if m < gpd.MIN_TAIL_SIZE:
        return lw, float("inf")
    fit = gpd.fit_gpd(exceedances)
    if fit.k_hat == np.inf:
        # a tail that cannot be fitted stays unsmoothed
        return lw, fit.k_hat
    probs = (np.arange(m) + 0.5) / m
    smoothed = cutoff + gpd.gpd_quantile(probs, fit.k_hat, fit.sigma_hat)
    out = lw.copy()
    out[-m:] = np.log(np.minimum(smoothed, w[-1]))
    return out, fit.k_hat


def oracle_logsumexp(a):
    m = a.max()
    return m + math.log(np.exp(a - m).sum())


def oracle_column(ll):
    """PSIS-LOO elpd and k-hat of one column, one observation at a time."""
    if ll.max() == ll.min():
        return float(ll[0]), float("-inf")
    ll_sorted = ll[np.argsort(-ll, kind="stable")]
    lw, khat = oracle_smooth(-ll_sorted)
    value = float(oracle_logsumexp(lw + ll_sorted) - oracle_logsumexp(lw))
    if not np.isfinite(value):
        raise DegenerateWeights("importance weights failed to normalize")
    return value, khat


def oracle_psis(ll):
    cols = [oracle_column(ll[:, i]) for i in range(ll.shape[1])]
    return np.array([c[0] for c in cols]), np.array([c[1] for c in cols])


def assert_same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))


def assert_matches_oracle(ll):
    """The block kernel and the column loop agree, or both raise.

    Returns the block kernel's estimate, or None when both raised.
    """
    with np.errstate(all="ignore"):
        try:
            pointwise, khat = oracle_psis(ll)
        except DegenerateWeights:
            with pytest.raises(DegenerateWeights):
                elpd_loo_psis(ll)
            return None
        est = elpd_loo_psis(ll)
    np.testing.assert_allclose(est.pointwise, pointwise, rtol=0.0, atol=1e-12)
    assert_same_bits(est.khat_per_obs, khat)
    return est


def heavy_tailed_column(S=1000):
    """Log-likelihoods whose tail weights reach down to subnormal numbers.

    The largest weight is 1 and most exceedances are subnormal, so the GPD
    grid's 1/quartile overflows and the tail cannot be fitted.
    """
    lr = np.full(S, -1000.0)
    lr[-95:-40] = -740.0
    lr[-40:] = np.linspace(-10.0, 0.0, 40)
    return -lr


@st.composite
def loglik_matrices(draw):
    """Draws x observations with ties, constant columns and heavy tails."""
    S = draw(st.integers(100, 600))
    n = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    df = draw(st.sampled_from([1.0, 3.0, 30.0]))
    ll = rng.standard_t(df, size=(S, n)) * draw(st.floats(0.01, 5.0)) - 1.0
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    if decimals is not None:
        # coarse rounding ties the largest weights, so tails shorten
        ll = np.round(ll, decimals)
    constant = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ll[:, constant] = ll[0, constant]
    return ll


finite_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestElpdSe:
    def test_constant_vector_is_zero(self):
        assert elpd_se([3.0, 3.0, 3.0, 3.0]) == 0.0

    def test_hand_examples(self):
        assert elpd_se([0.0, 2.0]) == pytest.approx(2.0)
        assert elpd_se([1.0, 2.0, 3.0]) == pytest.approx(np.sqrt(3.0))

    def test_too_few(self):
        with pytest.raises(TooFewObservations):
            elpd_se([1.0])

    @given(finite_vectors)
    def test_equals_sqrt_n_times_sd(self, x):
        # second implementation path: sqrt(n) * sample standard deviation
        expected = np.sqrt(x.size) * np.std(x, ddof=1)
        assert elpd_se(x) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_rows_of_a_block_match_vectors(self):
        block = np.random.default_rng(5).standard_normal((7, 50)) * 3.0 - 2.0
        ses = elpd_se(block)
        assert isinstance(ses, np.ndarray) and ses.shape == (7,)
        for k in range(7):
            one = elpd_se(block[k])
            assert type(one) is float
            assert ses[k] == pytest.approx(one, rel=1e-12, abs=0.0)


class TestMlpd:
    def test_zeros(self):
        assert mlpd([0.0, 0.0, 0.0]) == 0.0

    def test_mean(self):
        assert mlpd([-1.0, -3.0]) == -2.0

    def test_matches_estimate_over_n(self):
        est = from_pointwise([-1.2, -0.3, -2.2, 0.4])
        assert mlpd(est.pointwise) == pytest.approx(est.estimate / est.n_obs)

    def test_empty(self):
        with pytest.raises(EmptyVector):
            mlpd([])


class TestElpdDiff:
    def test_identical_models(self):
        a = from_pointwise([-1.0, -2.0, -3.0], "a")
        d = elpd_diff(a, a)
        assert d.estimate == 0.0
        assert d.se_diff == 0.0

    def test_hand_example(self):
        a = from_pointwise([1.0, 3.0], "a")
        b = from_pointwise([1.0, 1.0], "b")
        d = elpd_diff(a, b)
        assert d.estimate == pytest.approx(2.0)
        assert d.se_diff == pytest.approx(2.0)

    @given(finite_vectors)
    def test_antisymmetry(self, x):
        rng = np.random.default_rng(0)
        a = from_pointwise(x, "a")
        b = from_pointwise(x + rng.standard_normal(x.size), "b")
        ab, ba = elpd_diff(a, b), elpd_diff(b, a)
        assert ab.estimate == pytest.approx(-ba.estimate, abs=1e-9)
        assert ab.se_diff == pytest.approx(ba.se_diff)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            elpd_diff(from_pointwise([1.0, 2.0]), from_pointwise([1.0, 2.0, 3.0]))

    def test_difference_overflowing_when_squared_names_both_models(self):
        # each input's squares are finite; the paired difference's are not
        a = from_pointwise([9e153, 0.0, 1.0], "a")
        b = from_pointwise([-9e153, 0.0, 1.0], "b")
        with pytest.raises(NonFiniteInput, match="'a' and 'b' overflows when squared"):
            elpd_diff(a, b)


class TestTotalsLeavingTheFloatRange:
    """Finite pointwise elpds whose sum or standard error overflows."""

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda: from_pointwise([1e308, 1e308]),
            lambda: elpd_loo_psis(np.full((200, 2), -1e308)),
        ],
        ids=["from_pointwise", "elpd_loo_psis"],
    )
    def test_sum_overflowing_is_non_finite_input(self, estimate):
        # math.fsum raised a bare OverflowError here
        with pytest.raises(NonFiniteInput, match="pointwise elpd overflows when summed"):
            estimate()

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda: from_pointwise([9e153, -9e153]),
            lambda: elpd_loo_psis(np.tile([-1e200, 1e200, 0.0], (200, 1))),
        ],
        ids=["from_pointwise", "elpd_loo_psis"],
    )
    def test_standard_error_overflowing_is_non_finite_input(self, estimate):
        # each square is finite; the scaled sum of the centred ones is not
        with pytest.raises(NonFiniteInput, match="pointwise elpd overflows when squared"):
            estimate()


class TestLogLikMatrix:
    """The checks ``elpd_loo_psis`` makes of its draws-by-observations input."""

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteInput, match="non-finite entries"):
            elpd_loo_psis(np.array([[0.0, np.inf], [1.0, 2.0]]))

    def test_rejects_single_observation(self):
        with pytest.raises(ShapeMismatch, match="at least 2 observations"):
            elpd_loo_psis(np.zeros((100, 1)))

    def test_warns_on_few_draws(self):
        with pytest.warns(UserWarning, match="draws"):
            elpd_loo_psis(np.zeros((50, 3)) - 1.0)


class TestLogSumExp:
    @given(hnp.arrays(np.float64, st.integers(1, 200), elements=st.floats(-1e3, 1e3)))
    @settings(max_examples=300)
    def test_matches_scipy(self, a):
        rows = np.stack([a, a[::-1], a - 7.5])
        expected = [logsumexp(r) for r in rows]
        got = psisloo._logsumexp_rows(rows.copy())
        assert np.all(np.abs(got - expected) <= 1e-12)


def smooth(lr):
    """``(log_weights, khat)`` of one ascending row of log ratios."""
    lw = lr - lr[-1]
    return lw, float(psisloo._smooth_rows(lw[None, :])[0])


class TestSmoothing:
    def test_smoothed_never_exceeds_raw_max(self):
        rng = np.random.default_rng(1)
        lr = np.sort(rng.standard_normal(2000) * 3)
        lw, khat = smooth(lr)
        assert np.isfinite(khat)
        assert lw.max() <= 0.0 + 1e-12

    def test_tiny_sample_flagged_plus_inf(self):
        _, khat = smooth(np.arange(8.0))
        assert khat == np.inf

    @given(loglik_matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_one_column_oracle(self, ll):
        for i in range(ll.shape[1]):
            lr = np.sort(-ll[:, i])
            if lr[0] == lr[-1]:
                continue  # elpd_loo_psis takes constant columns as exact
            with np.errstate(all="ignore"):
                lw, khat = smooth(lr)
                lw_ref, khat_ref = oracle_smooth(lr)
            assert_same_bits(lw, lw_ref)
            assert_same_bits(khat, khat_ref)


class TestElpdLooPsis:
    def test_constant_loglik_is_exact(self):
        ll = np.tile([-1.3, -0.7, -2.1], (400, 1))
        est = elpd_loo_psis(ll, "const")
        assert est.pointwise == pytest.approx([-1.3, -0.7, -2.1], abs=0.0)
        assert np.all(est.khat_per_obs == -np.inf)
        assert est.reliable

    def test_estimate_is_sum_of_pointwise(self):
        rng = np.random.default_rng(2)
        est = elpd_loo_psis(rng.standard_normal((300, 8)) - 2.0)
        assert est.estimate == pytest.approx(est.pointwise.sum(), rel=1e-12)

    def test_heavy_tailed_column_flagged(self):
        rng = np.random.default_rng(3)
        S = 2000
        ll = rng.standard_normal((S, 3)) * 0.1 - 1.0
        # one observation whose weights have an infinite-variance tail (k=1)
        from cvbias.gpd import gpd_quantile, khat_threshold

        ll[:, 1] = -np.log(gpd_quantile(rng.uniform(size=S), 1.0, 1.0) + 0.1)
        est = elpd_loo_psis(ll)
        assert est.khat_per_obs[1] > khat_threshold(S)
        assert not est.reliable

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        ll = rng.standard_normal((500, 6)) - 1.0
        base = elpd_loo_psis(ll)
        perm_draws = elpd_loo_psis(ll[rng.permutation(500)])
        assert perm_draws.pointwise == pytest.approx(base.pointwise, rel=1e-12)
        obs_perm = rng.permutation(6)
        perm_obs = elpd_loo_psis(ll[:, obs_perm])
        assert perm_obs.pointwise == pytest.approx(base.pointwise[obs_perm], rel=1e-12)

    @given(loglik_matrices())
    @settings(max_examples=80, deadline=None)
    def test_block_kernel_matches_column_loop(self, ll):
        assert_matches_oracle(ll)

    @given(loglik_matrices(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_blocks_that_split_a_wide_matrix(self, ll, width):
        # blocks of `width` observations, the last one possibly narrower
        with mock.patch.object(psisloo, "_BLOCK", width * ll.shape[0]):
            assert_matches_oracle(ll)

    @given(loglik_matrices(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_draw_permutation_changes_no_bit(self, ll, seed):
        shuffled = ll[np.random.default_rng(seed).permutation(ll.shape[0])]
        with np.errstate(all="ignore"):
            try:
                base = elpd_loo_psis(ll)
            except DegenerateWeights:
                with pytest.raises(DegenerateWeights):
                    elpd_loo_psis(shuffled)
                return
            perm = elpd_loo_psis(shuffled)
        assert_same_bits(perm.pointwise, base.pointwise)
        assert_same_bits(perm.khat_per_obs, base.khat_per_obs)

    def test_tied_tails_shorten_the_fit(self):
        # 200 tied draws at the cutoff leave 60 of M = 190 exceedances
        rng = np.random.default_rng(7)
        S = 4000
        ll = rng.standard_normal((S, 3)) - 1.0
        ll[:, 1] = 0.0
        ll[:60, 1] = -5.0 - rng.exponential(size=60)
        ll[60:260, 1] = -5.0
        lr = np.sort(-ll[:, 1])
        w = np.exp(lr - lr[-1])
        _, exceedances = gpd.tail_cutoff(w)
        assert exceedances.size == 60
        est = assert_matches_oracle(ll)
        assert np.isfinite(est.khat_per_obs).all()

    @pytest.mark.parametrize("S", [8, 15])
    def test_too_few_draws_or_exceedances_are_plus_inf(self, S):
        # S < 10 has no tail cutoff; at S = 15 the tail holds M = 3 < 5
        ll = np.random.default_rng(S).standard_normal((S, 4))
        ll[:, 2] = -2.0
        with pytest.warns(UserWarning, match="draws"):
            est = assert_matches_oracle(ll)
        assert est.khat_per_obs.tolist() == [np.inf, np.inf, -np.inf, np.inf]

    @pytest.mark.filterwarnings("error")
    def test_subnormal_tail_is_unfittable_on_both_paths(self):
        ll = np.random.default_rng(8).standard_normal((1000, 3))
        ll[:, 1] = heavy_tailed_column(1000)
        value, khat = oracle_column(ll[:, 1])
        est = elpd_loo_psis(ll)
        assert khat == est.khat_per_obs[1] == np.inf
        assert est.pointwise[1] == pytest.approx(value, rel=0.0, abs=1e-12)
        assert not est.reliable

    def test_agrees_with_exact_loo(self):
        # conjugate model: PSIS on analytic-posterior draws vs exact LOO
        rng = np.random.default_rng(5)
        n = 30
        X = rng.standard_normal((n, 2))
        y = X @ np.array([1.0, -0.5]) + rng.standard_normal(n)
        data = conjlm.Dataset(X, y)
        prior = conjlm.NigPrior.diffuse()
        exact = conjlm.elpd_loo_exact(data, prior)
        draws = conjlm.draw_posterior(conjlm.fit(data, prior), 4000, seed=99)
        psis = elpd_loo_psis(conjlm.pointwise_loglik(data, draws))
        assert abs(psis.estimate - exact.estimate) < 0.1 * exact.se

    def test_error_decreases_with_draws(self):
        # PSIS error vs exact LOO shrinks as S grows (median over seeds)
        rng = np.random.default_rng(6)
        n = 25
        X = rng.standard_normal((n, 2))
        y = X @ np.array([0.8, 0.0]) + rng.standard_normal(n)
        data = conjlm.Dataset(X, y)
        prior = conjlm.NigPrior.diffuse()
        exact = conjlm.elpd_loo_exact(data, prior)
        fit_ = conjlm.fit(data, prior)
        medians = []
        for S in (500, 2000, 8000):
            errs = []
            for seed in range(20):
                draws = conjlm.draw_posterior(fit_, S, seed=seed)
                psis = elpd_loo_psis(conjlm.pointwise_loglik(data, draws))
                errs.append(abs(psis.estimate - exact.estimate))
            medians.append(np.median(errs))
        assert medians[0] >= medians[1] >= medians[2]

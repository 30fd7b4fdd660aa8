import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from cvbias import conjlm, psisloo
from cvbias.errors import (
    EmptyVector,
    NonFiniteInput,
    ShapeMismatch,
    TooFewObservations,
)
from cvbias.psisloo import (
    LogLikMatrix,
    elpd_diff,
    elpd_loo_psis,
    elpd_se,
    from_pointwise,
    mlpd,
    smooth_log_weights,
)

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

    def test_columns_of_a_block_match_vectors(self):
        block = np.random.default_rng(5).standard_normal((50, 7)) * 3.0 - 2.0
        ses = elpd_se(block)
        assert isinstance(ses, np.ndarray) and ses.shape == (7,)
        for k in range(7):
            one = elpd_se(block[:, k])
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


class TestLogLikMatrix:
    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteInput):
            LogLikMatrix(np.array([[0.0, np.inf], [1.0, 2.0]]))

    def test_rejects_single_observation(self):
        with pytest.raises(ShapeMismatch):
            LogLikMatrix(np.zeros((100, 1)))

    def test_warns_on_few_draws(self):
        with pytest.warns(UserWarning, match="draws"):
            elpd_loo_psis(np.zeros((50, 3)) - 1.0)


class TestLogSumExp:
    @given(hnp.arrays(np.float64, st.integers(1, 200), elements=st.floats(-1e3, 1e3)))
    @settings(max_examples=300)
    def test_matches_scipy(self, a):
        assert abs(psisloo._logsumexp(a) - logsumexp(a)) <= 1e-12


class TestSmoothing:
    def test_smoothed_never_exceeds_raw_max(self):
        rng = np.random.default_rng(1)
        lr = np.sort(rng.standard_normal(2000) * 3)
        lw, khat = smooth_log_weights(lr)
        assert np.isfinite(khat)
        assert lw.max() <= 0.0 + 1e-12

    def test_constant_ratios_flagged_minus_inf(self):
        lw, khat = smooth_log_weights(np.zeros(500))
        assert khat == -np.inf
        assert np.all(lw == 0.0)

    def test_tiny_sample_flagged_plus_inf(self):
        _, khat = smooth_log_weights(np.arange(8.0))
        assert khat == np.inf


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

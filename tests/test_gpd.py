import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvbias import gpd
from cvbias.errors import InvalidParameter, TooFewObservations
from cvbias.gpd import (
    GpdFit,
    fit_gpd,
    gpd_quantile,
    khat_threshold,
    tail_cutoff,
)


def sample_gpd(k, sigma, n, seed):
    rng = np.random.default_rng(seed)
    return gpd_quantile(rng.uniform(size=n), k, sigma)


def unbuffered_fit(x):
    """(k_hat, sigma_hat) with the whole profile grid in one temporary."""
    x = np.sort(x)
    n = x.size
    m = 30 * math.ceil(math.sqrt(n))
    quartile = x[int(n / 4 + 0.5) - 1]
    theta = 1.0 / x[-1] + (1.0 - np.sqrt(m / (np.arange(1.0, m + 1) - 0.5))) / (
        3.0 * quartile
    )
    k_grid = np.log1p(-theta[:, None] * x).mean(axis=1)
    with np.errstate(invalid="ignore"):
        rate = -theta / k_grid
    # a tied tail can put a grid point at theta = 0, where the rate's limit
    # is 1/mean(x)
    rate[theta == 0.0] = 1.0 / x.mean()
    log_lik = n * (np.log(rate) - k_grid - 1.0)
    log_lik -= log_lik.max()
    weights = np.exp(log_lik)
    weights /= weights.sum()
    theta_hat = float(np.sum(theta * weights))
    k_hat = float(np.mean(np.log1p(-theta_hat * x)))
    return (n * k_hat + 10.0 * 0.5) / (n + 10.0), -k_hat / theta_hat


class TestFitGpd:
    def test_exponential_is_gpd_k0(self):
        # Exponential(1) is GPD with k=0, sigma=1
        rng = np.random.default_rng(42)
        fit = fit_gpd(rng.exponential(1.0, 10000))
        assert -0.05 <= fit.k_hat <= 0.05
        assert 0.9 <= fit.sigma_hat <= 1.1

    def test_recovers_positive_shape(self):
        fit = fit_gpd(sample_gpd(0.5, 1.0, 10000, seed=7))
        assert 0.45 <= fit.k_hat <= 0.55
        assert 0.9 <= fit.sigma_hat <= 1.1

    def test_too_few_tail_samples(self):
        with pytest.raises(TooFewObservations, match="need at least 5 exceedances, got 4"):
            fit_gpd([1.0, 2.0, 3.0, 4.0])

    def test_nonpositive_exceedance(self):
        with pytest.raises(InvalidParameter, match="exceedances must be finite and > 0"):
            fit_gpd([1.0, 2.0, 0.0, 3.0, 4.0])
        with pytest.raises(InvalidParameter, match="exceedances must be finite and > 0"):
            fit_gpd([1.0, 2.0, -0.5, 3.0, 4.0])

    def test_deterministic(self):
        x = sample_gpd(0.3, 2.0, 500, seed=3)
        assert fit_gpd(x) == fit_gpd(x)

    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_scale_equivariance(self, c):
        x = sample_gpd(0.2, 1.0, 400, seed=11)
        base = fit_gpd(x)
        scaled = fit_gpd(c * x)
        assert scaled.k_hat == pytest.approx(base.k_hat, rel=1e-6)
        assert scaled.sigma_hat == pytest.approx(c * base.sigma_hat, rel=1e-6)

    @pytest.mark.parametrize("k_true", [-0.2, 0.0, 0.3, 0.7])
    def test_shape_recovery_rate(self, k_true):
        # smaller version of the acceptance sweep: 25 seeds at n=2000
        hits = sum(
            abs(fit_gpd(sample_gpd(k_true, 1.0, 2000, seed=1000 + s)).k_hat - k_true)
            < 0.1
            for s in range(25)
        )
        assert hits >= 24

    @given(
        st.integers(5, 3000),
        st.floats(-0.5, 1.5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    # k = 5e-324 draws the tied tail 1, 1, 2, 3, 3, whose grid holds theta = 0
    @example(n=7, k=5e-324, seed=1)
    def test_grid_buffer_changes_no_bit(self, n, k, seed):
        # grids of up to 1650 x 3000 points pass through the 2^14-double buffer
        x = sample_gpd(k, 1.0, n, seed)
        x = x[x > 0]
        if x.size < 5:
            return
        fit = fit_gpd(x)
        assert (fit.k_hat, fit.sigma_hat) == unbuffered_fit(x)

    @given(st.integers(5, 400), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_one_dimensional_fit(self, n, r, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(
            gpd_quantile(rng.uniform(size=(r, n)), rng.uniform(-0.3, 1.2), 1.0),
            axis=1,
        ) + 1e-3
        k_rows, sigma_rows = gpd._fit_rows(x)
        for i in range(r):
            fit = fit_gpd(x[i])
            assert (k_rows[i], sigma_rows[i]) == (fit.k_hat, fit.sigma_hat)

    @pytest.mark.filterwarnings("error")
    def test_tied_tail_with_a_grid_point_at_theta_zero(self):
        # the top three quarters tie and ceil(sqrt(12)) = 4: grid point 23 of
        # 120 is theta = 1/x_max - 1/quartile = 0, where -theta/k is 0/0
        fit = fit_gpd([0.1, 0.2] + [1.0] * 10)
        assert math.isfinite(fit.k_hat) and math.isfinite(fit.sigma_hat)
        # the limit 1/mean(x) taken at theta = 0 is continuous: moving x_max
        # by 1e-9 moves that grid point off zero and the fit by ~1e-9
        near = fit_gpd([0.1, 0.2] + [1.0] * 9 + [1.0 + 1e-9])
        assert near.k_hat == pytest.approx(fit.k_hat, rel=1e-6)
        assert near.sigma_hat == pytest.approx(fit.sigma_hat, rel=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_quartile_is_unfittable(self):
        fit = fit_gpd([1e-310, 2e-310, 3e-310, 4e-310, 5e-310, 1.0, 2.0])
        assert fit.k_hat == math.inf and math.isnan(fit.sigma_hat)
        # a fittable row beside it keeps its own bits
        rows = np.array([[1e-310, 2e-310, 3e-310, 4e-310, 5e-310, 1.0, 2.0],
                         np.arange(1.0, 8.0)])
        k_rows, _ = gpd._fit_rows(rows)
        assert k_rows[0] == math.inf and k_rows[1] == fit_gpd(rows[1]).k_hat

    def test_records_tail_size(self):
        x = sample_gpd(0.1, 1.0, 50, seed=5)
        fit = fit_gpd(x)
        assert fit == GpdFit(fit.k_hat, fit.sigma_hat)


class TestTailCutoff:
    def test_tail_size_rule_small(self):
        # S=100: M = min(0.2*100, 3*10) = 20
        cutoff, exc = tail_cutoff(np.arange(100.0), max_tail_fraction=0.2)
        assert exc.size == 20
        assert cutoff == 79.0

    def test_tail_size_rule_large(self):
        # S=10000: M = min(2000, 300) = 300
        _, exc = tail_cutoff(np.arange(10000.0), max_tail_fraction=0.2)
        assert exc.size == 300

    def test_exceedances_shifted_and_positive(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        cutoff, exc = tail_cutoff(x)
        assert np.all(exc > 0)
        assert np.all(np.diff(exc) >= 0)
        assert exc.max() + cutoff == pytest.approx(x.max())

    def test_constant_sample_degenerate(self):
        cutoff, exc = tail_cutoff(np.full(50, 3.0))
        assert exc.size == 0
        assert cutoff == 3.0

    def test_too_few_samples(self):
        with pytest.raises(TooFewObservations, match="at least 10 samples for a tail cutoff"):
            tail_cutoff(np.arange(9.0))


class TestKhatThreshold:
    def test_anchors(self):
        assert khat_threshold(10) == pytest.approx(0.0)
        assert khat_threshold(100) == pytest.approx(0.5)
        assert khat_threshold(10**7) == 0.7  # cap active: 1 - 1/7 > 0.7

    @given(st.integers(min_value=1, max_value=10**9))
    def test_bounded_above(self, s):
        assert khat_threshold(s) <= 0.7

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200)
    def test_nondecreasing(self, s):
        assert khat_threshold(s + 1) >= khat_threshold(s)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            khat_threshold(0)


class TestGpdQuantile:
    def test_k0_matches_exponential(self):
        p = np.array([0.1, 0.5, 0.9])
        assert gpd_quantile(p, 0.0, 2.0) == pytest.approx(-2.0 * np.log1p(-p))

    def test_array_shapes_match_scalar_calls(self):
        p = (np.arange(7) + 0.5) / 7
        k = np.array([[-0.3], [0.0], [0.45]])
        sigma = np.array([[2.0], [0.5], [1.5]])
        rows = gpd_quantile(p, k, sigma)
        assert rows.shape == (3, 7)
        for i in range(3):
            one = gpd_quantile(p, float(k[i, 0]), float(sigma[i, 0]))
            assert np.array_equal(rows[i], one)

    def test_inverse_of_cdf(self):
        # CDF(q(p)) == p for k != 0
        k, sigma = 0.4, 1.5
        p = np.linspace(0.05, 0.95, 10)
        q = gpd_quantile(p, k, sigma)
        cdf = 1.0 - (1.0 + k * q / sigma) ** (-1.0 / k)
        assert cdf == pytest.approx(p)

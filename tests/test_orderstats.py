import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtri

from cvbias.errors import InvalidParameter, TooFewModels
from cvbias.gpd import khat_threshold
from cvbias.orderstats import (
    blom_max,
    build_comparison,
    diagnose_tail,
    halfnormal_sigma,
    median_baseline,
    threshold,
)
from cvbias.psisloo import from_pointwise

diff_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=30),
    elements=st.floats(-1e3, 1e3, allow_nan=False),
)


class TestBlomMax:
    def test_anchors(self):
        assert blom_max(1) == 0.0
        assert blom_max(2) == pytest.approx(0.67449, abs=1e-5)
        assert blom_max(100) == pytest.approx(2.5758, abs=1e-4)

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=200)
    def test_strictly_increasing_in_k(self, k):
        assert blom_max(k + 1) > blom_max(k)

    def test_alpha_interval_enforced(self):
        blom_max(5, alpha=0.39)
        with pytest.raises(ValueError):
            blom_max(5, alpha=0.2)
        with pytest.raises(ValueError):
            blom_max(0)

    @given(st.integers(min_value=1, max_value=10**7), st.floats(0.39, 0.5))
    @settings(max_examples=300)
    def test_matches_scipy_ndtri(self, k, alpha):
        p = (k - alpha) / (k - 2.0 * alpha + 1.0)
        assert abs(blom_max(k, alpha) - ndtri(p)) <= 1e-14


class TestHalfnormalSigma:
    def test_hand_example(self):
        fit = halfnormal_sigma([-1.0, 0.0, 1.0, 2.0])
        assert fit.median_hat == pytest.approx(0.5)
        assert fit.sigma_hat == pytest.approx(np.sqrt(1.25))

    def test_all_equal_is_zero(self):
        assert halfnormal_sigma([4.0] * 7).sigma_hat == 0.0

    def test_recovers_normal_scale(self):
        rng = np.random.default_rng(8)
        fit = halfnormal_sigma(rng.standard_normal(10000))
        assert 0.95 <= fit.sigma_hat <= 1.05

    def test_too_few(self):
        with pytest.raises(TooFewModels):
            halfnormal_sigma([])

    def test_single_point_is_its_own_median(self):
        assert halfnormal_sigma([1.5]) == (0.0, 1.5)

    @settings(max_examples=300)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 40),
            elements=st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 1.5, -1.5, 5e-324]),
            ),
        )
    )
    def test_median_is_numpys_bit_for_bit(self, d):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.median(d)
            m = np.float64(halfnormal_sigma(d).median_hat)
        assert m.view(np.uint64) == expected.view(np.uint64)

    @given(diff_vectors, st.floats(-100, 100, allow_nan=False))
    def test_translation_invariant(self, d, c):
        assert halfnormal_sigma(d + c).sigma_hat == pytest.approx(
            halfnormal_sigma(d).sigma_hat, rel=1e-6, abs=1e-6
        )

    @given(diff_vectors, st.floats(0.01, 100, allow_nan=False))
    def test_scale_equivariant(self, d, c):
        assert halfnormal_sigma(c * d).sigma_hat == pytest.approx(
            c * halfnormal_sigma(d).sigma_hat, rel=1e-9, abs=1e-12
        )


class TestThreshold:
    def test_hand_example(self):
        res = threshold([-1.0, 0.0, 1.0, 2.0], 0.5, 4)
        assert res.s_k == pytest.approx(1.1503, abs=1e-4)
        assert res.threshold == pytest.approx(1.2861, abs=1e-4)
        assert res.max_diff == 2.0
        assert not res.all_equivalent

    def test_hand_example_with_k_above_the_point_count(self):
        # the many-K count: five models, baseline included, over four diffs
        res = threshold([-1.0, 0.0, 1.0, 2.0], 0.5, 5)
        assert res.s_k == pytest.approx(1.2816, abs=1e-4)  # Phi^-1(0.9)
        assert res.sigma_hat == pytest.approx(np.sqrt(1.25))
        assert res.threshold == res.s_k * res.sigma_hat
        assert res.threshold == pytest.approx(1.4328, abs=1e-4)
        assert res.max_diff == 2.0
        assert not res.all_equivalent
        # one model: an expected maximum of 0 whatever the spread
        assert threshold([-1.0, 0.0, 1.0, 2.0], 0.5, 1).threshold == 0.0

    def test_all_zero_diffs_equivalent(self):
        res = threshold([0.0, 0.0, 0.0], 0.5, 3)
        assert res.threshold == 0.0
        assert res.all_equivalent

    def test_identical_positive_diffs_not_equivalent(self):
        res = threshold([0.7, 0.7, 0.7], 0.5, 3)
        assert res.threshold == 0.0
        assert not res.all_equivalent

    @pytest.mark.parametrize("c", [0.01, 0.1, 10.0, 100.0])
    def test_verdict_invariant_under_rescaling(self, c):
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = rng.standard_normal(12)
            verdict = threshold(c * d, 0.5, 12).all_equivalent
            assert verdict == threshold(d, 0.5, 12).all_equivalent


class TestDiagnoseTail:
    def test_gaussian_reliable(self):
        rng = np.random.default_rng(10)
        diag = diagnose_tail(rng.standard_normal(200))
        assert diag.khat < 0.5
        assert diag.reliable

    def test_cauchy_unreliable(self):
        rng = np.random.default_rng(11)
        diag = diagnose_tail(rng.standard_cauchy(200))
        assert diag.khat > khat_threshold(200)
        assert not diag.reliable

    def test_minimum_models(self):
        with pytest.raises(TooFewModels):
            diagnose_tail(np.arange(9.0))
        # exactly 10 points yields the 5-exceedance minimum
        rng = np.random.default_rng(12)
        diag = diagnose_tail(rng.standard_normal(10))
        assert np.isfinite(diag.khat) or diag.khat == np.inf

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        d = rng.standard_normal(50)
        assert diagnose_tail(d) == diagnose_tail(d)

    def test_degenerate_tail_flagged(self):
        assert diagnose_tail(np.full(20, 1.0)) == (np.inf, False)


class TestMedianBaseline:
    def _estimates(self, values):
        return [
            from_pointwise(np.full(4, v / 4.0), f"m{i}") for i, v in enumerate(values)
        ]

    def test_three_models(self):
        base_id, diffs = median_baseline(self._estimates([1.0, 2.0, 3.0]))
        assert base_id == "m1"
        assert len(diffs) == 2

    def test_ten_models_returns_nine_diffs(self):
        base_id, diffs = median_baseline(self._estimates(np.arange(10.0)))
        assert base_id == "m4"  # lower median of an even count
        assert len(diffs) == 9
        assert all(d.model_b == "m4" for d in diffs)

    def test_tie_breaks_to_lowest_index(self):
        base_id, _ = median_baseline(self._estimates([2.0, 2.0, 1.0]))
        assert base_id == "m0"

    def test_too_few(self):
        with pytest.raises(TooFewModels):
            median_baseline(self._estimates([1.0, 2.0]))


class TestBuildComparison:
    def test_two_identical_models(self):
        a = from_pointwise([-1.0, -2.0, -1.5], "a")
        b = from_pointwise([-1.0, -2.0, -1.5], "b")
        cmp_ = build_comparison([a, b], baseline="a")
        assert cmp_.all_equivalent
        assert cmp_.threshold == 0.0
        assert cmp_.K == 1
        assert not cmp_.reliable  # diagnostic unavailable below 10 models

    def test_median_baseline_path(self):
        rng = np.random.default_rng(14)
        ests = [
            from_pointwise(rng.standard_normal(20) - 1.0, f"m{i}") for i in range(12)
        ]
        cmp_ = build_comparison(ests)
        assert cmp_.K == 11
        assert cmp_.threshold == pytest.approx(cmp_.s_k * cmp_.sigma_hat)
        assert cmp_.bias_hat == pytest.approx(1.5 * cmp_.threshold)
        assert cmp_.khat_tail is None or isinstance(cmp_.khat_tail, float)

    def test_clear_winner_flagged(self):
        rng = np.random.default_rng(15)
        ests = [
            from_pointwise(rng.standard_normal(30) * 0.2 - 1.0, f"m{i}")
            for i in range(10)
        ]
        winner = from_pointwise(rng.standard_normal(30) * 0.2 - 1.0 + 10.0 / 30, "win")
        cmp_ = build_comparison(ests + [winner])
        assert not cmp_.all_equivalent
        assert cmp_.max_diff > cmp_.threshold
        best = max(cmp_.diffs, key=lambda d: d.estimate)
        assert best.model_a == "win"

    @pytest.mark.parametrize("multiplier", [float("inf"), float("nan"), 1e308])
    def test_bias_out_of_float_range_rejected(self, multiplier):
        # the threshold here is about 3.2, so 1e308 times it is +inf
        ests = [from_pointwise([0.0, 4.0 * i], f"m{i}") for i in range(4)]
        assert build_comparison(ests, multiplier=1e307).bias_hat < float("inf")
        with pytest.raises(InvalidParameter, match="multiplier"):
            build_comparison(ests, multiplier=multiplier)

    def test_unknown_baseline(self):
        ests = [from_pointwise([1.0, 2.0], f"m{i}") for i in range(3)]
        with pytest.raises(TooFewModels):
            build_comparison(ests, baseline="nope")

    def test_null_simulation_rarely_exceeds_threshold(self):
        # 10-model null comparisons: the max diff should clear the
        # expected-maximum threshold only in a minority of runs
        from cvbias.conjlm import NigPrior, elpd_loo_exact
        from cvbias.sim import NestedDgpSpec, gen_nested

        prior = NigPrior.diffuse()
        exceed = 0
        n_runs = 100
        for seed in range(n_runs):
            data = gen_nested(NestedDgpSpec(n=50, K=10, beta_delta=0.0, seed=seed))
            base = elpd_loo_exact(data.subset(()), prior, model_id="base")
            ests = [base] + [
                elpd_loo_exact(data.subset((j,)), prior, model_id=f"m{j}")
                for j in range(9)
            ]
            cmp_ = build_comparison(ests, baseline="base")
            exceed += not cmp_.all_equivalent
        assert exceed < n_runs / 2

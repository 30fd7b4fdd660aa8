import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import expit, ndtr
from scipy.stats import norm

from cvbias import weights
from cvbias.errors import NonPositiveSE
from cvbias.weights import (
    prob_better_normal,
    pseudo_bma,
    pseudo_bma_plus,
    rule_of_four,
    weight_report,
)


class TestProbBetterNormal:
    def test_four_over_two_is_98_percent(self):
        assert prob_better_normal(4.0, 2.0) == pytest.approx(0.97725, abs=1e-5)

    def test_tie(self):
        assert prob_better_normal(0.0, 3.0) == 0.5

    def test_complement(self):
        assert prob_better_normal(-4.0, 2.0) == pytest.approx(0.02275, abs=1e-5)

    def test_rejects_nonpositive_se(self):
        with pytest.raises(NonPositiveSE):
            prob_better_normal(1.0, 0.0)

    @given(st.floats(-40, 40), st.floats(1e-3, 1e3))
    @settings(max_examples=300)
    def test_matches_scipy_ndtr(self, delta, se):
        assert abs(prob_better_normal(delta, se) - ndtr(delta / se)) <= 1e-15


class TestPseudoBma:
    def test_weight_at_four(self):
        assert pseudo_bma(4.0) == pytest.approx(0.98201, abs=1e-5)

    def test_tie(self):
        assert pseudo_bma(0.0) == 0.5

    def test_logistic_symmetry(self):
        assert pseudo_bma(-4.0) == pytest.approx(1.0 - pseudo_bma(4.0), abs=1e-12)

    def test_overflow_safe(self):
        assert pseudo_bma(1e4) == 1.0
        assert pseudo_bma(-1e4) == 0.0

    @given(hnp.arrays(np.float64, st.integers(1, 50), elements=st.floats(-800, 800)))
    @settings(max_examples=300)
    def test_logistic_matches_scipy_expit_without_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_allclose(weights._logistic(x), expit(x), rtol=1e-14, atol=0)
            assert pseudo_bma(x[0]) == pytest.approx(expit(x[0]), rel=1e-14, abs=0)

    @given(st.floats(-30, 30, allow_nan=False))
    def test_weights_sum_to_one(self, delta):
        assert pseudo_bma(delta) + pseudo_bma(-delta) == pytest.approx(1.0, abs=1e-12)


class TestPseudoBmaPlus:
    def test_four_over_two_above_ninety(self):
        w = pseudo_bma_plus(4.0, 2.0)
        assert 0.90 < w < 0.977  # above 90% but below the other two

    def test_tie_is_half(self):
        assert pseudo_bma_plus(0.0, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_small_se_limit_is_pseudo_bma(self):
        assert pseudo_bma_plus(2.5, 1e-6) == pytest.approx(
            pseudo_bma(2.5), abs=1e-6
        )

    @pytest.mark.parametrize(
        "delta,se",
        [(4.0, 2.0), (0.7, 0.5), (-2.0, 3.0), (8.0, 1.0),
         (1.5, 13.0), (-30.0, 20.0), (25.0, 35.0), (-3.0, 50.0)],
    )
    def test_matches_adaptive_quadrature(self, delta, se):
        ref, err = quad(
            lambda z: norm.pdf(z, 0.0, se) / (1.0 + np.exp(-delta - z)),
            -10.0 * se,
            10.0 * se,
            points=[-delta],
            epsabs=1e-12,
            epsrel=1e-12,
            limit=200,
        )
        assert pseudo_bma_plus(delta, se) == pytest.approx(ref, abs=1e-8)

    @given(st.floats(-3.0, 3.0), st.floats(3.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_large_se_matches_adaptive_quadrature(self, t, log10_se):
        # the logistic is 0 or 1 within e^-50 outside |delta + u| < 50, so
        # only that window needs quad; above it the mass is a normal tail
        se = 10.0**log10_se
        delta = t * se
        window, _ = quad(
            lambda u: norm.pdf(u, 0.0, se) * expit(delta + u),
            -delta - 50.0,
            -delta + 50.0,
            epsabs=1e-15,
            epsrel=1e-13,
            limit=200,
        )
        ref = window + norm.sf(-delta + 50.0, 0.0, se)
        assert abs(pseudo_bma_plus(delta, se) - ref) <= 1e-10

    @pytest.mark.parametrize("t", [-3.0, -1.0, -0.5, 0.0, 0.01, 0.7, 1.0, 2.5])
    def test_continuous_across_rule_switch(self, t):
        below = weights.TRAPEZOID_SE_MAX
        above = np.nextafter(below, np.inf)
        gap = pseudo_bma_plus(t * below, below) - pseudo_bma_plus(t * above, above)
        assert abs(gap) <= 1e-11

    @given(st.floats(-8, 8, allow_nan=False))
    @settings(max_examples=60)
    def test_strictly_increasing_in_delta(self, delta):
        assert pseudo_bma_plus(delta + 0.25, 2.0) > pseudo_bma_plus(delta, 2.0)

    def test_moves_toward_half_as_se_grows(self):
        gaps = [abs(pseudo_bma_plus(3.0, se) - 0.5) for se in (0.5, 2.0, 8.0)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_rejects_nonpositive_se(self):
        with pytest.raises(NonPositiveSE):
            pseudo_bma_plus(1.0, -1.0)


class TestRuleOfFour:
    def test_safe(self):
        assert rule_of_four(5.0)
        assert rule_of_four(4.0)  # closed boundary

    def test_not_safe(self):
        assert not rule_of_four(3.9)

    def test_absolute_value(self):
        assert rule_of_four(-6.0)


class TestWeightReport:
    def test_ordering_at_four_over_two(self):
        r = weight_report(4.0, 2.0)
        assert r.pseudo_bma_plus < r.pseudo_bma
        assert abs(r.pseudo_bma - r.prob_better) < 0.01
        assert r.rule_of_four_safe

    def test_all_half_at_zero(self):
        r = weight_report(0.0, 2.0)
        assert r.prob_better == 0.5
        assert r.pseudo_bma == 0.5
        assert r.pseudo_bma_plus == pytest.approx(0.5, abs=1e-12)
        assert not r.rule_of_four_safe

    def test_degenerate_se_limits(self):
        tied = weight_report(0.0, 0.0)
        assert tied.prob_better == 0.5
        assert tied.pseudo_bma_plus == 0.5
        ahead = weight_report(2.0, 0.0)
        assert ahead.prob_better == 1.0
        assert ahead.pseudo_bma_plus == pytest.approx(pseudo_bma(2.0))

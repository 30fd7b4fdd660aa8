import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import expit, ndtr, roots_hermite
from scipy.stats import norm

import cvbias
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
        "delta,se", [(4.0, 2.0), (0.7, 0.5), (-2.0, 3.0), (8.0, 1.0)]
    )
    def test_matches_adaptive_quadrature(self, delta, se):
        ref, err = quad(
            lambda z: norm.pdf(z, 0.0, se) / (1.0 + np.exp(-delta - z)),
            -10.0 * se,
            10.0 * se,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        assert pseudo_bma_plus(delta, se) == pytest.approx(ref, abs=1e-8)

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

    def test_small_rules_match_scipy_roots_hermite(self):
        for n in range(1, weights.NEWTON_NODES_MAX + 1):
            nodes, w = weights._hermgauss.__wrapped__(n)
            ref_nodes, ref_w = roots_hermite(n)
            np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-13, err_msg=f"n={n}")
            np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-15, err_msg=f"n={n}")

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            pseudo_bma_plus(1.0, 2.0, n_nodes=0)

    def test_never_imports_scipy_linalg(self):
        # one small rule (61 nodes) and one large (2401): peak memory must
        # not depend on which rules the compared pairs need
        script = (
            "import sys\n"
            "from cvbias.weights import pseudo_bma_plus\n"
            "pseudo_bma_plus(1.0, 0.5)\n"
            "pseudo_bma_plus(1.0, 10.0)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
        )
        src = str(Path(cvbias.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": pythonpath}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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

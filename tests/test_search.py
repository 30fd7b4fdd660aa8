import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbias.conjlm import Dataset, NigPrior, elpd_loo_exact, fit, log_pred_dataset
from cvbias.errors import (
    EmptyCandidateSet,
    IncompletePath,
    InvalidParameter,
    SchemaMismatch,
)
from cvbias.psisloo import elpd_se
from cvbias.search import (
    SearchPath,
    SearchStep,
    correct_path,
    evaluate_test,
    forward_search,
    stopping_rules,
)
from cvbias.sim import BlockDgpSpec, NestedDgpSpec, gen_block, gen_nested

PRIOR = NigPrior.diffuse()


@pytest.fixture(scope="module")
def block_path():
    train, test = gen_block(BlockDgpSpec(n=100, p=10, rho=0.0, block_size=5, seed=31))
    path = forward_search(train, PRIOR, max_size=10)
    path = evaluate_test(path, test)
    return path, train, test


def synthetic_path(raw_diffs, candidate_diffs, base=0.0, ses=None):
    """Hand-built SearchPath for rule tests (no data refits needed)."""
    n_obs = 4
    steps = []
    cum = base
    for k, (rd, cd) in enumerate(zip(raw_diffs, candidate_diffs)):
        cum += rd
        cd = np.asarray(cd, dtype=float)
        se = np.full(cd.size, 1.0) if ses is None else np.asarray(ses[k], float)
        steps.append(
            SearchStep(
                predictor_added=k,
                candidates_evaluated=cd.size,
                raw_diff=float(rd),
                elpd_after=cum,
                corrected_diff=float(rd),
                corrected_elpd_after=cum,
                candidate_diffs=cd,
                candidate_ses=se,
                pointwise=np.full(n_obs, cum / n_obs),
            )
        )
    data = Dataset(np.zeros((n_obs, len(raw_diffs))), np.zeros(n_obs))
    return SearchPath(
        steps=tuple(steps),
        base_elpd=base,
        base_pointwise=np.full(n_obs, base / n_obs),
        data=data,
        prior=PRIOR,
        max_size=len(raw_diffs),
    )


def refit_search(data, prior, max_size):
    """Greedy forward search over per-candidate refit LOO: the slow reference.

    Every candidate model is scored on its own by ``elpd_loo_exact`` with
    ``method="refit"`` (n refits each), so nothing here shares code with the
    batched kernel beyond ``fit`` and ``log_pred``.
    """
    prev = elpd_loo_exact(data.subset(()), prior, method="refit")
    base, current, steps = prev, (), []
    for _ in range(max_size):
        cands = [j for j in range(data.p) if j not in current]
        ests = [
            elpd_loo_exact(data.subset(current + (j,)), prior, method="refit")
            for j in cands
        ]
        diffs = np.array([e.estimate - prev.estimate for e in ests])
        ses = np.array([elpd_se(e.pointwise - prev.pointwise) for e in ests])
        best = int(np.argmax(diffs))
        prev = ests[best]
        steps.append(
            SearchStep(
                predictor_added=cands[best],
                candidates_evaluated=len(cands),
                raw_diff=float(diffs[best]),
                elpd_after=prev.estimate,
                corrected_diff=float(diffs[best]),
                corrected_elpd_after=prev.estimate,
                candidate_diffs=diffs,
                candidate_ses=ses,
                pointwise=prev.pointwise,
            )
        )
        current += (cands[best],)
    return SearchPath(
        steps=tuple(steps),
        base_elpd=base.estimate,
        base_pointwise=base.pointwise,
        data=data,
        prior=prior,
        max_size=max_size,
    )


class TestForwardSearch:
    def test_single_predictor_path(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((40, 1))
        y = X[:, 0] + rng.standard_normal(40)
        data = Dataset(X, y)
        path = forward_search(data, PRIOR, max_size=1)
        assert len(path.steps) == 1
        base = elpd_loo_exact(data.subset(()), PRIOR)
        full = elpd_loo_exact(data, PRIOR)
        assert path.steps[0].raw_diff == pytest.approx(full.estimate - base.estimate)
        assert path.steps[0].candidates_evaluated == 1

    def test_max_size_exceeds_predictors(self):
        data = Dataset(np.ones((5, 2)), np.zeros(5))
        with pytest.raises(EmptyCandidateSet):
            forward_search(data, PRIOR, max_size=3)

    def test_column_permutation_relabels_but_preserves_diffs(self):
        spec = NestedDgpSpec(n=60, K=6, beta_delta=0.6, seed=33)
        data = gen_nested(spec)
        perm = [3, 0, 4, 1, 2]
        permuted = Dataset(data.X[:, perm], data.y)
        a = forward_search(data, PRIOR, max_size=5)
        b = forward_search(permuted, PRIOR, max_size=5)
        assert [s.raw_diff for s in a.steps] == pytest.approx(
            [s.raw_diff for s in b.steps], rel=1e-9
        )
        assert [perm[s.predictor_added] for s in b.steps] == [
            s.predictor_added for s in a.steps
        ]

    def test_strong_signal_found_first(self):
        hits = 0
        for seed in range(20):
            data = gen_nested(NestedDgpSpec(n=100, K=10, beta_delta=0.8, seed=seed))
            path = forward_search(data, PRIOR, max_size=1)
            hits += path.steps[0].predictor_added == 0
        assert hits >= 19

    @pytest.mark.parametrize("prior", [PRIOR, NigPrior.tight()], ids=["diffuse", "tight"])
    def test_batched_steps_match_per_candidate_path(self, prior):
        train, _ = gen_block(BlockDgpSpec(n=60, p=10, rho=0.6, seed=35))
        batched = forward_search(train, prior, max_size=10)
        per_candidate = refit_search(train, prior, max_size=10)
        assert batched.predictors() == per_candidate.predictors()
        # before correct_path the corrected fields hold the raw values
        assert np.array_equal(batched.corrected_elpds(), batched.raw_elpds())
        assert [s.corrected_diff for s in batched.steps] == [s.raw_diff for s in batched.steps]
        assert stopping_rules(correct_path(batched)) == stopping_rules(
            correct_path(per_candidate)
        )
        for a, b in zip(batched.steps, per_candidate.steps):
            for field in ("candidate_diffs", "candidate_ses", "pointwise"):
                assert np.max(np.abs(getattr(a, field) - getattr(b, field))) <= 1e-9

    def test_steps_keep_no_view_of_the_candidate_block(self, block_path):
        # a view would keep each step's whole n x c block alive
        path, _, _ = block_path
        for s in path.steps:
            assert s.pointwise.base is None
            assert s.pointwise.shape == (path.n_obs,)


def random_design(n, p, seed, kind="plain"):
    """Correlated predictors and a response with two active columns.

    ``"collinear"`` makes the last column the first plus 1e-7 noise;
    ``"scaled"`` multiplies every row of the predictors by 1e6 after the
    response is drawn, so that the prior's 1/v0 is lost beside A'A.
    (Both at once leave the twin's s at twice its rounding floor, where no
    factorization has a correct digit.)
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) + 0.5 * rng.standard_normal((n, 1))
    if kind == "collinear":
        X[:, -1] = X[:, 0] + 1e-7 * rng.standard_normal(n)
    y = X[:, 0] - 0.5 * X[:, 1] + rng.standard_normal(n)
    return Dataset(1e6 * X if kind == "scaled" else X, y)


def assert_close(a, b, rel):
    """|a - b| <= rel * max(1, |b|), elementwise."""
    b = np.asarray(b)
    assert np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b)))


class TestCarriedPosterior:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(8, 30),
        p=st.integers(2, 6),
        kind=st.sampled_from(["plain", "collinear", "scaled"]),
        tight=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_forward_search_matches_per_step_factorization(self, n, p, kind, tight, seed):
        # every candidate model of every step factorized on its own, against
        # the bordered posterior the search carries
        data = random_design(n, p, seed, kind)
        prior = NigPrior.tight() if tight else PRIOR
        path = forward_search(data, prior, max_size=p)
        prev = path.base_elpd
        current = ()
        for step in path.steps:
            cands = [j for j in range(p) if j not in current]
            refs = [elpd_loo_exact(data.subset(current + (j,)), prior) for j in cands]
            estimates = np.array([r.estimate for r in refs])
            best = int(np.argmax(estimates))
            assert step.predictor_added == cands[best]
            assert_close(step.pointwise, refs[best].pointwise, 1e-9)
            assert_close(step.candidate_diffs, estimates - prev, 1e-9 * max(1.0, abs(prev)))
            current += (cands[best],)
            prev = estimates[best]

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(8, 40),
        n_test=st.integers(1, 30),
        p=st.integers(2, 6),
        tight=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_evaluate_test_matches_refits(self, n, n_test, p, tight, seed):
        data = random_design(n + n_test, p, seed)
        train = Dataset(data.X[:n], data.y[:n])
        test = Dataset(data.X[n:], data.y[n:])
        prior = NigPrior.tight() if tight else PRIOR
        out = evaluate_test(forward_search(train, prior, max_size=p), test)
        cols = [()] + [tuple(out.predictors()[:k]) for k in range(1, p + 1)]
        refits = [
            np.mean(log_pred_dataset(fit(train.subset(c), prior), test.subset(c)))
            for c in cols
        ]
        assert np.max(np.abs(out.test_mlpds() - refits)) <= 1e-10

    def test_evaluate_test_refits_a_step_whose_s_is_noise(self):
        # a path that adds a duplicate of a column of scale 1e9 has s at
        # rounding level: that step is refactorized, and fails as fit does
        rng = np.random.default_rng(90)
        a = 1e9 * rng.standard_normal(20)
        data = Dataset(np.column_stack([a, a]), rng.standard_normal(20))
        path = forward_search(data, PRIOR, max_size=1)
        step = path.steps[0]
        twice = replace(
            path,
            steps=(step, replace(step, predictor_added=1 - step.predictor_added)),
            max_size=2,
        )
        with pytest.raises(InvalidParameter, match="singular"):
            fit(data, PRIOR)
        with pytest.raises(InvalidParameter, match="singular"):
            evaluate_test(twice, data)


class TestCorrectPath:
    def test_all_diffs_above_threshold_identity(self):
        path = synthetic_path(
            raw_diffs=[100.0, 90.0],
            candidate_diffs=[[100.0, 1.0, 0.5], [90.0, 0.2]],
        )
        out = correct_path(path, multiplier=1.5)
        assert [s.corrected_diff for s in out.steps] == [100.0, 90.0]

    def test_multiplier_zero_keeps_raw_diffs(self, block_path):
        path, _, _ = block_path
        out = correct_path(path, multiplier=0.0)
        assert [s.corrected_diff for s in out.steps] == pytest.approx(
            [s.raw_diff for s in out.steps]
        )
        assert any(s.threshold_at_step > 0 for s in out.steps)

    def test_cumulative_identity_exact(self, block_path):
        path, _, _ = block_path
        out = correct_path(path, multiplier=1.5)
        for k, step in enumerate(out.steps, start=1):
            expected = math.fsum(
                [out.base_elpd] + [s.corrected_diff for s in out.steps[:k]]
            )
            assert step.corrected_elpd_after == expected  # bitwise

    def test_correction_never_increases_diffs(self, block_path):
        path, _, _ = block_path
        out = correct_path(path, multiplier=1.5)
        for s in out.steps:
            assert s.corrected_diff <= s.raw_diff + 1e-12

    def test_post_bulge_steps_copy_raw(self):
        # raw path rises for 2 steps then falls: bulge at size 2
        path = synthetic_path(
            raw_diffs=[5.0, 3.0, -0.1, -0.2],
            candidate_diffs=[[5, 0.1, 0, -0.1], [3, 0.1, 0], [-0.1, -0.2], [-0.2]],
        )
        out = correct_path(path, multiplier=1.5)
        assert [s.post_bulge for s in out.steps] == [False, False, True, True]
        assert out.steps[2].corrected_diff == -0.1
        assert out.steps[3].corrected_diff == -0.2

    def test_multiplier_ordering_pointwise(self, block_path):
        path, _, _ = block_path
        curves = {
            m: correct_path(path, multiplier=m).corrected_elpds()
            for m in (1.0, 1.5, 2.0)
        }
        assert np.all(curves[1.0] >= curves[1.5] - 1e-12)
        assert np.all(curves[1.5] >= curves[2.0] - 1e-12)
        fired = any(
            s.threshold_at_step > 0 and abs(s.raw_diff) < s.threshold_at_step
            and not s.post_bulge
            for s in correct_path(path, multiplier=1.5).steps
        )
        if fired:
            assert curves[2.0][-1] < curves[1.0][-1]

    def test_corrected_max_invariant_to_base_shift(self):
        diffs = [2.0, 0.3, -0.4, -0.5]
        cands = [[2, 0.2, 0.1, 0], [0.3, 0.2, 0.1], [-0.4, -0.5], [-0.5]]
        a = correct_path(synthetic_path(diffs, cands, base=0.0))
        b = correct_path(synthetic_path(diffs, cands, base=123.0))
        assert int(np.argmax(a.corrected_elpds())) == int(
            np.argmax(b.corrected_elpds())
        )

    def test_null_dgp_correction_flattens_climb(self):
        # with no true signal the corrected path must not keep the raw climb
        deltas = []
        for seed in range(100):
            data = gen_nested(NestedDgpSpec(n=100, K=11, beta_delta=0.0, seed=seed))
            path = forward_search(data, PRIOR, max_size=10)
            out = correct_path(path, multiplier=1.5)
            deltas.append(out.corrected_elpds()[-1] - out.base_elpd)
        assert np.median(deltas) <= 0.0


class TestStoppingRules:
    def test_monotone_path_bulge_at_max(self):
        path = synthetic_path(
            raw_diffs=[3.0, 2.0, 1.0],
            candidate_diffs=[[3, 0.1, 0], [2, 0.1], [1]],
        )
        v = stopping_rules(correct_path(path))
        assert v.bulge_size == 3

    def test_flat_path_stops_immediately(self):
        path = synthetic_path(
            raw_diffs=[0.0, 0.0],
            candidate_diffs=[[0.0, 0.0, 0.0], [0.0, 0.0]],
        )
        v = stopping_rules(path)
        assert v.two_sigma_delta_size == 0
        assert v.three_sigma_delta_size == 0

    def test_two_sigma_never_exceeds_bulge(self, block_path):
        path, _, _ = block_path
        v = stopping_rules(correct_path(path))
        assert v.two_sigma_size <= v.bulge_size

    def test_sigma_delta_rule_uses_ses(self):
        # first step clears 2 se but not 3 se; second step clears neither
        path = synthetic_path(
            raw_diffs=[2.5, 0.1],
            candidate_diffs=[[2.5, 0.0], [0.1]],
            ses=[[1.0, 1.0], [1.0]],
        )
        v = stopping_rules(path)
        assert v.two_sigma_delta_size == 1
        assert v.three_sigma_delta_size == 0

    def test_incomplete_path_rejected(self, block_path):
        path, _, _ = block_path
        from dataclasses import replace

        truncated = replace(path, steps=path.steps[:3])
        with pytest.raises(IncompletePath):
            stopping_rules(truncated)


class TestEvaluateTest:
    def test_fills_all_sizes(self, block_path):
        path, _, _ = block_path
        assert path.test_mlpd_base is not None
        assert all(s.test_mlpd_after is not None for s in path.steps)
        assert path.test_mlpds().shape == (11,)

    def test_deterministic(self, block_path):
        path, train, test = block_path
        again = evaluate_test(path, test)
        assert again.test_mlpds() == pytest.approx(path.test_mlpds(), rel=0.0)

    def test_single_test_point_is_single_log_density(self, block_path):
        path, train, test = block_path
        one = Dataset(test.X[:1], test.y[:1])
        out = evaluate_test(path, one)
        from cvbias.conjlm import fit, log_pred_dataset

        expected = log_pred_dataset(fit(train.subset(()), PRIOR), one.subset(()))
        assert out.test_mlpd_base == pytest.approx(float(expected[0]))

    def test_schema_mismatch(self, block_path):
        path, train, test = block_path
        with pytest.raises(SchemaMismatch):
            evaluate_test(path, Dataset(test.X[:, :4], test.y))

    def test_intercept_mismatch(self, block_path):
        path, train, test = block_path
        with pytest.raises(SchemaMismatch, match="intercept"):
            evaluate_test(path, Dataset(test.X, test.y, intercept=False))

    def test_rows_roundtrip(self, block_path):
        path, _, _ = block_path
        rows = correct_path(path).to_rows()
        assert rows[0]["size"] == 0
        assert len(rows) == 11
        assert rows[3]["corrected_mlpd"] == pytest.approx(
            rows[3]["corrected_elpd"] / path.n_obs
        )

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loo_refit
from cvbias.conjlm import Dataset, NigPrior, elpd_loo_exact, fit, log_pred
from cvbias.errors import (
    InvalidParameter,
    SchemaMismatch,
    TooFewObservations,
)
from cvbias.psisloo import elpd_se, from_pointwise
from cvbias import conjlm, search
from cvbias.search import (
    SearchPath,
    SearchStep,
    correct_path,
    forward_search,
    stopping_rules,
)
from cvbias.sim import BlockDgpSpec, NestedDgpSpec, gen_block, gen_nested

PRIOR = NigPrior.diffuse()


@pytest.fixture(scope="module")
def block_path():
    train, test = gen_block(BlockDgpSpec(n=100, p=10, rho=0.0, block_size=5, seed=31))
    path = forward_search(train, PRIOR, max_size=10, test=test)
    return path, train, test


def size_zero(elpd, pointwise):
    """The intercept-only model as ``forward_search`` builds ``steps[0]``."""
    return SearchStep(
        predictor_added=None,
        raw_diff=0.0,
        elpd_after=elpd,
        corrected_diff=0.0,
        corrected_elpd_after=elpd,
        candidate_diffs=np.empty(0),
        candidate_ses=np.empty(0),
        pointwise=pointwise,
    )


def synthetic_path(raw_diffs, candidate_diffs, base=0.0, ses=None):
    """Hand-built SearchPath for rule tests (no data refits needed)."""
    n_obs = 4
    steps = [size_zero(base, np.full(n_obs, base / n_obs))]
    cum = base
    for k, (rd, cd) in enumerate(zip(raw_diffs, candidate_diffs)):
        cum += rd
        cd = np.asarray(cd, dtype=float)
        se = np.full(cd.size, 1.0) if ses is None else np.asarray(ses[k], float)
        steps.append(
            SearchStep(
                predictor_added=k,
                raw_diff=float(rd),
                elpd_after=cum,
                corrected_diff=float(rd),
                corrected_elpd_after=cum,
                candidate_diffs=cd,
                candidate_ses=se,
                pointwise=np.full(n_obs, cum / n_obs),
            )
        )
    return SearchPath(steps=tuple(steps))


def refit_search(data, prior, max_size):
    """Greedy forward search over per-candidate refit LOO: the slow reference.

    Every candidate model is scored on its own by ``conjlm._loo_refit`` (n
    refits each), so nothing here shares code with the batched kernel
    beyond the conjugate update ``_fit`` and the predictive density.
    """

    def refit_loo(cols):
        return from_pointwise(loo_refit(data.subset(cols), prior))

    prev = refit_loo(())
    current, steps = (), [size_zero(prev.estimate, prev.pointwise)]
    for _ in range(max_size):
        cands = [j for j in range(data.p) if j not in current]
        ests = [refit_loo(current + (j,)) for j in cands]
        diffs = np.array([e.estimate - prev.estimate for e in ests])
        ses = np.array([elpd_se(e.pointwise - prev.pointwise) for e in ests])
        best = int(np.argmax(diffs))
        prev = ests[best]
        steps.append(
            SearchStep(
                predictor_added=cands[best],
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
    return SearchPath(steps=tuple(steps))


class TestForwardSearch:
    def test_single_predictor_path(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((40, 1))
        y = X[:, 0] + rng.standard_normal(40)
        data = Dataset(X, y)
        path = forward_search(data, PRIOR, max_size=1)
        assert len(path.steps) == 2
        base = elpd_loo_exact(data.subset(()), PRIOR)
        full = elpd_loo_exact(data, PRIOR)
        assert path.steps[1].raw_diff == pytest.approx(full.estimate - base.estimate)
        assert path.steps[1].candidates_evaluated == 1

    def test_size_zero_is_the_intercept_only_model(self, block_path):
        path, train, _ = block_path
        base = elpd_loo_exact(train.subset(()), PRIOR)
        first = path.steps[0]
        assert first.elpd_after == first.corrected_elpd_after == base.estimate
        assert np.array_equal(first.pointwise, base.pointwise)
        assert first.predictor_added is None
        assert first.raw_diff == first.corrected_diff == 0.0
        assert first.candidates_evaluated == 0

    def test_step_counts_its_candidate_diffs(self, block_path):
        step = SearchStep(
            predictor_added=0,
            raw_diff=1.0,
            elpd_after=1.0,
            corrected_diff=1.0,
            corrected_elpd_after=1.0,
            candidate_diffs=np.array([1.0, 0.5, -0.2]),
            candidate_ses=np.ones(3),
            pointwise=np.zeros(4),
        )
        assert step.candidates_evaluated == 3
        path, train, _ = block_path
        counts = [row["candidates_evaluated"] for row in path.to_rows()]
        assert counts == [None] + [train.p - k for k in range(len(path.steps) - 1)]

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_rows_for_exact_loo(self, n):
        # the start model's elpd_loo_exact checks the rows before any fit
        rng = np.random.default_rng(33)
        data = Dataset(rng.standard_normal((n, 2)), rng.standard_normal(n))
        with pytest.raises(TooFewObservations, match="exact LOO needs at least 3 observations"):
            forward_search(data, PRIOR, max_size=1)

    def test_max_size_exceeds_predictors(self):
        data = Dataset(np.ones((5, 2)), np.zeros(5))
        with pytest.raises(InvalidParameter, match="max_size 3 exceeds 2 predictors"):
            forward_search(data, PRIOR, max_size=3)

    @pytest.mark.parametrize("max_size", [0, 1])
    def test_no_predictor_column_is_named_before_max_size(self, max_size):
        data = Dataset(np.empty((6, 0)), np.arange(6.0))
        with pytest.raises(SchemaMismatch, match="training data has no predictor columns"):
            forward_search(data, PRIOR, max_size=max_size)

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
        assert [perm[j] for j in b.predictors()] == a.predictors()

    def test_strong_signal_found_first(self):
        hits = 0
        for seed in range(20):
            data = gen_nested(NestedDgpSpec(n=100, K=10, beta_delta=0.8, seed=seed))
            path = forward_search(data, PRIOR, max_size=1)
            hits += path.steps[1].predictor_added == 0
        assert hits >= 19

    @pytest.mark.parametrize("prior", [PRIOR, NigPrior.tight()], ids=["diffuse", "tight"])
    def test_batched_steps_match_per_candidate_path(self, prior):
        # the test set is scored along the way and changes nothing else
        train, test = gen_block(BlockDgpSpec(n=60, p=10, rho=0.6, seed=35, n_test=200))
        batched = forward_search(train, prior, max_size=10, test=test)
        per_candidate = refit_search(train, prior, max_size=10)
        assert_test_mlpds_match_refits(batched, train, test, prior)
        assert batched.predictors() == per_candidate.predictors()
        # before correct_path the corrected fields hold the raw values
        assert np.array_equal(batched.corrected_elpds(), batched.raw_elpds())
        assert [s.corrected_diff for s in batched.steps] == [s.raw_diff for s in batched.steps]
        assert stopping_rules(correct_path(batched)) == stopping_rules(
            correct_path(per_candidate)
        )
        for a, b in zip(batched.steps, per_candidate.steps):
            for field in ("candidate_diffs", "candidate_ses", "pointwise"):
                assert np.all(np.abs(getattr(a, field) - getattr(b, field)) <= 1e-9)

    def test_steps_keep_no_view_of_the_candidate_block(self, block_path):
        # a view would keep each step's whole n x c block alive
        path, train, _ = block_path
        for s in path.steps:
            assert s.pointwise.base is None
            assert s.pointwise.shape == (train.n,)


def random_design(n, p, seed, kind="plain"):
    """Correlated predictors and a response with two active columns.

    ``"collinear"`` makes the last column the first plus 1e-7 noise;
    ``"scaled"`` multiplies every row of the predictors by 1e6 after the
    response is drawn, so that the prior's 1/v0 is lost beside A'A.
    (Both at once leave the twin's s at twice its rounding floor, where the
    paths through P^-1 lose most of their digits; a QR of the
    prior-augmented design stays within ~1e-8 of a 60-digit reference.)
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
    def test_border_equals_fit_of_extended_subset(self, n, p, kind, tight, seed):
        # the bordered fit is the fit of the extended subset, field by field
        data = random_design(n, p, seed, kind)
        prior = NigPrior.tight() if tight else PRIOR
        post = fit(data, prior)
        A = data.design()
        V = np.linalg.inv(A.T @ A + np.eye(p + 1) / prior.v0)
        assert_close(post.h, np.diag(A @ V @ A.T), 1e-10)
        assert_close(post.resid, data.y - A @ post.mean_n, 1e-10)
        for k in range(p):
            post = fit(data.subset(range(k)), prior)
            x = data.X[:, k]
            U, E, s, _ = conjlm._border_terms(post, x[None])
            got = conjlm._border(post, x, U[0], s[0], E[0] @ data.y)
            want = fit(data.subset(range(k + 1)), prior)
            for field in ("mean_n", "cov", "b_n", "A", "h", "resid"):
                assert_close(getattr(got, field), getattr(want, field), 1e-10)
            assert got.a_n == want.a_n

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
        prev = path.steps[0].elpd_after
        current = ()
        for step in path.steps[1:]:
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
    def test_test_mlpds_match_refits(self, n, n_test, p, tight, seed):
        # the test mlpd of every size, scored from the carried posterior,
        # against a fit of that model on its own
        data = random_design(n + n_test, p, seed)
        train = Dataset(data.X[:n], data.y[:n])
        test = Dataset(data.X[n:], data.y[n:])
        prior = NigPrior.tight() if tight else PRIOR
        out = forward_search(train, prior, max_size=p, test=test)
        assert_test_mlpds_match_refits(out, train, test, prior)

    def test_refactorized_steps_score_the_test_set_afresh(self, monkeypatch):
        # column 2 is zero but for a spike in row 0, so every model that holds
        # it puts that row's leverage within 1e-10 of 1: the search chooses it
        # last, breaching the closed form's guard; the kernel refactorizes
        # that model once, and the search carries that fit
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 3))
        X[:20, 2] = 0.0
        X[0, 2] = 1e8
        y = X[:, 0] - 0.5 * X[:, 1] + rng.standard_normal(40)
        train = Dataset(X[:20], y[:20])
        test = Dataset(X[20:], y[20:])
        factorized, everywhere = [], []
        original, original_kernel = conjlm.fit, conjlm._fit

        def spy(data, prior):
            factorized.append(data.X)
            return original(data, prior)

        def kernel_spy(A, y, prior):
            post = original_kernel(A, y, prior)
            everywhere.append(post)
            return post

        monkeypatch.setattr(search, "fit", spy)
        monkeypatch.setattr(conjlm, "_fit", kernel_spy)
        out = forward_search(train, PRIOR, max_size=3, test=test)
        assert out.predictors()[-1] == 2
        # the search itself fits only its start model
        assert [X.shape[1] for X in factorized] == [0]
        # every fit of the full training rows is of a design; the full
        # model's is made once (the n - 1 row fits of its LOO refits are
        # not), and the fit the search carries is bit for bit its dataset's
        shape = (train.n, len(out.predictors()) + 1)
        fits_of_full = [post for post in everywhere if post.A.shape == shape]
        assert len(fits_of_full) == 1
        full = original(train.subset(out.predictors()), PRIOR)
        for name in ("mean_n", "cov", "a_n", "b_n", "A", "h", "resid"):
            assert np.array_equal(getattr(fits_of_full[0], name), getattr(full, name)), name
        assert_test_mlpds_match_refits(out, train, test, PRIOR)

    def test_noise_level_duplicate_fails_as_fit_does(self):
        # two copies of a column of scale 1e9 leave s at rounding level: the
        # search factorizes {a, b} instead, and fails as fit does, with or
        # without a test set
        rng = np.random.default_rng(90)
        a = 1e9 * rng.standard_normal(20)
        data = Dataset(np.column_stack([a, a]), rng.standard_normal(20))
        with pytest.raises(InvalidParameter, match="singular"):
            fit(data, PRIOR)
        for test in (None, data):
            with pytest.raises(InvalidParameter, match="singular"):
                forward_search(data, PRIOR, max_size=2, test=test)


def assert_test_mlpds_match_refits(path, train, test, prior):
    cols = [tuple(path.predictors()[:k]) for k in range(len(path.steps))]
    refits = [
        np.mean(log_pred(fit(train.subset(c), prior), test.subset(c).design(), test.y))
        for c in cols
    ]
    assert np.max(np.abs(path.test_mlpds() - refits)) <= 1e-10


class TestCorrectPath:
    def test_all_diffs_above_threshold_identity(self):
        path = synthetic_path(
            raw_diffs=[100.0, 90.0],
            candidate_diffs=[[100.0, 1.0, 0.5], [90.0, 0.2]],
        )
        out = correct_path(path, multiplier=1.5)
        assert [s.corrected_diff for s in out.steps[1:]] == [100.0, 90.0]

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
        for k, step in enumerate(out.steps):
            expected = math.fsum(
                [out.steps[0].elpd_after] + [s.corrected_diff for s in out.steps[1 : k + 1]]
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
        assert [s.post_bulge for s in out.steps] == [False, False, False, True, True]
        assert out.steps[3].corrected_diff == -0.1
        assert out.steps[4].corrected_diff == -0.2

    @pytest.mark.parametrize("multiplier", [1.0, 1.5, 2.0])
    def test_size_zero_is_never_corrected(self, block_path, multiplier):
        path, _, _ = block_path
        first = correct_path(path, multiplier=multiplier).steps[0]
        assert first.threshold_at_step == first.bias_at_step == 0.0
        assert not first.post_bulge
        assert first.corrected_elpd_after == first.elpd_after == path.steps[0].elpd_after

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
            deltas.append(out.corrected_elpds()[-1] - out.steps[0].elpd_after)
        assert np.median(deltas) <= 0.0


class TestStoppingRules:
    def test_monotone_path_bulge_at_max(self):
        path = synthetic_path(
            raw_diffs=[3.0, 2.0, 1.0],
            candidate_diffs=[[3, 0.1, 0], [2, 0.1], [1]],
        )
        v = stopping_rules(correct_path(path))
        assert v.bulge_size == 3
        # the bulge's paired SE with itself is 0, so it is its own 2-sigma size
        assert v.two_sigma_size == 3

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

    def test_sigma_delta_rules_run_to_the_last_step(self):
        # every step has a candidate clearing 3 se
        path = synthetic_path(raw_diffs=[4.0, 3.5], candidate_diffs=[[4.0, 0.0], [3.5]])
        v = stopping_rules(path)
        assert v.two_sigma_delta_size == v.three_sigma_delta_size == 2

    def test_prefix_verdicts_match_a_search_of_its_length(self, block_path):
        # the rules read the steps a path holds, whatever length it ran to
        path, train, test = block_path
        k = 3
        prefix = replace(path, steps=path.steps[: k + 1])
        short = forward_search(train, PRIOR, max_size=k, test=test)
        assert stopping_rules(correct_path(prefix)) == stopping_rules(correct_path(short))


class TestTestScoring:
    """Test-set scoring by ``forward_search(..., test=)``."""

    def test_fills_all_sizes(self, block_path):
        path, _, _ = block_path
        assert all(s.test_mlpd_after is not None for s in path.steps)
        assert path.test_mlpds().shape == (11,)

    def test_deterministic(self, block_path):
        path, train, test = block_path
        again = forward_search(train, PRIOR, max_size=10, test=test)
        assert np.array_equal(again.test_mlpds(), path.test_mlpds())
        without = forward_search(train, PRIOR, max_size=10)
        assert without.test_mlpds() is None
        assert np.array_equal(without.raw_elpds(), path.raw_elpds())

    def test_single_test_point_is_single_log_density(self, block_path):
        path, train, test = block_path
        one = Dataset(test.X[:1], test.y[:1])
        out = forward_search(train, PRIOR, max_size=10, test=one)
        expected = log_pred(fit(train.subset(()), PRIOR), one.subset(()).design(), one.y)
        assert out.steps[0].test_mlpd_after == pytest.approx(float(expected[0]))

    def test_schema_mismatch(self, block_path, monkeypatch):
        # the schema is checked before the search factorizes anything
        path, train, test = block_path
        factorized = []
        monkeypatch.setattr(search, "fit", lambda *a: factorized.append(a))
        with pytest.raises(SchemaMismatch, match="4 predictors"):
            forward_search(train, PRIOR, max_size=10, test=Dataset(test.X[:, :4], test.y))
        named = Dataset(train.X[:, :2], train.y, columns=("a", "b"))
        swapped = Dataset(test.X[:, :2], test.y, columns=("b", "a"))
        with pytest.raises(SchemaMismatch, match="'b' where training has 'a'"):
            forward_search(named, PRIOR, max_size=2, test=swapped)
        assert factorized == []

    def test_rows_roundtrip(self, block_path):
        path, train, _ = block_path
        rows = correct_path(path).to_rows()
        assert len(rows) == len(path.steps) == 11
        for k, (row, step) in enumerate(zip(rows, path.steps)):
            assert row["size"] == k
            assert row["predictor_added"] == step.predictor_added
            assert row["elpd"] == step.elpd_after
        assert rows[3]["corrected_mlpd"] == pytest.approx(
            rows[3]["corrected_elpd"] / train.n
        )

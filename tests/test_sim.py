from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cvbias.conjlm import NigPrior, elpd_loo_exact
from cvbias.errors import InvalidBlocking, InvalidParameter
from cvbias.search import forward_search
from cvbias import sim
from cvbias.sim import (
    BlockDgpSpec,
    NestedDgpSpec,
    derive_seed,
    gen_block,
    gen_nested,
    run_forward_experiment,
    run_many_k,
    spec_hash,
    summarize_many_k,
)


class TestGenNested:
    def test_null_marginal_variance(self):
        small = gen_nested(NestedDgpSpec(n=100, K=10, beta_delta=0.0, seed=1))
        assert 0.7 <= small.y.var() <= 1.3
        big = gen_nested(NestedDgpSpec(n=10000, K=10, beta_delta=0.0, seed=1))
        assert 0.94 <= big.y.var() <= 1.06

    def test_strong_signal_r2(self):
        data = gen_nested(NestedDgpSpec(n=10000, K=5, beta_delta=0.99, seed=2))
        resid = data.y - 1.0 - 0.99 * data.X[:, 0]
        r2 = 1.0 - resid.var() / data.y.var()
        assert r2 > 0.95

    def test_byte_identical_per_seed(self):
        spec = NestedDgpSpec(n=50, K=4, beta_delta=0.3, seed=77)
        a, b = gen_nested(spec), gen_nested(spec)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_predictor_count(self):
        assert gen_nested(NestedDgpSpec(n=20, K=7, beta_delta=0.0, seed=0)).p == 6

    def test_invalid_beta_delta(self):
        with pytest.raises(ValueError):
            NestedDgpSpec(n=20, K=3, beta_delta=1.0, seed=0)


class TestGenBlock:
    def test_within_block_correlation(self):
        spec = BlockDgpSpec(n=10000, p=20, rho=0.6, seed=3)
        train, _ = gen_block(spec)
        corr = np.corrcoef(train.X[:, :5], rowvar=False)
        off = corr[np.triu_indices(5, 1)]
        assert np.all(np.abs(off - 0.6) < 0.05)

    def test_cross_block_independence(self):
        spec = BlockDgpSpec(n=10000, p=20, rho=0.9, seed=4)
        train, _ = gen_block(spec)
        cross = np.corrcoef(train.X[:, 2], train.X[:, 7])[0, 1]
        assert abs(cross) < 0.05

    def test_full_scale_r2_near_0_7(self):
        # xi=0.59, rho=0, 15 relevant of 100 fixes R^2 near 0.7
        spec = BlockDgpSpec(
            n=100000, p=100, rho=0.0, n_relevant=15, xi=0.59, seed=5, n_test=2
        )
        train, _ = gen_block(spec)
        signal = train.X @ spec.weights_vector()
        r2 = signal.var() / train.y.var()
        assert 0.65 <= r2 <= 0.75

    def test_weights_thirds_pattern(self):
        spec = BlockDgpSpec(n=10, p=20, rho=0.0, n_relevant=6, xi=1.0, seed=0)
        assert spec.weights_vector()[:7].tolist() == [1, 1, 0.5, 0.5, 0.25, 0.25, 0]

    def test_train_test_differ(self):
        train, test = gen_block(BlockDgpSpec(n=50, p=10, rho=0.0, seed=6, n_test=50))
        assert not np.array_equal(train.X, test.X)

    def test_invalid_blocking(self):
        with pytest.raises(InvalidBlocking):
            BlockDgpSpec(n=10, p=21, rho=0.0, seed=0)


class TestSeeds:
    def test_derive_seed_stable(self):
        assert derive_seed("a", 1, 2.5) == derive_seed("a", 1, 2.5)
        assert derive_seed("a", 1) != derive_seed("a", 2)

    def test_spec_hash_changes_with_fields(self):
        a = NestedDgpSpec(n=10, K=3, beta_delta=0.0, seed=1)
        b = NestedDgpSpec(n=10, K=3, beta_delta=0.0, seed=2)
        assert spec_hash(a) != spec_hash(b)
        assert len(spec_hash(a)) == 12


class TestPercentile:
    @settings(max_examples=300)
    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 30),
            elements=st.one_of(
                st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 2.5, 5e-324])
            ),
        ),
        st.one_of(st.sampled_from([0.0, 25.0, 50.0, 75.0, 100.0]), st.floats(0.0, 100.0)),
    )
    def test_is_numpys_bit_for_bit(self, x, q):
        # equal floats: the same bits, up to the sign of a zero result, since
        # numpy's partition and a sort may order 0.0 and -0.0 differently
        assert sim._percentile(np.sort(x), q) == np.percentile(x, q)


class TestRunManyK:
    def test_two_replications_table_well_formed(self):
        rows = run_many_k(
            [NestedDgpSpec(n=40, K=4, beta_delta=0.0, seed=8)],
            replications=2,
            n_test=50,
        )
        assert len(rows) == 2
        summary = summarize_many_k(rows)
        assert len(summary) == 1
        assert summary[0]["n_reps"] == 2
        assert np.isfinite(summary[0]["spread_max_diff"])

    def test_null_selection_uniform(self):
        # beta_delta = 0 makes candidates exchangeable
        rows = run_many_k(
            [NestedDgpSpec(n=100, K=5, beta_delta=0.0, seed=9)],
            replications=100,
            n_test=50,
        )
        counts = np.bincount([r["selected_index"] for r in rows], minlength=4)
        se = np.sqrt(0.25 * 0.75 * 100)
        assert np.all(np.abs(counts - 25) <= 3 * se)

    def test_rows_carry_provenance(self):
        rows = run_many_k(
            [NestedDgpSpec(n=30, K=3, beta_delta=0.0, seed=10)],
            replications=2,
            n_test=20,
        )
        assert all("seed" in r and "spec_hash" in r for r in rows)
        rerun = run_many_k(
            [NestedDgpSpec(n=30, K=3, beta_delta=0.0, seed=10)],
            replications=2,
            n_test=20,
        )
        assert rows == rerun


class TestRunForwardExperiment:
    def test_rho_cells_share_schema(self):
        specs = [
            BlockDgpSpec(n=50, p=10, rho=rho, seed=11, n_test=100)
            for rho in (0.0, 0.9)
        ]
        runs, paths = run_forward_experiment(specs, replications=2)
        assert len(runs) == 4
        keys = {frozenset(r) for r in runs}
        assert len(keys) == 1
        assert len(paths) == 4 * 11
        for r, spec in zip(runs, [specs[0]] * 2 + [specs[1]] * 2):
            train, _ = gen_block(dc_replace(spec, seed=r["seed"]))
            path = forward_search(train, NigPrior.diffuse(), max_size=10)
            cols = tuple(path.predictors()[: r["corrected_max_size"]])
            loo = elpd_loo_exact(
                train.subset(cols), NigPrior.diffuse(), method="refit"
            )
            assert r["corrected_max_loo_se"] == pytest.approx(loo.se / 50, rel=1e-9)

    def test_zero_replications_rejected(self):
        with pytest.raises(InvalidParameter, match="replications"):
            run_forward_experiment(
                [BlockDgpSpec(n=40, p=10, rho=0.0, seed=0)], replications=0
            )

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError, match="guard"):
            run_forward_experiment(
                [BlockDgpSpec(n=1000, p=10, rho=0.0, seed=0)], replications=2
            )
        with pytest.raises(ValueError, match="guard"):
            run_forward_experiment(
                [BlockDgpSpec(n=100, p=10, rho=0.0, seed=0)], replications=50
            )

    def test_tight_prior_shrinks_loo_test_gap(self):
        # regularisation reduces selection-induced optimism at the bulge;
        # visible in the low-n regime where the bias is non-negligible
        specs = [BlockDgpSpec(n=20, p=10, rho=0.0, seed=12, n_test=500)]
        gaps = {}
        for prior in ("diffuse", "tight"):
            runs, _ = run_forward_experiment(
                specs, priors=(prior,), replications=15
            )
            gaps[prior] = np.median(
                [r["raw_mlpd_at_bulge"] - r["test_mlpd_at_bulge"] for r in runs]
            )
        assert gaps["tight"] <= gaps["diffuse"]

    def test_bias_negligible_when_n_much_larger_than_p(self):
        # raw-vs-test gap at the bulge shrinks from n=p to n=4p
        base = dict(p=10, rho=0.0, seed=13, n_test=500)
        gaps = {}
        for n in (10, 40):
            runs, _ = run_forward_experiment(
                [BlockDgpSpec(n=n, **base)], replications=10
            )
            gaps[n] = np.median(
                [r["raw_mlpd_at_bulge"] - r["test_mlpd_at_bulge"] for r in runs]
            )
        assert gaps[40] < gaps[10]

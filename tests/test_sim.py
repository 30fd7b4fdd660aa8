import weakref
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import loo_refit
from cvbias.conjlm import Dataset, NigPrior, elpd_loo_exact, fit, log_pred
from cvbias.errors import InvalidBlocking, InvalidParameter
from cvbias.orderstats import blom_max, halfnormal_sigma
from cvbias.psisloo import elpd_se
from cvbias.search import forward_search
from cvbias import conjlm, sim
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

    def test_draws_float_arrays_equal_to_a_checked_dataset(self):
        spec = NestedDgpSpec(n=30, K=4, beta_delta=0.5, seed=8)
        checked = Dataset(gen_nested(spec).X, gen_nested(spec).y)
        data = gen_nested(spec)
        assert data.X.dtype == data.y.dtype == np.float64
        assert (data.X.shape, data.y.shape) == ((30, 3), (30,))
        assert data.columns is None
        assert data.X.tobytes() == checked.X.tobytes()
        assert data.y.tobytes() == checked.y.tobytes()


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

    def test_noise_free_design_is_valid(self):
        spec = BlockDgpSpec(n=10, p=5, rho=0.0, n_relevant=3, sigma2=0.0, seed=0)
        train, _ = gen_block(spec)
        assert np.array_equal(train.y, train.X @ spec.weights_vector())


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

    def test_tasks_are_a_cell_and_a_replication_range(self, monkeypatch):
        # sim._BLOCK // max(30 * K, 1000) = 32 replications per block: 70
        # leave a partial last block
        specs = [NestedDgpSpec(n=30, K=k, beta_delta=0.0, seed=26) for k in (3, 4)]
        plain = run_many_k(specs, 70, n_test=1000)
        original = NestedDgpSpec.__post_init__
        built = []

        def counting(self):
            built.append(self)
            original(self)

        def recording(func, tasks):
            calls.append((len(built), list(tasks), func))
            return []

        calls = []
        monkeypatch.setattr(NestedDgpSpec, "__post_init__", counting)
        assert run_many_k(specs, 70, n_test=1000, map_fn=recording) == []
        [(n_built, tasks, func)] = calls
        assert n_built == 0
        ranges = [(0, 32), (32, 64), (64, 70)]
        assert tasks == [(spec, lo, hi) for spec in specs for lo, hi in ranges]
        # the task derives its replications' specs: the rows of the plain run
        assert func(tasks[-1]) == plain[-6:]
        assert len(built) == 12

    def test_rows_past_the_bound_fail_before_any_task(self):
        def never(func, tasks):
            raise AssertionError("no task may be built or run")

        specs = [NestedDgpSpec(n=30, K=k, beta_delta=0.0, seed=26) for k in (3, 4)]
        limit = sim.MANY_K_MAX_ROWS
        with pytest.raises(InvalidParameter, match=rf"{10**12} x 2 = {2 * 10**12} rows.*{limit}"):
            run_many_k(specs, 10**12, map_fn=never)
        with pytest.raises(InvalidParameter, match=rf"= {limit + 2} rows"):
            run_many_k(specs, limit // 2 + 1, map_fn=never)
        # at the bound every replication has its task
        tasks = []
        assert run_many_k(specs, limit // 2, map_fn=lambda f, t: tasks.extend(t) or []) == []
        assert sum(hi - lo for _, lo, hi in tasks) == limit


def many_k_reference(specs, replications, prior, n_test, alpha=0.5):
    """``run_many_k`` rows, one replication and one model at a time: an
    ``elpd_loo_exact`` per model, a ``fit`` and ``log_pred`` per
    test elpd."""
    rows = []
    for spec in specs:
        key = (spec.seed, spec.n, spec.K, spec.beta_delta)
        for rep in range(replications):
            cell = dc_replace(spec, seed=derive_seed("many_k", *key, rep))
            ds = gen_nested(cell)
            test = gen_nested(
                dc_replace(cell, n=n_test, seed=derive_seed("many_k_test", *key, rep))
            )
            base = elpd_loo_exact(ds.subset(()), prior).estimate
            diffs = np.array(
                [elpd_loo_exact(ds.subset((j,)), prior).estimate for j in range(spec.K - 1)]
            ) - base
            sel = int(np.argmax(diffs))
            sigma_hat, median_diff = halfnormal_sigma(diffs)

            def test_elpd(cols):
                fit_ = fit(ds.subset(cols), prior)
                return spec.n * float(np.mean(log_pred(fit_, test.subset(cols).design(), test.y)))

            rows.append(
                {
                    "experiment": "many_k",
                    "K": spec.K,
                    "beta_delta": spec.beta_delta,
                    "n": spec.n,
                    "rep": rep,
                    "seed": cell.seed,
                    "spec_hash": spec_hash(cell),
                    "max_diff": float(diffs.max()),
                    "median_diff": median_diff,
                    "sigma_hat": sigma_hat,
                    "predicted_threshold": blom_max(spec.K, alpha) * sigma_hat,
                    "selected_index": sel,
                    "selected_is_true": sel == 0,
                    "diff_selected_test": test_elpd((sel,)) - test_elpd(()),
                    "diff_true_test": test_elpd((0,)) - test_elpd(()),
                }
            )
    return rows


def assert_rows_match(rows, expected):
    """Identical keys and non-float fields; floats within 1e-9 absolute."""
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        assert got.keys() == want.keys()
        for k, v in want.items():
            if isinstance(v, float):
                assert type(got[k]) is float and got[k] == pytest.approx(v, rel=0, abs=1e-9), k
            else:
                assert type(got[k]) is type(v) and got[k] == v, k


def crafted_block():
    """Two 8-row datasets whose closed forms break, with the rng that drew
    them. Under v0 = 1e16 the second's predictor 0, 1e-8 away from the
    intercept, has s at rounding noise yet an invertible precision, and the
    first's predictor 1 has a 1e8 entry that puts its row's leverage at 1."""
    prior = NigPrior(v0=1e16)
    rng = np.random.default_rng(5)
    X0, X1 = rng.standard_normal((2, 8, 3))
    X0[0, 1] = 1e8
    X1[:, 0] = 1.0 + 1e-8 * np.arange(8)
    return prior, [Dataset(X, rng.standard_normal(8)) for X in (X0, X1)], rng


class TestManyKBlocks:
    @pytest.mark.parametrize(
        "specs, replications, prior, n_test",
        [
            # K = 2: one candidate per replication
            ([NestedDgpSpec(n=50, K=2, beta_delta=0.0, seed=21)], 5, NigPrior.diffuse(), 200),
            # sim._BLOCK // (40 * 30) = 27 replications per block: 30 leave a
            # partial last block
            ([NestedDgpSpec(n=40, K=30, beta_delta=0.0, seed=22)], 30, NigPrior.diffuse(), 100),
            (
                [NestedDgpSpec(n=60, K=k, beta_delta=0.5, seed=23) for k in (3, 8)],
                6,
                NigPrior.diffuse(),
                80,
            ),
            (
                [NestedDgpSpec(n=25, K=k, beta_delta=0.3, seed=24) for k in (2, 6)],
                4,
                NigPrior.tight(),
                40,
            ),
        ],
    )
    def test_blocks_match_per_replication_reference(self, specs, replications, prior, n_test):
        rows = run_many_k(specs, replications, prior=prior, n_test=n_test)
        assert_rows_match(rows, many_k_reference(specs, replications, prior, n_test))

    def test_crafted_block_falls_back_per_model(self, monkeypatch):
        prior, datasets, rng = crafted_block()
        calls = []
        loo = conjlm._loo

        def recording(post):
            calls.append((post.A, post.y))
            return loo(post)

        monkeypatch.setattr(conjlm, "_loo", recording)
        block = sim._score_many_k(datasets, prior)
        _, estimates, _, _, _, refits = block
        assert [(A.tolist(), y.tolist()) for A, y in calls] == [
            (datasets[0].subset((1,)).design().tolist(), datasets[0].y.tolist()),
            (datasets[1].subset((0,)).design().tolist(), datasets[1].y.tolist()),
        ]
        assert [[f is None for f in row] for row in refits] == [
            [True, True, False, True], [True, False, True, True]
        ]
        want = [
            [elpd_loo_exact(ds.subset(c), prior).estimate for c in [(), (0,), (1,), (2,)]]
            for ds in datasets
        ]
        assert estimates == pytest.approx(np.array(want), rel=1e-12, abs=0)
        # the two fallbacks score as elpd_loo_exact does
        assert estimates[0, 2] == want[0][2] and estimates[1, 1] == want[1][1]

        y_test = rng.standard_normal((2, 30))
        x_true, x_sel = rng.standard_normal((2, 2, 30))
        fitted, original = [], conjlm._fit

        def fit_spy(A, y, prior_):
            fitted.append(A)
            return original(A, y, prior_)

        # the test elpds carry the block's fits: no model is fit again
        monkeypatch.setattr(conjlm, "_fit", fit_spy)
        monkeypatch.setattr(sim, "_fit", fit_spy)
        elpds = sim._many_k_test_elpds(block, np.array([2, 2]), y_test, x_true, x_sel)
        assert fitted == []
        for r, ds in enumerate(datasets):
            test = Dataset(np.column_stack([x_true[r], x_sel[r], x_sel[r]]), y_test[r])
            for got, cols in zip(elpds, [(), (2,), (0,)]):
                fit_ = fit(ds.subset(cols), prior)
                want = 8 * float(np.mean(log_pred(fit_, test.subset(cols).design(), test.y)))
                if r == 1 and cols == (0,):
                    # the noise column's rows come from the block's own fit
                    # of it: the same arithmetic as fit
                    assert got[r] == want
                else:
                    assert got[r] == pytest.approx(want, rel=1e-9, abs=0)

    def test_block_is_freed_before_any_density(self, monkeypatch):
        # the block is built in the kernel's call: handed on by a spy that
        # keeps no reference, it is dead whenever a density is formed, the
        # fallback fits' included
        prior, datasets, _ = crafted_block()
        refs, alive = [], []
        score, density = conjlm._score_extensions, conjlm._loo_density

        def kernel(post, X):
            box = [X]
            del X
            refs.append(weakref.ref(box[0]))
            return score(post, box.pop())

        def spy(*args):
            alive.extend(ref() is not None for ref in refs)
            return density(*args)

        monkeypatch.setattr(sim, "_score_extensions", kernel)
        monkeypatch.setattr(conjlm, "_loo_density", spy)
        sim._score_many_k(datasets, prior)
        assert len(refs) == 1 and alive and not any(alive)

    def test_selected_leverage_breach_is_refit_for_its_test_elpd(self):
        # the first dataset's model (1,) breaks only the leverage guard: its s
        # is no rounding noise, yet its test elpd comes from its own fit
        prior, datasets, rng = crafted_block()
        block = sim._score_many_k(datasets, prior)
        y_test = rng.standard_normal((2, 30))
        x_true, x_sel = rng.standard_normal((2, 2, 30))
        _, sel_test, _ = sim._many_k_test_elpds(block, np.array([1, 2]), y_test, x_true, x_sel)
        test = Dataset(np.column_stack([x_true[0], x_sel[0]]), y_test[0])
        fit_ = fit(datasets[0].subset((1,)), prior)
        assert sel_test[0] == 8 * float(np.mean(log_pred(fit_, test.subset((1,)).design(), test.y)))

    def test_breaching_baseline_is_fit_with_its_zero_column(self):
        # a response of 1e9 in row 0 leaves the second dataset's baseline
        # with a downdated scale at rounding level: model 0 is fit as the
        # baseline extended by its zero column, [1, 0], which has the
        # extended model's dimension and scores as elpd_loo_exact scores the
        # intercept-only model; the baseline's test elpd still comes from
        # the stacked fit
        prior = NigPrior(v0=1e16)
        rng = np.random.default_rng(3)
        X, Y = rng.standard_normal((2, 8, 3)), rng.standard_normal((2, 8))
        Y[1, 0] = 1e9
        datasets = [Dataset(X[r], Y[r]) for r in range(2)]
        block = sim._score_many_k(datasets, prior)
        base, estimates, *_, refits = block
        assert [f is None for f in refits[:, 0]] == [True, False]
        assert np.array_equal(refits[1, 0].A, np.column_stack([np.ones(8), np.zeros(8)]))
        assert refits[1, 0].dim == 2
        want = elpd_loo_exact(datasets[1].subset(()), prior).pointwise
        assert estimates[1, 0] == want.sum()
        y_test, x_true, x_sel = rng.standard_normal((3, 2, 30))
        base_test, *_ = sim._many_k_test_elpds(block, np.array([1, 2]), y_test, x_true, x_sel)
        fit_ = fit(datasets[1].subset(()), prior)
        assert base_test[1] == pytest.approx(
            8 * float(np.mean(log_pred(fit_, np.ones((30, 1)), y_test[1]))), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize(
        "n, n_test, error, match",
        [
            (30, 1, InvalidParameter, "n_test must be >= 2"),
            (2, 1, InvalidParameter, "n_test must be >= 2"),
            (2, 50, InvalidParameter, "n must be >= 3 for exact LOO, got 2"),
        ],
    )
    def test_invalid_sizes_fail_as_before(self, n, n_test, error, match):
        # the test set's spec is checked before the training set's n, and
        # both before any task is built
        with pytest.raises(error, match=match):
            run_many_k(
                [NestedDgpSpec(n=n, K=3, beta_delta=0.0, seed=25)], 2, n_test=n_test
            )


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
            loo = loo_refit(train.subset(cols), NigPrior.diffuse())
            assert r["corrected_max_loo_se"] == pytest.approx(elpd_se(loo) / 50, rel=1e-9)

    def test_zero_replications_rejected(self):
        with pytest.raises(InvalidParameter, match="replications"):
            run_forward_experiment(
                [BlockDgpSpec(n=40, p=10, rho=0.0, seed=0)], replications=0
            )

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError, match="guard"):
            run_forward_experiment(
                [BlockDgpSpec(n=1001, p=10, rho=0.0, seed=0)], replications=2
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

"""Seeded data generators and desk-scale experiment runners.

Two designs drive all experiments: a nested regression null in which K - 1
single-predictor candidates compete against an intercept-only baseline, and
a block-correlated regression whose forward-search path over-fits visibly
at small n. All generators are pure functions of their spec (seed included)
and every emitted row carries its seed and a hash of the generating spec.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace as dc_replace

import numpy as np

from .conjlm import (
    PRIOR_PRESETS,
    Dataset,
    NigPrior,
    _border_rows,
    _fit,
    _predictive_logpdf,
    _score_extensions,
    fit,
    log_pred,
)
from .errors import InvalidBlocking, InvalidParameter
from .orderstats import DEFAULT_ALPHA, DEFAULT_MULTIPLIER, threshold
from .psisloo import _BLOCK, elpd_se

# desk-scale guard for the forward experiment: one replication at the
# limits (n=1000, p=60) takes about 0.2 s on 2 CPUs
GUARD_MAX_P = 60
GUARD_MAX_N = 1000
GUARD_MAX_REPS = 20
_GUARD_OVERRIDE = '(pass guard=False, or "guard": false in a config, to override)'

# rows of one many-K run: each holds ~880 bytes until the run returns, so
# the rows of a run at the limit hold ~0.9 GB
MANY_K_MAX_ROWS = 10**6


# the largest array numpy can index, in bytes
_MAX_BYTES = np.iinfo(np.intp).max


def _check_indexable(**sizes: int) -> None:
    """InvalidParameter, naming the sizes, unless numpy can index a float64
    array of their product: past that, numpy's own error is a ValueError."""
    if math.prod(sizes.values()) * 8 > _MAX_BYTES:
        named = " x ".join(f"{k}={v}" for k, v in sizes.items())
        raise InvalidParameter(f"{named} is too large: numpy cannot index an array of that size")


def _check_loo_rows(specs) -> None:
    """InvalidParameter, naming n, for a cell with fewer rows than exact LOO's 3."""
    for spec in specs:
        if spec.n < 3:
            raise InvalidParameter(f"n must be >= 3 for exact LOO, got {spec.n}")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from string-able parts (platform independent)."""
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def spec_hash(spec) -> str:
    payload = json.dumps(asdict(spec), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class NestedDgpSpec:
    """Nested-regression null/near-null design.

    ``y = 1 + beta_delta * x_1 + eps`` with K - 1 iid standard-normal
    predictors and residual variance ``1 - beta_delta**2`` (unit marginal
    variance). Candidates are the K - 1 single-predictor models; the
    baseline is intercept-only.
    """

    n: int
    K: int
    beta_delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.beta_delta < 1.0:
            raise InvalidParameter("beta_delta must lie in [0, 1)")
        if self.K < 2:
            raise InvalidParameter("K must be >= 2")
        if self.n < 2:
            raise InvalidParameter("n must be >= 2")
        _check_indexable(n=self.n, K=self.K)

    @property
    def sigma2(self) -> float:
        return 1.0 - self.beta_delta**2


def gen_nested(spec: NestedDgpSpec) -> Dataset:
    """Draw one dataset from the nested design (byte-identical per seed),
    built through ``Dataset``'s checks."""
    rng = np.random.default_rng(spec.seed)
    Z = rng.standard_normal((spec.n, spec.K - 1))
    eps = rng.standard_normal(spec.n) * math.sqrt(spec.sigma2)
    y = 1.0 + spec.beta_delta * Z[:, 0] + eps
    return Dataset(Z, y)


@dataclass(frozen=True)
class BlockDgpSpec:
    """Block-correlated regression design.

    Predictors are unit-variance Gaussians, correlated ``rho`` within
    blocks of ``block_size`` and independent across blocks. The first
    ``n_relevant`` predictors carry weights in thirds
    (xi, 0.5*xi, 0.25*xi); the rest are zero.
    """

    n: int
    p: int
    rho: float
    block_size: int = 5
    xi: float = 0.59
    sigma2: float = 1.0
    n_relevant: int = 6
    n_test: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.n >= 1:
            raise InvalidParameter(f"n must be >= 1, got {self.n}")
        if not self.block_size >= 1:
            raise InvalidParameter(f"block_size must be >= 1, got {self.block_size}")
        if self.p % self.block_size != 0:
            raise InvalidBlocking(
                f"p={self.p} is not divisible by block_size={self.block_size}"
            )
        if not 0.0 <= self.rho < 1.0:
            raise InvalidParameter("rho must lie in [0, 1)")
        if not 0 < self.n_relevant <= self.p:
            raise InvalidParameter("n_relevant must lie in (0, p]")
        if not self.n_test >= 2:
            # the reference test se is a sample sd over the test points
            raise InvalidParameter(f"n_test must be >= 2, got {self.n_test}")
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0):
            raise InvalidParameter(f"sigma2 must be finite and >= 0, got {self.sigma2}")
        if not math.isfinite(self.xi):
            raise InvalidParameter(f"xi must be finite, got {self.xi}")
        _check_indexable(n=self.n, p=self.p)
        _check_indexable(n_test=self.n_test, p=self.p)

    def weights_vector(self) -> np.ndarray:
        w = np.zeros(self.p)
        thirds = np.array_split(np.arange(self.n_relevant), 3)
        for idx, scale in zip(thirds, (1.0, 0.5, 0.25)):
            w[idx] = scale * self.xi
        return w


def gen_block(spec: BlockDgpSpec):
    """Draw (train, test) datasets from the block design (byte-identical per seed)."""
    rng = np.random.default_rng(spec.seed)
    B = spec.block_size
    cov = (1.0 - spec.rho) * np.eye(B) + spec.rho * np.ones((B, B))
    chol = np.linalg.cholesky(cov)
    w = spec.weights_vector()

    def draw(rows: int) -> Dataset:
        Z = rng.standard_normal((rows, spec.p))
        X = np.empty_like(Z)
        for b in range(spec.p // B):
            X[:, b * B : (b + 1) * B] = Z[:, b * B : (b + 1) * B] @ chol.T
        noise = rng.standard_normal(rows) * math.sqrt(spec.sigma2)
        # an xi near the float limit overflows here; Dataset then rejects
        # the draw in one line, with no numpy warning before it
        with np.errstate(over="ignore", invalid="ignore"):
            y = X @ w + noise
        return Dataset(X, y)

    return draw(spec.n), draw(spec.n_test)


def _score_many_k(datasets: list[Dataset], prior: NigPrior):
    """Exact LOO of the baseline and every single-predictor model of each
    dataset, all with the same n and predictor count.

    Every baseline design is the intercept column, so one ``conjlm._fit``
    of it to all the responses, returned first, serves the block. Each
    dataset's columns follow a zero column, which extends the baseline to
    itself, so all models go through one ``conjlm._score_extensions`` pass
    on an m x K x n block, whose estimates, U, s, e'y and refits (a model's
    own fit where its closed form broke, else None; model 0's keeps the
    zero column) follow, replication axis first: model 0 is the baseline
    and model k the one with predictor k - 1. The block is built in the
    call, so the kernel holds its only reference and frees it before any
    density is formed.
    """
    n = datasets[0].n
    base = _fit(np.ones((n, 1)), np.array([ds.y for ds in datasets]), prior)
    zero = np.zeros((n, 1))
    scored = _score_extensions(base, np.array([np.hstack([zero, ds.X]).T for ds in datasets]))
    return (base, *scored[1:])


def _many_k_test_elpds(
    block,
    selected: np.ndarray,
    y_test: np.ndarray,
    x_true: np.ndarray,
    x_selected: np.ndarray,
):
    """Test elpds, scaled to n, of each dataset's baseline, selected and
    true (predictor 0) models; ``block`` is what ``_score_many_k`` returns,
    and row r of ``y_test``, ``x_true`` and ``x_selected`` holds dataset
    r's test responses and predictor values.

    ``conjlm._border_rows`` borders the baseline posterior by the model's
    column, or predicts the rows from the block's own fit of a model whose
    closed form broke; no model is fit here.
    """
    base, _, U, s, ey, refits = block
    m, n = base.resid.shape
    rows = np.arange(m)
    mean, h = base.mean_n, base.h[0]
    ones = np.ones(y_test.shape + (1,))

    def scaled_mean(loc, lev, b_n):
        # one replication per row: each mean is one contiguous reduction
        logpdf = _predictive_logpdf(y_test, loc, lev, base.a_n, b_n[:, None])
        return n * np.mean(logpdf, axis=1)

    out = [scaled_mean(mean, h, base.b_n)]
    for cols, x in ((selected, x_selected), (np.zeros_like(selected), x_true)):
        k = cols + 1
        terms = U[rows, k], s[rows, k], ey[rows, k], refits[rows, k]
        loc, lev, b_n = _border_rows(ones, x, mean, h, base.b_n, *terms)
        out.append(scaled_mean(loc, lev, b_n))
    return out


def _many_k_rows(task, alpha: float, prior: NigPrior, n_test: int) -> list[dict]:
    """The run rows of one many-K task ``(spec, lo, hi)``: the cell ``spec``
    and its replications ``lo`` to ``hi - 1``, one row each. Each
    replication's training and test specs are derived here, from the cell
    and the replication's index."""
    spec, lo, hi = task
    key = (spec.seed, spec.n, spec.K, spec.beta_delta)
    cells = [dc_replace(spec, seed=derive_seed("many_k", *key, rep)) for rep in range(lo, hi)]
    datasets = [gen_nested(cell) for cell in cells]
    block = _score_many_k(datasets, prior)
    estimates = block[1]
    diffs = estimates[:, 1:] - estimates[:, :1]
    selected = np.argmax(diffs, axis=1)
    m = len(datasets)
    y_test = np.empty((m, n_test))
    x_true = np.empty((m, n_test))
    x_selected = np.empty((m, n_test))
    for r, cell in enumerate(cells):
        seed = derive_seed("many_k_test", *key, lo + r)
        test = gen_nested(dc_replace(cell, n=n_test, seed=seed))
        y_test[r] = test.y
        x_true[r] = test.X[:, 0]
        x_selected[r] = test.X[:, selected[r]]
    base_test, sel_test, true_test = _many_k_test_elpds(
        block, selected, y_test, x_true, x_selected
    )
    rows = []
    for r, cell in enumerate(cells):
        res = threshold(diffs[r], alpha, spec.K)
        sel = int(selected[r])
        rows.append(
            {
                "experiment": "many_k",
                "K": spec.K,
                "beta_delta": spec.beta_delta,
                "n": spec.n,
                "rep": lo + r,
                "seed": cell.seed,
                "spec_hash": spec_hash(cell),
                "max_diff": res.max_diff,
                "median_diff": res.median_hat,
                "sigma_hat": res.sigma_hat,
                "predicted_threshold": res.threshold,
                "selected_index": sel,
                "selected_is_true": sel == 0,
                "diff_selected_test": float(sel_test[r]) - float(base_test[r]),
                "diff_true_test": float(true_test[r]) - float(base_test[r]),
            }
        )
    return rows


def run_many_k(
    specs,
    replications: int,
    alpha: float = DEFAULT_ALPHA,
    prior: NigPrior | None = None,
    n_test: int = 1000,
    map_fn=map,
) -> list[dict]:
    """Replicate the many-candidate null experiment over a spec grid.

    For each cell and replication: score the baseline and the K - 1
    single-predictor candidates with exact LOO, record the maximum elpd
    difference, the half-normal scale of the diffs, the predicted
    expected-maximum threshold (``orderstats.threshold`` with the spec's
    K), and test elpds (scaled to n) of the selected and true models on a
    fresh draw.

    A cell's replications are scored together (``_score_many_k``), in
    blocks whose training block (n x K values per replication) and test
    arrays (n_test values per replication) hold up to 2^15 values, from one
    shared baseline factorization. Test elpds border the same baseline
    posterior with the chosen column (``_many_k_test_elpds``). Only a model
    whose closed form's guard breaks is fit on its own, once, as the block
    is scored; its test rows are predicted from that fit. Each
    replication's training and test sets have seeds of their own, so the
    test sets are drawn after the block is scored and only their response,
    first predictor and selected predictor are kept.

    Each block is one task of ``map_fn(func, tasks)``: the tuple
    ``(spec, lo, hi)`` of its cell and its half-open range of
    replications, whose specs and seeds the task derives itself. The
    results are taken in task order; the blocks share nothing, so any map
    that returns ``func(task)`` for every task gives the same rows. The
    default is the plain loop; the command line passes one that spreads
    the blocks over the usable CPUs.

    A run of more than ``MANY_K_MAX_ROWS`` rows (replications x cells) or
    a cell of n < 3 fails with ``InvalidParameter`` before any task.

    The threshold counts K models (baseline included) although it is taken
    over the K - 1 differences, whereas ``build_comparison`` counts the
    differences. It also assumes differences centred at zero, which this
    null does not give: the baseline is the true model, so each candidate's
    difference sits near -0.78 in the median and is skewed to the right
    (see ``cvbias.orderstats``). ``median_diff`` and the summary's
    ``mean_recentred_max`` show the recentred picture.
    """
    if replications < 2:
        raise InvalidParameter("replications must be >= 2")
    specs = list(specs)
    rows = replications * len(specs)
    if rows > MANY_K_MAX_ROWS:
        raise InvalidParameter(
            f"replications x cells = {replications} x {len(specs)} = {rows} rows; "
            f"a many-K run holds at most {MANY_K_MAX_ROWS} rows"
        )
    # a test spec is its replication's cell with n = n_test, whose own
    # checks would name n
    if n_test < 2:
        raise InvalidParameter(f"n_test must be >= 2, got {n_test}")
    _check_loo_rows(specs)
    prior = prior or NigPrior.diffuse()
    tasks = []
    for spec in specs:
        _check_indexable(n_test=n_test, K=spec.K)
        # the test arrays are replications x n_test, so they bound the block too
        width = max(1, _BLOCK // max(spec.n * spec.K, n_test))
        tasks += [
            (spec, lo, min(lo + width, replications)) for lo in range(0, replications, width)
        ]
    rows_of = functools.partial(_many_k_rows, alpha=alpha, prior=prior, n_test=n_test)
    return [row for rows in map_fn(rows_of, tasks) for row in rows]


def _percentile(srt: np.ndarray, q: float) -> float:
    """``np.percentile(x, q)`` of ascending ``srt``, bit for bit.

    numpy's default linear rule, with its ``_lerp`` rounding, but without
    the import of numpy.ma that ``np.percentile`` makes. (A zero result may
    differ in sign: numpy's partition may order 0.0 and -0.0 otherwise.)
    """
    top = srt.size - 1
    v = top * (q / 100)
    lo = math.floor(v) if v < top else -1
    t = v - lo
    a, b = srt[lo], srt[lo + 1 if lo >= 0 else -1]
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def summarize_many_k(rows: list[dict]) -> list[dict]:
    """Aggregate per-replication rows into one row per (K, beta_delta, n) cell."""
    cells: dict[tuple, list[dict]] = {}
    for r in rows:
        cells.setdefault((r["K"], r["beta_delta"], r["n"]), []).append(r)
    out = []
    for (K, beta_delta, n), cell_rows in sorted(cells.items()):
        maxes = np.array([r["max_diff"] for r in cell_rows])
        sigmas = np.array([r["sigma_hat"] for r in cell_rows])
        preds = np.array([r["predicted_threshold"] for r in cell_rows])
        medians = np.array([r["median_diff"] for r in cell_rows])
        srt = np.sort(maxes)
        q25, q50, q75 = (_percentile(srt, q) for q in (25.0, 50.0, 75.0))
        out.append(
            {
                "K": K,
                "beta_delta": beta_delta,
                "n": n,
                "n_reps": len(cell_rows),
                "mean_max_diff": float(maxes.mean()),
                "q25_max_diff": float(q25),
                "median_max_diff": float(q50),
                "q75_max_diff": float(q75),
                "mean_sigma_hat": float(sigmas.mean()),
                "predicted_threshold": float(preds.mean()),
                "mean_median_diff": float(medians.mean()),
                "mean_recentred_max": float((maxes - medians).mean()),
                "spread_max_diff": float(maxes.std(ddof=1)) if len(cell_rows) > 1 else 0.0,
            }
        )
    return out


def _forward_rows(task, multipliers, alpha: float):
    """``(run_rows, path_rows)`` of one (spec, prior name, replication) task,
    for every multiplier in order."""
    from .search import correct_path, forward_search, stopping_rules

    spec, prior_name, rep = task
    seed = derive_seed("forward", spec.seed, spec.n, spec.p, spec.rho, prior_name, rep)
    cell = dc_replace(spec, seed=seed)
    train, test = gen_block(cell)
    prior = PRIOR_PRESETS[prior_name]()
    path = forward_search(train, prior, max_size=spec.p, test=test)

    ref_pointwise = log_pred(fit(train, NigPrior.tight()), test.design(), test.y)
    ref_mlpd = float(np.mean(ref_pointwise))
    ref_se = float(np.std(ref_pointwise, ddof=1) / math.sqrt(test.n))

    ident = {
        "experiment": "forward",
        "n": spec.n,
        "p": spec.p,
        "rho": spec.rho,
        "prior": prior_name,
        "rep": rep,
        "seed": seed,
        "spec_hash": spec_hash(cell),
    }
    run_rows: list[dict] = []
    path_rows: list[dict] = []
    for multiplier in multipliers:
        cp = correct_path(path, multiplier=multiplier, alpha=alpha)
        verdicts = stopping_rules(cp)
        raw_mlpd = cp.raw_elpds() / spec.n
        corr_mlpd = cp.corrected_elpds() / spec.n
        test_curve = cp.test_mlpds()
        test_argmax = int(np.argmax(test_curve))
        b = verdicts.bulge_size
        c = verdicts.corrected_max_size
        c_pointwise = cp.steps[c - 1].pointwise if c else cp.base_pointwise
        run_rows.append(
            {
                **ident,
                "multiplier": multiplier,
                **verdicts.to_dict(),
                "test_argmax_size": test_argmax,
                "raw_mlpd_at_bulge": float(raw_mlpd[b]),
                "test_mlpd_at_bulge": float(test_curve[b]),
                "corrected_mlpd_max": float(corr_mlpd[c]),
                "corrected_max_loo_se": elpd_se(c_pointwise) / spec.n,
                "test_mlpd_at_corrected_max": float(test_curve[c]),
                "test_mlpd_full": float(test_curve[-1]),
                "raw_mlpd_full": float(raw_mlpd[-1]),
                "reference_test_mlpd": ref_mlpd,
                "reference_test_se": ref_se,
            }
        )
        for row in cp.to_rows():
            path_rows.append({**ident, "multiplier": multiplier, **row})
    return run_rows, path_rows


def run_forward_experiment(
    specs,
    multipliers=(DEFAULT_MULTIPLIER,),
    priors=("diffuse",),
    replications: int = 20,
    alpha: float = DEFAULT_ALPHA,
    guard: bool = True,
    map_fn=map,
):
    """Forward-search experiment over a block-DGP grid.

    Per (spec, prior, replication): run the search to the full predictor
    count, evaluate test mlpd per size, and for every multiplier apply the
    correction and all stopping rules. The reference model is the
    all-predictor fit under the tight prior, scored on the test set.
    ``corrected_max_loo_se`` is the standard error of the LOO mlpd of the
    model at the corrected maximum (``elpd_se`` of its pointwise LOO over n).

    Each (spec, prior, replication) is one task of ``map_fn(func, tasks)``,
    taken in task order, as in ``run_many_k``: the plain loop by default,
    the usable CPUs from the command line. The arguments are checked before
    any task is built.

    Returns ``(run_rows, path_rows)``: one summary row per run/multiplier
    and one long-format row per model size.
    """
    if replications < 1:
        raise InvalidParameter("replications must be >= 1")
    specs = list(specs)
    if guard:
        for s in specs:
            if s.p > GUARD_MAX_P or s.n > GUARD_MAX_N:
                raise InvalidParameter(
                    f"desk-scale guard: p <= {GUARD_MAX_P} and n <= {GUARD_MAX_N} "
                    + _GUARD_OVERRIDE
                )
        if replications > GUARD_MAX_REPS:
            raise InvalidParameter(
                f"desk-scale guard: replications <= {GUARD_MAX_REPS} " + _GUARD_OVERRIDE
            )
    for name in priors:
        if name not in PRIOR_PRESETS:
            raise InvalidParameter(f"unknown prior preset {name!r}")
    _check_loo_rows(specs)

    tasks = [
        (spec, prior_name, rep)
        for spec in specs
        for prior_name in priors
        for rep in range(replications)
    ]
    # ``_forward_rows`` imports it too; loaded here, before ``map_fn`` can
    # fork, no worker compiles it again, and a many-K run never loads it
    from . import search  # noqa: F401

    rows_of = functools.partial(_forward_rows, multipliers=multipliers, alpha=alpha)
    results = list(map_fn(rows_of, tasks))
    run_rows = [row for runs, _ in results for row in runs]
    path_rows = [row for _, paths in results for row in paths]
    return run_rows, path_rows

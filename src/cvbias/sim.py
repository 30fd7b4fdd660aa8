"""Seeded data generators and desk-scale experiment runners.

Two designs drive all experiments: a nested regression null in which K - 1
single-predictor candidates compete against an intercept-only baseline, and
a block-correlated regression whose forward-search path over-fits visibly
at small n. All generators are pure functions of their spec (seed included)
and every emitted row carries its seed and a hash of the generating spec.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace as dc_replace

import numpy as np

from .conjlm import (
    Dataset,
    NigPrior,
    elpd_loo_exact,
    elpd_loo_extensions,
    fit,
    log_pred_dataset,
)
from .errors import InvalidBlocking, InvalidParameter
from .orderstats import blom_max, halfnormal_sigma
from .psisloo import elpd_se
from .search import correct_path, evaluate_test, forward_search, stopping_rules

PRIOR_PRESETS = {
    "diffuse": NigPrior.diffuse,
    "tight": NigPrior.tight,
}

# desk-scale guard for the forward experiment
GUARD_MAX_P = 30
GUARD_MAX_N = 400
GUARD_MAX_REPS = 20


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
    beta_delta: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.beta_delta < 1.0:
            raise InvalidParameter("beta_delta must lie in [0, 1)")
        if self.K < 2:
            raise InvalidParameter("K must be >= 2")
        if self.n < 2:
            raise InvalidParameter("n must be >= 2")

    @property
    def sigma2(self) -> float:
        return 1.0 - self.beta_delta**2


def gen_nested(spec: NestedDgpSpec) -> Dataset:
    """Draw one dataset from the nested design (byte-identical per seed)."""
    rng = np.random.default_rng(spec.seed)
    Z = rng.standard_normal((spec.n, spec.K - 1))
    eps = rng.standard_normal(spec.n) * math.sqrt(spec.sigma2)
    y = 1.0 + spec.beta_delta * Z[:, 0] + eps
    return Dataset(Z, y, intercept=True)


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
        if self.p % self.block_size != 0:
            raise InvalidBlocking(
                f"p={self.p} is not divisible by block_size={self.block_size}"
            )
        if not 0.0 <= self.rho < 1.0:
            raise InvalidParameter("rho must lie in [0, 1)")
        if not 0 < self.n_relevant <= self.p:
            raise InvalidParameter("n_relevant must lie in (0, p]")

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
        y = X @ w + rng.standard_normal(rows) * math.sqrt(spec.sigma2)
        return Dataset(X, y, intercept=True)

    return draw(spec.n), draw(spec.n_test)


def _test_elpd(model_fit, test: Dataset, scale_to: int) -> float:
    """Test-set elpd rescaled to ``scale_to`` observations."""
    return scale_to * float(np.mean(log_pred_dataset(model_fit, test)))


def run_many_k(
    specs,
    replications: int,
    alpha: float = 0.5,
    prior: NigPrior | None = None,
    n_test: int = 1000,
) -> list[dict]:
    """Replicate the many-candidate null experiment over a spec grid.

    For each cell and replication: score the baseline and, in one
    ``elpd_loo_extensions`` call, the K - 1 single-predictor candidates with
    exact LOO, record the maximum elpd difference,
    the half-normal scale of the diffs, the predicted expected-maximum
    threshold ``blom_max(K, alpha) * sigma_hat``, and test elpds (scaled to
    n) of the selected and true models on a fresh draw.

    The threshold counts K models (baseline included) although it is taken
    over the K - 1 differences, whereas ``orderstats.threshold`` passes the
    number of differences to ``blom_max``. It also assumes differences
    centred at zero, which this null does not give: the baseline is the true
    model, so each candidate's difference sits near -0.78 in the median and
    is skewed to the right (see ``cvbias.orderstats``). ``median_diff`` and
    the summary's ``mean_recentred_max`` show the recentred picture.
    """
    if replications < 2:
        raise InvalidParameter("replications must be >= 2")
    prior = prior or NigPrior.diffuse()
    rows: list[dict] = []
    for spec in specs:
        for rep in range(replications):
            seed = derive_seed("many_k", spec.seed, spec.n, spec.K, spec.beta_delta, rep)
            cell = dc_replace(spec, seed=seed)
            ds = gen_nested(cell)
            test = gen_nested(
                dc_replace(
                    cell,
                    n=n_test,
                    seed=derive_seed("many_k_test", spec.seed, spec.n, spec.K, spec.beta_delta, rep),
                )
            )
            base_est = elpd_loo_exact(ds.subset(()), prior)
            _, estimates = elpd_loo_extensions(ds, prior, (), range(spec.K - 1))
            diffs = estimates - base_est.estimate
            selected = int(np.argmax(diffs))
            if diffs.size >= 2:
                sigma_hat = halfnormal_sigma(diffs).sigma_hat
                median_diff = float(np.median(diffs))
            else:
                sigma_hat = 0.0
                median_diff = float(diffs[0])
            predicted = blom_max(spec.K, alpha) * sigma_hat

            base_fit = fit(ds.subset(()), prior)
            base_test = _test_elpd(base_fit, test.subset(()), spec.n)
            sel_fit = fit(ds.subset((selected,)), prior)
            sel_test = _test_elpd(sel_fit, test.subset((selected,)), spec.n)
            true_fit = fit(ds.subset((0,)), prior)
            true_test = _test_elpd(true_fit, test.subset((0,)), spec.n)

            rows.append(
                {
                    "experiment": "many_k",
                    "K": spec.K,
                    "beta_delta": spec.beta_delta,
                    "n": spec.n,
                    "rep": rep,
                    "seed": seed,
                    "spec_hash": spec_hash(cell),
                    "max_diff": float(diffs.max()),
                    "median_diff": median_diff,
                    "sigma_hat": float(sigma_hat),
                    "predicted_threshold": float(predicted),
                    "selected_index": selected,
                    "selected_is_true": selected == 0,
                    "diff_selected_test": sel_test - base_test,
                    "diff_true_test": true_test - base_test,
                }
            )
    return rows


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
        q25, q50, q75 = np.percentile(maxes, [25.0, 50.0, 75.0])
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


def run_forward_experiment(
    specs,
    multipliers=(1.5,),
    priors=("diffuse",),
    replications: int = 20,
    alpha: float = 0.5,
    guard: bool = True,
):
    """Forward-search experiment over a block-DGP grid.

    Per (spec, prior, replication): run the search to the full predictor
    count, evaluate test mlpd per size, and for every multiplier apply the
    correction and all stopping rules. The reference model is the
    all-predictor fit under the tight prior, scored on the test set.
    ``corrected_max_loo_se`` is the standard error of the LOO mlpd of the
    model at the corrected maximum (``elpd_se`` of its pointwise LOO over n).

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
                    "(pass guard=False to override)"
                )
        if replications > GUARD_MAX_REPS:
            raise InvalidParameter(
                f"desk-scale guard: replications <= {GUARD_MAX_REPS} "
                "(pass guard=False to override)"
            )
    for name in priors:
        if name not in PRIOR_PRESETS:
            raise InvalidParameter(f"unknown prior preset {name!r}")

    run_rows: list[dict] = []
    path_rows: list[dict] = []
    for spec in specs:
        for prior_name in priors:
            for rep in range(replications):
                seed = derive_seed(
                    "forward", spec.seed, spec.n, spec.p, spec.rho, prior_name, rep
                )
                cell = dc_replace(spec, seed=seed)
                train, test = gen_block(cell)
                prior = PRIOR_PRESETS[prior_name]()
                path = forward_search(train, prior, max_size=spec.p)
                path = evaluate_test(path, test)

                ref_fit = fit(train, NigPrior.tight())
                ref_pointwise = log_pred_dataset(ref_fit, test)
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
                for multiplier in multipliers:
                    cp = correct_path(path, multiplier=multiplier, alpha=alpha)
                    verdicts = stopping_rules(cp)
                    raw_mlpd = cp.raw_elpds() / spec.n
                    corr_mlpd = cp.corrected_elpds() / spec.n
                    test_curve = cp.test_mlpds()
                    test_argmax = int(np.argmax(test_curve))
                    b = verdicts.bulge_size
                    c = verdicts.corrected_max_size
                    c_pointwise = (
                        cp.steps[c - 1].pointwise if c else cp.base_pointwise
                    )
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

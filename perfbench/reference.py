"""Expected outputs of each workload, recomputed without ``cvbias``.

Every quantity the CLI reports is recomputed here from the generated
inputs with numpy/scipy, by a different route where one exists: candidate
models of a search step are scored together by rank-one extension of the
current model instead of one refit each. ``check_*`` compare the program's
output files with these values: identifiers, verdicts and flags exactly,
numbers to ``TOL`` absolute.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, gammaln, logsumexp, ndtr, ndtri, roots_hermite

TOL = 1e-9

# the CLI's "diffuse" prior preset: beta | s2 ~ N(0, s2*V0*I), s2 ~ IG(A0, B0)
V0, A0, B0 = 100.0, 1.0, 1.0
ALPHA, MULTIPLIER = 0.5, 1.5
EQUIV_TOL = 1e-12


# -- shared statistics ------------------------------------------------------

def blom_max(K: int, alpha: float = ALPHA) -> float:
    return float(ndtri((K - alpha) / (K - 2.0 * alpha + 1.0)))


def halfnormal(d: np.ndarray) -> tuple[float, float]:
    m = float(np.median(d))
    upper = d[d >= m] - m
    return float(np.sqrt(2.0 / d.size * np.sum(upper**2))), m


def se_of(x: np.ndarray, axis: int = 0):
    n = x.shape[axis]
    dev = x - x.mean(axis=axis, keepdims=True)
    return np.sqrt(n / (n - 1.0) * np.sum(dev**2, axis=axis))


def khat_threshold(S: int) -> float:
    return min(1.0 - 1.0 / math.log10(S), 0.7)


def _t_logpdf(y, loc, scale2, df):
    return (
        gammaln((df + 1.0) / 2.0)
        - gammaln(df / 2.0)
        - 0.5 * np.log(df * np.pi * scale2)
        - (df + 1.0) / 2.0 * np.log1p((y - loc) ** 2 / scale2 / df)
    )


# -- conjugate regression ---------------------------------------------------

def _posterior(A: np.ndarray, y: np.ndarray):
    """Cholesky factor, hat-matrix diagonal, fitted values and b_n of design A."""
    P = np.eye(A.shape[1]) / V0 + A.T @ A
    cf = cho_factor(P)
    G = cho_solve(cf, A.T)
    mu = A @ (G @ y)
    return cf, np.einsum("ij,ji->i", A, G), mu, B0 + 0.5 * (y @ y - y @ mu)


def _loo(y, h, mu, b_n):
    """Closed-form exact-LOO pointwise elpd (arrays broadcast over columns)."""
    a_i = A0 + y.shape[0] / 2.0 - 0.5
    b_i = b_n - (y - mu) ** 2 / (2.0 * (1.0 - h))
    loc = (mu - h * y) / (1.0 - h)
    return _t_logpdf(y, loc, (b_i / a_i) / (1.0 - h), 2.0 * a_i)


def loo_pointwise(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    _, h, mu, b_n = _posterior(A, y)
    return _loo(y, h, mu, b_n)


def extension_loo(A: np.ndarray, y: np.ndarray, Xc: np.ndarray) -> np.ndarray:
    """LOO pointwise elpd (n x c) of design A extended by each column of Xc.

    With e = (I - H) x and s = x'e + 1/V0, adding x moves the hat diagonal
    to h + e^2/s, the fitted values to mu + e (e'y)/s and b_n to
    b_n - (e'y)^2/(2s).
    """
    cf, h, mu, b_n = _posterior(A, y)
    E = Xc - A @ cho_solve(cf, A.T @ Xc)
    s = np.einsum("ij,ij->j", Xc, E) + 1.0 / V0
    ey = E.T @ y
    return _loo(
        y[:, None], h[:, None] + E**2 / s, mu[:, None] + E * (ey / s), b_n - ey**2 / (2.0 * s)
    )


def holdout_mlpd(A: np.ndarray, y: np.ndarray, At: np.ndarray, yt: np.ndarray) -> float:
    """Mean log posterior predictive density of a fit on (A, y) at (At, yt)."""
    cf, _, mu, b_n = _posterior(A, y)
    mean = cho_solve(cf, A.T @ y)
    a_n = A0 + y.size / 2.0
    q = np.einsum("ij,ji->i", At, cho_solve(cf, At.T))
    return float(np.mean(_t_logpdf(yt, At @ mean, (b_n / a_n) * (1.0 + q), 2.0 * a_n)))


# -- forward-large ------------------------------------------------------------

def read_dataset(path: Path):
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    values = np.array(rows[1:], dtype=float)
    return rows[0][:-1], values[:, :-1], values[:, -1]


def forward(train: Path, test: Path) -> dict:
    """Report fields of ``cvbias forward train --target y --test test``."""
    names, X, y = read_dataset(train)
    _, Xt, yt = read_dataset(test)
    n, p = X.shape

    def design(M, cols):
        return np.column_stack([np.ones(M.shape[0])] + [M[:, j] for j in cols])

    chosen: list[int] = []
    pw = [loo_pointwise(design(X, ()), y)]
    elpd = [math.fsum(pw[0])]
    cand_diffs, cand_ses = [], []
    for _ in range(p):
        cands = [j for j in range(p) if j not in chosen]
        ext = extension_loo(design(X, chosen), y, X[:, cands])
        cand_diffs.append(ext.sum(axis=0) - elpd[-1])
        cand_ses.append(se_of(ext - pw[-1][:, None]))
        chosen.append(cands[int(np.argmax(cand_diffs[-1]))])
        pw.append(loo_pointwise(design(X, chosen), y))
        elpd.append(math.fsum(pw[-1]))
    test = [holdout_mlpd(design(X, chosen[:k]), y, design(Xt, chosen[:k]), yt) for k in range(p + 1)]

    raw = np.array(elpd)
    bulge = int(np.argmax(raw))
    rows = [_path_row(0, None, None, 0.0, 0.0, 0.0, 0.0, elpd[0], elpd[0], n, test[0], False, None)]
    corrected = []
    for k in range(1, p + 1):
        diffs = cand_diffs[k - 1]
        sigma = halfnormal(diffs)[0] if k >= 2 and diffs.size >= 2 else 0.0
        thr = blom_max(k) * sigma
        raw_diff = elpd[k] - elpd[k - 1]
        post = k > bulge
        corrected.append(raw_diff if post or abs(raw_diff) >= thr else raw_diff - MULTIPLIER * thr)
        rows.append(
            _path_row(
                k, chosen[k - 1], diffs.size, raw_diff, corrected[-1], thr, MULTIPLIER * thr,
                elpd[k], math.fsum([elpd[0]] + corrected), n, test[k], post, names[chosen[k - 1]],
            )
        )

    two_sigma = bulge
    for size in range(bulge + 1):
        se = 0.0 if size == bulge else float(se_of(pw[size] - pw[bulge]))
        if raw[size] >= raw[bulge] - 2.0 * se:
            two_sigma = size
            break

    def first_stop(m):
        for idx, (d, s) in enumerate(zip(cand_diffs, cand_ses)):
            if not np.any(d - m * s >= 0.0):
                return idx
        return p

    verdicts = {
        "bulge_size": bulge,
        "two_sigma_size": two_sigma,
        "corrected_max_size": int(np.argmax([r["corrected_elpd"] for r in rows])),
        "two_sigma_delta_size": first_stop(2.0),
        "three_sigma_delta_size": first_stop(3.0),
    }
    return {
        "report": "forward",
        "verdicts": verdicts,
        "path": rows,
        "selected_predictors": [names[j] for j in chosen],
    }


def _path_row(size, added, cands, raw_diff, corr_diff, thr, bias, elpd, corr_elpd, n, test, post, name):
    return {
        "size": size,
        "predictor_added": added,
        "candidates_evaluated": cands,
        "raw_diff": raw_diff,
        "corrected_diff": corr_diff,
        "threshold": thr,
        "bias": bias,
        "elpd": elpd,
        "corrected_elpd": corr_elpd,
        "mlpd": elpd / n,
        "corrected_mlpd": corr_elpd / n,
        "test_mlpd": test,
        "post_bulge": post,
        "predictor_name": name,
    }


# -- compare-psis -------------------------------------------------------------

def gpd_fit(x: np.ndarray) -> tuple[float, float]:
    """(k, sigma) by the profile-posterior-mean estimator with k shrunk to 1/2."""
    x = np.sort(x)
    n = x.size
    m = 30 * math.ceil(math.sqrt(n))
    quartile = x[int(n / 4 + 0.5) - 1]
    theta = 1.0 / x[-1] + (1.0 - np.sqrt(m / (np.arange(1.0, m + 1) - 0.5))) / (3.0 * quartile)
    k = np.log1p(-theta[:, None] * x).mean(axis=1)
    log_lik = n * (np.log(-theta / k) - k - 1.0)
    weights = np.exp(log_lik - log_lik.max())
    theta_hat = float(np.sum(theta * weights / weights.sum()))
    k_hat = float(np.mean(np.log1p(-theta_hat * x)))
    return (n * k_hat + 10.0 * 0.5) / (n + 10.0), -k_hat / theta_hat


def _tail(sorted_values: np.ndarray, fraction: float):
    S = sorted_values.size
    M = math.ceil(min(fraction * S, 3.0 * math.sqrt(S)))
    cutoff = sorted_values[S - M - 1]
    tail = sorted_values[S - M :]
    return cutoff, tail[tail > cutoff] - cutoff


def psis_column(ll: np.ndarray) -> tuple[float, float]:
    """PSIS-LOO elpd and k-hat of one observation's log-likelihood draws."""
    if ll.max() == ll.min():
        return float(ll[0]), float("-inf")
    ll = np.sort(ll)[::-1]
    lw = -ll + ll[-1]
    w = np.exp(lw)
    cutoff, exc = _tail(w, 0.2)
    k = float("inf")
    if exc.size >= 5:
        k, sigma = gpd_fit(exc)
        m = exc.size
        q = (np.arange(m) + 0.5) / m
        quant = -sigma * np.log1p(-q) if k == 0.0 else sigma * np.expm1(-k * np.log1p(-q)) / k
        lw = lw.copy()
        lw[-m:] = np.log(np.minimum(cutoff + quant, w[-1]))
    return float(logsumexp(lw + ll) - logsumexp(lw)), k


def _pseudo_bma_plus(delta: float, se: float) -> float:
    nodes, w = roots_hermite(min(max(61, int(24.0 * se * se) + 1), 4001))
    return float(np.sum(w * expit(delta + np.sqrt(2.0) * se * nodes)) / np.sqrt(np.pi))


def compare(paths: list[Path]) -> dict:
    """Report fields of ``cvbias compare <paths>`` (median baseline)."""
    ids, pointwise, khat_max, reliable = [], [], [], []
    for path in paths:
        ll = np.loadtxt(path, delimiter=",", ndmin=2)
        cols = [psis_column(ll[:, i]) for i in range(ll.shape[1])]
        khat = np.array([c[1] for c in cols])
        ids.append(path.stem)
        pointwise.append(np.array([c[0] for c in cols]))
        khat_max.append(float(khat.max()))
        reliable.append(bool(np.all(khat < khat_threshold(ll.shape[0]))))
    est = [math.fsum(pw) for pw in pointwise]
    base = int(np.argsort(est, kind="stable")[(len(est) - 1) // 2])
    others = [i for i in range(len(ids)) if i != base]
    d_pw = [pointwise[i] - pointwise[base] for i in others]
    d = np.array([math.fsum(x) for x in d_pw])
    d_se = [float(se_of(x)) for x in d_pw]
    K = d.size
    sigma, median = halfnormal(d)
    s_k = blom_max(K)
    thr = s_k * sigma
    cutoff, exc = _tail(np.sort(d), 0.5)
    khat_tail = gpd_fit(exc)[0] if exc.size >= 5 else float("inf")
    tail_ok = bool(khat_tail < min(1.0 - 1.0 / math.log10(K), 0.7))
    comparison = {
        "baseline_id": ids[base],
        "K": K,
        "sigma_hat": sigma,
        "median_hat": median,
        "s_k": s_k,
        "threshold": thr,
        "bias_hat": MULTIPLIER * thr,
        "multiplier": MULTIPLIER,
        "alpha": ALPHA,
        "max_diff": float(d.max()),
        "all_equivalent": bool(d.max() < thr + EQUIV_TOL),
        "khat_tail": khat_tail if math.isfinite(khat_tail) else None,
        "reliable": tail_ok,
        "diffs": [
            {
                "model": ids[i],
                "baseline": ids[base],
                "estimate": float(di),
                "se_diff": si,
                "above_threshold": bool(di >= thr + EQUIV_TOL),
            }
            for i, di, si in zip(others, d, d_se)
        ],
    }
    weights = [
        {
            "model": ids[i],
            "delta": float(di),
            "se": si,
            "prob_better": float(ndtr(di / si)),
            "pseudo_bma": float(expit(di)),
            "pseudo_bma_plus": _pseudo_bma_plus(float(di), si),
            "rule_of_four_safe": bool(abs(di) >= 4.0),
        }
        for i, di, si in zip(others, d, d_se)
    ]
    diagnostics = [
        {"name": "all_equivalent", "value": comparison["all_equivalent"], "status": "pass"},
        {
            "name": "tail_khat",
            "value": comparison["khat_tail"],
            "status": "pass" if tail_ok else ("unavailable" if comparison["khat_tail"] is None else "fail"),
        },
    ] + [
        {"name": f"psis_khat:{i}", "value": k, "status": "pass" if ok else "fail"}
        for i, k, ok in zip(ids, khat_max, reliable)
    ]
    return {"report": "compare", "comparison": comparison, "weights": weights, "diagnostics": diagnostics}


# -- simulate-many-k ----------------------------------------------------------

def _derive_seed(*parts) -> int:
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _nested(n: int, K: int, seed: int):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, K - 1))
    return Z, 1.0 + rng.standard_normal(n)


def many_k(config: dict, seed: int) -> dict:
    """Rows of many_k_runs.csv and many_k_summary.csv for a null config and seed."""
    n, bd, n_test = int(config["n"]), float(config["beta_delta"]), int(config["n_test"])
    if bd != 0.0:
        raise ValueError("the reference covers the null design (beta_delta = 0) only")
    rows = []
    for K in config["k_grid"]:
        for rep in range(int(config["replications"])):
            cell_seed = _derive_seed("many_k", seed, n, K, bd, rep)
            Z, y = _nested(n, K, cell_seed)
            Zt, yt = _nested(n_test, K, _derive_seed("many_k_test", seed, n, K, bd, rep))
            ones, ones_t = np.ones((n, 1)), np.ones((n_test, 1))
            base = math.fsum(loo_pointwise(ones, y))
            diffs = np.array([math.fsum(c) for c in extension_loo(ones, y, Z).T]) - base
            sel = int(np.argmax(diffs))
            if diffs.size >= 2:
                sigma, median = halfnormal(diffs)
            else:
                sigma, median = 0.0, float(diffs[0])

            def test_elpd(cols):
                A = np.column_stack([ones] + [Z[:, [j]] for j in cols])
                At = np.column_stack([ones_t] + [Zt[:, [j]] for j in cols])
                return n * holdout_mlpd(A, y, At, yt)

            spec = json.dumps({"K": K, "beta_delta": bd, "n": n, "seed": cell_seed}, sort_keys=True)
            rows.append(
                {
                    "experiment": "many_k",
                    "K": K,
                    "beta_delta": bd,
                    "n": n,
                    "rep": rep,
                    "seed": cell_seed,
                    "spec_hash": hashlib.sha256(spec.encode()).hexdigest()[:12],
                    "max_diff": float(diffs.max()),
                    "median_diff": median,
                    "sigma_hat": sigma,
                    "predicted_threshold": blom_max(K, float(config["alpha"])) * sigma,
                    "selected_index": sel,
                    "selected_is_true": sel == 0,
                    "diff_selected_test": test_elpd((sel,)) - test_elpd(()),
                    "diff_true_test": test_elpd((0,)) - test_elpd(()),
                }
            )
    summary = []
    for K in sorted(set(config["k_grid"])):
        cell = [r for r in rows if r["K"] == K]
        maxes = np.array([r["max_diff"] for r in cell])
        medians = np.array([r["median_diff"] for r in cell])
        q25, q50, q75 = np.percentile(maxes, [25.0, 50.0, 75.0])
        summary.append(
            {
                "K": K,
                "beta_delta": bd,
                "n": n,
                "n_reps": len(cell),
                "mean_max_diff": float(maxes.mean()),
                "q25_max_diff": float(q25),
                "median_max_diff": float(q50),
                "q75_max_diff": float(q75),
                "mean_sigma_hat": float(np.mean([r["sigma_hat"] for r in cell])),
                "predicted_threshold": float(np.mean([r["predicted_threshold"] for r in cell])),
                "mean_median_diff": float(medians.mean()),
                "mean_recentred_max": float((maxes - medians).mean()),
                "spread_max_diff": float(maxes.std(ddof=1)),
            }
        )
    return {"runs": rows, "summary": summary}


# -- comparison of program output with the reference ------------------------

def mismatches(got, want, where: str = "") -> list[str]:
    """Every place where ``got`` departs from ``want``; floats within TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        out = []
        for key, value in want.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(mismatches(got[key], value, f"{where}.{key}"))
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected a list of {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if abs(got - want) <= TOL else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def _typed_cell(cell: str, want):
    """Parse a CSV cell written by the CLI into the type of the expected value."""
    if want is None:
        return None if cell == "" else cell
    if isinstance(want, bool):
        return {"true": True, "false": False}.get(cell, cell)
    try:
        if isinstance(want, int):
            return int(cell)
        if isinstance(want, float):
            return float(cell)
    except ValueError:
        return cell
    return cell


def csv_mismatches(text: str, want_rows: list[dict], where: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(text)))
    got = [{k: _typed_cell(r.get(k, ""), w[k]) for k in w} for r, w in zip(rows, want_rows)]
    if len(rows) != len(want_rows):
        return [f"{where}: {len(rows)} rows, expected {len(want_rows)}"]
    return mismatches(got, want_rows, where)

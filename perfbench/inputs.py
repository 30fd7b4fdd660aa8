"""Seeded workload inputs, generated with numpy alone.

Nothing here imports ``cvbias``: a change to the library can never change
the inputs it is measured on. The same seed always yields byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# forward-large: block-correlated regression (the paper's forward-search design)
FORWARD_N = 1000
FORWARD_N_TEST = 1000
FORWARD_P = 40
FORWARD_RHO = 0.5
FORWARD_BLOCK = 5
FORWARD_RELEVANT = 6
FORWARD_XI = 0.59

# compare-psis: K log-likelihood matrices, draws x observations
COMPARE_MODELS = 11
COMPARE_DRAWS = 4000
COMPARE_OBS = 16
COMPARE_HEAVY_OBS = 3

# simulate-many-k: the bundled null_expected_max experiment
MANY_K_CONFIG = {
    "experiment": "many_k",
    "base_seed": 20240501,
    "n": 100,
    "beta_delta": 0.0,
    "k_grid": [2, 5, 10, 25, 50, 100],
    "replications": 25,
    "alpha": 0.5,
    "n_test": 1000,
}


def _write_csv(path: Path, header, values: np.ndarray) -> None:
    # %.17g round-trips every float64, so readers see exactly these values
    lines = [",".join(header)] if header else []
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in values.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _block_design(rng: np.random.Generator, rows: int):
    B = FORWARD_BLOCK
    cov = (1.0 - FORWARD_RHO) * np.eye(B) + FORWARD_RHO * np.ones((B, B))
    chol = np.linalg.cholesky(cov)
    Z = rng.standard_normal((rows, FORWARD_P))
    X = (Z.reshape(rows, FORWARD_P // B, B) @ chol.T).reshape(rows, FORWARD_P)
    w = np.zeros(FORWARD_P)
    for idx, scale in zip(np.array_split(np.arange(FORWARD_RELEVANT), 3), (1.0, 0.5, 0.25)):
        w[idx] = scale * FORWARD_XI
    y = X @ w + rng.standard_normal(rows)
    return np.column_stack([X, y])


def make_forward(out: Path, seed: int) -> list[Path]:
    rng = np.random.default_rng([seed, 1])
    header = [f"x{j}" for j in range(FORWARD_P)] + ["y"]
    paths = [out / "train.csv", out / "test.csv"]
    for path, rows in zip(paths, (FORWARD_N, FORWARD_N_TEST)):
        _write_csv(path, header, _block_design(rng, rows))
    return paths


def make_compare(out: Path, seed: int) -> list[Path]:
    """Gaussian log-likelihood draws for models that differ by small misfits.

    A few observations are outliers: their log-likelihood swings by several
    nats across draws, so their importance ratios are heavy-tailed and
    their k-hat lands above the reliability threshold.
    """
    rng = np.random.default_rng([seed, 2])
    S, n = COMPARE_DRAWS, COMPARE_OBS
    signal = rng.standard_normal(n)
    y = signal + rng.standard_normal(n)
    y[:COMPARE_HEAVY_OBS] += np.linspace(5.0, 9.0, COMPARE_HEAVY_OBS)
    paths = []
    for m in range(COMPARE_MODELS):
        mu = signal + 0.2 * rng.standard_normal(n)
        mu_draws = mu + 0.15 * rng.standard_normal((S, n))
        log_sigma = 0.08 * rng.standard_normal((S, 1))
        ll = -0.5 * np.log(2.0 * np.pi) - log_sigma - 0.5 * ((y - mu_draws) / np.exp(log_sigma)) ** 2
        path = out / f"model{m:02d}.csv"
        _write_csv(path, None, ll)
        paths.append(path)
    return paths


def make_simulate(out: Path, seed: int) -> list[Path]:
    # the config is fixed; the seed reaches the simulation through --seed
    path = out / "many_k.json"
    path.write_text(json.dumps(MANY_K_CONFIG, indent=2) + "\n", encoding="utf-8")
    return [path]


MAKERS = {
    "forward-large": make_forward,
    "compare-psis": make_compare,
    "simulate-many-k": make_simulate,
}


def make_inputs(workload: str, out: Path, seed: int) -> list[Path]:
    """Write the inputs of ``workload`` for ``seed`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    return MAKERS[workload](out, seed)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()

"""Command-line surface: compare, forward and simulate subcommands.

All statistics come from the library modules; the CLI only parses inputs,
assembles report bundles and writes them out. Statistical warnings
(unreliable k-hat, undiagnosed thresholds) are report fields, never process
failures; only I/O and schema problems exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, CvBiasError, SchemaMismatch
from .io import (
    dump_json,
    read_dataset_csv,
    read_matrix_csv,
    sha256_file,
    write_rows_csv,
)
from .orderstats import build_comparison, check_alpha, check_multiplier
from .psisloo import elpd_loo_psis, from_pointwise
from .search import correct_path, evaluate_test, forward_search, stopping_rules
from .sim import (
    BlockDgpSpec,
    NestedDgpSpec,
    PRIOR_PRESETS,
    run_forward_experiment,
    run_many_k,
    summarize_many_k,
)
from .weights import weight_report

SCHEMA_VERSION = 1

PATH_CSV_COLUMNS = [
    "size",
    "predictor_added",
    "candidates_evaluated",
    "raw_diff",
    "corrected_diff",
    "threshold",
    "bias",
    "elpd",
    "corrected_elpd",
    "mlpd",
    "corrected_mlpd",
    "test_mlpd",
    "post_bulge",
]


def _provenance(args, inputs: list) -> dict:
    config = {}
    for k, v in sorted(vars(args).items()):
        if k in ("func", "writer"):
            continue
        config[k] = list(v) if isinstance(v, (list, tuple)) else v
    return {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "seed": getattr(args, "seed", None),
        "config": config,
        "inputs": {str(p): sha256_file(p) for p in inputs},
    }


def _load_estimates(paths, kind: str):
    """One estimate per CSV, each file read once.

    ``kind="auto"`` takes a single-column file as pointwise elpds and any
    wider one as a draws-by-observations log-likelihood matrix. A file's
    stem is its model id, so stems must be unique.
    """
    stems = [Path(p).stem for p in paths]
    for model_id in stems:
        if stems.count(model_id) > 1:
            same = ", ".join(str(p) for p in paths if Path(p).stem == model_id)
            raise SchemaMismatch(f"model id {model_id!r} names several inputs: {same}")
    estimates = []
    for p in paths:
        model_id = Path(p).stem
        values, _ = read_matrix_csv(p)
        cols = values.shape[1]
        if kind == "pointwise" and cols != 1:
            raise SchemaMismatch(
                f"{p}: pointwise input must have exactly 1 column, got {cols}"
            )
        if kind == "pointwise" or (kind == "auto" and cols == 1):
            estimates.append(from_pointwise(values[:, 0], model_id))
        else:
            estimates.append(elpd_loo_psis(values, model_id))
    n_obs = {e.n_obs for e in estimates}
    if len(n_obs) != 1:
        raise SchemaMismatch(f"inputs disagree on observation count: {sorted(n_obs)}")
    return estimates


def cmd_compare(args) -> dict:
    check_alpha(args.alpha)
    check_multiplier(args.multiplier)
    estimates = _load_estimates(args.inputs, args.kind)
    comparison = build_comparison(
        estimates,
        baseline=args.baseline,
        alpha=args.alpha,
        multiplier=args.multiplier,
    )
    weights = [
        {"model": d.model_a, **weight_report(d.estimate, d.se_diff).to_dict()}
        for d in comparison.diffs
    ]
    diagnostics = [
        {
            "name": "all_equivalent",
            "value": comparison.all_equivalent,
            "status": "pass",
        },
        {
            "name": "tail_khat",
            "value": comparison.khat_tail,
            "status": (
                "pass"
                if comparison.reliable
                else ("unavailable" if comparison.khat_tail is None else "fail")
            ),
        },
    ]
    for e in estimates:
        if e.khat_per_obs is not None:
            # JSON has no infinities: an unfittable tail (+inf, "fail") or an
            # all-constant model (-inf, "pass") is written as null
            khat = float(np.max(e.khat_per_obs))
            diagnostics.append(
                {
                    "name": f"psis_khat:{e.model_id}",
                    "value": khat if math.isfinite(khat) else None,
                    "status": "pass" if e.reliable else "fail",
                }
            )
    return {
        "report": "compare",
        "comparison": comparison.to_dict(),
        "weights": weights,
        "diagnostics": diagnostics,
        "provenance": _provenance(args, args.inputs),
    }


def _write_compare(bundle: dict, args) -> None:
    if args.format == "json":
        text = dump_json(bundle)
        if args.output:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
        return
    columns = [
        "model",
        "delta",
        "se",
        "prob_better",
        "pseudo_bma",
        "pseudo_bma_plus",
        "rule_of_four_safe",
    ]
    rows = bundle["weights"]
    if args.output:
        write_rows_csv(args.output, rows, columns)
    else:
        print(",".join(columns))
        for r in rows:
            print(",".join(str(r[c]) for c in columns))


def cmd_forward(args) -> dict:
    # the search runs long before correct_path would reject these
    check_alpha(args.alpha)
    check_multiplier(args.multiplier)
    data = read_dataset_csv(args.data, args.target)
    prior = PRIOR_PRESETS[args.prior]()
    max_size = args.max_size if args.max_size is not None else data.p
    path = forward_search(data, prior, max_size=max_size)
    if args.test:
        test = read_dataset_csv(args.test, args.target)
        path = evaluate_test(path, test)
    path = correct_path(path, multiplier=args.multiplier, alpha=args.alpha)
    verdicts = stopping_rules(path)
    inputs = [args.data] + ([args.test] if args.test else [])
    names = data.columns
    rows = path.to_rows()
    for row in rows:
        idx = row["predictor_added"]
        row["predictor_name"] = names[idx] if (names and idx is not None) else None
    return {
        "report": "forward",
        "verdicts": verdicts.to_dict(),
        "path": rows,
        "selected_predictors": [
            names[i] if names else i for i in path.predictors()
        ],
        "provenance": _provenance(args, inputs),
    }


def _write_forward(bundle: dict, args) -> None:
    columns = PATH_CSV_COLUMNS + ["predictor_name"]
    if args.output:
        prefix = Path(args.output)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        write_rows_csv(f"{prefix}.path.csv", bundle["path"], columns)
        Path(f"{prefix}.report.json").write_text(
            dump_json(bundle) + "\n", encoding="utf-8"
        )
        return
    if args.format == "csv":
        print(",".join(columns))
        for r in bundle["path"]:
            print(",".join("" if r.get(c) is None else str(r.get(c)) for c in columns))
    else:
        print(dump_json(bundle))


_REQUIRED = object()


def _require(config: dict, key: str, path, default=_REQUIRED):
    if key in config:
        return config[key]
    if default is _REQUIRED:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return default


def _convert(value, kind, key: str, path):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"{path}: {key} must be {kind.__name__.lstrip('_')}, got {value!r}"
        ) from None


def _number(value):
    """A JSON number as given: an int stays an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return value


def _boolean(value):
    """A JSON boolean only: ``bool("false")`` would be True."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _value(config: dict, key: str, path, kind, default=_REQUIRED):
    """``config[key]`` converted by ``kind``; ConfigError if it does not convert."""
    return _convert(_require(config, key, path, default), kind, key, path)


def _values(config: dict, key: str, path, kind, default=_REQUIRED):
    """The non-empty list ``config[key]`` with every item converted by ``kind``.

    An empty list would run no cell and write header-only tables.
    """
    values = _require(config, key, path, default)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{path}: {key} must be a non-empty list, got {values!r}")
    return [_convert(v, kind, key, path) for v in values]


def cmd_simulate(args) -> dict:
    path = args.config
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(config, dict) or not config:
        raise ConfigError(f"{path}: config must be a non-empty JSON object")

    experiment = _require(config, "experiment", path)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    base_seed = seed if seed is not None else _value(config, "base_seed", path, int, 0)
    alpha = _value(config, "alpha", path, float, 0.5)

    if experiment == "many_k":
        n = _value(config, "n", path, int)
        beta_delta = _value(config, "beta_delta", path, float, 0.0)
        specs = [
            NestedDgpSpec(n=n, K=k, beta_delta=beta_delta, seed=base_seed)
            for k in _values(config, "k_grid", path, int)
        ]
        rows = run_many_k(
            specs,
            replications=_value(config, "replications", path, int),
            alpha=alpha,
            n_test=_value(config, "n_test", path, int, 1000),
        )
        summary = summarize_many_k(rows)
        write_rows_csv(out_dir / "many_k_runs.csv", rows)
        write_rows_csv(out_dir / "many_k_summary.csv", summary)
        result = {"experiment": experiment, "cells": summary}
    elif experiment == "forward":
        shared = dict(
            p=_value(config, "p", path, int),
            block_size=_value(config, "block_size", path, int, 5),
            xi=_value(config, "xi", path, float, 0.59),
            sigma2=_value(config, "sigma2", path, float, 1.0),
            n_relevant=_value(config, "n_relevant", path, int, 6),
            n_test=_value(config, "n_test", path, int, 1000),
            seed=base_seed,
        )
        rhos = _values(config, "rho_grid", path, float)
        specs = [
            BlockDgpSpec(n=n, rho=rho, **shared)
            for n in _values(config, "n_grid", path, int)
            for rho in rhos
        ]
        multipliers = tuple(_values(config, "multipliers", path, _number, [1.5]))
        run_rows, path_rows = run_forward_experiment(
            specs,
            multipliers=multipliers,
            priors=tuple(_values(config, "priors", path, str, ["diffuse"])),
            replications=_value(config, "replications", path, int),
            alpha=alpha,
            guard=_value(config, "guard", path, _boolean, True),
        )
        write_rows_csv(out_dir / "forward_runs.csv", run_rows)
        write_rows_csv(out_dir / "forward_path.csv", path_rows)
        if len(multipliers) > 1:
            # one trajectory file per multiplier for direct plotting
            for m in multipliers:
                subset = [r for r in path_rows if r["multiplier"] == m]
                write_rows_csv(out_dir / f"forward_path_m{m}.csv", subset)
        result = {"experiment": experiment, "n_runs": len(run_rows)}
    else:
        raise ConfigError(f"{path}: unknown experiment {experiment!r}")

    bundle = {
        "report": "simulate",
        "result": result,
        "provenance": _provenance(args, [path]),
    }
    (out_dir / "summary.json").write_text(dump_json(bundle) + "\n", encoding="utf-8")
    return bundle


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvbias",
        description="Selection-induced bias estimation and correction for "
        "LOO-CV model selection",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compare", help="compare models against a baseline")
    c.add_argument("inputs", nargs="+", help="one CSV per model")
    c.add_argument("--kind", choices=["auto", "pointwise", "loglik"], default="auto")
    c.add_argument("--baseline", default="median", help="'median' or a model id")
    c.add_argument("--alpha", type=float, default=0.5)
    c.add_argument("--multiplier", type=float, default=1.5)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.add_argument("--output", default=None)
    c.set_defaults(func=cmd_compare, writer=_write_compare)

    f = sub.add_parser("forward", help="forward search with bias correction")
    f.add_argument("data", help="training dataset CSV (header row)")
    f.add_argument("--target", required=True, help="response column name")
    f.add_argument("--max-size", dest="max_size", type=int, default=None)
    f.add_argument("--prior", choices=sorted(PRIOR_PRESETS), default="diffuse")
    f.add_argument("--multiplier", type=float, default=1.5)
    f.add_argument("--alpha", type=float, default=0.5)
    f.add_argument("--test", default=None, help="held-out dataset CSV")
    f.add_argument("--seed", type=int, default=None)
    f.add_argument("--format", choices=["json", "csv"], default="json")
    f.add_argument("--output", default=None, help="output file prefix")
    f.set_defaults(func=cmd_forward, writer=_write_forward)

    s = sub.add_parser("simulate", help="run a simulation experiment config")
    s.add_argument("config", help="experiment config (JSON)")
    s.add_argument("--output", required=True, help="output directory")
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_simulate, writer=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        bundle = args.func(args)
        if args.writer is not None:
            args.writer(bundle, args)
        elif args.command == "simulate":
            print(dump_json({"output": args.output, "result": bundle["result"]}))
    except CvBiasError as exc:
        print(f"cvbias: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

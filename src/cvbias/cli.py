"""Command-line surface: compare, forward and simulate subcommands.

All statistics come from the library modules; the CLI only parses inputs,
assembles report bundles and writes them out. Statistical warnings
(unreliable k-hat, undiagnosed thresholds) are report fields, never process
failures; only I/O and schema problems exit nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import io
import json
import math
import os
import pickle
import signal
import sys
import warnings
from pathlib import Path

# OpenBLAS starts a spinning worker thread per CPU when numpy loads. The
# matrices here are too small to gain from them, and ``_map_on_cpus`` forks
# best with no BLAS threads to fork across. A caller's own value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .conjlm import PRIOR_PRESETS
from .errors import ConfigError, CvBiasError, NonFiniteInput, SchemaMismatch
from .io import (
    _is_float,
    dump_json,
    open_hashed,
    read_dataset_csv,
    read_matrix_csv,
    write_rows_csv,
)
from .orderstats import (
    DEFAULT_ALPHA,
    DEFAULT_MULTIPLIER,
    MIN_MODELS_FOR_DIAGNOSTIC,
    build_comparison,
    check_alpha,
    check_baseline,
    check_multiplier,
)
from .psisloo import elpd_loo_psis, from_pointwise

SCHEMA_VERSION = 1


def _provenance(args, digests: dict) -> dict:
    """The run's provenance; ``digests`` maps each input path to its SHA-256."""
    config = {}
    for k, v in sorted(vars(args).items()):
        if k == "func":
            continue
        config[k] = list(v) if isinstance(v, (list, tuple)) else v
    return {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "seed": getattr(args, "seed", None),
        "config": config,
        "inputs": {str(p): digest for p, digest in digests.items()},
    }


def _estimate(path):
    """The elpd estimate of one input CSV, its stem the model id, and the
    SHA-256 of the bytes it was parsed from.

    A single-column file holds pointwise elpds, and any wider one a
    draws-by-observations log-likelihood matrix.
    """
    values, _, digest = read_matrix_csv(path)
    pointwise = values.shape[1] == 1
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->", values, values)
    # a non-finite cell is left to the scoring's own message; each PSIS elpd
    # lies within its observation's log-likelihoods, so finite squares of
    # the input keep those of the pointwise elpds finite
    if not np.isfinite(squares) and np.isfinite(values).all():
        what = "pointwise elpd" if pointwise else "log-likelihood"
        raise NonFiniteInput(f"{path}: {what} overflows when squared")
    model_id = Path(path).stem
    try:
        if pointwise:
            estimate = from_pointwise(values[:, 0], model_id)
        else:
            estimate = elpd_loo_psis(values, model_id)
    except CvBiasError as exc:
        # read errors name the file already; scoring errors do not
        raise type(exc)(f"{path}: {exc}") from None
    return estimate, digest


# a claim is one record in the claims pipe: the first index of a run of items
_CLAIM = 8


def _claimed_results(func, items, claims: int, run: int) -> dict:
    """``{i: func(items[i])}`` over the runs this process claims from ``claims``.

    One claim is read when the previous run is done, until the pipe ends or
    the first exception or warning.
    """
    done = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            # every claim was written before the first read, so each read
            # takes one whole claim, or none at the pipe's end
            while claim := os.read(claims, _CLAIM):
                lo = int.from_bytes(claim, "little")
                for i in range(lo, min(lo + run, len(items))):
                    done[i] = func(items[i])
        except Exception:
            pass
    return done


def _claims_pipe(count: int) -> tuple[int, int]:
    """The read end of a pipe that holds every claim on ``count`` items, and
    the run of items each claim names; the write end is closed.

    The claims fit in the pipe's ``PIPE_BUF`` bytes, the least it holds, so
    writing them never blocks: past that, each claim names several items
    in a row.
    """
    read_fd, write_fd = os.pipe()
    run = -(-count // (os.fpathconf(read_fd, "PC_PIPE_BUF") // _CLAIM))
    with os.fdopen(write_fd, "wb") as pipe:
        pipe.write(b"".join(lo.to_bytes(_CLAIM, "little") for lo in range(0, count, run)))
    return read_fd, run


def _map_on_cpus(func, items) -> list:
    """``[func(x) for x in items]``, with the items shared across usable CPUs.

    With w = min(usable CPUs, items), w - 1 forked children and this process
    claim items from one pipe, each its next one when it is done with the
    last, and keep the results that came with no exception and no warning;
    the children send theirs back through a pipe each. This process then
    computes every item left without a result, in order, so the errors and
    warnings raised are those of the plain loop. Every child is reaped
    before this returns or raises. No CPU affinity is set: the scheduler
    places the processes, and the calling process is left as it was.
    """
    # no sched_getaffinity outside Linux: the loop runs here alone
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    w = min(cpus, len(items))
    if w < 2:
        return [func(x) for x in items]
    claims, run = _claims_pipe(len(items))
    children = {}
    try:
        for _ in range(1, w):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                # no process to spare: this process claims the rest
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    share = _claimed_results(func, items, claims, run)
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(share, pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[pid] = os.fdopen(read_fd, "rb")
        done = _claimed_results(func, items, claims, run)
        for pid in list(children):
            with children[pid] as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status == 0:
                done.update(pickle.loads(data))
    finally:
        os.close(claims)
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [done[i] if i in done else func(x) for i, x in enumerate(items)]


def _load_estimates(paths):
    """One estimate per CSV and each CSV's SHA-256 by its path, the files
    spread across CPUs; each is read once, and hashed as it is parsed.

    A file's stem is its model id, so stems must be unique.
    """
    stems = [Path(p).stem for p in paths]
    for model_id in stems:
        if stems.count(model_id) > 1:
            same = ", ".join(str(p) for p in paths if Path(p).stem == model_id)
            raise SchemaMismatch(f"model id {model_id!r} names several inputs: {same}")
    estimates, digests = zip(*_map_on_cpus(_estimate, paths))
    n_obs = {e.n_obs for e in estimates}
    if len(n_obs) != 1:
        raise SchemaMismatch(f"inputs disagree on observation count: {sorted(n_obs)}")
    return list(estimates), dict(zip(paths, digests))


def cmd_compare(args) -> None:
    from .weights import weight_report

    check_alpha(args.alpha)
    check_multiplier(args.multiplier)
    # an unusable output or baseline fails before the inputs are read and
    # scored; a name ending in a separator names a directory too, made or not
    if args.output and (Path(args.output).is_dir() or not os.path.basename(args.output)):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.output)
    check_baseline([Path(p).stem for p in args.inputs], args.baseline)
    with _made_dir(Path(args.output).parent) if args.output else contextlib.nullcontext():
        estimates, digests = _load_estimates(args.inputs)
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
                # a null value under 10 differences is a diagnostic not run;
                # from 10 on, it is a tail that could not be fitted
                "status": (
                    "unavailable"
                    if comparison.K < MIN_MODELS_FOR_DIAGNOSTIC
                    else ("pass" if comparison.reliable else "fail")
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
        bundle = {
            "report": "compare",
            "comparison": comparison.to_dict(),
            "weights": weights,
            "diagnostics": diagnostics,
            "provenance": _provenance(args, digests),
        }
        if args.format == "csv":
            write_rows_csv(args.output or sys.stdout, weights)
        elif args.output:
            Path(args.output).write_text(dump_json(bundle) + "\n", encoding="utf-8")
        else:
            print(dump_json(bundle))


@contextlib.contextmanager
def _made_dir(path: Path):
    """Make the directory ``path`` and its missing parents for the block.

    A part of ``path`` that exists and is not a directory fails with
    ``NotADirectoryError``, naming ``path``, before anything is made. If the
    block fails, the directories made here are removed, deepest first,
    while they are empty: the first one that is not ends it, and the files
    written so far stay. A directory that was there before is kept.
    """
    made = []
    for d in (path, *path.parents):
        if d.is_dir():
            break
        if d.exists():
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(path))
        made.append(d)
    try:
        path.mkdir(parents=True, exist_ok=True)
        yield
    except BaseException:
        with contextlib.suppress(OSError):
            for d in made:
                os.rmdir(d)
        raise


def cmd_forward(args) -> None:
    from .search import correct_path, forward_search, stopping_rules

    # the search runs long before correct_path would reject these
    check_alpha(args.alpha)
    check_multiplier(args.multiplier)
    # the output files' directory is made first, so an unusable prefix
    # fails before any read; a prefix that ends in a separator names it
    where = Path(f"{args.output}.path.csv").parent if args.output else None
    with _made_dir(where) if where else contextlib.nullcontext():
        data, digest = read_dataset_csv(args.data, args.target)
        digests = {args.data: digest}
        test = None
        if args.test:
            test, digests[args.test] = read_dataset_csv(args.test, args.target)
        prior = PRIOR_PRESETS[args.prior]()
        max_size = args.max_size if args.max_size is not None else data.p
        path = forward_search(data, prior, max_size=max_size, test=test)
        path = correct_path(path, multiplier=args.multiplier, alpha=args.alpha)
        verdicts = stopping_rules(path)
        names = data.columns
        rows = path.to_rows()
        for row in rows:
            idx = row["predictor_added"]
            row["predictor_name"] = None if idx is None else names[idx]
        bundle = {
            "report": "forward",
            "verdicts": verdicts.to_dict(),
            "path": rows,
            "selected_predictors": [names[i] for i in path.predictors()],
            "provenance": _provenance(args, digests),
        }
        if args.output:
            write_rows_csv(f"{args.output}.path.csv", rows)
            report = Path(f"{args.output}.report.json")
            report.write_text(dump_json(bundle) + "\n", encoding="utf-8")
        elif args.format == "csv":
            write_rows_csv(sys.stdout, rows)
        else:
            print(dump_json(bundle))


# The JSON kinds of config values, by their names in error messages, and
# the test a parsed value must pass: JSON gives exact types, so 30.9, "2"
# and true are no integer. A "number" is passed on as a float.
_PRIOR = f"one of {', '.join(map(repr, sorted(PRIOR_PRESETS)))}"
_KINDS = {
    "string": lambda v: type(v) is str,
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float),
    "boolean": lambda v: type(v) is bool,
    _PRIOR: lambda v: type(v) is str and v in PRIOR_PRESETS,
}

# Each experiment's keys with the kind of each value (``[kind]``: a list of
# them), and the keys its config must give. A key left out is not passed
# on, so the defaults are those of ``cvbias.sim``'s specs and runners.
_COMMON_KEYS = {"experiment": "string", "base_seed": "integer", "alpha": "number"}
_CONFIG_KEYS = {
    "many_k": {
        **_COMMON_KEYS, "n": "integer", "beta_delta": "number", "k_grid": ["integer"],
        "replications": "integer", "n_test": "integer",
    },
    "forward": {
        **_COMMON_KEYS, "p": "integer", "n_grid": ["integer"], "rho_grid": ["number"],
        "block_size": "integer", "xi": "number", "sigma2": "number", "n_relevant": "integer",
        "n_test": "integer", "multipliers": ["number"], "priors": [_PRIOR],
        "replications": "integer", "guard": "boolean",
    },
}
_REQUIRED_KEYS = {
    "many_k": ("n", "k_grid", "replications"),
    "forward": ("p", "n_grid", "rho_grid", "replications"),
}


def _checked(value, kind, key: str, path):
    """``value`` as ``kind``, or ConfigError if it is not of that kind."""
    if isinstance(kind, list):
        # an empty list would run no cell, and a repeated value its cells twice
        if type(value) is not list or not value:
            raise ConfigError(f"{path}: {key} must be a non-empty list, got {value!r}")
        out = [_checked(v, kind[0], key, path) for v in value]
        if len(set(out)) < len(out):
            raise ConfigError(f"{path}: {key} must not repeat a value, got {value!r}")
        return out
    if not _KINDS[kind](value):
        raise ConfigError(f"{path}: {key} must be {kind}, got {value!r}")
    # an integer past the float range is infinite, as JSON's 1e999 is
    if kind == "number" and abs(value) > sys.float_info.max:
        return math.inf if value > 0 else -math.inf
    return float(value) if kind == "number" else value


def _read_config(path) -> tuple[dict, str]:
    """The simulate config at ``path``, each value checked against its key's
    kind, and the SHA-256 of the bytes it was decoded from. A leading
    byte-order mark is dropped, as every CSV reader drops it."""
    try:
        fh, sha256 = open_hashed(path, "utf-8-sig", None)
        with fh:
            config = json.loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
    if not isinstance(config, dict) or not config:
        raise ConfigError(f"{path}: config must be a non-empty JSON object")
    if "experiment" not in config:
        raise ConfigError(f"{path}: missing required key 'experiment'")
    experiment = config["experiment"]
    if type(experiment) is not str or experiment not in _CONFIG_KEYS:
        raise ConfigError(f"{path}: unknown experiment {experiment!r}")
    kinds = _CONFIG_KEYS[experiment]
    unknown = sorted(set(config) - set(kinds))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s): {', '.join(unknown)}")
    for key in _REQUIRED_KEYS[experiment]:
        if key not in config:
            raise ConfigError(f"{path}: missing required key {key!r}")
    checked = {key: _checked(value, kinds[key], key, path) for key, value in config.items()}
    return checked, sha256.hexdigest()


def _given(config: dict, *keys) -> dict:
    """The items of ``config`` under ``keys``; the keys it lacks are left out."""
    return {key: config[key] for key in keys if key in config}


def cmd_simulate(args) -> None:
    from . import sim

    path = args.config
    config, digest = _read_config(path)
    experiment = config["experiment"]
    if args.seed is not None:
        config["base_seed"] = args.seed
    if "base_seed" in config:
        config["seed"] = config.pop("base_seed")
    if "alpha" in config:  # checked, as the specs below, before any task runs
        check_alpha(config["alpha"])
    out_dir = Path(args.output)
    # made before any task runs, so that an unusable path fails first
    with _made_dir(out_dir):
        if experiment == "many_k":
            shared = _given(config, "n", "beta_delta", "seed")
            specs = [sim.NestedDgpSpec(K=k, **shared) for k in config["k_grid"]]
            run_args = _given(config, "replications", "alpha", "n_test")
            rows = sim.run_many_k(specs, **run_args, map_fn=_map_on_cpus)
            summary = sim.summarize_many_k(rows)
            write_rows_csv(out_dir / "many_k_runs.csv", rows)
            write_rows_csv(out_dir / "many_k_summary.csv", summary)
            result = {"experiment": experiment, "cells": summary}
        else:
            shared = _given(config, "p", "block_size", "xi", "sigma2", "n_relevant", "n_test",
                            "seed")
            specs = [
                sim.BlockDgpSpec(n=n, rho=rho, **shared)
                for n in config["n_grid"]
                for rho in config["rho_grid"]
            ]
            for m in config.get("multipliers", ()):
                check_multiplier(m)
            run_args = _given(config, "multipliers", "priors", "replications", "alpha", "guard")
            run_rows, path_rows = sim.run_forward_experiment(specs, **run_args, map_fn=_map_on_cpus)
            write_rows_csv(out_dir / "forward_runs.csv", run_rows)
            write_rows_csv(out_dir / "forward_path.csv", path_rows)
            result = {"experiment": experiment, "n_runs": len(run_rows)}

        bundle = {
            "report": "simulate",
            "result": result,
            "provenance": _provenance(args, {path: digest}),
        }
        (out_dir / "summary.json").write_text(dump_json(bundle) + "\n", encoding="utf-8")
    print(dump_json({"output": args.output, "result": result}))


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
    c.add_argument("--baseline", default="median", help="'median' or a model id")
    c.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    c.add_argument("--multiplier", type=float, default=DEFAULT_MULTIPLIER)
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.add_argument("--output", default=None)
    c.set_defaults(func=cmd_compare)

    f = sub.add_parser("forward", help="forward search with bias correction")
    f.add_argument("data", help="training dataset CSV (header row)")
    f.add_argument("--target", required=True, help="response column name")
    f.add_argument("--max-size", dest="max_size", type=int, default=None)
    f.add_argument("--prior", choices=sorted(PRIOR_PRESETS), default="diffuse")
    f.add_argument("--multiplier", type=float, default=DEFAULT_MULTIPLIER)
    f.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    f.add_argument("--test", default=None, help="held-out dataset CSV")
    f.add_argument("--format", choices=["json", "csv"], default="json")
    f.add_argument("--output", default=None, help="output file prefix")
    f.set_defaults(func=cmd_forward)

    s = sub.add_parser("simulate", help="run a simulation experiment config")
    s.add_argument("config", help="experiment config (JSON)")
    s.add_argument("--output", required=True, help="output directory")
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(func=cmd_simulate)

    return parser


# the flags that take a number, which may be negative
_NUMBER_FLAGS = ("--alpha", "--multiplier", "--max-size", "--seed")


def _joined_negative_numbers(argv) -> list[str]:
    """``argv`` with each negative number that follows a number flag joined
    to the flag by ``=``, up to any ``--``.

    Argparse takes only plain decimals such as -0.5 for negative numbers:
    it would read -inf, -nan or -1e5 after a space as an option, and the
    flag as lacking its value. A flag may be abbreviated, as argparse allows.
    """
    argv = list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    out = []
    for arg in argv[:end]:
        flag = out[-1] if out else ""
        if (
            arg.startswith("-")
            and _is_float(arg)
            and flag.startswith("--")
            and any(f.startswith(flag) for f in _NUMBER_FLAGS)
        ):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out + argv[end:]


def main(argv=None) -> int:
    """Run one command; its exit code.

    What argparse and the command print is collected and reaches stdout in
    one write here, so an unwritable stdout fails in one place, buffered or
    not. Argparse's ``SystemExit`` is raised again after that write.
    """
    collected = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(collected):
        try:
            argv = sys.argv[1:] if argv is None else argv
            args = build_parser().parse_args(_joined_negative_numbers(argv))
            if args.output == "":
                # Path("") is the working directory, and "" reads as no --output
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "''")
            args.func(args)
        except SystemExit as exc:
            code = exc
        except CvBiasError as exc:
            print(f"cvbias: error: {exc}", file=sys.stderr)
            code = 1
        except OSError as exc:
            # inputs and configs are read through handlers that raise
            # CvBiasError: what is left is an output file that cannot be
            # written, named by the error or else by --output (a write that
            # fails after its open carries no file name)
            where = exc.filename or args.output
            print(f"cvbias: error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
            code = 1
        except MemoryError as exc:
            # numpy's message, if any, names the array it could not allocate
            print(f"cvbias: error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
            code = 1
    text = collected.getvalue()
    try:
        if text:  # even an unbuffered write of no bytes fails on /dev/full
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        print(f"cvbias: error: cannot write standard output: {exc.strerror or exc}",
              file=sys.stderr)
        # the descriptor goes to os.devnull (the SIGPIPE recipe of the signal
        # docs), so the flush at interpreter exit cannot fail again and print
        # its own "Exception ignored" report
        try:
            fd = sys.stdout.fileno()
        except OSError:  # io.UnsupportedOperation: no descriptor to point elsewhere
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    if isinstance(code, SystemExit):
        raise code
    return code


def _fix_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 4 and 8 MiB; elsewhere, nothing."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes  # numpy has imported it already

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:  # a libc other than glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of <malloc.h>; setting either
    # one alone ends glibc's dynamic thresholds for both
    mallopt(-3, 4 << 20)
    mallopt(-1, 8 << 20)


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as the one line ``cvbias: warning: <message>``."""
    return f"cvbias: warning: {message}\n"


def entry() -> int:
    """The program entry of ``python -m cvbias.cli`` and the ``cvbias`` script.

    On Linux with glibc, the allocator's mmap threshold is fixed at 4 MiB
    and its trim threshold at 8 MiB. glibc's dynamic thresholds would
    settle near twice the largest mmap'd block freed so far (~0.3 MiB
    here), so each search step or simulation block would hand the ~1-2
    MiB of scratch arrays at the top of the heap back to the kernel and
    fault them in again on the next. Under the fixed thresholds every
    array of less than 4 MiB comes from the heap, and freed heap pages
    stay mapped for reuse; arrays of 4 MiB or more are still mapped and
    unmapped on their own.

    ``gc.freeze()`` moves every object alive after the imports (numpy's,
    the interpreter's and this package's) to the collector's permanent
    generation. The collections at interpreter exit then skip them and
    leave what only reference cycles hold to the operating system; the
    collections in the children ``_map_on_cpus`` forks skip them too.

    A warning prints as one ``cvbias: warning: <message>`` line, without
    the source file, line and code that Python's own format adds.

    The children ``_map_on_cpus`` forks inherit these settings. ``main``
    itself leaves the allocator, the collector and the warning format as
    it found them.
    """
    _fix_heap_thresholds()
    gc.freeze()
    warnings.formatwarning = _format_warning
    return main()


if __name__ == "__main__":
    sys.exit(entry())

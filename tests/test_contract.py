"""The CLI's contract on any input: exit 0 with finite numbers and no
warning, or exit 1 with one ``cvbias: error:`` line and no warning.

Inputs are driven through ``cli.main`` in-process. For ``forward`` they are
small datasets with a few cells set to extreme values; for ``simulate``,
small valid ``many_k`` and ``forward`` configs with up to two keys dropped,
added or set to a wrong or extreme value. A ``simulate`` run that exits 1
leaves no output directory behind. For ``compare`` they are 1-12 small
pointwise and log-likelihood files with extreme cells and constant columns,
stems that may repeat, and each ``--kind``, ``--baseline`` and
``--alpha``/``--multiplier`` in or out of range; its one allowed warning is
PSIS's on fewer than 100 draws. ``forward`` draws the same ``--alpha`` and
``--multiplier`` values, and ``--max-size`` at and past its limits. Each
number flag is given as ``--flag=value`` or as two arguments.
"""

import contextlib
import csv
import io
import json
import math
import re
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbias.cli import main

# signed zeros, values whose squares or products overflow, and subnormals
EXTREMES = [0.0, -0.0, 1e300, -1e300, 1e200, 1e154, 1e-300, 1e-310]
# --alpha and --multiplier in and out of range, negative ones among them
ALPHAS = ["0.39", "0.5", "0.38", "0.6", "nan", "-inf"]
MULTIPLIERS = ["0", "3", "1e300", "-0.5", "inf", "nan"]


def number_flags(draw, **choices) -> list[str]:
    """Each flag ``--<name>`` left out or given one of its values, as
    ``--<name>=value`` or as the flag and the value."""
    flags = []
    for name, values in choices.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            flag = f"--{name.replace('_', '-')}"
            flags += [f"{flag}={value}"] if draw(st.booleans()) else [flag, str(value)]
    return flags


def cells(draw, n: int, p: int) -> np.ndarray:
    """n rows of p predictors and a response, some cells extreme."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.standard_normal((n, p + 1))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, p))
        values[i, j] = draw(st.sampled_from(EXTREMES))
    last = draw(st.sampled_from(["plain", "constant", "twin"]))
    if last == "constant":
        values[:, p - 1] = draw(st.sampled_from([1.0, *EXTREMES]))
    elif last == "twin" and p >= 2:
        with np.errstate(over="ignore"):
            values[:, p - 1] = values[:, 0] * draw(st.sampled_from([1.0, -1.0, 1e150, 1e-150]))
    return values


@st.composite
def forward_runs(draw):
    """The training cells, the test cells or None, and the flags of one run."""
    n, p = draw(st.integers(3, 11)), draw(st.integers(1, 4))
    train = cells(draw, n, p)
    test = cells(draw, draw(st.integers(1, 11)), p) if draw(st.booleans()) else None
    flags = number_flags(draw, alpha=ALPHAS, multiplier=MULTIPLIERS,
                         max_size=[0, -1, 1, p, p + 1, 10**30])
    flags += ["--prior", draw(st.sampled_from(["diffuse", "tight"])),
              "--format", draw(st.sampled_from(["json", "csv"]))]
    return train, test, flags


def write_cells(path, values):
    header = [f"x{j}" for j in range(values.shape[1] - 1)] + ["y"]
    rows = [",".join(repr(v) for v in row) for row in values.tolist()]
    path.write_text("\n".join([",".join(header), *rows]) + "\n")
    return str(path)


def run_main(argv):
    """``main(argv)``'s exit code, stdout, stderr and the warnings it raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def numbers(out: str, fmt: str) -> list[float]:
    """Every number in a forward report written to stdout as ``fmt``."""
    if fmt == "csv":
        return [float(c) for line in out.splitlines()[1:] for c in line.split(",")
                if c not in ("", "true", "false") and not c.startswith("x")]
    found = []
    json.loads(out, parse_float=lambda c: found.append(float(c)))
    return found


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(run=forward_runs())
def test_forward_exits_clean_or_with_one_error_line(tmp_path_factory, run):
    train, test, flags = run
    where = tmp_path_factory.mktemp("contract")
    argv = ["forward", write_cells(where / "d.csv", train), "--target", "y", *flags]
    if test is not None:
        argv += ["--test", write_cells(where / "t.csv", test)]
    code, out, err, caught = run_main(argv)
    assert caught == []
    if code == 0:
        assert err == "" and all(map(np.isfinite, numbers(out, flags[-1])))
    else:
        assert code == 1 and out == ""
        assert err.startswith("cvbias: error:") and err.count("\n") == 1


# every key of each experiment, so that dropping one falls back on sim's default
SIM_CONFIGS = {
    "many_k": {"experiment": "many_k", "base_seed": 1, "alpha": 0.5, "n": 10,
               "beta_delta": 0.0, "k_grid": [3], "replications": 2, "n_test": 5},
    "forward": {"experiment": "forward", "base_seed": 1, "alpha": 0.5, "p": 5,
                "n_grid": [12], "rho_grid": [0.5], "block_size": 5, "xi": 0.59,
                "sigma2": 1.0, "n_relevant": 3, "n_test": 5, "multipliers": [1.5],
                "priors": ["diffuse"], "replications": 1, "guard": True},
}
# wrong kinds, bad sizes and limits, signed zero and floats at both ends;
# "twice" stands for [x, x], a list that repeats the key's own value x
SIM_VALUES = [None, True, "2", 2.5, -1, 0, [], "twice", {}, -0.0, 1e308, 1e-310]


@st.composite
def simulate_configs(draw):
    """A small valid config with 0-2 keys dropped, added or changed."""
    config = dict(SIM_CONFIGS[draw(st.sampled_from(sorted(SIM_CONFIGS)))])
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["drop", "add", "set", "set", "set", "experiment"]))
        if how == "drop":
            config.pop(draw(st.sampled_from(sorted(config))))
        elif how == "add":
            config["extra"] = 1
        elif how == "experiment":
            config["experiment"] = draw(st.sampled_from([None, 1, ["many_k"], {}]))
        else:
            key = draw(st.sampled_from(sorted(set(config) - {"experiment"})))
            value = draw(st.sampled_from(SIM_VALUES))
            old = config[key]
            if value == "twice":
                value = [old[0], old[0]] if isinstance(old, list) and old else [old, old]
            if isinstance(old, list) and old and draw(st.booleans()):
                value = [value, *old[1:]]  # an item of the list, not the list
            config[key] = value
    return config


def table_numbers(path) -> list[float]:
    """Every number in a CSV table, the hex spec hashes aside."""
    with open(path, newline="") as fh:
        cells = [v for row in csv.DictReader(fh) for k, v in row.items() if k != "spec_hash"]
    found = []
    for cell in cells:
        with contextlib.suppress(ValueError):
            found.append(float(cell))
    return found


def json_numbers(text: str) -> list[float]:
    found = []
    json.loads(text, parse_float=lambda c: found.append(float(c)),
               parse_int=lambda c: found.append(float(int(c))),
               parse_constant=lambda c: found.append(float(c)))
    return found


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(config=simulate_configs())
def test_simulate_exits_clean_or_with_one_error_line(tmp_path_factory, config):
    where = tmp_path_factory.mktemp("simulate")
    cfg, out_dir = where / "cfg.json", where / "o"
    cfg.write_text(json.dumps(config))
    code, out, err, caught = run_main(["simulate", str(cfg), "--output", str(out_dir)])
    assert caught == []
    if code == 0:
        assert err == ""
        found = json_numbers(out) + json_numbers((out_dir / "summary.json").read_text())
        for table in out_dir.glob("*.csv"):
            found += table_numbers(table)
        assert found and all(map(math.isfinite, found))
    else:
        assert code == 1 and out == ""
        assert err.startswith("cvbias: error:") and err.count("\n") == 1
        assert not out_dir.exists()


@st.composite
def compare_runs(draw):
    """The (stem, cells, header) of each input file, and the flags of one run.

    A run has at most one twist (a repeated stem, a file whose observation
    count disagrees, one or two files, one observation) and two extreme
    cells, so that most runs get to be scored.
    """
    twist = draw(st.sampled_from(["none"] * 6 + ["twin", "disagree", "one_file", "two_files",
                                                 "one_obs"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    count = {"one_file": 1, "two_files": 2}.get(twist) or int(rng.integers(3, 13))
    n_obs = 1 if twist == "one_obs" else draw(st.integers(2, 5))
    odd = draw(st.integers(0, count - 1))
    files = []
    for i in range(count):
        cols = n_obs + (twist == "disagree" and i == odd)
        if draw(st.booleans()):  # pointwise elpds, one column of cols values
            shape, header = (cols, 1), "elpd"
        else:  # draws x observations, under 100 draws with PSIS's warning
            shape, header = (draw(st.sampled_from([5, 12, 40, 120])), cols), None
        values = rng.normal(-1.0, 0.5, shape)
        if draw(st.integers(0, 3)) == 0:
            values[:, draw(st.integers(0, values.shape[1] - 1))] = draw(
                st.sampled_from([-1.0, 0.0, -0.0, 1e-300, 1e-310, -1e154]))
        files.append([f"m{i}", values, header])
    if twist == "twin":
        files[odd][0] = files[odd - 1][0]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        values = files[draw(st.integers(0, count - 1))][1]
        i, j = draw(st.integers(0, values.shape[0] - 1)), draw(st.integers(0, values.shape[1] - 1))
        values[i, j] = draw(st.sampled_from([*EXTREMES, *(-v for v in EXTREMES)]))
    stems = [stem for stem, _, _ in files]
    # the flags are drawn by rng, so that most runs keep the valid ones
    flags = ["--kind", rng.choice(["auto"] * 4 + ["pointwise", "loglik"]),
             "--baseline", rng.choice(["median"] * 3 + [stems[0], stems[-1], "zz"]),
             "--format", rng.choice(["json", "csv"])]
    flags += number_flags(draw, alpha=ALPHAS, multiplier=MULTIPLIERS)
    return files, [str(flag) for flag in flags]


# the only warning a compare run may raise: PSIS on too few draws
FEW_DRAWS = re.compile(r"PSIS with \d+ draws is unreliable; use at least 100")


def null_places(value, where: str = "") -> set[str]:
    """The place of each null in a JSON value; a list item is named by its
    "name" up to any ":" (a diagnostic), else by its index."""
    if value is None:
        return {where}
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = ((v.get("name", str(i)).split(":")[0] if isinstance(v, dict) else i, v)
                 for i, v in enumerate(value))
    else:
        return set()
    return {place for key, v in items for place in null_places(v, f"{where}/{key}")}


# README: the tail k-hat with under 10 candidates or an unfittable tail, and
# a model's PSIS k-hat when it is not finite, are written as null
REPORT_NULLS = {"/comparison/khat_tail", "/diagnostics/tail_khat/value",
                "/diagnostics/psis_khat/value"}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(run=compare_runs())
def test_compare_exits_clean_or_with_one_error_line(tmp_path_factory, run):
    files, flags = run
    where = tmp_path_factory.mktemp("compare")
    paths = []
    for i, (stem, values, header) in enumerate(files):
        path = where / f"d{i}" / f"{stem}.csv"
        path.parent.mkdir()
        rows = [",".join(repr(v) for v in row) for row in values.tolist()]
        path.write_text("\n".join([header, *rows] if header else rows) + "\n")
        paths.append(str(path))
    code, out, err, caught = run_main(["compare", *paths, *flags])
    assert all(FEW_DRAWS.fullmatch(message) for message in caught), caught
    if code == 0:
        assert err == ""
        if flags[5] == "csv":
            cells = [c for line in out.splitlines()[1:] for c in line.split(",")[1:]]
            assert all(math.isfinite(float(c)) for c in cells if c not in ("true", "false"))
        else:
            report = json.loads(out)
            del report["provenance"]  # the flags as given, and the paths
            assert all(map(math.isfinite, json_numbers(json.dumps(report))))
            assert null_places(report) <= REPORT_NULLS
    else:
        assert code == 1 and out == ""
        assert err.startswith("cvbias: error:") and err.count("\n") == 1

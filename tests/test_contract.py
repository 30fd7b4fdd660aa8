"""The CLI's contract on any input: exit 0 with finite numbers and no
warning, or exit 1 with one ``cvbias: error:`` line and no warning.

Inputs are small datasets with a few cells set to extreme values, driven
through ``cli.main`` in-process. Only ``forward`` is covered so far.
"""

import contextlib
import io
import json
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbias.cli import main

# signed zeros, values whose squares or products overflow, and subnormals
EXTREMES = [0.0, -0.0, 1e300, -1e300, 1e200, 1e154, 1e-300, 1e-310]


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
    flags = ["--prior", draw(st.sampled_from(["diffuse", "tight"])),
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

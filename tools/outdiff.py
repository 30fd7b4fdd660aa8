"""Differential check of two cvbias source trees on a fixed case list.

    python tools/outdiff.py BASE CHANGE

BASE and CHANGE are source trees that hold ``src/cvbias``; to compare with
a git revision, check it out first (``git worktree add --detach DIR REV``).
Each case runs ``python -m cvbias.cli`` on relative paths in a fresh
directory, once in BASE and twice in CHANGE. Its outputs are stdout,
stderr, the exit code and every file the run writes. The output contract
of a refactor:

* every JSON key and every non-float cell is identical;
* every float is within 1e-9 absolute of BASE's;
* the second run of CHANGE is byte-identical to its first.

The inputs come from ``perfbench/inputs.py``, the bundled configs and the
spike design below, so both trees read the same bytes. The script prints a
table of every non-empty output but the exit codes (file, cells, float
cells, floats moved, largest move), then each breach, and exits 1 if there
is any.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TOLERANCE = 1e-9
SHOWN = 5  # breaches listed per output

_spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)


def _make_spike(out: Path) -> None:
    """Training rows whose third column is zero but for a spike of 1e8 in
    row 0: every model holding that column breaches the closed-form LOO
    guard, so the search refactorizes after choosing it."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 3))
    X[:20, 2] = 0.0
    X[0, 2] = 1e8
    y = X[:, 0] - 0.5 * X[:, 1] + rng.standard_normal(40)
    table = np.column_stack([X, y])
    for name, rows in (("train.csv", table[:20]), ("test.csv", table[20:])):
        lines = ["x0,x1,x2,y"] + [",".join(f"{v:.17g}" for v in row) for row in rows.tolist()]
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _copy_configs(out: Path) -> None:
    for config in sorted((ROOT / "configs").glob("*.json")):
        shutil.copy(config, out / config.name)


# each input set is written once, into its own directory
INPUTS = {
    "forward-large-1": lambda out: inputs.make_inputs("forward-large", out, 1),
    "forward-large-2": lambda out: inputs.make_inputs("forward-large", out, 2),
    "compare-psis-1": lambda out: inputs.make_inputs("compare-psis", out, 1),
    "simulate-many-k": lambda out: inputs.make_inputs("simulate-many-k", out, 1),
    "spike": _make_spike,
    "configs": _copy_configs,
}


@dataclass(frozen=True)
class Case:
    name: str
    inputs: str
    argv: tuple[str, ...]


def _forward(prior: str) -> tuple[str, ...]:
    return ("forward", "train.csv", "--target", "y", "--test", "test.csv", "--prior", prior)


PRIORS = ("diffuse", "tight")
CASES = (
    *(
        Case(f"forward-large-s{seed}-{prior}-{kind}", f"forward-large-{seed}", _forward(prior) + extra)
        for seed in (1, 2)
        for prior in PRIORS
        for kind, extra in (("json", ()), ("csv", ("--format", "csv")), ("output", ("--output", "out/fwd")))
    ),
    *(Case(f"spike-{prior}-json", "spike", _forward(prior)) for prior in PRIORS),
    *(
        Case(f"config-{name}", "configs", ("simulate", f"{name}.json", "--output", "out"))
        for name in ("forward_correction", "multiplier_sweep", "null_expected_max")
    ),
    Case("simulate-many-k-s1", "simulate-many-k", ("simulate", "many_k.json", "--output", "out", "--seed", "1")),
    Case(
        "compare-psis-s1",
        "compare-psis-1",
        ("compare", *(f"model{m:02d}.csv" for m in range(inputs.COMPARE_MODELS)), "--output", "compare.json"),
    ),
)


def write_inputs(cases, work: Path) -> dict[str, Path]:
    """The directory of each input set that ``cases`` read, written under ``work``."""
    dirs = {}
    for name in dict.fromkeys(c.inputs for c in cases):
        dirs[name] = work / "inputs" / name
        dirs[name].mkdir(parents=True)
        INPUTS[name](dirs[name])
    return dirs


def run_tree(tree: Path, cases, input_dirs: dict[str, Path], work: Path) -> dict[str, bytes]:
    """Every output of every case run in ``tree``, keyed ``case/file``.

    ``<stdout>``, ``<stderr>`` and ``<exit>`` stand for the streams and the
    exit code; the other keys are the files the run wrote, by relative path.
    """
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"), PYTHONDONTWRITEBYTECODE="1")
    outputs = {}
    for case in cases:
        cwd = work / case.name
        shutil.copytree(input_dirs[case.inputs], cwd)
        given = set(cwd.rglob("*"))
        proc = subprocess.run(
            [sys.executable, "-m", "cvbias.cli", *case.argv], cwd=cwd, env=env, capture_output=True
        )
        outputs[f"{case.name}/<stdout>"] = proc.stdout
        outputs[f"{case.name}/<stderr>"] = proc.stderr
        outputs[f"{case.name}/<exit>"] = b"%d\n" % proc.returncode
        for path in sorted(cwd.rglob("*")):
            if path.is_file() and path not in given:
                outputs[f"{case.name}/{path.relative_to(cwd).as_posix()}"] = path.read_bytes()
    return outputs


def _cells(data: bytes) -> list[tuple[str, object]]:
    """``(key, value)`` for every cell: the leaves of a JSON document, keyed
    by their path, or else the comma-separated cells of each line of text,
    keyed line:column. A JSON leaf keeps its type; a text cell is a float
    when it reads as one but not as an integer."""
    text = data.decode("utf-8")
    try:
        doc = json.loads(text)
    except ValueError:
        cells = []
        for i, row in enumerate(csv.reader(text.splitlines())):
            for j, cell in enumerate(row):
                cells.append((f"{i + 1}:{j + 1}", _text_float(cell)))
        return cells

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                yield from walk(v, f"{key}.{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                yield from walk(v, f"{key}[{i}]")
        else:
            yield key, node

    return list(walk(doc, ""))


def _text_float(cell: str):
    try:
        int(cell)
        return cell
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def _move(a: float, b: float) -> float:
    """How far ``b`` is from ``a``: 0 for equal values (NaN equals NaN)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    move = abs(a - b)
    return math.inf if math.isnan(move) else move


@dataclass
class Drift:
    file: str
    cells: int = 0
    float_cells: int = 0
    floats_moved: int = 0
    largest_move: float = 0.0


def compare(base: dict[str, bytes], change: dict[str, bytes]) -> tuple[list[Drift], list[str]]:
    """The drift of each output present in both, but the exit codes, and
    every breach of the contract (the first few of each output)."""
    rows, breaches = [], []
    for name in sorted(base.keys() ^ change.keys()):
        breaches.append(f"{name}: only in {'BASE' if name in base else 'CHANGE'}")
    for name in sorted(base.keys() & change.keys()):
        a, b = _cells(base[name]), _cells(change[name])
        if [k for k, _ in a] != [k for k, _ in b]:
            breaches.append(f"{name}: keys or shape differ ({len(a)} cells against {len(b)})")
            continue
        drift, found = Drift(name, cells=len(a)), []
        for (key, x), (_, y) in zip(a, b):
            if type(x) is float and type(y) is float:
                drift.float_cells += 1
                move = _move(x, y)
                if move:
                    drift.floats_moved += 1
                    drift.largest_move = max(drift.largest_move, move)
                if move > TOLERANCE:
                    found.append(f"{name} {key}: {x!r} -> {y!r}, moved {move:.3g} > {TOLERANCE:g}")
            elif type(x) is not type(y) or x != y:
                found.append(f"{name} {key}: {x!r} -> {y!r}")
        breaches += found[:SHOWN]
        if len(found) > SHOWN:
            breaches.append(f"{name}: {len(found) - SHOWN} more cells differ")
        if drift.cells and not name.endswith("/<exit>"):
            rows.append(drift)
    return rows, breaches


def diff_trees(base: Path, change: Path, cases, work: Path):
    """``(rows, breaches, change's outputs)``: BASE against CHANGE, and
    CHANGE against a second run of itself."""
    input_dirs = write_inputs(cases, work)
    base_out = run_tree(base, cases, input_dirs, work / "base")
    change_out = run_tree(change, cases, input_dirs, work / "change")
    rerun = run_tree(change, cases, input_dirs, work / "rerun")
    rows, breaches = compare(base_out, change_out)
    for name in sorted(change_out.keys() | rerun.keys()):
        if change_out.get(name) != rerun.get(name):
            breaches.append(f"{name}: the rerun of CHANGE is not byte-identical")
    return rows, breaches, change_out


def format_table(rows: list[Drift]) -> str:
    lines = [
        "| file | cells | float cells | floats moved | largest move |",
        "|---|---|---|---|---|",
    ]
    for r in rows:
        move = f"{r.largest_move:.3g}" if r.largest_move else "0"
        lines.append(f"| `{r.file}` | {r.cells} | {r.float_cells} | {r.floats_moved} | {move} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare the cvbias outputs of two source trees.")
    ap.add_argument("base", type=Path, help="source tree of the parent")
    ap.add_argument("change", type=Path, help="source tree of the change")
    args = ap.parse_args(argv)
    for tree in (args.base, args.change):
        if not (tree / "src" / "cvbias" / "cli.py").is_file():
            print(f"outdiff: no cvbias source under {tree / 'src'}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="outdiff-") as work:
        rows, breaches, _ = diff_trees(args.base, args.change, CASES, Path(work))
    print(format_table(rows))
    moved = sum(r.floats_moved for r in rows)
    print(f"\n{len(CASES)} cases, {len(rows)} outputs, {moved} floats moved, {len(breaches)} breaches")
    for breach in breaches:
        print(f"BREACH: {breach}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())

"""``tools/outdiff.py`` on the small spike case: a tree against itself
drifts nowhere, and a planted change in its outputs is flagged."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("outdiff", ROOT / "tools" / "outdiff.py")
outdiff = importlib.util.module_from_spec(_spec)
# its dataclasses look their module up by name
sys.modules["outdiff"] = outdiff
_spec.loader.exec_module(outdiff)

REPORT = "spike-diffuse-json/<stdout>"


@pytest.fixture(scope="module")
def self_diff(tmp_path_factory):
    cases = [c for c in outdiff.CASES if c.name == "spike-diffuse-json"]
    return outdiff.diff_trees(ROOT, ROOT, cases, tmp_path_factory.mktemp("outdiff"))


def planted(outputs, edit):
    """``outputs`` with the forward report edited by ``edit(report)``."""
    report = json.loads(outputs[REPORT])
    edit(report)
    return {**outputs, REPORT: json.dumps(report, indent=2, sort_keys=True).encode()}


def test_a_tree_against_itself_drifts_nowhere(self_diff):
    rows, breaches, outputs = self_diff
    assert breaches == []
    assert outputs["spike-diffuse-json/<exit>"] == b"0\n"
    report = next(r for r in rows if r.file == REPORT)
    assert report.float_cells > 0
    assert [(r.floats_moved, r.largest_move) for r in rows] == [(0, 0.0)] * len(rows)


@pytest.mark.parametrize("move, flagged", [(1e-8, True), (1e-10, False)])
def test_a_planted_float_is_flagged_beyond_the_tolerance(self_diff, move, flagged):
    _, _, outputs = self_diff

    def shift(report):
        report["path"][2]["elpd"] += move

    rows, breaches = outdiff.compare(outputs, planted(outputs, shift))
    drift = next(r for r in rows if r.file == REPORT)
    assert drift.floats_moved == 1
    assert drift.largest_move == pytest.approx(move, rel=1e-3)
    assert [b.startswith(f"{REPORT} .path[2].elpd:") for b in breaches] == [True] * flagged


def test_a_planted_csv_float_is_flagged():
    base = {"c/<stdout>": b"size,elpd\r\n0,-31.5\r\n"}
    change = {"c/<stdout>": b"size,elpd\r\n0,-31.50000001\r\n"}
    rows, breaches = outdiff.compare(base, change)
    assert (rows[0].cells, rows[0].float_cells, rows[0].floats_moved) == (4, 1, 1)
    assert breaches == ["c/<stdout> 2:2: -31.5 -> -31.50000001, moved 1e-08 > 1e-09"]


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda r: r["selected_predictors"].reverse(), ".selected_predictors[0]"),
        (lambda r: r["verdicts"].update(bulge_size=r["verdicts"]["bulge_size"] + 1), ".verdicts.bulge_size"),
        (lambda r: r["path"].pop(), None),
    ],
    ids=["predictor", "verdict", "size"],
)
def test_a_changed_predictor_verdict_or_shape_is_flagged(self_diff, edit, key):
    _, _, outputs = self_diff
    _, breaches = outdiff.compare(outputs, planted(outputs, edit))
    assert len(breaches) >= 1
    want = f"{REPORT} {key}:" if key else f"{REPORT}: keys or shape differ"
    assert breaches[0].startswith(want)


def test_an_output_of_one_side_alone_is_flagged():
    _, breaches = outdiff.compare({"c/<stdout>": b""}, {"c/<stdout>": b"", "c/out.csv": b"a\n"})
    assert breaches == ["c/out.csv: only in CHANGE"]

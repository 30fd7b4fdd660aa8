"""Tests of the benchmark itself, on inputs shrunk to a few seconds.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import inputs
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(inputs, "FORWARD_N", 60)
    monkeypatch.setattr(inputs, "FORWARD_N_TEST", 60)
    monkeypatch.setattr(inputs, "FORWARD_P", 10)
    monkeypatch.setattr(inputs, "COMPARE_DRAWS", 200)
    monkeypatch.setattr(inputs, "COMPARE_OBS", 8)
    monkeypatch.setattr(
        inputs, "MANY_K_CONFIG", {**inputs.MANY_K_CONFIG, "n": 40, "k_grid": [2, 5], "replications": 3, "n_test": 50}
    )
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_INVOCATIONS", 2)
    monkeypatch.setattr(run, "MIN_TRACE_PAIRS", 1)


def _prepare(name: str, tmp_path: Path):
    """Inputs, one CLI run in-process and a checker for a small workload."""
    workload = run.WORKLOADS[name]
    files = inputs.make_inputs(name, tmp_path / "in", 5)
    out = tmp_path / "out"
    out.mkdir()
    argv = workload.argv([str(f) for f in files], str(out), 5)
    checker = run.Checker(workload, out, workload.expected(files, 5), {str(f): inputs.sha256(f) for f in files})
    return argv, checker


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted(small, tmp_path, name, trace):
    record = run.run(name, seed=3, seconds=0, trace=bool(trace), work=tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
        # times are raw means scaled by the run's host speed factor; memory is not
        speed = record["host_speed"]
        assert speed["factor"] == pytest.approx(hostspeed.REFERENCE_S / statistics.fmean(speed["measured_s"]))
        assert len(speed["measured_s"]) == hostspeed.REPEATS * (result["attempted"] + 1)
        for metric, m in result["metrics"].items():
            scale = speed["factor"] if metric.endswith("_s") else 1.0
            assert m["value"] == pytest.approx(speed["raw_metrics"][metric] * scale)
    assert set(record["environment"]) >= {"git_revision", "nproc", "python", "numpy", "scipy", "blas", "thread_env"}
    assert all(len(h) == 64 for h in record["inputs"].values())


def test_inputs_depend_on_seed_only(small, tmp_path):
    digests = []
    for seed, sub in ((1, "a"), (1, "b"), (2, "c")):
        files = inputs.make_inputs("compare-psis", tmp_path / sub, seed)
        digests.append([inputs.sha256(f) for f in files])
    assert digests[0] == digests[1] != digests[2]


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _swap_first_predictors(doc):
    sel = doc["selected_predictors"]
    sel[0], sel[1] = sel[1], sel[0]


def _shift_elpd(doc):
    doc["path"][2]["elpd"] += 1e-6


@pytest.mark.parametrize("edit", [_swap_first_predictors, _shift_elpd])
def test_forward_check_rejects_perturbed_report(small, tmp_path, edit):
    import cvbias.cli

    argv, checker = _prepare("forward-large", tmp_path)
    assert cvbias.cli.main(argv) == 0
    assert checker.problems(0) == []
    _edit_json(checker.out / "fwd.report.json", edit)
    assert checker.problems(0)


def test_forward_check_rejects_shifted_csv_cell(small, tmp_path):
    import cvbias.cli

    argv, checker = _prepare("forward-large", tmp_path)
    assert cvbias.cli.main(argv) == 0
    path = checker.out / "fwd.path.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)  # raw_diff
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("path.csv" in p for p in checker.problems(0))


def _flip_flag(doc):
    d = doc["comparison"]["diffs"][0]
    d["above_threshold"] = not d["above_threshold"]


def _other_baseline(doc):
    doc["comparison"]["baseline_id"] = "model00" if doc["comparison"]["baseline_id"] != "model00" else "model01"


@pytest.mark.parametrize("edit", [_flip_flag, _other_baseline])
def test_compare_check_rejects_perturbed_report(small, tmp_path, edit):
    import cvbias.cli

    argv, checker = _prepare("compare-psis", tmp_path)
    assert cvbias.cli.main(argv) == 0
    assert checker.problems(0) == []
    _edit_json(checker.out / "compare.json", edit)
    assert checker.problems(0)


def test_check_rejects_outputs_that_change_between_runs(small, tmp_path):
    import cvbias.cli

    argv, checker = _prepare("simulate-many-k", tmp_path)
    assert cvbias.cli.main(argv) == 0
    assert checker.problems(0) == []
    summary = checker.out / "summary.json"
    summary.write_text(summary.read_text() + " ")
    assert checker.problems(0) == ["outputs differ from the first invocation's bytes"]
    checker.clear()
    assert checker.problems(0) == ["missing output file"]
    assert checker.problems(1) == ["exit code 1"]


def test_traced_self_times_sum_to_main_total(small, tmp_path):
    import cvbias.conjlm
    import cvbias.search

    argv, checker = _prepare("forward-large", tmp_path)
    code, wall, trace = tracer.run_main(argv, traced=True)
    assert code == 0 and checker.problems(code) == []
    roots = [s for s in trace.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    total = roots[0].end - roots[0].start
    assert math.fsum(s.self_s for s in trace.spans) == pytest.approx(total, rel=1e-9)
    assert total <= wall
    # calls bound by ``from .conjlm import ...`` in cvbias.search are seen
    names = {s.name for s in trace.spans}
    assert {"conjlm.elpd_loo_exact", "conjlm.fit", "search.forward_search", "io.read_matrix_csv"} <= names
    assert cvbias.search.elpd_loo_exact is cvbias.conjlm.elpd_loo_exact
    assert not hasattr(cvbias.conjlm.fit, "__wrapped__")


def test_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(200 * 2**20)
    ballast[::4096] = b"\x01" * len(ballast[::4096])  # touch every page
    sample = run.spawn([sys.executable, "-c", "pass"], tmp_path / "child.log")
    assert sample["exit_code"] == 0 and sample["wall_s"] > 0
    assert sample["peak_rss_mb"] < 100


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "forward-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

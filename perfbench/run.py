"""Benchmark of the ``cvbias`` command line, one workload per run.

    python3 perfbench/run.py --workload forward-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The workload's inputs are generated
from ``--seed`` (``inputs.py``), the expected outputs are recomputed without
``cvbias`` (``reference.py``), then the run measures for ``--seconds``:

* ``--trace 0``: the end-to-end metrics. ``setup_s`` is the mean time of
  fresh interpreters importing ``cvbias.cli``. Each invocation runs
  ``python -m cvbias.cli ...`` in a fresh process, one at a time (a closed
  loop with one client); ``wall_s`` and ``cpu_s`` (user + system, from
  ``wait4``) are means over the invocations and ``peak_rss_mb`` is their
  median. The three times are scaled by the run's host speed factor
  (``hostspeed.py``): a fixed reference task, timed before every
  invocation and after the last, sets how fast the shared host ran during
  the run.
* ``--trace 1``: the per-layer metrics. Pairs of in-process ``main(argv)``
  calls, one plain and one traced, each in a fresh interpreter; every
  per-layer value is the median over the traced calls, and
  ``trace.overhead_s`` the median traced-minus-plain wall time.

Every invocation's outputs are checked against the reference and against
the first invocation's bytes; a failed check counts the invocation as
failed. Thread settings (``OPENBLAS_NUM_THREADS`` and the like) are left as
found and recorded. The last stdout line is the JSON result; the full
record, with the environment, input hashes and every sample, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import hostspeed
import inputs
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
MIN_INVOCATIONS = 3
MIN_TRACE_PAIRS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# -- workloads ----------------------------------------------------------------

def _read(out: Path, name: str) -> str:
    return (out / name).read_text(encoding="utf-8")


def _check_provenance(report: dict, hashes: dict) -> list[str]:
    got = report.get("provenance", {}).get("inputs")
    return [] if got == hashes else [f"provenance.inputs: {got!r} != {hashes!r}"]


def _check_forward(out: Path, expected: dict, hashes: dict) -> list[str]:
    report = json.loads(_read(out, "fwd.report.json"))
    return (
        reference.mismatches(report, expected, "report")
        + reference.csv_mismatches(_read(out, "fwd.path.csv"), expected["path"], "path.csv")
        + _check_provenance(report, hashes)
    )


def _check_compare(out: Path, expected: dict, hashes: dict) -> list[str]:
    report = json.loads(_read(out, "compare.json"))
    return reference.mismatches(report, expected, "report") + _check_provenance(report, hashes)


def _check_simulate(out: Path, expected: dict, hashes: dict) -> list[str]:
    summary = json.loads(_read(out, "summary.json"))
    return (
        reference.csv_mismatches(_read(out, "many_k_runs.csv"), expected["runs"], "many_k_runs.csv")
        + reference.csv_mismatches(_read(out, "many_k_summary.csv"), expected["summary"], "many_k_summary.csv")
        + reference.mismatches(summary["result"]["cells"], expected["summary"], "summary.json")
        + _check_provenance(summary, hashes)
    )


@dataclass(frozen=True)
class Workload:
    """CLI arguments, output files, reference and check of one workload."""

    argv: Callable[[list[str], str, int], list[str]]
    outputs: tuple[str, ...]
    expected: Callable[[list[Path], int], dict]
    check: Callable[[Path, dict, dict], list[str]]


WORKLOADS = {
    "forward-large": Workload(
        argv=lambda f, out, seed: ["forward", f[0], "--target", "y", "--test", f[1], "--output", f"{out}/fwd"],
        outputs=("fwd.path.csv", "fwd.report.json"),
        expected=lambda f, seed: reference.forward(f[0], f[1]),
        check=_check_forward,
    ),
    "compare-psis": Workload(
        argv=lambda f, out, seed: ["compare", *f, "--output", f"{out}/compare.json"],
        outputs=("compare.json",),
        expected=lambda f, seed: reference.compare(f),
        check=_check_compare,
    ),
    "simulate-many-k": Workload(
        argv=lambda f, out, seed: ["simulate", f[0], "--output", out, "--seed", str(seed)],
        outputs=("many_k_runs.csv", "many_k_summary.csv", "summary.json"),
        expected=lambda f, seed: reference.many_k(json.loads(f[0].read_text()), seed),
        check=_check_simulate,
    ),
}


# -- environment --------------------------------------------------------------

def _git_revision(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_revision": _git_revision(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


# -- processes ----------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], log: Path) -> dict:
    """Run ``cmd`` from the checkout root to completion; wall, CPU and peak RSS.

    ``launch.py`` starts it and measures it, so that its peak RSS does not
    include this process's memory.
    """
    proc = subprocess.run([sys.executable, "-S", str(BENCH / "launch.py"), str(log), "--", *cmd],
                          cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _digests(out: Path, names) -> dict | None:
    try:
        return {n: inputs.sha256(out / n) for n in names}
    except FileNotFoundError:
        return None


@dataclass
class Checker:
    """Checks one invocation's outputs; the first good outputs fix the bytes."""

    workload: Workload
    out: Path
    expected: dict
    hashes: dict
    digests: dict | None = None

    def clear(self) -> None:
        for name in self.workload.outputs:
            (self.out / name).unlink(missing_ok=True)

    def problems(self, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        digests = _digests(self.out, self.workload.outputs)
        if digests is None:
            return ["missing output file"]
        try:
            found = self.workload.check(self.out, self.expected, self.hashes)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"malformed output: {exc!r}"]
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            found.append("outputs differ from the first invocation's bytes")
        return found


# -- the run ------------------------------------------------------------------

def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _arg(path: Path) -> str:
    """A path as the CLI is given it: relative to the checkout root when inside it."""
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(path)


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One benchmark run; returns the full record (``record["result"]`` is printed)."""
    workload = WORKLOADS[name]
    spec = _spec()
    wdir = work / name
    shutil.rmtree(wdir, ignore_errors=True)
    files = inputs.make_inputs(name, wdir / "inputs", seed)
    hashes = {_arg(f): inputs.sha256(f) for f in files}
    out = wdir / "out"
    out.mkdir()
    argv = workload.argv([_arg(f) for f in files], _arg(out), seed)
    checker = Checker(workload, out, workload.expected(files, seed), hashes)

    samples, failures = [], []
    metrics: dict[str, float] = {}
    host_speed = None
    if not trace:
        ref = hostspeed.Reference()
        setups = [spawn([sys.executable, "-c", "import cvbias.cli"], wdir / "setup.log")
                  for _ in range(SETUP_REPEATS)]
        if any(s["exit_code"] != 0 for s in setups):
            raise RuntimeError(f"cannot import cvbias.cli; see {wdir / 'setup.log'}")
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_INVOCATIONS or time.perf_counter() < deadline:
            ref.measure()
            checker.clear()
            s = spawn([sys.executable, "-m", "cvbias.cli", *argv], wdir / f"cli-{len(samples)}.log")
            samples.append(s)
            failures.append(checker.problems(s["exit_code"]))
        ref.measure()
        raw = {
            "setup_s": statistics.fmean(s["wall_s"] for s in setups),
            "wall_s": statistics.fmean(s["wall_s"] for s in samples),
            "cpu_s": statistics.fmean(s["cpu_s"] for s in samples),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }
        factor = ref.factor()
        metrics = {k: v * factor if k.endswith("_s") else v for k, v in raw.items()}
        host_speed = {"factor": factor, "reference_s": hostspeed.REFERENCE_S,
                      "measured_s": ref.times, "raw_metrics": raw, "setups": setups}
    else:
        tracer = [sys.executable, str(BENCH / "tracer.py")]
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
            pair = []
            for traced in (0, 1):
                res = wdir / f"trace{traced}.json"
                res.unlink(missing_ok=True)
                checker.clear()
                s = spawn(tracer + ["--traced", str(traced), "--result", str(res),
                                    "--spans", str(wdir / "spans.jsonl"), "--", *argv],
                          wdir / f"trace{traced}-{len(samples)}.log")
                call = json.loads(res.read_text()) if s["exit_code"] == 0 else {"exit_code": s["exit_code"]}
                failures.append(checker.problems(call["exit_code"]))
                pair.append(call if call["exit_code"] == 0 else None)
            samples.append(pair)
        done = [p for p in samples if p[0] and p[1]]
        if not done:
            raise RuntimeError(f"no traced call completed; see the logs in {wdir}")
        for key in done[0][1]["layers"]:
            metrics[key] = statistics.median(p[1]["layers"][key] for p in done)
        metrics["trace.overhead_s"] = statistics.median(p[1]["wall_s"] - p[0]["wall_s"] for p in done)

    wanted = spec["per_layer" if trace else "end_to_end"]
    failed = sum(bool(f) for f in failures)
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "inputs": hashes,
        "error_rate": failed / len(failures),
        "problems": [f[:5] for f in failures if f],
        "samples": samples,
        "host_speed": host_speed,
        "result": result,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark one cvbias CLI workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cvbias" / "cli.py").is_file():
        print(f"perfbench: no cvbias source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        report(run(name, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench"))
    return 0


def report(record: dict) -> None:
    """Save the full record and print it; the JSON result is the last line."""
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"revision {env['git_revision']}  nproc {env['nproc']}  blas {env['blas']}  "
          f"threads {env['thread_env'] or 'unset'}")
    for path, digest in record["inputs"].items():
        print(f"input {path} sha256 {digest}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    result = record["result"]
    speed = record["host_speed"]
    if speed:
        print(f"host speed factor {speed['factor']:.4g} (reference task: mean "
              f"{statistics.fmean(speed['measured_s']):.4g} s of {len(speed['measured_s'])}, "
              f"nominal {speed['reference_s']} s); times below are raw means x factor")
    for name, m in result["metrics"].items():
        raw = f"  (raw {speed['raw_metrics'][name]:.6g})" if speed and name.endswith("_s") else ""
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{raw}")
    print(f"{'error_rate':34s} {record['error_rate']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} invocations)")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())

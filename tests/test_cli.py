import argparse
import builtins
import csv
import gc
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cvbias
from cvbias import cli, io, search, sim
from cvbias.cli import main
from cvbias.conjlm import PRIOR_PRESETS, Dataset, NigPrior, draw_posterior, fit, pointwise_loglik
from cvbias.errors import InvalidParameter, SchemaMismatch
from cvbias.sim import BlockDgpSpec, gen_block


def write_pointwise(path: Path, values) -> Path:
    path.write_text("elpd\n" + "\n".join(repr(float(v)) for v in values))
    return path


def write_loglik(path: Path, matrix) -> Path:
    path.write_text("\n".join(",".join(map(repr, row)) for row in np.asarray(matrix).tolist()))
    return path


def write_dataset(path: Path, data: Dataset, target: str = "y") -> Path:
    cols = data.columns or tuple(f"x{i}" for i in range(data.p))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(cols) + [target])
        for row, yv in zip(data.X, data.y):
            w.writerow([repr(float(v)) for v in row] + [repr(float(yv))])
    return path


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_one_line_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("cvbias: error:") and all(word in err for word in words)
    assert err.count("\n") == 1


def write_duplicate_columns(tmp_path: Path, seed: int) -> Path:
    # two identical columns of scale 1e9: 1/v0 is lost beside A'A, so the
    # posterior precision of {a, b} is singular in floating point
    rng = np.random.default_rng(seed)
    a = 1e9 * rng.standard_normal(20)
    return write_dataset(
        tmp_path / "dup.csv",
        Dataset(np.column_stack([a, a]), rng.standard_normal(20), columns=("a", "b")),
    )


@pytest.fixture
def toy_block(tmp_path):
    train, test = gen_block(
        BlockDgpSpec(n=60, p=10, rho=0.0, block_size=5, seed=91, n_test=60)
    )
    return (
        write_dataset(tmp_path / "train.csv", train),
        write_dataset(tmp_path / "test.csv", test),
    )


class TestCompare:
    def test_identical_models_equivalent(self, tmp_path, capsys):
        rng = np.random.default_rng(90)
        pw = rng.standard_normal(25) - 1.0
        a = write_pointwise(tmp_path / "a.csv", pw)
        b = write_pointwise(tmp_path / "b.csv", pw)
        assert main(["compare", str(a), str(b), "--baseline", "a"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["comparison"]["all_equivalent"] is True
        assert report["comparison"]["max_diff"] == 0.0
        assert all(w["pseudo_bma"] == 0.5 for w in report["weights"])

    def test_injected_winner_flagged(self, tmp_path, capsys):
        rng = np.random.default_rng(92)
        base = rng.standard_normal((10, 40)) * 0.3 - 1.0
        paths = [
            write_pointwise(tmp_path / f"m{i}.csv", base[i]) for i in range(9)
        ]
        paths.append(
            write_pointwise(tmp_path / "winner.csv", base[9] + 10.0 / 40)
        )
        assert main(["compare"] + [str(p) for p in paths]) == 0
        report = json.loads(capsys.readouterr().out)
        cmp_ = report["comparison"]
        assert cmp_["K"] == 9
        assert not cmp_["all_equivalent"]
        above = [d for d in cmp_["diffs"] if d["above_threshold"]]
        assert any(d["model"] == "winner" for d in above)

    def test_loglik_inputs_autodetected(self, tmp_path, capsys):
        rng = np.random.default_rng(93)
        data = Dataset(rng.standard_normal((20, 1)), rng.standard_normal(20))
        prior = NigPrior.diffuse()
        for name in ("m1", "m2"):
            draws = draw_posterior(fit(data, prior), 400, seed=hash(name) % 2**32)
            ll = pointwise_loglik(data, draws)
            with open(tmp_path / f"{name}.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                for row in ll:
                    w.writerow([repr(float(v)) for v in row])
        rc = main(
            ["compare", str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv"),
             "--baseline", "m1"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        names = {d["name"] for d in report["diagnostics"]}
        assert "psis_khat:m2" in names

    def test_each_input_read_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(94)
        paths = [write_pointwise(tmp_path / "pw.csv", rng.standard_normal(10))]
        ll = tmp_path / "ll.csv"
        draws = rng.standard_normal((200, 10)).tolist()
        ll.write_text("\n".join(",".join(map(repr, row)) for row in draws))
        paths.append(ll)
        log = tmp_path / "reads.txt"
        original = io.read_matrix_csv

        def spy(path):
            # a file, not a list, so that reads made in a forked child count
            with open(log, "a") as fh:
                fh.write(f"{path}\n")
            return original(path)

        monkeypatch.setattr(io, "read_matrix_csv", spy)
        monkeypatch.setattr(cli, "read_matrix_csv", spy)
        # two models need a named baseline, or the median check fails first
        assert main(["compare", *map(str, paths), "--baseline", "pw"]) == 0
        reads = log.read_text().splitlines()
        assert sorted(reads) == sorted(map(str, paths))

    @pytest.mark.parametrize(
        "bad, word",
        [
            ("nan_loglik", "log-likelihood matrix contains non-finite"),
            ("inf_pointwise", "pointwise elpd contains non-finite"),
        ],
        ids=["nan_loglik", "inf_pointwise"],
    )
    def test_scoring_error_names_the_file(self, tmp_path, capsys, bad, word):
        if bad == "inf_pointwise":
            paths = [
                write_pointwise(tmp_path / f"m{i}.csv", np.full(8, -1.0 - i))
                for i in range(3)
            ]
            write_pointwise(paths[1], [-1.0] * 7 + [float("-inf")])
        else:
            paths = write_logliks(tmp_path, 3)
            ll = np.full((200, 8), -1.0)
            ll[5, 3] = np.nan
            write_loglik(paths[1], ll)
        assert main(["compare", *map(str, paths)]) == 1
        assert_one_line_error(capsys, f"{paths[1]}: {word}")

    @pytest.mark.parametrize("kind", ["pointwise", "loglik", "pointwise_se"])
    def test_input_overflowing_when_squared_fails_without_warning(
        self, tmp_path, capsys, kind
    ):
        # squaring -1e200 overflows: the standard errors and the half-normal
        # scale would be infinite and the bias not finite; ±9.3e153 square
        # to a finite sum that overflows only in the standard error's n/(n-1)
        rng = np.random.default_rng(0)
        if kind.startswith("pointwise"):
            paths = [
                write_pointwise(tmp_path / f"m{i}.csv", rng.standard_normal(20) - 1.0)
                for i in range(3)
            ]
            values = rng.standard_normal(20) - 1.0
            if kind == "pointwise":
                values[0] = -1e200
            else:
                values[:2] = 9.3e153, -9.3e153
            write_pointwise(paths[0], values)
            word = "pointwise elpd overflows when squared"
        else:
            paths = write_logliks(tmp_path, 3)
            ll = rng.normal(-1.0, 0.3, (200, 8))
            ll[0, 0] = -1e200
            write_loglik(paths[0], ll)
            word = "log-likelihood overflows when squared"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["compare", *map(str, paths)]) == 1
        assert caught == []
        assert_one_line_error(capsys, f"{paths[0]}: {word}")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_paired_difference_overflowing_when_squared_fails_with_one_line(
        self, tmp_path, capsys, fmt
    ):
        # each input's squares are finite, so only the paired SE overflows;
        # it used to end in a traceback (json) or write se=inf (csv)
        paths = [
            write_pointwise(tmp_path / f"{name}.csv", np.array(values))
            for name, values in [("a", [9e153, 0, 1]), ("b", [-9e153, 0, 1]), ("c", [0, 0, 1])]
        ]
        out = tmp_path / "out.csv"
        args = ["compare", *map(str, paths), "--baseline", "b", "--format", fmt]
        assert main([*args, "--output", str(out)]) == 1
        assert_one_line_error(capsys, "paired difference of 'a' and 'b' overflows when squared")
        assert not out.exists()

    def test_single_input_fails(self, tmp_path, capsys):
        a = write_pointwise(tmp_path / "a.csv", np.zeros(5))
        assert main(["compare", str(a)]) == 1
        assert_one_line_error(capsys, "at least 2 models")

    @pytest.mark.parametrize(
        "names, flags, message",
        [
            (["a", "b"], ["--baseline", "zzz"], "baseline model 'zzz' not among inputs"),
            (["a"], [], "comparison needs at least 2 models"),
            (["a", "b"], [], "median baseline needs at least 3 models"),
        ],
        ids=["unknown_baseline", "single_input", "median_of_two"],
    )
    def test_baseline_checked_before_any_read(self, tmp_path, capsys, names, flags, message):
        # the inputs do not exist, so a read would fail with "cannot read"
        paths = [str(tmp_path / f"{name}.csv") for name in names]
        assert main(["compare", *paths, *flags]) == 1
        assert_one_line_error(capsys, message)

    def test_inconsistent_lengths_fail(self, tmp_path, capsys):
        a = write_pointwise(tmp_path / "a.csv", np.zeros(10))
        b = write_pointwise(tmp_path / "b.csv", np.zeros(12))
        assert main(["compare", str(a), str(b)]) == 1

    def test_negative_multiplier_rejected(self, tmp_path, capsys):
        paths = [
            write_pointwise(tmp_path / f"m{i}.csv", np.full(5, float(i))) for i in range(3)
        ]
        assert main(["compare", *map(str, paths), "--multiplier", "-1"]) == 1
        assert_one_line_error(capsys, "multiplier")

    @pytest.mark.parametrize(
        "flags, word",
        [
            (["--alpha", "0.9"], "alpha"),
            (["--multiplier", "-1"], "multiplier"),
            (["--multiplier", "inf"], "multiplier"),
        ],
    )
    def test_invalid_flags_rejected_before_any_read(
        self, tmp_path, monkeypatch, capsys, flags, word
    ):
        paths = [
            write_pointwise(tmp_path / f"m{i}.csv", np.full(5, float(i))) for i in range(3)
        ]
        reads = []
        monkeypatch.setattr(cli, "read_matrix_csv", lambda path: reads.append(path))
        assert main(["compare", *map(str, paths), *flags]) == 1
        assert reads == []
        assert_one_line_error(capsys, word)

    def test_duplicate_model_ids_fail(self, tmp_path, capsys):
        paths = []
        for i in range(3):
            (tmp_path / f"m{i}").mkdir()
            paths.append(
                write_pointwise(tmp_path / f"m{i}" / "model.csv", np.full(5, float(i)))
            )
        assert main(["compare", *map(str, paths), "--baseline", "model"]) == 1
        assert_one_line_error(capsys, "'model'")

    def test_non_finite_khat_written_as_null(self, tmp_path, capsys):
        # one distinct low draw in 200 leaves a single exceedance: k-hat is
        # +inf; a model of constant columns has k-hat -inf everywhere
        rng = np.random.default_rng(99)
        paths = []
        for i in range(3):
            ll = rng.standard_normal((200, 6)) * 0.2 - 1.0
            ll[:, 2] = -1.0
            ll[17 * i, 2] = -4.0 - i
            paths.append(tmp_path / f"m{i}.csv")
            paths[-1].write_text("\n".join(",".join(map(repr, r)) for r in ll.tolist()))
        flat = np.tile(np.linspace(-1.5, -0.5, 6), (200, 1))
        paths.append(tmp_path / "flat.csv")
        paths[-1].write_text("\n".join(",".join(map(repr, r)) for r in flat.tolist()))
        out = tmp_path / "compare.json"
        assert main(["compare", *map(str, paths), "--output", str(out)]) == 0
        diags = {d["name"]: d for d in json.loads(out.read_text())["diagnostics"]}
        for i in range(3):
            assert diags[f"psis_khat:m{i}"] == {
                "name": f"psis_khat:m{i}", "value": None, "status": "fail"
            }
        assert diags["psis_khat:flat"]["value"] is None
        assert diags["psis_khat:flat"]["status"] == "pass"

    @pytest.mark.filterwarnings("error")
    def test_tied_tail_with_theta_zero_on_the_gpd_grid(self, tmp_path, capsys):
        # column 1 of the first model: 105 tied lowest log-likelihoods above
        # 30 distinct ones fill the 135-draw tail; ceil(sqrt(135)) = 12 puts
        # one GPD grid point at theta = 0
        rng = np.random.default_rng(1)
        col = np.concatenate(
            [np.full(105, -5.0), -4.0 - rng.uniform(0, 0.9, 30), -rng.uniform(0, 1, 1865)]
        )
        rng.shuffle(col)
        ll = rng.normal(-1.0, 0.3, (2000, 4))
        ll[:, 1] = col
        paths = [write_loglik(tmp_path / "a.csv", ll)]
        for name in ("b", "c"):
            paths.append(write_loglik(tmp_path / f"{name}.csv", rng.normal(-1.0, 0.3, (2000, 4))))
        assert main(["compare", *map(str, paths)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    def test_subnormal_tail_is_reported_unfittable(self, tmp_path, capsys):
        # log-likelihoods 1000 (x905), 740 (x55) and 10..0 (x40): the tail's
        # lower quartile is a subnormal weight, so its GPD fit is undefined
        rng = np.random.default_rng(2)
        ll = rng.normal(-1.0, 0.3, (1000, 3))
        ll[:, 0] = np.concatenate(
            [np.full(905, 1000.0), np.full(55, 740.0), np.linspace(10.0, 0.0, 40)]
        )
        paths = [write_loglik(tmp_path / "a.csv", ll)]
        for name in ("b", "c"):
            paths.append(write_loglik(tmp_path / f"{name}.csv", rng.normal(-1.0, 0.3, (1000, 3))))
        out = tmp_path / "compare.json"
        assert main(["compare", *map(str, paths), "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        diags = {d["name"]: d for d in json.loads(out.read_text())["diagnostics"]}
        assert diags["psis_khat:a"] == {"name": "psis_khat:a", "value": None, "status": "fail"}
        assert diags["psis_khat:b"]["status"] == "pass"

    @pytest.mark.parametrize("count, status", [(12, "fail"), (10, "unavailable")])
    def test_null_tail_khat_is_unavailable_only_below_ten_differences(
        self, tmp_path, capsys, count, status
    ):
        # all but three models identical; those three have row 0 raised:
        # from 10 differences on, the tail has too few exceedances to fit
        paths = []
        for i in range(count):
            values = np.zeros(50)
            values[0] = max(0, i - count + 4) / 10
            paths.append(str(write_pointwise(tmp_path / f"m{i:02d}.csv", values)))
        assert main(["compare", *paths]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["comparison"]["K"] == count - 1
        assert report["comparison"]["reliable"] is False
        diags = {d["name"]: d for d in report["diagnostics"]}
        assert diags["tail_khat"] == {"name": "tail_khat", "value": None, "status": status}

    def test_csv_output(self, tmp_path):
        rng = np.random.default_rng(94)
        paths = [
            write_pointwise(tmp_path / f"m{i}.csv", rng.standard_normal(15))
            for i in range(3)
        ]
        out = tmp_path / "weights.csv"
        rc = main(
            ["compare", *map(str, paths), "--format", "csv", "--output", str(out)]
        )
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert set(rows[0]) >= {"model", "delta", "pseudo_bma"}

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_output_makes_its_directory(self, tmp_path, monkeypatch, capsys, fmt):
        # as forward and simulate make theirs
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(93)
        for name in ("a", "b", "c"):
            write_pointwise(tmp_path / f"{name}.csv", rng.standard_normal(20))
        out = f"nodir/sub/x.{fmt}"
        argv = ["compare", "a.csv", "b.csv", "c.csv", "--format", fmt, "--output", out]
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        if fmt == "csv":
            assert len(read_rows(tmp_path / out)) == 2
        else:
            report = json.loads((tmp_path / out).read_text())
            assert report["provenance"]["config"]["output"] == out

    def test_failed_run_leaves_no_directory_it_made(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        paths = write_logliks(tmp_path, 3)
        ll = np.full((200, 8), -1.0)
        ll[5, 3] = np.nan
        write_loglik(paths[1], ll)
        argv = ["compare", *(p.name for p in paths)]
        word = "m1.csv: log-likelihood matrix contains non-finite"
        for output in ("o/x.json", "a/b/x.json"):
            assert main([*argv, "--output", output]) == 1
            assert_one_line_error(capsys, word)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["m0.csv", "m1.csv", "m2.csv"]
        # a directory that was there before the run stays, with what it holds
        (tmp_path / "o").mkdir()
        (tmp_path / "o" / "keep").write_text("")
        assert main([*argv, "--output", "o/new/x.json"]) == 1
        assert_one_line_error(capsys, word)
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["keep"]


def write_logliks(tmp_path: Path, count: int, seed: int = 0) -> list[Path]:
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        ll = rng.normal(-1.0, 0.3, (200, 8))
        ll[:, 0] = -np.abs(rng.standard_t(2.0, 200))  # a heavy tail to smooth
        paths.append(write_loglik(tmp_path / f"m{i}.csv", ll))
    return paths


class Claims:
    """The tasks of one ``_map_on_cpus`` call on ``workers`` CPUs, seen from inside.

    Each task calls ``start(key)`` first. It logs this process's pid, then
    waits until ``workers`` processes have started a task: on two CPUs the
    child and this process then claim at least one task each, whatever the
    timing. ``start`` returns whether the task is picked: the first task
    that ``pick`` ("here" or "child") starts, or that key again later (in
    this process's in-order recompute).
    """

    def __init__(self, where: Path, workers: int, pick: str | None = None):
        self.here = str(os.getpid())
        self.workers = workers
        self.pick = pick
        self.started = where / "started.txt"
        self.picked = where / "picked.txt"
        self.started.write_text("")
        self.picked.write_text("")

    def start(self, key: str) -> bool:
        pid = str(os.getpid())
        with open(self.started, "a") as fh:
            fh.write(f"{pid}\n")
        deadline = time.monotonic() + 30
        while len(set(self.starts())) < self.workers and time.monotonic() < deadline:
            time.sleep(0.001)
        picked = [line.split(" ", 1) for line in self.picked.read_text().splitlines()]
        if picked:
            hit = picked[0][1] == key
        else:
            hit = self.pick == ("here" if pid == self.here else "child")
        if hit:
            with open(self.picked, "a") as fh:
                fh.write(f"{pid} {key}\n")
        return hit

    def starts(self) -> list[str]:
        """The pid of each task started so far."""
        return self.started.read_text().split()

    def picks(self) -> list[str]:
        """The pid of each picked task."""
        return [line.split(" ", 1)[0] for line in self.picked.read_text().splitlines()]


class TestMapOnCpus:
    """Workers claim items on demand from one pipe."""

    def test_a_slow_item_leaves_the_rest_to_the_other_worker(self, tmp_path, usable_cpus):
        usable_cpus(2)
        log = tmp_path / "done.txt"
        log.write_text("")

        def square(x):
            # item 0 is held until the other worker has done all nine others;
            # a fixed share of them would leave it waiting on its own
            deadline = time.monotonic() + 30
            while x == 0 and log.read_text().count("\n") < 9 and time.monotonic() < deadline:
                time.sleep(0.001)
            with open(log, "a") as fh:
                fh.write(f"{x} {os.getpid()}\n")
            return x * x

        assert cli._map_on_cpus(square, list(range(10))) == [x * x for x in range(10)]
        lines = log.read_text().splitlines()
        done_by = dict(line.split() for line in lines)
        assert len(lines) == 10 and lines[-1].startswith("0 ")
        assert {done_by[str(x)] for x in range(1, 10)} == {done_by["1"]} != {done_by["0"]}

    def test_more_items_than_a_pipe_holds(self, tmp_path, usable_cpus):
        # more workers than CPUs, and more claims than one pipe buffer holds
        # one by one: each claim then names a run of items
        usable_cpus(4)
        log = tmp_path / "done.txt"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        items = list(range(20_000))

        def negate(x):
            os.write(fd, f"{x}\n".encode())
            return -x

        def hung(signum, frame):
            raise TimeoutError("_map_on_cpus hung")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            assert cli._map_on_cpus(negate, items) == list(map(negate, items))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            os.close(fd)
        # each item once in the call, and once more in the plain loop
        assert Counter(map(int, log.read_text().split())) == Counter(items + items)

    def test_no_cpu_affinity_is_set(self, tmp_path, monkeypatch, usable_cpus):
        # the scheduler places the workers: a pool that pinned them fails here
        usable_cpus(2)

        def refuse(pid, cpus):
            raise PermissionError("no CPU affinity may be set")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert cli._map_on_cpus(abs, [-3, 2, -1]) == [3, 2, 1]
        paths = write_logliks(tmp_path, 3)
        assert main(["compare", *map(str, paths), "--output", str(tmp_path / "c.json")]) == 0
        cfg = write_simulate_config(tmp_path, "many_k")
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 0


class TestCompareAcrossCpus:
    """``compare`` loads its inputs in forked children and in this process."""

    def test_report_identical_on_one_and_two_cpus(self, tmp_path, monkeypatch, usable_cpus):
        paths = write_logliks(tmp_path, 5)
        original = cli.read_matrix_csv
        out = tmp_path / "compare.json"
        reports, readers = [], []
        for cpus in (1, 2):
            usable_cpus(cpus)
            claims = Claims(tmp_path, cpus)

            def spy(path):
                claims.start(str(path))
                return original(path)

            monkeypatch.setattr(cli, "read_matrix_csv", spy)
            assert main(["compare", *map(str, paths), "--output", str(out)]) == 0
            reports.append(out.read_bytes())
            readers.append(claims.starts())
        assert reports[0] == reports[1]
        assert set(readers[0]) == {str(os.getpid())}
        assert len(set(readers[1])) == 2 and str(os.getpid()) in readers[1]
        assert len(readers[0]) == len(readers[1]) == 5

    def test_first_bad_file_in_argument_order_is_named(self, tmp_path, usable_cpus, capsys):
        # whichever process claims m1 and m2, m1 is named
        usable_cpus(2)
        paths = write_logliks(tmp_path, 4)
        paths[1].write_text("a,b\n1,x\n")
        paths[2].write_text("1,2\n3\n")
        assert main(["compare", *map(str, paths)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cvbias: error:") and err.count("\n") == 1
        assert str(paths[1]) in err and str(paths[2]) not in err

    def test_warning_in_a_childs_share_reaches_the_caller(
        self, tmp_path, monkeypatch, usable_cpus
    ):
        # the first file the child reads has 50 draws, as it has when read here
        usable_cpus(2)
        paths = write_logliks(tmp_path, 3)
        claims = Claims(tmp_path, 2, pick="child")
        original = cli.read_matrix_csv

        def spy(path):
            short = claims.start(str(path))
            values, header, digest = original(path)
            return (values[:50] if short else values), header, digest

        monkeypatch.setattr(cli, "read_matrix_csv", spy)
        with pytest.warns(UserWarning, match="PSIS with 50 draws") as caught:
            rc = main(["compare", *map(str, paths), "--output", str(tmp_path / "c.json")])
        assert rc == 0 and len(caught) == 1
        # raised first in the child, then once more here
        picks = claims.picks()
        assert len(set(picks)) == 2 and picks[-1] == str(os.getpid())

    @pytest.mark.parametrize("pick", [None, "here", "child"], ids=["ok", "own_share", "childs_share"])
    def test_no_child_process_outlives_compare(
        self, tmp_path, monkeypatch, usable_cpus, capsys, pick
    ):
        # the first file this process or the child reads fails, as it does when read again
        usable_cpus(2)
        paths = write_logliks(tmp_path, 4)
        claims = Claims(tmp_path, 2, pick)
        original = cli.read_matrix_csv

        def spy(path):
            if claims.start(str(path)):
                raise SchemaMismatch(f"{path}: this file fails")
            return original(path)

        monkeypatch.setattr(cli, "read_matrix_csv", spy)
        rc = main(["compare", *map(str, paths), "--output", str(tmp_path / "c.json")])
        assert rc == (0 if pick is None else 1)
        if pick is not None:
            assert_one_line_error(capsys, "this file fails")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestForward:
    def test_toy_path_sizes(self, tmp_path, capsys):
        rng = np.random.default_rng(95)
        X = rng.standard_normal((40, 3))
        y = X @ np.array([1.0, 0.5, 0.0]) + rng.standard_normal(40)
        data_csv = write_dataset(
            tmp_path / "toy.csv", Dataset(X, y, columns=("a", "b", "c"))
        )
        assert main(["forward", str(data_csv), "--target", "y"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["path"]) == 4  # sizes 0..3
        verdicts = report["verdicts"]
        assert all(0 <= verdicts[k] <= 3 for k in verdicts)

    def test_singular_posterior_fails_with_one_line(self, tmp_path, capsys):
        data_csv = write_duplicate_columns(tmp_path, seed=96)
        argv = ["forward", str(data_csv), "--target", "y", "--test", str(data_csv)]
        assert main(argv) == 1
        assert_one_line_error(capsys, "singular")

    def test_singular_extension_fails_the_same_without_test(self, tmp_path, capsys):
        # the LOO kernel must not score {a, b} from rounding noise in s while
        # the test-set refit of that model finds its precision singular (at
        # this seed s is positive but far below n*eps*x'x)
        data_csv = write_duplicate_columns(tmp_path, seed=90)
        argv = ["forward", str(data_csv), "--target", "y"]
        errors = []
        for extra in ([], ["--test", str(data_csv)]):
            assert main(argv + extra) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("cvbias: error:") and "singular" in errors[0]

    def test_reordered_test_columns_fail(self, tmp_path, capsys):
        rng = np.random.default_rng(97)
        X = rng.standard_normal((60, 3))
        y = X @ np.array([1.0, 0.5, 0.0]) + rng.standard_normal(60)
        train = write_dataset(tmp_path / "train.csv", Dataset(X, y, columns=("a", "b", "c")))
        test = write_dataset(
            tmp_path / "test_perm.csv", Dataset(X[:, ::-1], y, columns=("c", "b", "a"))
        )
        argv = ["forward", str(train), "--target", "y", "--test", str(test)]
        assert main(argv) == 1
        assert_one_line_error(capsys, "'c'")

    def test_duplicated_header_fails(self, tmp_path, capsys):
        rng = np.random.default_rng(98)
        X = rng.standard_normal((30, 2))
        y = X[:, 0] + rng.standard_normal(30)
        data_csv = tmp_path / "dup.csv"
        with open(data_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["a", "y", "b", "y"])
            for row, yv in zip(X, y):
                w.writerow([repr(float(v)) for v in (row[0], yv, row[1], yv)])
        assert main(["forward", str(data_csv), "--target", "y"]) == 1
        assert_one_line_error(capsys, "duplicate column names: y")

    def test_no_predictor_column_names_the_cause(self, tmp_path, capsys):
        # without --max-size the search size defaults to the predictor count, 0
        data = tmp_path / "y_only.csv"
        data.write_text("y\n" + "\n".join(map(str, range(6))) + "\n")
        assert main(["forward", str(data), "--target", "y"]) == 1
        assert_one_line_error(capsys, "training data has no predictor columns")

    def test_missing_target_column(self, toy_block, capsys):
        train, _ = toy_block
        assert main(["forward", str(train), "--target", "zzz"]) == 1
        assert "zzz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, word",
        [
            (["--max-size", "0"], "max_size"),
            (["--max-size", "-3"], "max_size"),
            (["--alpha", "0.9"], "alpha"),
            (["--multiplier", "-1"], "multiplier"),
            (["--multiplier", "inf"], "multiplier"),
        ],
    )
    def test_invalid_flags_fail_with_one_line(self, toy_block, capsys, flags, word):
        train, _ = toy_block
        assert main(["forward", str(train), "--target", "y", *flags]) == 1
        assert_one_line_error(capsys, word)

    @pytest.mark.parametrize(
        "flags, word", [(["--alpha", "0.9"], "alpha"), (["--multiplier", "-1"], "multiplier")]
    )
    def test_invalid_flags_rejected_before_search(
        self, toy_block, monkeypatch, capsys, flags, word
    ):
        calls = []
        monkeypatch.setattr(search, "forward_search", lambda *a, **k: calls.append("search"))
        monkeypatch.setattr(cli, "read_dataset_csv", lambda *a, **k: calls.append("read"))
        train, _ = toy_block
        assert main(["forward", str(train), "--target", "y", *flags]) == 1
        assert calls == []
        assert_one_line_error(capsys, word)

    @pytest.mark.parametrize("bad_test", ["missing", "no_target", "no_header"])
    def test_bad_test_csv_fails_before_search(
        self, toy_block, tmp_path, monkeypatch, capsys, bad_test
    ):
        calls = []
        monkeypatch.setattr(search, "forward_search", lambda *a, **k: calls.append(a))
        train, test = toy_block
        test = tmp_path / f"{bad_test}.csv"
        if bad_test == "no_target":
            test.write_text("x0,x1\n1.0,2.0\n")
        elif bad_test == "no_header":
            test.write_text("1.0,2.0\n3.0,4.0\n")
        argv = ["forward", str(train), "--target", "y", "--test", str(test)]
        assert main(argv) == 1
        assert calls == []
        word = {"missing": str(test), "no_target": "'y'", "no_header": "needs a header row"}
        assert_one_line_error(capsys, word[bad_test])

    @pytest.mark.parametrize(
        "case, word",
        [
            # y[0] = 1e200: the response's squares overflow
            ("response", "training response"),
            # x0 holds 1e300, -1e300 and 1e-300: a raw diff of exactly 0.0
            # and exit 0 before the check
            ("predictor", "training predictor 'x0'"),
            # a clean training set with y[0] = 1e200 in --test only: a
            # test_mlpd of -inf before the check
            ("test_response", "test response"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_column_fails_before_any_fit(
        self, tmp_path, monkeypatch, capsys, case, word, fmt
    ):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((20, 2)), rng.standard_normal(20)
        test_X, test_y = X.copy(), y.copy()
        if case == "response":
            y[0] = 1e200
        elif case == "predictor":
            X[:3, 0] = [1e300, -1e300, 1e-300]
        else:
            test_y[0] = 1e200
        cols = ("x0", "x1")
        train = write_dataset(tmp_path / "train.csv", Dataset(X, y, columns=cols))
        test = write_dataset(tmp_path / "test.csv", Dataset(test_X, test_y, columns=cols))
        fits = []
        monkeypatch.setattr(search, "fit", lambda *a: fits.append(a))
        argv = ["forward", str(train), "--target", "y", "--format", fmt]
        argv += ["--test", str(test)] if case == "test_response" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert fits == []
        assert_one_line_error(capsys, word)

    # every sum of squares fits, yet the LOO densities overflow: warnings,
    # then a multiplier blamed, before the check; with one extreme --test
    # cell, a test_mlpd of -inf, written to the CSV or failing the JSON writer
    LOO_OVERFLOWS = {
        "response": "training response overflows the base model's LOO elpd",
        "predictor": "training predictor 'x2' overflows the LOO elpd at size 1",
        "test_response": "test response overflows the base model's mlpd",
        "test_predictor": "test predictor 'x0' overflows the mlpd at size 1",
    }

    @pytest.mark.parametrize("case", sorted(LOO_OVERFLOWS))
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("prior", ["diffuse", "tight"])
    def test_loo_overflow_fails_with_one_line(self, tmp_path, capsys, case, fmt, prior):
        def six_rows(name, x2=-0.7, y2=0.2):
            x, y = [0.3, 1.2, x2, 1.1, -0.2, 0.8], [-1.2, 0.5, y2, -0.4, 0.9, 0.1]
            data = Dataset(np.array(x)[:, None], np.array(y))
            return str(write_dataset(tmp_path / name, data))

        if case == "predictor":
            # x2 = 1e154 in one row of a 7 x 3 normal design
            rng = np.random.default_rng(1)
            X = rng.standard_normal((7, 3))
            X[3, 2] = 1e154
            train = str(write_dataset(tmp_path / "d.csv", Dataset(X, rng.standard_normal(7))))
        else:
            # the held-out density overflows only where (y - loc)^2 does, so
            # the test response case puts the base location on the far side
            y2 = {"response": 1e154, "test_response": -1e153}.get(case, 0.2)
            train = six_rows("d.csv", y2=y2)
        argv = ["forward", train, "--target", "y", "--prior", prior, "--format", fmt]
        if case == "test_response":
            argv += ["--test", six_rows("t.csv", y2=1.34e154)]
        elif case == "test_predictor":
            argv += ["--test", six_rows("t.csv", x2=1e154)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert_one_line_error(capsys, self.LOO_OVERFLOWS[case])

    @pytest.mark.parametrize("prior", ["diffuse", "tight"])
    def test_loo_of_a_large_response_stays_finite(self, tmp_path, capsys, prior):
        # a tenth of the response case above: every LOO density fits
        X = np.array([[0.3], [1.2], [-0.7], [1.1], [-0.2], [0.8]])
        y = np.array([-1.2, 0.5, 1e153, -0.4, 0.9, 0.1])
        path = write_dataset(tmp_path / "d.csv", Dataset(X, y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["forward", str(path), "--target", "y", "--prior", prior]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(row["elpd"]) for row in report["path"])

    def test_output_files_and_determinism(self, toy_block, tmp_path):
        train, test = toy_block
        args = [
            "forward", str(train), "--target", "y", "--test", str(test),
            "--max-size", "6", "--output",
        ]
        assert main(args + [str(tmp_path / "run1")]) == 0
        assert main(args + [str(tmp_path / "run2")]) == 0
        csv1 = (tmp_path / "run1.path.csv").read_bytes()
        csv2 = (tmp_path / "run2.path.csv").read_bytes()
        assert csv1 == csv2
        report = json.loads((tmp_path / "run1.report.json").read_text())
        assert report["provenance"]["tool_version"]
        rows = read_rows(tmp_path / "run1.path.csv")
        assert len(rows) == 7
        assert rows[1]["test_mlpd"] != ""

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["missing.csv", "--target", "y"], "cannot read missing.csv"),
            (["d.csv", "--target", "zzz"], "target column 'zzz' not found"),
            (["d.csv", "--target", "y", "--max-size", "5"], "max_size 5 exceeds 1 predictors"),
        ],
        ids=["missing_csv", "unknown_target", "max_size"],
    )
    def test_failed_run_leaves_no_directory_it_made(
        self, tmp_path, monkeypatch, capsys, argv, word
    ):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(98)
        write_dataset(
            tmp_path / "d.csv", Dataset(rng.standard_normal((20, 1)), rng.standard_normal(20))
        )
        for prefix in ("o/run", "a/b/run"):
            assert main(["forward", *argv, "--output", prefix]) == 1
            assert_one_line_error(capsys, word)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]
        # a directory that was there before the run stays, with what it holds
        (tmp_path / "o").mkdir()
        (tmp_path / "o" / "keep").write_text("")
        assert main(["forward", *argv, "--output", "o/new/run"]) == 1
        assert_one_line_error(capsys, word)
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["keep"]

    def test_prefix_ending_in_a_separator_names_the_directory(self, tmp_path, capsys):
        # the directory is made before the search, not missed by the writes after it
        rng = np.random.default_rng(99)
        data = write_dataset(
            tmp_path / "d.csv", Dataset(rng.standard_normal((20, 2)), rng.standard_normal(20))
        )
        out = tmp_path / "new"
        assert main(["forward", str(data), "--target", "y", "--output", f"{out}{os.sep}"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [".path.csv", ".report.json"]


class TestSimulate:
    def test_empty_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_config_fails_with_one_line(self, tmp_path, capsys, where):
        cfg = tmp_path / "cfg.json"
        if where == "directory":
            cfg.mkdir()
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert_one_line_error(capsys, f"cannot read config {cfg}")

    @pytest.mark.parametrize(
        "data, word",
        [
            (b'{"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2, "x": "\xff"}',
             "can't decode byte 0xff"),
            (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
        ],
        ids=["not_utf8", "too_deep"],
    )
    def test_undecodable_config_fails_with_one_line(self, tmp_path, capsys, data, word):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert_one_line_error(capsys, str(cfg), word)

    def test_config_with_a_byte_order_mark_runs(self, tmp_path):
        # the mark is dropped, as the CSV readers drop it, and the digest is
        # that of every byte read, the mark included
        cfg = tmp_path / "cfg.json"
        config = {"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2}
        cfg.write_bytes(json.dumps(config).encode("utf-8-sig"))
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        digest = hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert summary["provenance"]["inputs"] == {str(cfg): digest}

    def test_unknown_experiment(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"experiment": "bogus"}')
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1

    def test_many_k_smoke(self, tmp_path, capsys):
        cfg = tmp_path / "mk.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "many_k",
                    "base_seed": 7,
                    "n": 40,
                    "beta_delta": 0.0,
                    "k_grid": [2, 5],
                    "replications": 3,
                    "n_test": 50,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--output", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["many_k_runs.csv", "many_k_summary.csv", "summary.json"]
        summary = read_rows(out / "many_k_summary.csv")
        assert [int(r["K"]) for r in summary] == [2, 5]
        assert {"mean_max_diff", "predicted_threshold"} <= set(summary[0])
        runs = read_rows(out / "many_k_runs.csv")
        assert len(runs) == 6
        assert all(r["seed"] and r["spec_hash"] for r in runs)

    def test_forward_smoke_and_multiplier_column(self, tmp_path):
        cfg = tmp_path / "fw.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "forward",
                    "base_seed": 7,
                    "p": 10,
                    "n_grid": [50],
                    "rho_grid": [0.0],
                    "n_test": 100,
                    # a number is passed on as a float: 1 reads 1.0
                    "multipliers": [1, 1.5, 2],
                    "replications": 2,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--output", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["forward_path.csv", "forward_runs.csv", "summary.json"]
        runs = read_rows(out / "forward_runs.csv")
        assert len(runs) == 6  # 2 reps x 3 multipliers
        assert {r["multiplier"] for r in runs} == {"1.0", "1.5", "2.0"}
        # one long table: 2 reps x sizes 0..10 for each multiplier
        path = Counter(r["multiplier"] for r in read_rows(out / "forward_path.csv"))
        assert path == {"1.0": 2 * 11, "1.5": 2 * 11, "2.0": 2 * 11}

    @pytest.mark.parametrize(
        "config, word",
        [
            ({"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 1}, "replications"),
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [1.5],
                 "replications": 1},
                "rho",
            ),
            ({"experiment": "many_k", "n": 30, "k_grid": [3], "replications": "x"}, "replications"),
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                 "multipliers": "ab", "replications": 1},
                "multipliers",
            ),
            (
                {"experiment": "forward", "p": 10, "n_grid": [], "rho_grid": [0.0],
                 "replications": 1},
                "n_grid",
            ),
            ({"experiment": "many_k", "n": 30, "k_grid": [], "replications": 2}, "k_grid"),
            ({"experiment": "many_k", "n": 100, "k_grid": [3, 3], "replications": 3}, "k_grid"),
            (
                {"experiment": "forward", "p": 10, "n_grid": [50, 50], "rho_grid": [0.0],
                 "replications": 1},
                "n_grid",
            ),
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.5, 0.5],
                 "replications": 1},
                "rho_grid",
            ),
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                 "multipliers": [1, 1.0], "replications": 1},
                "multipliers",
            ),
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                 "priors": ["tight", "diffuse", "tight"], "replications": 1},
                "priors",
            ),
            *[
                (
                    {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                     "replications": 1, key: value},
                    key,
                )
                for key, value in [
                    ("block_size", 0),
                    ("block_size", -5),
                    ("n_test", -3),
                    ("sigma2", -1),
                    ("xi", "nan"),
                ]
            ],
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                 "multipliers": [1e308], "replications": 1},
                "multiplier",
            ),
            (
                '{"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],'
                ' "multipliers": [1e400], "replications": 1}',
                "multiplier",
            ),
            # reference_test_se is a standard deviation over the test points
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                 "replications": 1, "n_test": 1},
                "n_test",
            ),
            # integer keys take JSON integers only, number keys JSON numbers only
            *[
                (
                    {"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2,
                     key: value},
                    f"{key} must be",
                )
                for key, value in [
                    ("n", 30.9),
                    ("base_seed", True),
                    ("k_grid", [3, 4.7]),
                    ("replications", "2"),
                    ("base_seed", 1.5),
                    ("beta_delta", "0.5"),
                    ("beta_delta", False),
                    ("alpha", True),
                ]
            ],
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": ["0.0"],
                 "replications": 1},
                "rho_grid must be",
            ),
            # a misspelt key or one of another experiment is not ignored
            (
                {"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2,
                 "beta_detla": 0.5},
                "unknown key(s): beta_detla",
            ),
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                 "replications": 1, "k_grid": [3]},
                "unknown key(s): k_grid",
            ),
            ('{"experiment": "many_k",\n "n": }', "invalid JSON at line 2"),
            # a negative size used to reach numpy as a traceback
            (
                {"experiment": "forward", "p": 10, "n_grid": [-1], "rho_grid": [0.0],
                 "replications": 1},
                "n must be >= 1, got -1",
            ),
            # the many_k test sets are drawn from specs with n = n_test
            (
                {"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2,
                 "n_test": 1},
                "n_test must be >= 2, got 1",
            ),
            # one kind for every real value, named "number" as in README's table
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                 "xi": "0.5", "replications": 1},
                "xi must be number, got '0.5'",
            ),
            # an integer past the float range reads as infinite, as 1e400 does
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                 "multipliers": [10**400], "replications": 1},
                "multiplier",
            ),
            ({"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2,
              "alpha": -(10**400)}, "alpha"),
        ],
    )
    def test_invalid_config_values_fail_with_one_line(self, tmp_path, capsys, config, word):
        cfg = tmp_path / "bad.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert_one_line_error(capsys, word)

    @pytest.mark.parametrize(
        "config, word",
        [
            (
                '{"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],'
                ' "multipliers": [1.5, 1e400], "replications": 1}',
                "multiplier",
            ),
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                 "multipliers": [-1], "replications": 1},
                "multiplier",
            ),
            (
                {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                 "alpha": 7, "replications": 1},
                "alpha",
            ),
            ({"experiment": "many_k", "n": 30, "k_grid": [3], "alpha": 7,
              "replications": 2}, "alpha"),
            ({"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2,
              "beta_detla": 0.5}, "beta_detla"),
            # a prior is a JSON string naming a preset: 5 is not the name '5'
            *[
                (
                    {"experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
                     "priors": priors, "replications": 1},
                    "priors must be one of 'diffuse', 'tight'",
                )
                for priors in ([5], ["tights"])
            ],
        ],
    )
    def test_bad_values_fail_before_any_work(
        self, tmp_path, monkeypatch, capsys, config, word
    ):
        ran = []
        monkeypatch.setattr(sim, "run_forward_experiment", lambda *a, **k: ran.append(a))
        monkeypatch.setattr(sim, "run_many_k", lambda *a, **k: ran.append(a))
        cfg = tmp_path / "bad.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--output", str(out)]) == 1
        assert_one_line_error(capsys, word)
        assert ran == [] and not out.exists()

    def test_overflowing_draw_fails_with_one_line_and_no_warning(self, tmp_path, capsys):
        # X @ w overflows in gen_block; numpy used to warn before the error
        cfg = tmp_path / "fw.json"
        cfg.write_text(json.dumps({
            "experiment": "forward", "p": 10, "n_grid": [40], "rho_grid": [0.0],
            "replications": 1, "xi": 1e308,
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert_one_line_error(capsys, "dataset contains non-finite entries")

    @pytest.mark.parametrize(
        "config, word",
        [
            ({"experiment": "many_k", "n": 10**30, "k_grid": [3], "replications": 2},
             f"n={10**30} x K=3"),
            ({"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2,
              "n_test": 10**30}, f"n_test={10**30} x K=3"),
            ({"experiment": "many_k", "n": 30, "k_grid": [10**30], "replications": 2},
             f"n=30 x K={10**30}"),
            ({"experiment": "forward", "p": 10**30, "n_grid": [40], "rho_grid": [0.0],
              "replications": 1, "guard": False}, f"n=40 x p={10**30}"),
        ],
        ids=["n", "n_test", "k_grid", "p_unguarded"],
    )
    def test_huge_size_fails_with_one_line(self, tmp_path, monkeypatch, capsys, config, word):
        # numpy cannot index these arrays: the size is named before any draw
        drew = []
        monkeypatch.setattr(sim, "gen_nested", lambda *a: drew.append(a))
        monkeypatch.setattr(sim, "gen_block", lambda *a: drew.append(a))
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--output", str(out)]) == 1
        assert_one_line_error(capsys, word, "numpy cannot index")
        assert drew == [] and not out.exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": "many_k", "n": 2, "k_grid": [3], "replications": 2},
            {"experiment": "forward", "p": 10, "n_grid": [1000, 2], "rho_grid": [0.0],
             "replications": 1},
        ],
        ids=["many_k", "forward"],
    )
    def test_too_few_rows_for_loo_fail_before_any_draw(
        self, tmp_path, monkeypatch, capsys, config
    ):
        # an n too small for exact LOO is named before any cell is drawn
        drew = []
        monkeypatch.setattr(sim, "gen_nested", lambda *a: drew.append(a))
        monkeypatch.setattr(sim, "gen_block", lambda *a: drew.append(a))
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--output", str(out)]) == 1
        assert_one_line_error(capsys, "n must be >= 3 for exact LOO, got 2")
        assert drew == [] and not out.exists()

    def test_out_of_memory_fails_with_one_line(self, tmp_path, monkeypatch, capsys):
        # a size numpy can index may still be more than the machine holds
        def exhaust(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setattr(sim, "run_many_k", exhaust)
        cfg = tmp_path / "mk.json"
        cfg.write_text(json.dumps(
            {"experiment": "many_k", "n": 10**12, "k_grid": [3], "replications": 2}
        ))
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--output", str(out)]) == 1
        assert_one_line_error(capsys, "cvbias: error: out of memory: Unable to allocate 14.6 TiB")
        assert not out.exists()

    @pytest.mark.parametrize("guard", ["false", "true", 0, None])
    def test_guard_must_be_json_boolean(self, tmp_path, capsys, guard):
        cfg = tmp_path / "fw.json"
        cfg.write_text(json.dumps({
            "experiment": "forward", "p": 35, "n_grid": [40], "rho_grid": [0.0],
            "replications": 1, "n_test": 40, "guard": guard,
        }))
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert_one_line_error(capsys, "guard must be boolean")

    def test_guard_false_lifts_desk_scale_guard(self, tmp_path, capsys):
        config = {
            "experiment": "forward", "p": 65, "n_grid": [40], "rho_grid": [0.0],
            "replications": 1, "n_test": 40,
        }
        cfg = tmp_path / "fw.json"
        cfg.write_text(json.dumps(config))
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        # the message names the config's spelling of the override
        assert_one_line_error(capsys, "desk-scale guard", '"guard": false')
        cfg.write_text(json.dumps({**config, "p": 10, "replications": 21}))
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert_one_line_error(capsys, "replications <= 20", '"guard": false')
        cfg.write_text(json.dumps({**config, "guard": False}))
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "config, word",
        [
            ({"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 1},
             "replications must be >= 2"),
            ({"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2, "n_test": 1},
             "n_test must be >= 2, got 1"),
            ({"experiment": "forward", "p": 65, "n_grid": [40], "rho_grid": [0.0],
              "replications": 1, "n_test": 40}, "desk-scale guard"),
            ({"experiment": "many_k", "n": 30, "k_grid": [3, 4], "replications": 10**12},
             f"{10**12} x 2 = {2 * 10**12} rows"),
        ],
        ids=["replications", "n_test", "guard", "many_k_rows"],
    )
    def test_failed_run_leaves_no_directory_it_made(self, tmp_path, capsys, config, word):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        for output in ("o", "a/b/o"):
            assert main(["simulate", str(cfg), "--output", str(tmp_path / output)]) == 1
            assert_one_line_error(capsys, word)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]
        # a directory that was there before the run stays, with what it holds
        (tmp_path / "o").mkdir()
        (tmp_path / "o" / "keep").write_text("")
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o" / "new")]) == 1
        assert_one_line_error(capsys, word)
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["keep"]

    def test_bundled_configs_well_formed(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        required = {
            "null_expected_max.json": {"experiment", "k_grid", "n", "replications"},
            "forward_correction.json": {
                "experiment", "p", "n_grid", "rho_grid", "replications",
            },
            "multiplier_sweep.json": {"experiment", "multipliers", "replications"},
        }
        for name, keys in required.items():
            config = json.loads((root / name).read_text())
            assert keys <= set(config), name
        sweep = json.loads((root / "multiplier_sweep.json").read_text())
        assert sweep["multipliers"] == [1.0, 1.5, 2.0]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "mk.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "many_k",
                    "base_seed": 3,
                    "n": 30,
                    "k_grid": [3],
                    "replications": 2,
                    "n_test": 30,
                }
            )
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", str(cfg), "--output", str(out1)]) == 0
        assert main(["simulate", str(cfg), "--output", str(out2)]) == 0
        assert (out1 / "many_k_runs.csv").read_bytes() == (
            out2 / "many_k_runs.csv"
        ).read_bytes()

    def test_seed_flag_overrides_base_seed(self, tmp_path):
        config = {"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2,
                  "n_test": 30}

        def runs(base_seed, *flags):
            cfg = tmp_path / f"mk{base_seed}.json"
            cfg.write_text(json.dumps({**config, "base_seed": base_seed}))
            out = tmp_path / f"o{base_seed}{''.join(flags)}"
            assert main(["simulate", str(cfg), "--output", str(out), *flags]) == 0
            return (out / "many_k_runs.csv").read_bytes()

        assert runs(3, "--seed", "5") == runs(5) != runs(3)


def write_simulate_config(tmp_path: Path, experiment: str) -> Path:
    """A small config of ``experiment`` with at least three tasks.

    The many-K grid runs in three blocks (one of K = 3, then three and one
    replications of K = 200) and the forward one as four replications over
    two priors.
    """
    if experiment == "many_k":
        config = {"experiment": "many_k", "base_seed": 11, "n": 50, "k_grid": [3, 200],
                  "replications": 4, "n_test": 40}
    else:
        config = {"experiment": "forward", "base_seed": 11, "p": 10, "n_grid": [30],
                  "rho_grid": [0.5], "n_test": 40, "multipliers": [1.0, 2.0],
                  "priors": ["diffuse", "tight"], "replications": 2}
    path = tmp_path / f"{experiment}.json"
    path.write_text(json.dumps(config))
    return path


class TestEachInputReadOnce:
    """Every input is opened once, and the report's digest is that of the
    bytes parsed, even when the file is rewritten afterwards."""

    def test_compare_and_forward_open_each_input_once(self, tmp_path, monkeypatch, toy_block):
        log = tmp_path / "opens.txt"
        original = builtins.open

        def spy(file, *args, **kwargs):
            # a file, not a list, so that opens made in a forked child count
            if str(file) != str(log):
                with original(log, "a") as fh:
                    fh.write(f"{file}\n")
            return original(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        paths = [str(p) for p in write_logliks(tmp_path, 3)]
        assert main(["compare", *paths]) == 0
        assert sorted(log.read_text().splitlines()) == sorted(paths)
        log.unlink()
        train, test = map(str, toy_block)
        assert main(["forward", train, "--target", "y", "--test", test, "--max-size", "2"]) == 0
        assert log.read_text().splitlines() == [train, test]

    def test_compare_digest_is_of_the_bytes_parsed(self, tmp_path, monkeypatch, capsys):
        paths = write_logliks(tmp_path, 3)
        original = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        score = cli.elpd_loo_psis

        def rewriting(values, model_id):
            (tmp_path / f"{model_id}.csv").write_text("1,2\n3,4\n")
            return score(values, model_id)

        monkeypatch.setattr(cli, "elpd_loo_psis", rewriting)
        assert main(["compare", *map(str, paths)]) == 0
        assert json.loads(capsys.readouterr().out)["provenance"]["inputs"] == original

    def test_forward_digest_is_of_the_bytes_parsed(self, toy_block, monkeypatch, capsys):
        original = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in toy_block}
        search_ = search.forward_search

        def rewriting(*args, **kwargs):
            for p in toy_block:
                p.write_text("x0,y\n1,2\n")
            return search_(*args, **kwargs)

        monkeypatch.setattr(search, "forward_search", rewriting)
        train, test = map(str, toy_block)
        assert main(["forward", train, "--target", "y", "--test", test, "--max-size", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["provenance"]["inputs"] == original

    def test_simulate_digest_is_of_the_bytes_parsed(self, tmp_path, monkeypatch):
        cfg = write_simulate_config(tmp_path, "many_k")
        original = hashlib.sha256(cfg.read_bytes()).hexdigest()
        run = sim.run_many_k

        def rewriting(*args, **kwargs):
            cfg.write_text("{}")
            return run(*args, **kwargs)

        monkeypatch.setattr(sim, "run_many_k", rewriting)
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["provenance"]["inputs"] == {str(cfg): original}


TASK_ROWS = {"many_k": "_many_k_rows", "forward": "_forward_rows"}


class TestSimulateAcrossCpus:
    """``simulate`` computes its tasks in forked children and in this process."""

    @pytest.mark.parametrize("experiment", ["many_k", "forward"])
    def test_outputs_identical_on_one_and_two_cpus(
        self, tmp_path, monkeypatch, usable_cpus, experiment
    ):
        cfg = write_simulate_config(tmp_path, experiment)
        original = getattr(sim, TASK_ROWS[experiment])
        outputs, pids = [], []
        for cpus in (1, 2):
            usable_cpus(cpus)
            claims = Claims(tmp_path, cpus)

            def spy(task, **kwargs):
                claims.start(repr(task))
                return original(task, **kwargs)

            monkeypatch.setattr(sim, TASK_ROWS[experiment], spy)
            out = tmp_path / f"out{cpus}"
            assert main(["simulate", str(cfg), "--output", str(out)]) == 0
            outputs.append(
                {p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"}
            )
            pids.append(claims.starts())
        assert outputs[0] == outputs[1] and len(outputs[0]) >= 2
        assert set(pids[0]) == {str(os.getpid())} and len(pids[0]) >= 3
        assert len(set(pids[1])) == 2 and len(pids[1]) == len(pids[0])

    @pytest.mark.parametrize("experiment", ["many_k", "forward"])
    def test_warning_in_a_childs_share_reaches_the_caller(
        self, tmp_path, monkeypatch, usable_cpus, experiment
    ):
        usable_cpus(2)
        cfg = write_simulate_config(tmp_path, experiment)
        claims = Claims(tmp_path, 2, pick="child")
        original = getattr(sim, TASK_ROWS[experiment])

        def spy(task, **kwargs):
            if claims.start(repr(task)):
                warnings.warn("the child's first task warns")
            return original(task, **kwargs)

        monkeypatch.setattr(sim, TASK_ROWS[experiment], spy)
        with pytest.warns(UserWarning, match="the child's first task warns") as caught:
            rc = main(["simulate", str(cfg), "--output", str(tmp_path / "o")])
        assert rc == 0 and len(caught) == 1
        # raised first in the child, then once more here
        picks = claims.picks()
        assert len(set(picks)) == 2 and picks[-1] == str(os.getpid())

    @pytest.mark.parametrize("pick", [None, "here", "child"], ids=["ok", "own_share", "childs_share"])
    def test_no_child_process_outlives_simulate(
        self, tmp_path, monkeypatch, usable_cpus, capsys, pick
    ):
        # the first block this process or the child runs fails, as it does when run again
        usable_cpus(2)
        cfg = write_simulate_config(tmp_path, "many_k")
        claims = Claims(tmp_path, 2, pick)
        original = sim._many_k_rows

        def spy(task, **kwargs):
            if claims.start(repr(task)):
                raise InvalidParameter("this block fails")
            return original(task, **kwargs)

        monkeypatch.setattr(sim, "_many_k_rows", spy)
        rc = main(["simulate", str(cfg), "--output", str(tmp_path / "o")])
        assert rc == (0 if pick is None else 1)
        if pick is not None:
            assert_one_line_error(capsys, "this block fails")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_library_runs_never_fork(self, monkeypatch, usable_cpus):
        usable_cpus(2)
        forks = []

        def fork():
            forks.append(os.getpid())
            raise OSError("no fork here")  # _map_on_cpus then runs the loop itself

        monkeypatch.setattr(os, "fork", fork)
        specs = [sim.NestedDgpSpec(n=50, K=k, beta_delta=0.0, seed=11) for k in (3, 200)]
        assert len(sim.run_many_k(specs, replications=4, n_test=40)) == 8
        block = [sim.BlockDgpSpec(n=30, p=10, rho=0.5, n_test=40, seed=11)]
        runs, _ = sim.run_forward_experiment(
            block, priors=("diffuse", "tight"), replications=2
        )
        assert len(runs) == 4 and forks == []


@pytest.mark.parametrize(
    "argv, output, where",
    [
        (["compare", "a.csv", "b.csv", "c.csv"], "adir", "adir: Is a directory"),
        (["compare", "a.csv", "b.csv", "c.csv", "--format", "csv"], "adir",
         "adir: Is a directory"),
        (["compare", "a.csv", "b.csv", "c.csv"], "newdir/", "newdir/: Is a directory"),
        (["compare", "a.csv", "b.csv", "c.csv"], "afile/x.json", "afile: Not a directory"),
        (["compare", "a.csv", "b.csv", "c.csv"], "afile/sub/x.json",
         "afile/sub: Not a directory"),
        (["simulate", "mk.json"], "afile/x", "afile/x: Not a directory"),
        (["simulate", "mk.json"], "afile", "afile: Not a directory"),
        (["forward", "d.csv", "--target", "y"], "afile/run", "afile: Not a directory"),
        (["forward", "d.csv", "--target", "y"], "afile/sub/run", "afile/sub: Not a directory"),
    ],
    ids=["compare_json_directory", "compare_csv_directory",
         "compare_json_separator", "compare_through_file", "compare_below_file",
         "simulate", "simulate_on_file", "forward", "forward_below_file"],
)
def test_unwritable_output_fails_with_one_line(
    tmp_path, monkeypatch, capsys, argv, output, where
):
    # an existing directory as compare's file, or a regular file where a
    # directory must be, is found before any input is read or any work is done
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(93)
    for name in ("a", "b", "c"):
        write_pointwise(tmp_path / f"{name}.csv", rng.standard_normal(20))
    data = Dataset(rng.standard_normal((20, 2)), rng.standard_normal(20))
    write_dataset(tmp_path / "d.csv", data)
    (tmp_path / "mk.json").write_text(
        json.dumps({"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2})
    )
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    started = []
    for module, name in (
        (cli, "read_matrix_csv"), (cli, "read_dataset_csv"), (sim, "run_many_k")
    ):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: started.append(name))
    assert main(argv + ["--output", output]) == 1
    assert_one_line_error(capsys, f"cannot write {where}")
    assert started == []
    assert not (tmp_path / "newdir").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "a.csv", "b.csv", "c.csv"],
        ["compare", "a.csv", "b.csv", "c.csv", "--format", "csv"],
        ["forward", "d.csv", "--target", "y"],
        ["simulate", "mk.json"],
    ],
    ids=["compare_json", "compare_csv", "forward", "simulate"],
)
def test_empty_output_fails_before_any_read(tmp_path, monkeypatch, capsys, argv):
    # Path("") is the working directory, and "" read as no --output
    monkeypatch.chdir(tmp_path)
    started = []
    for name in ("read_matrix_csv", "read_dataset_csv", "_read_config"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: started.append(name))
    assert main(argv + ["--output", ""]) == 1
    assert_one_line_error(capsys, "cannot write '': No such file or directory")
    assert started == [] and list(tmp_path.iterdir()) == []


def cli_env(unbuffered: bool = False) -> dict:
    """The environment of a child Python that imports this checkout's cvbias.

    ``PYTHONUNBUFFERED`` is 1 when ``unbuffered`` and unset otherwise, as
    for most users, whatever the environment of the tests.
    """
    src = str(Path(cvbias.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return {**env, "PYTHONPATH": pythonpath}


@pytest.mark.parametrize("command", ["compare", "forward"])
def test_stdout_csv_equals_output_file(tmp_path, command):
    # a quoted "a,b" name and the booleans read the same in both tables
    rng = np.random.default_rng(99)
    if command == "compare":
        argv = ["compare"] + [
            str(write_pointwise(tmp_path / f"{name}.csv", rng.standard_normal(20)))
            for name in ("a,b", "c", "d")
        ] + ["--baseline", "c"]
        out = table = tmp_path / "weights.csv"
    else:
        data = Dataset(
            rng.standard_normal((30, 3)), rng.standard_normal(30), columns=("a,b", "c", "d")
        )
        argv = ["forward", str(write_dataset(tmp_path / "d.csv", data)), "--target", "y"]
        out, table = tmp_path / "run", tmp_path / "run.path.csv"
    argv += ["--format", "csv"]
    assert main(argv + ["--output", str(out)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "cvbias.cli", *argv],
        capture_output=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == table.read_bytes()
    rows = list(csv.DictReader(proc.stdout.decode().splitlines()))
    assert "a,b" in {r.get("model") or r.get("predictor_name") for r in rows}
    assert all(len(r) == len(rows[0]) and None not in r for r in rows)


def write_command_inputs(where: Path, command: str) -> list[str]:
    """Inputs of a small ``command`` run in ``where``; its argv, paths relative."""
    rng = np.random.default_rng(100)
    if command == "compare":
        for name in ("a", "b", "c"):
            write_loglik(where / f"{name}.csv", rng.normal(-1.0, 0.3, (200, 8)))
        return ["compare", "a.csv", "b.csv", "c.csv", "--output", "out.json"]
    if command == "forward":
        train, test = gen_block(BlockDgpSpec(n=40, p=10, rho=0.5, seed=100, n_test=40))
        write_dataset(where / "d.csv", train)
        write_dataset(where / "t.csv", test)
        return ["forward", "d.csv", "--target", "y", "--test", "t.csv", "--output", "o/run"]
    experiment = command.split("_", 1)[1]
    cfg = write_simulate_config(where, experiment)
    return ["simulate", cfg.name, "--output", "o"]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("command", ["compare", "forward", "simulate_many_k",
                                     "simulate_forward"])
def test_entry_writes_the_bytes_main_writes(
    tmp_path, monkeypatch, usable_cpus, capsys, command, cpus
):
    # the same relative argv in two directories: provenance names the same paths
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < cpus:
        pytest.skip(f"needs {cpus} usable CPUs")
    runs = {}
    for side in ("entry", "main"):  # main last: usable_cpus fakes the CPU count
        where = tmp_path / side
        where.mkdir()
        argv = write_command_inputs(where, command)
        inputs = set(where.rglob("*"))
        if side == "entry":
            proc = subprocess.run(
                [sys.executable, "-m", "cvbias.cli", *argv], cwd=where,
                capture_output=True, env=cli_env(), timeout=120,
                preexec_fn=lambda: os.sched_setaffinity(0, allowed[:cpus]),
            )
            assert proc.returncode == 0, proc.stderr
            stdout = proc.stdout
        else:
            usable_cpus(cpus)
            monkeypatch.chdir(where)
            capsys.readouterr()
            assert main(argv) == 0
            stdout = capsys.readouterr().out.encode()
        runs[side] = stdout, {
            str(p.relative_to(where)): p.read_bytes()
            for p in where.rglob("*") if p.is_file() and p not in inputs
        }
    assert runs["entry"] == runs["main"] and len(runs["main"][1]) >= 1


def test_entry_prints_a_warning_on_one_line(tmp_path):
    rng = np.random.default_rng(7)
    for name, draws in (("a", 10), ("b", 200), ("c", 200)):
        write_loglik(tmp_path / f"{name}.csv", rng.normal(-1.0, 0.3, (draws, 8)))
    proc = subprocess.run(
        [sys.executable, "-m", "cvbias.cli", "compare", "a.csv", "b.csv", "c.csv"],
        cwd=tmp_path, capture_output=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b"cvbias: warning: PSIS with 10 draws is unreliable; use at least 100\n"


def test_main_leaves_the_collector_as_it_found_it(toy_block, tmp_path):
    frozen = gc.get_freeze_count()
    train, test = toy_block
    argv = ["forward", str(train), "--target", "y", "--test", str(test)]
    assert main(argv + ["--output", str(tmp_path / "run")]) == 0
    assert gc.get_freeze_count() == frozen


STDOUT_RUNS = {
    "compare_json": ["compare", "a.csv", "b.csv", "c.csv"],
    "compare_csv": ["compare", "a.csv", "b.csv", "c.csv", "--format", "csv"],
    "forward_json": ["forward", "d.csv", "--target", "y"],
    "forward_csv": ["forward", "d.csv", "--target", "y", "--format", "csv"],
    "simulate": ["simulate", "many_k.json", "--output", "o"],
    "version": ["--version"],
    "help": ["--help"],
}


@pytest.mark.parametrize(
    "sink", ["dev_full", "closed_pipe", "dev_full_unbuffered", "closed_pipe_unbuffered"]
)
@pytest.mark.parametrize("run", sorted(STDOUT_RUNS))
def test_unwritable_stdout_fails_with_one_line(tmp_path, run, sink):
    # buffered, a failed write used to surface at interpreter exit (exit
    # code 120); unbuffered, inside print, where simulate blamed its output
    # directory and argparse swallowed the error (exit 0)
    rng = np.random.default_rng(101)
    for name in ("a", "b", "c"):
        write_pointwise(tmp_path / f"{name}.csv", rng.standard_normal(20))
    write_dataset(tmp_path / "d.csv", Dataset(rng.standard_normal((30, 20)),
                                              rng.standard_normal(30)))
    write_simulate_config(tmp_path, "many_k")
    if sink.startswith("dev_full"):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        fd, reason = os.open("/dev/full", os.O_WRONLY), "No space left on device"
    else:
        read_fd, fd = os.pipe()
        os.close(read_fd)  # closed before the command writes a byte
        reason = "Broken pipe"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cvbias.cli", *STDOUT_RUNS[run]], cwd=tmp_path,
            stdout=fd, stderr=subprocess.PIPE, timeout=120,
            env=cli_env(unbuffered=sink.endswith("_unbuffered")),
        )
    finally:
        os.close(fd)
    assert proc.stderr.decode() == f"cvbias: error: cannot write standard output: {reason}\n"
    assert proc.returncode == 1


@pytest.mark.parametrize("case", ["success", "error", "version", "usage"])
def test_main_writes_to_the_stdout_it_found(toy_block, capsys, case):
    # main collects what is printed and restores sys.stdout, whatever the exit
    train, _ = toy_block
    argv = {
        "success": ["forward", str(train), "--target", "y", "--max-size", "1"],
        "error": ["forward", str(train), "--target", "nope"],
        "version": ["--version"],
        "usage": ["forward", str(train)],
    }[case]
    stdout = sys.stdout
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert sys.stdout is stdout
    out, err = capsys.readouterr()
    assert code == {"success": 0, "error": 1, "version": 0, "usage": 2}[case]
    if case == "success":
        assert json.loads(out)["report"] == "forward" and err == ""
    elif case == "version":
        assert out == f"{cvbias.__version__}\n" and err == ""
    elif case == "error":
        assert out == "" and err.startswith("cvbias: error:") and err.count("\n") == 1
    else:
        assert out == "" and err.startswith("usage: cvbias forward")
        assert err.endswith("error: the following arguments are required: --target\n")


def test_failed_write_to_an_output_file_names_it(tmp_path, capsys):
    # /dev/full opens, then its write fails with no file name in the error
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    rng = np.random.default_rng(102)
    paths = [str(write_pointwise(tmp_path / f"{n}.csv", rng.standard_normal(20)))
             for n in ("a", "b", "c")]
    assert main(["compare", *paths, "--output", "/dev/full"]) == 1
    assert_one_line_error(capsys, "cannot write /dev/full: No space left on device")


@pytest.mark.parametrize(
    "argv",
    [["compare", "a.csv", "b.csv"], ["forward", "d.csv", "--target", "y"]],
    ids=["compare", "forward"],
)
def test_seed_flag_rejected_by_compare_and_forward(capsys, argv):
    # neither command draws a random number
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cvbias") and "unrecognized arguments: --seed 1" in err


@pytest.mark.parametrize("value", ["-inf", "-nan", "-infinity", "-1e5", "-1E-3"])
@pytest.mark.parametrize("flag", ["--alpha", "--multiplier"])
@pytest.mark.parametrize(
    "argv",
    [["compare", "a.csv", "b.csv", "c.csv"], ["forward", "d.csv", "--target", "y"]],
    ids=["compare", "forward"],
)
def test_negative_value_after_a_space_reads_as_after_equals(capsys, argv, flag, value):
    # argparse alone takes these after a space for an option, and the flag
    # for one without its value; the range checks run before any read
    errors = []
    for spelled in ([flag, value], [f"{flag}={value}"]):
        assert main(argv + spelled) == 1
        errors.append(capsys.readouterr().err)
    name = flag.removeprefix("--")
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"cvbias: error: {name} must ")
    assert errors[0].endswith(f", got {float(value)}\n") and errors[0].count("\n") == 1


def test_number_flags_are_the_parsers_int_and_float_flags():
    # a number flag missing from the list would still take -inf for an option
    flags = {
        a.option_strings[-1]
        for parser in subparsers().values()
        for a in parser._actions
        if a.type in (int, float)
    }
    assert flags == set(cli._NUMBER_FLAGS)


NO_SCIPY_SCRIPT = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, BlockScipy())
import cvbias.cli

train, test, config, a, b, c, out = sys.argv[1:]
assert cvbias.cli.main(["forward", train, "--target", "y", "--test", test,
                        "--max-size", "4", "--output", out + "/fwd"]) == 0
assert cvbias.cli.main(["simulate", config, "--output", out + "/sim"]) == 0
assert cvbias.cli.main(["compare", a, b, c, "--baseline", "a",
                        "--output", out + "/cmp.json"]) == 0
with open(out + "/cmp.json") as fh:
    weights = json.load(fh)["weights"]
print(json.dumps({w["model"]: [w["se"], w["pseudo_bma_plus"]] for w in weights}))
"""


def test_forward_and_simulate_never_import_scipy(toy_block, tmp_path):
    # every subcommand must run with scipy missing; compare covers both
    # pseudo-BMA+ rules, with one pair of se < 1 and one of se > 1000
    train, test = toy_block
    config = tmp_path / "mk.json"
    config.write_text(json.dumps(
        {"experiment": "many_k", "base_seed": 5, "n": 30, "k_grid": [3],
         "replications": 2, "n_test": 30}
    ))
    rng = np.random.default_rng(97)
    pw = rng.standard_normal(25) - 1.0
    models = [
        write_pointwise(tmp_path / "a.csv", pw),
        write_pointwise(tmp_path / "b.csv", pw + 0.05 * rng.standard_normal(25)),
        write_pointwise(tmp_path / "c.csv", pw + 500.0 * rng.standard_normal(25)),
    ]
    (tmp_path / "out").mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(train), str(test), str(config),
         *map(str, models), str(tmp_path / "out")],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    weights = json.loads(proc.stdout.splitlines()[-1])
    assert weights["b"][0] < 1.0 and weights["c"][0] > 1000.0
    assert all(0.0 < w < 1.0 for _, w in weights.values())


NO_NUMPY_MA_SCRIPT = """
import sys
import cvbias.cli

train, test, config, a, b, c, out = sys.argv[1:]
assert cvbias.cli.main(["forward", train, "--target", "y", "--test", test,
                        "--output", out + "/fwd"]) == 0
assert cvbias.cli.main(["simulate", config, "--output", out + "/sim"]) == 0
assert cvbias.cli.main(["compare", a, b, c, "--output", out + "/cmp.json"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_commands_never_import_numpy_ma(toy_block, tmp_path):
    # np.median, np.percentile and np.unique import numpy.ma (~15 ms in a
    # fresh process); forward, simulate and compare use none of them
    train, test = toy_block
    config = tmp_path / "mk.json"
    config.write_text(json.dumps(
        {"experiment": "many_k", "base_seed": 5, "n": 30, "k_grid": [3, 4],
         "replications": 3, "n_test": 30}
    ))
    rng = np.random.default_rng(98)
    models = []
    for name in ("a", "b", "c"):
        ll = rng.normal(-1.0, 0.3, (300, 5))
        ll[:, 0] = -np.abs(rng.standard_t(2.0, 300))  # a heavy tail to smooth
        models.append(write_loglik(tmp_path / f"{name}.csv", ll))
    (tmp_path / "out").mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_MA_SCRIPT, str(train), str(test), str(config),
         *map(str, models), str(tmp_path / "out")],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


README = Path(cvbias.__file__).resolve().parents[2] / "README.md"


def readme_section(title: str) -> str:
    """The text of README's ``### title`` section."""
    text = README.read_text(encoding="utf-8")
    return re.split(r"\n##+ ", text.split(f"\n### {title}\n", 1)[1], maxsplit=1)[0]


def subparsers() -> dict:
    """The parser of each subcommand, by its name."""
    [action] = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


class TestReadmeTables:
    """README's option lists and config table say what the parser and the
    config reader take."""

    @pytest.mark.parametrize("command", ["compare", "forward"])
    def test_options_paragraph_names_the_flags(self, command):
        [options] = [
            " ".join(par.split())
            for par in readme_section(command).split("\n\n")
            if par.startswith("Options:")
        ]
        # a flag's choices follow it in its code span: `--kind auto|pointwise|loglik`
        written = dict(re.findall(r"`(--[\w-]+)(?: ([\w|]+))?`", options))
        flags = {
            a.option_strings[-1]: "|".join(a.choices or ())
            for a in subparsers()[command]._actions
            if a.option_strings and a.option_strings != ["-h", "--help"]
        }
        assert written == flags

    def test_simulate_key_table_matches_the_config_keys(self):
        def readme_kind(text):
            if text.startswith("list of "):
                return [readme_kind(text.removeprefix("list of "))]
            names = re.findall(r'`"(\w+)"`', text)
            return sorted(names) if names else text.removesuffix("s")

        def code_kind(kind, key):
            if isinstance(kind, list):
                return [code_kind(kind[0], key)]
            # the experiment and prior strings are checked against these names
            if key == "experiment":
                return sorted(cli._CONFIG_KEYS)
            return sorted(PRIOR_PRESETS) if kind == cli._PRIOR else kind

        table = readme_section("simulate").split("\n| key |", 1)[1].split("\n\n", 1)[0]
        written = {}
        for line in table.splitlines()[2:]:
            key, experiment, kind, default = (cell.strip() for cell in line.strip("|").split("|"))
            for exp in cli._CONFIG_KEYS if experiment == "both" else [experiment.strip("`")]:
                written[exp, key.strip("`")] = readme_kind(kind), default == "required"
        # "experiment" is required of every config before its keys are known
        code = {
            (exp, key): (
                code_kind(kind, key), key == "experiment" or key in cli._REQUIRED_KEYS[exp]
            )
            for exp, kinds in cli._CONFIG_KEYS.items()
            for key, kind in kinds.items()
        }
        assert written == code

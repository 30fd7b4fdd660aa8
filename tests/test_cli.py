import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvbias
from cvbias import cli, io
from cvbias.cli import main
from cvbias.conjlm import Dataset, NigPrior, draw_posterior, fit, pointwise_loglik
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


def assert_one_line_error(capsys, word):
    err = capsys.readouterr().err
    assert err.startswith("cvbias: error:") and word in err
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

    def test_each_input_read_once(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(94)
        paths = [write_pointwise(tmp_path / "pw.csv", rng.standard_normal(10))]
        ll = tmp_path / "ll.csv"
        draws = rng.standard_normal((200, 10)).tolist()
        ll.write_text("\n".join(",".join(map(repr, row)) for row in draws))
        paths.append(ll)
        reads = []
        original = io.read_matrix_csv

        def spy(path):
            reads.append(str(path))
            return original(path)

        monkeypatch.setattr(io, "read_matrix_csv", spy)
        monkeypatch.setattr(cli, "read_matrix_csv", spy)
        assert main(["compare", *map(str, paths), "--baseline", "pw"]) == 0
        assert sorted(reads) == sorted(map(str, paths))
        assert main(["compare", *map(str, paths), "--kind", "pointwise"]) == 1
        assert_one_line_error(capsys, "exactly 1 column")

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
        "flags, word", [(["--alpha", "0.9"], "alpha"), (["--multiplier", "-1"], "multiplier")]
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
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2
        assert set(rows[0]) >= {"model", "delta", "pseudo_bma"}


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
        monkeypatch.setattr(cli, "forward_search", lambda *a, **k: calls.append("search"))
        monkeypatch.setattr(cli, "read_dataset_csv", lambda *a, **k: calls.append("read"))
        train, _ = toy_block
        assert main(["forward", str(train), "--target", "y", *flags]) == 1
        assert calls == []
        assert_one_line_error(capsys, word)

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
        rows = list(csv.DictReader((tmp_path / "run1.path.csv").open()))
        assert len(rows) == 7
        assert rows[1]["test_mlpd"] != ""


class TestSimulate:
    def test_empty_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text("{}")
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert "config" in capsys.readouterr().err

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
        summary = list(csv.DictReader((out / "many_k_summary.csv").open()))
        assert [int(r["K"]) for r in summary] == [2, 5]
        assert {"mean_max_diff", "predicted_threshold"} <= set(summary[0])
        runs = list(csv.DictReader((out / "many_k_runs.csv").open()))
        assert len(runs) == 6
        assert all(r["seed"] and r["spec_hash"] for r in runs)

    def test_forward_smoke_and_multiplier_fanout(self, tmp_path):
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
                    "multipliers": [1.0, 1.5, 2.0],
                    "replications": 2,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--output", str(out)]) == 0
        runs = list(csv.DictReader((out / "forward_runs.csv").open()))
        assert len(runs) == 6  # 2 reps x 3 multipliers
        assert {r["multiplier"] for r in runs} == {"1.0", "1.5", "2.0"}
        assert (out / "summary.json").exists()
        for m in ("1.0", "1.5", "2.0"):
            per = list(csv.DictReader((out / f"forward_path_m{m}.csv").open()))
            assert len(per) == 2 * 11  # 2 reps x sizes 0..10
            assert {r["multiplier"] for r in per} == {m}

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
        ],
    )
    def test_invalid_config_values_fail_with_one_line(self, tmp_path, capsys, config, word):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert_one_line_error(capsys, word)

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
            "experiment": "forward", "p": 35, "n_grid": [40], "rho_grid": [0.0],
            "replications": 1, "n_test": 40,
        }
        cfg = tmp_path / "fw.json"
        cfg.write_text(json.dumps(config))
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 1
        assert_one_line_error(capsys, "desk-scale guard")
        cfg.write_text(json.dumps({**config, "guard": False}))
        assert main(["simulate", str(cfg), "--output", str(tmp_path / "o")]) == 0

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
    src = str(Path(cvbias.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    (tmp_path / "out").mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(train), str(test), str(config),
         *map(str, models), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
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
    src = str(Path(cvbias.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    (tmp_path / "out").mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_MA_SCRIPT, str(train), str(test), str(config),
         *map(str, models), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"

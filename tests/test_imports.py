"""What importing the package and the CLI does, each in a fresh interpreter,
and which public names the package keeps."""

import ast
import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cvbias

PUBLIC_NAMES = [
    "__version__",
    "BlockDgpSpec",
    "Dataset",
    "ElpdComparison",
    "ElpdDiff",
    "ElpdEstimate",
    "GpdFit",
    "NestedDgpSpec",
    "NigPrior",
    "PosteriorFit",
    "SearchPath",
    "SearchStep",
    "StopVerdicts",
    "WeightReport",
    "blom_max",
    "build_comparison",
    "correct_path",
    "diagnose_tail",
    "draw_posterior",
    "elpd_diff",
    "elpd_loo_exact",
    "elpd_loo_psis",
    "elpd_se",
    "fit",
    "fit_gpd",
    "forward_search",
    "from_pointwise",
    "gen_block",
    "gen_nested",
    "gpd_quantile",
    "halfnormal_sigma",
    "khat_threshold",
    "log_pred",
    "median_baseline",
    "mlpd",
    "pointwise_loglik",
    "prob_better_normal",
    "pseudo_bma",
    "pseudo_bma_plus",
    "rule_of_four",
    "run_forward_experiment",
    "run_many_k",
    "stopping_rules",
    "summarize_many_k",
    "tail_cutoff",
    "threshold",
    "weight_report",
]


def run_python(code: str, **env_vars) -> str:
    """Last stdout line of ``python -c code`` with the source on the path.

    ``OPENBLAS_NUM_THREADS`` is unset unless given in ``env_vars``.
    """
    src = str(Path(cvbias.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_package_import_loads_no_numpy_and_sets_no_variable():
    out = run_python(
        "import os, sys, json\n"
        "before = dict(os.environ)\n"
        "import cvbias\n"
        "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == before]))"
    )
    assert json.loads(out) == [False, True]


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_cli_pins_one_blas_thread_unless_set(given, expected):
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    out = run_python(
        "import os\nimport cvbias.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])", **env
    )
    assert out == expected


PER_COMMAND_MODULES = ("cvbias.search", "cvbias.sim", "cvbias.weights")


def test_cli_import_leaves_the_per_command_modules_unloaded():
    # forward imports search, simulate sim and compare weights when they run
    out = run_python(
        "import json, sys\n"
        "import cvbias.cli\n"
        f"print(json.dumps([m in sys.modules for m in {PER_COMMAND_MODULES!r}]))"
    )
    assert json.loads(out) == [False, False, False]


@pytest.mark.parametrize("command", ["compare", "simulate_many_k"])
def test_runs_that_search_nothing_leave_search_unloaded(tmp_path, command):
    if command == "compare":
        for i, name in enumerate("abc"):
            (tmp_path / f"{name}.csv").write_text(f"elpd\n-1.5\n-0.5\n{-i}\n")
        argv = ["compare", "a.csv", "b.csv", "c.csv"]
    else:
        config = {"experiment": "many_k", "n": 30, "k_grid": [3], "replications": 2}
        (tmp_path / "mk.json").write_text(json.dumps(config))
        argv = ["simulate", "mk.json", "--output", "o"]
    out = run_python(
        "import json, os, sys\n"
        "from cvbias.cli import main\n"
        f"os.chdir({str(tmp_path)!r})\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, 'cvbias.search' in sys.modules]))"
    )
    assert json.loads(out) == [0, False]


def test_cli_import_freezes_nothing():
    # the import is what perfbench's setup_s times; only the entry freezes
    assert run_python("import gc\nimport cvbias.cli\nprint(gc.get_freeze_count())") == "0"


# main calls parse_args first: the hook sees main start even in the copy of
# the module that python -m runs as __main__
ENTRY_PROBE = """
import argparse, gc, json, sys
events = []
real_freeze = gc.freeze
gc.freeze = lambda: events.append("freeze") or real_freeze()
real_parse = argparse.ArgumentParser.parse_args
argparse.ArgumentParser.parse_args = (
    lambda self, *a, **k: events.append("main") or real_parse(self, *a, **k)
)
sys.argv = ["cvbias", "--version"]
try:
{call}
except SystemExit as exc:
    code = exc.code
print(json.dumps([events, code, gc.get_freeze_count() > 0]))
"""


def console_script_call() -> str:
    """What the wrapper pip installs for ``[project.scripts]``'s ``cvbias`` runs."""
    pyproject = Path(cvbias.__file__).resolve().parents[2] / "pyproject.toml"
    target = re.search(r'^cvbias = "([\w.]+):(\w+)"$', pyproject.read_text(), re.M)
    module, func = target.groups()
    return f"from {module} import {func}\nsys.exit({func}())"


@pytest.mark.parametrize("entry", ["python_m", "console_script"])
def test_entry_freezes_once_before_main(entry):
    if entry == "python_m":  # what python -m cvbias.cli runs
        call = 'import runpy\nrunpy.run_module("cvbias.cli", run_name="__main__", alter_sys=True)'
    else:
        call = console_script_call()
    out = run_python(ENTRY_PROBE.format(call=textwrap.indent(call, "    ")))
    assert json.loads(out) == [["freeze", "main"], 0, True]


# ctypes.CDLL(None) is replaced by a libc whose mallopt only records its
# arguments; the module is imported before sys.platform is set
MALLOPT_PROBE = """
import argparse, ctypes, json, sys, types
events = []
real_cdll = ctypes.CDLL
def fake_cdll(name, *args, **kwargs):
    if name is not None:
        return real_cdll(name, *args, **kwargs)
    libc = types.SimpleNamespace()
    if {has_mallopt}:
        libc.mallopt = lambda param, value: events.append([param, value]) or 1
    return libc
ctypes.CDLL = fake_cdll
real_parse = argparse.ArgumentParser.parse_args
argparse.ArgumentParser.parse_args = (
    lambda self, *a, **k: events.append("main") or real_parse(self, *a, **k)
)
import cvbias.cli
events.append("imported")
sys.platform = {platform!r}
sys.argv = ["cvbias", "--version"]
try:
{call}
except SystemExit as exc:
    code = exc.code
print(json.dumps([events, code]))
"""


def run_mallopt_probe(call: str, platform: str = "linux", has_mallopt: bool = True) -> list:
    code = MALLOPT_PROBE.format(
        call=textwrap.indent(call, "    "), platform=platform, has_mallopt=has_mallopt
    )
    return json.loads(run_python(code))


@pytest.mark.parametrize("entry", ["python_m", "console_script"])
def test_entry_fixes_the_heap_thresholds_before_main(entry):
    if entry == "python_m":
        call = 'import runpy\nrunpy.run_module("cvbias.cli", run_name="__main__", alter_sys=True)'
    else:
        call = console_script_call()
    # M_MMAP_THRESHOLD (-3) at 4 MiB, M_TRIM_THRESHOLD (-1) at 8 MiB
    assert run_mallopt_probe(call) == [
        ["imported", [-3, 4 << 20], [-1, 8 << 20], "main"], 0
    ]


def test_import_and_main_leave_the_allocator_alone():
    assert run_mallopt_probe("cvbias.cli.main(['--version'])") == [["imported", "main"], 0]


@pytest.mark.parametrize(
    "platform, has_mallopt", [("linux", False), ("darwin", True)], ids=["no_mallopt", "darwin"]
)
def test_entry_runs_where_mallopt_is_not_called(platform, has_mallopt):
    out = run_mallopt_probe(console_script_call(), platform, has_mallopt)
    assert out == [["imported", "main"], 0]


def test_star_import_binds_the_public_names():
    out = run_python(
        "import json\n"
        "before = set(globals())\n"
        "from cvbias import *\n"
        "print(json.dumps(sorted(set(globals()) - before - {'before'})))"
    )
    assert json.loads(out) == sorted(PUBLIC_NAMES)
    assert cvbias.__all__ == PUBLIC_NAMES


def test_names_resolve_to_their_modules():
    import cvbias.conjlm
    import cvbias.search

    assert cvbias.fit is cvbias.conjlm.fit
    assert cvbias.forward_search is cvbias.search.forward_search
    assert set(PUBLIC_NAMES) <= set(dir(cvbias))
    with pytest.raises(AttributeError, match="no_such_name"):
        cvbias.no_such_name


def test_a_search_path_holds_its_steps_alone():
    # size 0 is steps[0]: no field keeps the intercept-only model apart
    assert [f.name for f in dataclasses.fields(cvbias.SearchPath)] == ["steps"]


def test_every_public_name_is_used_or_shown():
    """A name in ``__all__`` must be read by a package module other than in
    its own definition, or appear in README.md's code: a public name that
    neither does is dead surface."""
    package = Path(cvbias.__file__).resolve().parent
    modules = {path.stem for path in package.glob("*.py")}
    used = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":  # its export table names every one
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add(node.id)
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                ):
                    refs.add(node.attr)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
            used |= refs
    readme = (package.parents[1] / "README.md").read_text(encoding="utf-8")
    code = " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.S))
    shown = set(re.findall(r"\w+", code))
    assert [name for name in cvbias.__all__ if name not in used | shown] == []


# the private conjlm names that search and sim import, and the kernel
# internals that only conjlm may use
PRIVATE_CONJLM_IMPORTS = {
    "search": ["_border", "_border_rows", "_predictive_logpdf", "_score_extensions"],
    "sim": ["_border_rows", "_fit", "_predictive_logpdf", "_score_extensions"],
}
KERNEL_INTERNALS = {
    "_border_terms",
    "_loo_density",
    "_loo_guard",
    "_student_t_logpdf",
}


def conjlm_names(path: Path) -> set:
    """The names a module takes from ``conjlm``: by ``from .conjlm import``
    or ``from cvbias.conjlm import``, or as attributes of a name ``conjlm``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("conjlm", "cvbias.conjlm"):
            names |= {alias.name for alias in node.names}
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "conjlm"
        ):
            names.add(node.attr)
    return names


def test_private_conjlm_names_stay_pinned():
    package = Path(cvbias.__file__).resolve().parent
    for module, expected in PRIVATE_CONJLM_IMPORTS.items():
        private = {name for name in conjlm_names(package / f"{module}.py") if name.startswith("_")}
        assert sorted(private) == expected, module
    for path in package.glob("*.py"):
        if path.stem != "conjlm":
            assert conjlm_names(path) & KERNEL_INTERNALS == set(), path.name


def test_pinned_conjlm_names_are_defined():
    # a name deleted from conjlm but left pinned would pass the check above
    # without checking anything
    path = Path(cvbias.__file__).resolve().parent / "conjlm.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    pinned = KERNEL_INTERNALS.union(*PRIVATE_CONJLM_IMPORTS.values())
    assert sorted(pinned - defined) == []


def test_only_conjlm_reads_the_prior_hyperparameters():
    # a0, b0 and v0 enter the posterior in conjlm alone: another module
    # that read them would be forming a posterior of its own
    package = Path(cvbias.__file__).resolve().parent
    for path in package.glob("*.py"):
        if path.stem != "conjlm":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("a0", "b0", "v0")
            }
            assert read == set(), path.name


def test_every_error_class_is_raised():
    """Each exception class in ``cvbias/errors.py`` but the base
    ``CvBiasError`` has a ``raise`` in the package: a class goes with its
    last raise site."""
    package = Path(cvbias.__file__).resolve().parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    assert sorted(classes - raised - {"CvBiasError"}) == []


def test_errors_are_defined_in_errors_py_alone():
    """Only ``cvbias/errors.py`` defines exception classes, and each of its
    classes derives from ``CvBiasError`` and ``ValueError``: a new kind of
    fault is added there, where the others are, or not at all."""
    from cvbias import errors

    package = Path(cvbias.__file__).resolve().parent
    for path in package.glob("*.py"):
        if path.name == "errors.py":
            continue
        module = importlib.import_module(
            "cvbias" if path.stem == "__init__" else f"cvbias.{path.stem}"
        )
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name, None)
                is_error = isinstance(cls, type) and issubclass(cls, BaseException)
                assert not is_error, f"{path.name} defines {node.name}"
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    names = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert names[0] == "CvBiasError"
    for name in names[1:]:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.CvBiasError) and issubclass(cls, ValueError), name


def test_readme_library_example_runs(capsys):
    # the README's example, run as written, so the docs cannot drift from
    # the API; any warning it raises fails the test
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("{'bulge_size': ")
    assert math.isfinite(float(lines[-1]))

"""The suite's own pytest settings, as ``pyproject.toml`` gives them."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"


def test_a_failing_property_ends_only_its_own_test(tmp_path):
    # when a property fails, Hypothesis's plugin imports code that warns;
    # the settings turn warnings into errors, yet the run goes on to the
    # next test instead of ending in an INTERNALERROR
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_property_fails(x):
            assert x < 5


        def test_plain_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_the_suite_imports_the_package_from_the_checkout():
    # with no PYTHONPATH and no install, the settings put src on the path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--collect-only",
         "tests/test_imports.py"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr

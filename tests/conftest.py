import os

import pytest
from hypothesis import settings

from cvbias import conjlm

# every run draws the same examples, so a tier-1 result is a fact, not a
# draw; a test's own @settings keeps its example count and deadline
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(
        f"child process {pid} was left unreaped" if pid else "a child process is still running"
    )


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(count)``: the process may run on ``count`` CPUs from then on.

    Only the count is faked, whatever CPUs the host has.
    """

    def set_count(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    return set_count


def loo_refit(data, prior):
    """Exact-LOO pointwise elpd of ``data`` by n refits
    (``conjlm._loo_refit`` of its design): the slow reference the fast
    paths are checked against. Test modules import it from here."""
    return conjlm._loo_refit(data.design(), data.y, prior)

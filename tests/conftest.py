"""Fixtures shared by the test modules, and the hypothesis profile they run under."""

import os
import threading

import pytest
from hypothesis import settings

# pytester runs pytest on a file of its own (tests/test_pytest_config.py).
pytest_plugins = ["pytester"]

# Every property test draws the same examples on every run, and none fails
# for a slow example: a search or a packed kernel may take a second.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs (no fork happens
    beside another thread, so none may be alive when it starts)."""
    assert threading.active_count() == 1
    made = []

    def fork(real=os.fork):
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


def assert_no_child():
    """Fails if this process has a child that has not been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

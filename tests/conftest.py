"""Fixtures shared by the test modules."""

import os
import threading

import pytest


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

"""Runs that only compute bounds load neither numpy, typing, dataclasses nor
inspect, and a searched column or a risk oracle that forks loads neither
multiprocessing nor concurrent.futures, and starts no thread.

Each case starts a fresh interpreter with ``-S``, so no site-packages
``.pth`` file imports a module before the package does; it finds the
package and numpy on the test process's ``sys.path``, copied in by hand.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that cost a bound-only run import time and that it does not need;
# numpy imports inspect itself.
WATCHED = ("dataclasses", "inspect", "numpy", "typing")

SCRIPT = """
import os
import sys
sys.path[:0] = {path!r}
preloaded = set({watched!r}) & set(sys.modules)
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append("numpy" in sys.modules))
import fdivrisk
from fdivrisk.cli import main
{setup}
codes = [main(argv.split()) for argv in {runs!r}]
print(repr((sorted(preloaded), codes, sorted(set({watched!r}) & set(sys.modules)), forks)))
"""


def run_fresh(
    runs: list[str], watched: tuple[str, ...] = WATCHED, setup: str = ""
) -> tuple[list[str], list[int], list[str], list[bool]]:
    """Exit codes of ``main`` on each argv in one fresh interpreter, after
    the statement ``setup``, with the modules of ``watched`` loaded before
    ``import fdivrisk`` and at the end, and for each fork made whether numpy
    was loaded at it."""
    script = SCRIPT.format(path=[str(SRC), *sys.path], runs=runs, watched=watched, setup=setup)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_scalar_only_runs_load_none_of_the_watched_modules():
    # Two workers: the searched bounds of a run over more than one search
    # fork once, and the exact Gaussian risk oracle runs without numpy and
    # without a fork.
    runs = [
        "bound --model bernoulli --n 10 --family hockey-stick --optimize",
        "compare --model bernoulli --n-range 1..12 --optimize",
        "compare --model gaussian --n-range 1..8 --optimize",
        "sweep --model gaussian --n-range 1..3 --oracle",
    ]
    setup = "fdivrisk.bounds._worker_count = lambda: 2"
    assert run_fresh(runs, setup=setup) == ([], [0, 0, 0, 0], [], [False] * 2)


def test_forked_search_and_oracle_load_no_process_pool():
    # The two searched columns fork one child, and so does the oracle
    # column, through os.fork alone; no run starts a thread.  The oracle
    # child inherits numpy, imported before its fork.
    watched = (*WATCHED, "concurrent.futures", "multiprocessing")
    runs = [
        "compare --model bernoulli --n-range 1..12 --optimize",
        "sweep --model bernoulli --n-range 1..4 --oracle --samples 2000",
    ]
    setup = (
        "fdivrisk.bounds._worker_count = lambda: 2\n"
        "import threading\n"
        "def start(thread): raise AssertionError('a thread started')\n"
        "threading.Thread.start = start"
    )
    preloaded, codes, loaded, forks = run_fresh(runs, watched, setup)
    assert (preloaded, codes, forks) == ([], [0, 0], [False, True])
    # The coin-flip draws load numpy, and numpy some of WATCHED.
    assert "numpy" in loaded
    assert not {"concurrent.futures", "multiprocessing"} & set(loaded)


@pytest.mark.parametrize(
    "argv",
    [
        # n >= 126: the coin-flip hockey-stick kernel runs in numpy blocks.
        "bound --model bernoulli --n 300 --family hockey-stick",
        # The brute-force divergence grids.
        "validate --model gaussian --n-range 1..2",
    ],
)
def test_array_runs_load_numpy(argv):
    preloaded, codes, loaded, _ = run_fresh([argv])
    assert (preloaded, codes) == ([], [0])
    assert "numpy" in loaded

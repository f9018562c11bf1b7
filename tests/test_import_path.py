"""Runs that only compute bounds load neither numpy, typing, dataclasses nor
inspect.

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
import sys
sys.path[:0] = {path!r}
preloaded = set({watched!r}) & set(sys.modules)
import fdivrisk
from fdivrisk.cli import main
codes = [main(argv.split()) for argv in {runs!r}]
print(repr((sorted(preloaded), codes, sorted(set({watched!r}) & set(sys.modules)))))
"""


def run_fresh(runs: list[str]) -> tuple[list[str], list[int], list[str]]:
    """Exit codes of ``main`` on each argv in one fresh interpreter, with the
    modules of ``WATCHED`` loaded before ``import fdivrisk`` and at the
    end."""
    script = SCRIPT.format(path=[str(SRC), *sys.path], runs=runs, watched=WATCHED)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_scalar_only_runs_load_none_of_the_watched_modules():
    runs = [
        "bound --model bernoulli --n 10 --family hockey-stick --optimize",
        "compare --model bernoulli --n-range 1..12 --optimize",
        "compare --model gaussian --n-range 1..8 --optimize",
        # The Gaussian risk oracle is exact: it runs on the worker threads without numpy.
        "sweep --model gaussian --n-range 1..3 --oracle",
    ]
    assert run_fresh(runs) == ([], [0, 0, 0, 0], [])


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
    preloaded, codes, loaded = run_fresh([argv])
    assert (preloaded, codes) == ([], [0])
    assert "numpy" in loaded

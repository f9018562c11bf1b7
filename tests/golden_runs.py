"""The golden runs: each CLI command whose output a file under ``golden/`` pins.

``tests/test_cli.py`` runs the fast entries in-process.  Run as a script,

    PYTHONPATH=src python tests/golden_runs.py

this module runs every entry as a ``python -m fdivrisk.cli`` child with this
process's CPU affinity, and exits 1 naming each run that did not exit 0,
wrote to stderr, or whose output differs from its file.  Every check is the same for each entry: exit 0,
empty stderr (no numpy RuntimeWarning, say) and the bytes of the file.

A new golden run is one entry here plus its file, written by the code before
the change.  Every golden file but ``search_trajectories.json``, which
``test_bounds.py`` reads, must have an entry.
"""

import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

GOLDEN = Path(__file__).resolve().parent / "golden"


class Run(NamedTuple):
    golden: str  # the file under golden/ that the output must equal
    argv: str  # the command line after `fdivrisk`
    output: str | None = None  # the option that writes the output to a file, or stdout
    slow: bool = False  # compared in CI only

    def args(self, out) -> list[str]:
        return self.argv.split() + ([self.output, str(out)] if self.output else [])

    @property
    def name(self) -> str:
        return " ".join(self.args("FILE"))


# Every output is deterministic, the oracle draws coming from seeded streams:
# refactors and speed-ups must leave it byte-identical.
RUNS = [
    Run("compare_bernoulli.csv", "compare --model bernoulli --n-range 1..50"),
    Run("compare_gaussian.csv", "compare --model gaussian --n-range 1..50"),
    # The default n range of compare is the 1..50 of the golden files.
    Run("compare_bernoulli.csv", "compare --model bernoulli"),
    Run("compare_gaussian.csv", "compare --model gaussian"),
    # The coin-flip hockey-stick kernel's numpy path and the Hellinger sum at
    # large n.
    Run("compare_bernoulli_1000.csv", "compare --model bernoulli --n-range 1000..1039"),
    # Crosses the switch to the numpy path at n = 126 and packs many n into
    # each block of weights.
    Run("compare_bernoulli_120_400.csv", "compare --model bernoulli --n-range 120..400"),
    # The parameter search over p and tau, on both sides of the switch to the
    # numpy path at n = 126.
    Run("compare_bernoulli_optimize.csv", "compare --model bernoulli --n-range 1..12 --optimize"),
    Run("compare_bernoulli_124_129_optimize.csv",
        "compare --model bernoulli --n-range 124..129 --optimize"),
    Run("compare_gaussian_optimize.csv", "compare --model gaussian --n-range 1..8 --optimize"),
    # Gaussian variances away from the defaults, where the tau scan skips
    # other grid points.
    Run("compare_gaussian_1_30_optimize_wide_prior.csv",
        "compare --model gaussian --n-range 1..30 --optimize --sigma-w-sq 10 --sigma-sq 0.1"),
    Run("compare_gaussian_1_30_optimize_narrow_prior.csv",
        "compare --model gaussian --n-range 1..30 --optimize --sigma-w-sq 0.01 --sigma-sq 30"),
    # 400 hockey-stick grid points, most of them skipped by their ceiling,
    # and each evaluated one a full adaptive quadrature.
    Run("compare_gaussian_1_50_optimize.csv", "compare --model gaussian --optimize", slow=True),
    # n = 8190 fills exactly one block of weights, n = 8192 needs two.
    Run("sweep_bernoulli_hockey_stick_8188_8193.csv",
        "sweep --model bernoulli --family hockey-stick --n-range 8188..8193"),
    # Searched bound columns beside the seeded oracle columns.
    Run("sweep_bernoulli_oracle_optimize_1_3.csv",
        "sweep --model bernoulli --n-range 1..3 --oracle --optimize --samples 20000"),
    # The exact Gaussian risk, to 17 digits.
    Run("sweep_gaussian_oracle_1_50.csv", "sweep --model gaussian --n-range 1..50 --oracle"),
    # Seeded draws: the coin-flip oracle columns, from Beta-median tables,
    # printed and written through --csv.
    Run("sweep_bernoulli_oracle.csv",
        "sweep --model bernoulli --n-range 1..12 --oracle --samples 200000"),
    Run("sweep_bernoulli_oracle.csv",
        "sweep --model bernoulli --n-range 1..12 --oracle --samples 200000", output="--csv"),
    # The 10,001 Beta medians of the posterior-median risk and both coin-flip
    # bounds at n = 10^4; about 20 s.
    Run("sweep_bernoulli_10000_oracle.csv",
        "sweep --model bernoulli --n-range 10000..10000 --oracle --samples 1000", slow=True),
    Run("sweep_bernoulli_1_12.svg", "sweep --model bernoulli --n-range 1..12", output="--svg"),
    # The coin-flip brute-force grid at n = 7 with a non-integer order, and
    # the seeded Monte-Carlo risks of n = 7..9.
    Run("validate_bernoulli_7_9.txt",
        "validate --model bernoulli --n-range 7..9 --p 3.5 --samples 20000"),
    # Seeded Monte-Carlo risks that two CPUs draw on two processes.
    Run("validate_bernoulli_1_6.txt", "validate --model bernoulli --n-range 1..6 --samples 200000"),
    # End-to-end certification, both models over n = 1..20.
    Run("validate_bernoulli_1_20.txt", "validate --model bernoulli --n-range 1..20", slow=True),
    Run("validate_gaussian_1_20.txt", "validate --model gaussian --n-range 1..20", slow=True),
    # Across the switch to the packed coin-flip kernel: the fixed hockey-stick
    # column of n = 126..128 shares numpy blocks of weights inside
    # certification_suite; about 3 s.
    Run("validate_bernoulli_124_128.txt",
        "validate --model bernoulli --n-range 124..128 --samples 20000", slow=True),
    # End-to-end certification of the searched bounds, n = 1..10.
    Run("validate_bernoulli_1_10_optimize.txt",
        "validate --model bernoulli --n-range 1..10 --optimize", slow=True),
    Run("validate_gaussian_1_10_optimize.txt",
        "validate --model gaussian --n-range 1..10 --optimize", slow=True),
    Run("bound_bernoulli_100000_hellinger.txt",
        "bound --model bernoulli --n 100000 --family hellinger"),
    # One n whose weights span 13 numpy blocks.
    Run("bound_bernoulli_100000_hockey_stick.txt",
        "bound --model bernoulli --n 100000 --family hockey-stick"),
    # 77 one-n evaluations of the numpy path, one per search step except 3
    # skipped grid points.
    Run("bound_bernoulli_10000_hockey_stick_optimize.txt",
        "bound --model bernoulli --n 10000 --family hockey-stick --optimize"),
    # The shared log-factorial table at the n where it matters; about 5 s.
    Run("bound_bernoulli_100000_hellinger_optimize.txt",
        "bound --model bernoulli --n 100000 --family hellinger --optimize", slow=True),
    # The numpy-block evaluations of the tau search at the n where they cost
    # most (optimum at tau = 160); about 30 s.
    Run("bound_bernoulli_100000_hockey_stick_optimize.txt",
        "bound --model bernoulli --n 100000 --family hockey-stick --optimize", slow=True),
]


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, run in enumerate(RUNS):
            out = Path(tmp) / f"{i}_{run.golden}"
            child = subprocess.run(
                [sys.executable, "-m", "fdivrisk.cli", *run.args(out)], capture_output=True
            )
            got = (out.read_bytes() if out.exists() else None) if run.output else child.stdout
            problems = [f"exited {child.returncode}"] if child.returncode else []
            if child.stderr:
                err = child.stderr.decode(errors="replace").rstrip()
                problems.append(f"wrote to stderr:\n{err}")
            if got != (GOLDEN / run.golden).read_bytes():
                problems.append(f"output differs from golden/{run.golden}")
            failed += [f"{run.golden} ({run.name}): {problem}" for problem in problems]
    print("\n".join(failed) or f"{len(RUNS)} golden runs match their files")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The pinned CLI runs: each command whose output a file under ``golden/``
pins, and each command that must fail with one exact stderr line.

``check`` gives the one verdict on a run of a row, wherever it ran.  A golden
row must exit 0, write nothing to stderr (no numpy RuntimeWarning, say),
produce the bytes of its file and leave no file but its output.  An error
row must exit with the code ``cli.main`` gives its line's prefix (3 for
``i/o error: ``, 2 for ``error: ``), print nothing to stdout, write exactly
its line to stderr and leave no file but its config.

A row is slow when it takes over 4 s as a fresh child on two CPUs.  On 2 Xeon
vCPUs, whose speed drifts, the three slow rows took 4.7 s or more and every
other row 3.3 s at most.  ``tests/test_cli.py`` runs every row that is not
slow in-process, each error row on one process and on two.  Run as a script,

    PYTHONPATH=src python tests/golden_runs.py

this module runs every row as a ``python -m fdivrisk.cli`` child with this
process's CPU affinity, each in a fresh scratch directory, and exits 1
naming each row that fails its check.

A new golden run is one row here plus its file, written by the code before
the change; a new failure is one row.  Every golden file but
``search_trajectories.json``, which ``test_bounds.py`` reads, must have a row.
"""

import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

GOLDEN = Path(__file__).resolve().parent / "golden"


class Run(NamedTuple):
    argv: str  # the command line after `fdivrisk`; {tmp} is the row's scratch directory
    golden: str | None = None  # the file under golden/ that the output must equal
    output: str | None = None  # the option that writes the output to {tmp}/out, or stdout
    slow: bool = False  # over 4 s as a fresh child: run in CI only
    error: str | None = None  # the one stderr line of a failing run; {tmp} as in argv
    config: str | None = None  # written to {tmp}/run.cfg and passed as --config

    @property
    def code(self) -> int:
        if self.error is None:
            return 0
        return 3 if self.error.startswith("i/o error: ") else 2

    def args(self, tmp) -> list[str]:
        """The command line in the scratch directory ``tmp``, after writing
        the row's config file there."""
        args = self.argv.replace("{tmp}", str(tmp)).split()
        if self.output:
            args += [self.output, str(Path(tmp) / "out")]
        if self.config is not None:
            config = Path(tmp) / "run.cfg"
            config.write_text(self.config.replace("{tmp}", str(tmp)))
            args += ["--config", str(config)]
        return args

    @property
    def name(self) -> str:
        words = [self.argv] + ([self.output, "FILE"] if self.output else [])
        return " ".join(words + ([repr(self.config)] if self.config is not None else []))


def check(run: Run, code: int, stdout: bytes, stderr: bytes, tmp) -> list[str]:
    """What is wrong with one run of ``run`` in the scratch directory ``tmp``,
    given its exit code and what it wrote: nothing if it passes."""
    tmp = Path(tmp)
    problems = [f"exited {code}, not {run.code}"] if code != run.code else []
    if run.error is None:
        out = tmp / "out"
        got = (out.read_bytes() if out.exists() else None) if run.output else stdout
        if got != (GOLDEN / run.golden).read_bytes():
            problems.append(f"output differs from golden/{run.golden}")
        want = b""
    else:
        if stdout:
            problems.append("wrote to stdout")
        want = run.error.replace("{tmp}", str(tmp)).encode() + b"\n"
    if stderr != want:
        problems.append(f"stderr is not {want!r}:\n{stderr.decode(errors='replace').rstrip()}")
    own = {"out"} if run.output else set()
    if run.config is not None:
        own.add("run.cfg")
    left = sorted(path.name for path in tmp.iterdir() if path.name not in own)
    if left:
        problems.append(f"left {', '.join(left)}")
    return problems


NO_SPACE = "i/o error: [Errno 28] No space left on device"
SAMPLES_RULE = "error: samples must be at least 2 (the standard error needs two)"
EMPTY_RANGE = "error: n range must be non-empty and start at 1 or above"
VALIDATE_UNREAD = "error: validate does not take --family, --csv, --oracle, --svg"
INFINITE_NOISE = "error: noise variance sigma_sq must be finite, got inf"
SUBNORMAL_BETA = "error: beta must be at least 2.2250738585072014e-308, got 5e-324"
NO_NOISE_RATIO = (
    "error: variance ratio sigma_w_sq / (sigma_sq / n) is not finite at"
    " sigma_w_sq = 1.0, sigma_sq = 5e-324, n = "
)
SLICE_LOST = (
    "error: numerical failure (ArithmeticError): Gaussian hockey-stick slice quadratic lost to"
    " rounding at variance ratio r = sigma_w_sq / (sigma_sq / n) = "
)
NAN_QUADRATURE = (
    "error: numerical failure (FloatingPointError): quadrature divergence is not finite:"
    " value nan, error estimate nan"
)

# Every output is deterministic, the oracle draws coming from seeded streams:
# refactors and speed-ups must leave it byte-identical.
RUNS = [
    Run("compare --model bernoulli --n-range 1..50", "compare_bernoulli.csv"),
    Run("compare --model gaussian --n-range 1..50", "compare_gaussian.csv"),
    # The default n range of compare is the 1..50 of the golden files.
    Run("compare --model bernoulli", "compare_bernoulli.csv"),
    Run("compare --model gaussian", "compare_gaussian.csv"),
    # The coin-flip hockey-stick kernel's numpy path and the Hellinger sum at
    # large n.
    Run("compare --model bernoulli --n-range 1000..1039", "compare_bernoulli_1000.csv"),
    # Crosses the switch to the numpy path at n = 126 and packs many n into
    # each block of weights.
    Run("compare --model bernoulli --n-range 120..400", "compare_bernoulli_120_400.csv"),
    # The parameter search over p and tau, on both sides of the switch to the
    # numpy path at n = 126.
    Run("compare --model bernoulli --n-range 1..12 --optimize", "compare_bernoulli_optimize.csv"),
    Run("compare --model bernoulli --n-range 124..129 --optimize",
        "compare_bernoulli_124_129_optimize.csv"),
    Run("compare --model gaussian --n-range 1..8 --optimize", "compare_gaussian_optimize.csv"),
    # Gaussian variances away from the defaults, where the tau scan skips
    # other grid points.
    Run("compare --model gaussian --n-range 1..30 --optimize --sigma-w-sq 10 --sigma-sq 0.1",
        "compare_gaussian_1_30_optimize_wide_prior.csv"),
    Run("compare --model gaussian --n-range 1..30 --optimize --sigma-w-sq 0.01 --sigma-sq 30",
        "compare_gaussian_1_30_optimize_narrow_prior.csv"),
    # 400 hockey-stick grid points, most of them skipped by their ceiling,
    # and each evaluated one a full adaptive quadrature.
    Run("compare --model gaussian --optimize", "compare_gaussian_1_50_optimize.csv"),
    # n = 8190 fills exactly one block of weights, n = 8192 needs two.
    Run("sweep --model bernoulli --family hockey-stick --n-range 8188..8193",
        "sweep_bernoulli_hockey_stick_8188_8193.csv"),
    # Searched bound columns beside the seeded oracle columns.
    Run("sweep --model bernoulli --n-range 1..3 --oracle --optimize --samples 20000",
        "sweep_bernoulli_oracle_optimize_1_3.csv"),
    # The exact Gaussian risk, to 17 digits.
    Run("sweep --model gaussian --n-range 1..50 --oracle", "sweep_gaussian_oracle_1_50.csv"),
    # Seeded draws: the coin-flip oracle columns, from Beta-median tables,
    # printed and written through --csv.
    Run("sweep --model bernoulli --n-range 1..12 --oracle --samples 200000",
        "sweep_bernoulli_oracle.csv"),
    Run("sweep --model bernoulli --n-range 1..12 --oracle --samples 200000",
        "sweep_bernoulli_oracle.csv", output="--csv"),
    # The 10,001 Beta medians of the posterior-median risk and both coin-flip
    # bounds at n = 10^4; slow, 21-25 s as a child.
    Run("sweep --model bernoulli --n-range 10000..10000 --oracle --samples 1000",
        "sweep_bernoulli_10000_oracle.csv", slow=True),
    Run("sweep --model bernoulli --n-range 1..12", "sweep_bernoulli_1_12.svg", output="--svg"),
    # Three series over 40 n, ticked every 4 n; the vacuous hockey-stick
    # bounds (all 0) draw no polyline and appear in the legend alone.
    Run("sweep --model bernoulli --n-range 1..40 --beta 1e-300 --gamma 1e300 --oracle"
        " --samples 2000", "sweep_bernoulli_1_40_vacuous_hockey_stick.svg", output="--svg"),
    # One n: the x span falls back to 1, and each series is one point.
    Run("sweep --model bernoulli --n 5 --oracle --samples 2000", "sweep_bernoulli_5_oracle.svg",
        output="--svg"),
    # The coin-flip brute-force grid at n = 7 with a non-integer order, and
    # the seeded Monte-Carlo risks of n = 7..9.
    Run("validate --model bernoulli --n-range 7..9 --p 3.5 --samples 20000",
        "validate_bernoulli_7_9.txt"),
    # Seeded Monte-Carlo risks that two CPUs draw on two processes.
    Run("validate --model bernoulli --n-range 1..6 --samples 200000",
        "validate_bernoulli_1_6.txt"),
    # End-to-end certification, both models over n = 1..20.
    Run("validate --model bernoulli --n-range 1..20", "validate_bernoulli_1_20.txt"),
    Run("validate --model gaussian --n-range 1..20", "validate_gaussian_1_20.txt"),
    # The default n range of validate is 1..20.
    Run("validate --model gaussian", "validate_gaussian_1_20.txt"),
    # Across the switch to the packed coin-flip kernel: the fixed hockey-stick
    # column of n = 126..128 shares numpy blocks of weights inside
    # certification_suite; about 2 s.
    Run("validate --model bernoulli --n-range 124..128 --samples 20000",
        "validate_bernoulli_124_128.txt"),
    # End-to-end certification of the searched bounds, n = 1..10.
    Run("validate --model bernoulli --n-range 1..10 --optimize",
        "validate_bernoulli_1_10_optimize.txt"),
    Run("validate --model gaussian --n-range 1..10 --optimize",
        "validate_gaussian_1_10_optimize.txt"),
    Run("bound --model bernoulli --n 100000 --family hellinger",
        "bound_bernoulli_100000_hellinger.txt"),
    # One n whose weights span 13 numpy blocks.
    Run("bound --model bernoulli --n 100000 --family hockey-stick",
        "bound_bernoulli_100000_hockey_stick.txt"),
    # 77 one-n evaluations of the numpy path, one per search step except 3
    # skipped grid points; the slowest row that is not slow, 2.5-3.3 s.
    Run("bound --model bernoulli --n 10000 --family hockey-stick --optimize",
        "bound_bernoulli_10000_hockey_stick_optimize.txt"),
    # The shared log-factorial table at the n where it matters; slow,
    # 4.7-5.7 s as a child.
    Run("bound --model bernoulli --n 100000 --family hellinger --optimize",
        "bound_bernoulli_100000_hellinger_optimize.txt", slow=True),
    # The numpy-block evaluations of the tau search at the n where they cost
    # most (optimum at tau = 160); slow, 26-30 s as a child.
    Run("bound --model bernoulli --n 100000 --family hockey-stick --optimize",
        "bound_bernoulli_100000_hockey_stick_optimize.txt", slow=True),
    # Numerical failures, each one line.  The order-300 Hellinger value at
    # n = 2000 overflows a float, and the order-64 one at n = 100000 comes
    # out inf.
    Run("bound --model bernoulli --n 2000 --p 300",
        error="error: numerical failure (OverflowError): math range error"),
    Run("bound --model bernoulli --n 100000 --p 64",
        error="error: numerical failure (FloatingPointError): closed_form divergence is not"
        " finite: value inf, error estimate 0.0"),
    # The Gaussian hockey-stick quadrature returns nan at this variance ratio.
    Run("sweep --model gaussian --n-range 1..2 --sigma-sq 1e-300 --family hockey-stick --oracle",
        error=NAN_QUADRATURE),
    Run("bound --model gaussian --n 1 --sigma-sq 1e-300 --family hockey-stick --optimize",
        error=NAN_QUADRATURE),
    # sigma_sq / n underflows to 0 although both variances are positive; at
    # n = 1 the variance ratio 1 / 5e-324 overflows.
    Run("bound --model gaussian --n 2 --sigma-sq 5e-324", error=NO_NOISE_RATIO + "2"),
    Run("bound --model gaussian --n 2 --sigma-sq 5e-324 --family hockey-stick",
        error=NO_NOISE_RATIO + "2"),
    Run("sweep --model gaussian --n-range 1..2 --sigma-sq 5e-324 --oracle",
        error=NO_NOISE_RATIO + "1"),
    # The slice discriminant cancels below 0; at r = 1e-320 marginal_var
    # rounds to noise_var, so the slice quadratic has no x^2 term.
    Run("bound --model gaussian --n 1 --sigma-sq 1e-20 --family hockey-stick",
        error=SLICE_LOST + "1e+20"),
    Run("bound --model gaussian --n 2 --sigma-w-sq 1e-320 --family hockey-stick",
        error=SLICE_LOST + "1e-320"),
    # A searched column fails at its first failing n on one process or two:
    # n = 1, this process's first, and n = 5, the first of the forked child.
    Run("compare --model gaussian --n-range 1..4 --sigma-w-sq 1e-16 --sigma-sq 1 --optimize",
        error=SLICE_LOST + "1e-16"),
    Run("compare --model gaussian --n-range 4..7 --sigma-w-sq 5.62e-17 --sigma-sq 1 --optimize",
        error=SLICE_LOST + "2.8100000000000003e-16"),
    # The quadrature stalls above its rounding floor.
    Run("bound --model gaussian --n 1 --sigma-w-sq 1e20 --sigma-sq 1 --family hockey-stick",
        error="error: numerical failure (QuadratureError): integration stalled at error"
        " 6.885e-10 after 4096 panels"),
    # x squared out to 8 marginal standard deviations overflows a float.
    Run("validate --model gaussian --n-range 10..11 --sigma-w-sq 2.0358453095027424e304"
        " --sigma-sq 3.760231154043166e307 --samples 2000",
        error="error: numerical failure (FloatingPointError): overflow encountered in square"),
    # Each command reads only its options, by flag or by config key.
    Run("bound --model bernoulli", error="error: --n is required for a single bound"),
    Run("bound --n 5 --oracle --svg {tmp}/out.svg --n-range 1..3",
        error="error: bound does not take --oracle, --svg, --n-range"),
    Run("bound --n 3 --samples 10", error="error: bound does not take --samples"),
    Run("bound --n 3", config="samples = 10\n", error="error: bound does not take --samples"),
    Run("sweep --self-test-negate", error="error: sweep does not take --self-test-negate"),
    Run("sweep", config="self-test-negate = yes\n",
        error="error: sweep does not take --self-test-negate"),
    Run("compare --family hellinger", error="error: compare does not take --family"),
    Run("compare", config="family = hellinger\n", error="error: compare does not take --family"),
    Run("validate --csv {tmp}/v.csv", error="error: validate does not take --csv"),
    Run("validate --svg {tmp}/v.svg", error="error: validate does not take --svg"),
    Run("validate --family hellinger", error="error: validate does not take --family"),
    Run("validate --oracle", error="error: validate does not take --oracle"),
    Run("validate --csv {tmp}/v.csv --svg {tmp}/v.svg --family hellinger --oracle",
        error=VALIDATE_UNREAD),
    Run("validate", error=VALIDATE_UNREAD,
        config="csv = {tmp}/v.csv\nsvg = {tmp}/v.svg\nfamily = hellinger\noracle = true\n"),
    # One known family, by flag or by config key, so that no command prints
    # bounds of some other family; bound takes one.
    Run("bound --n 3 --model foo", error="error: unknown model 'foo'"),
    Run("bound --n 5 --family foo --csv {tmp}/out.csv", error="error: unknown bound family 'foo'"),
    Run("bound --n 5 --csv {tmp}/out.csv", config="family = foo\n",
        error="error: unknown bound family 'foo'"),
    Run("sweep --n 5 --family foo --csv {tmp}/out.csv", error="error: unknown bound family 'foo'"),
    Run("sweep --n 5 --csv {tmp}/out.csv", config="family = foo\n",
        error="error: unknown bound family 'foo'"),
    Run("bound --n 5 --family hellinger --family hockey-stick",
        error="error: bound takes one family, got hellinger, hockey_stick"),
    Run("bound --n 5", config="family = hockey-stick, hellinger\n",
        error="error: bound takes one family, got hockey_stick, hellinger"),
    # A parameter the chosen family or model does not use still meets its
    # rule, given by flag or by config key, and before an unread option.
    Run("bound --family hellinger --p 0.5", error="error: p must exceed 1"),
    Run("bound --n 5 --p 0.5 --oracle", error="error: p must exceed 1"),
    Run("bound --n 3 --family hockey-stick --p 0.5", error="error: p must exceed 1"),
    Run("bound --n 3 --family hockey-stick", config="p = 0.5\n", error="error: p must exceed 1"),
    Run("sweep --n-range 1..3 --family hellinger --beta 5",
        error="error: gamma must be at least beta"),
    Run("compare --model gaussian --n-range 1..2 --optimize", config="gamma = 0.5\n",
        error="error: gamma must be at least beta"),
    Run("bound --model bernoulli --n 3 --sigma-sq 0",
        error="error: variances must be strictly positive"),
    Run("validate --n-range 1..2", config="sigma-w-sq = -1\n",
        error="error: variances must be strictly positive"),
    # An infinite noise variance would make the variance ratio r = 0.
    Run("bound --model gaussian --n 5 --sigma-sq inf", error=INFINITE_NOISE),
    Run("bound --model gaussian --n 5 --sigma-sq inf --family hockey-stick", error=INFINITE_NOISE),
    Run("bound --model bernoulli --n 5 --sigma-sq inf", error=INFINITE_NOISE),
    Run("sweep --model gaussian --n-range 1..3", config="sigma-sq = 1e400\n", error=INFINITE_NOISE),
    # An infinite family parameter is named; a nan one breaks its order rule.
    Run("bound --n 3 --p inf", error="error: p must be finite, got inf"),
    Run("bound --n 3 --family hockey-stick --gamma inf",
        error="error: gamma must be finite, got inf"),
    Run("bound --n 3 --beta inf --gamma inf", error="error: beta must be finite, got inf"),
    Run("bound --n 3 --p nan", error="error: p must exceed 1"),
    # A subnormal beta keeps too few bits for E_{beta,gamma} = beta E_{1,tau}.
    Run("bound --model gaussian --n 50 --family hockey-stick --beta 5e-324 --gamma 5e-324",
        error=SUBNORMAL_BETA),
    Run("validate --model gaussian --n-range 50..50", config="beta = 5e-324\ngamma = 5e-324\n",
        error=SUBNORMAL_BETA),
    # n ranges.
    Run("sweep --n 5 --n-range 1..2", error="error: give --n or --n-range, not both"),
    Run("sweep", config="n = 5\nn-range = 1..2\n", error="error: give --n or --n-range, not both"),
    # bound reads no --n-range, so its --n leaves the file's n range unread.
    Run("bound --n 3", config="n-range = 1..2\n", error="error: bound does not take --n-range"),
    Run("validate --n-range 0..2", error=EMPTY_RANGE),
    Run("validate --n-range 3..1", error=EMPTY_RANGE),
    Run("sweep --model bernoulli --n-range 5..2", error=EMPTY_RANGE),
    Run("sweep --model bernoulli --n-range 5", error="error: bad n range '5'; expected A..B"),
    Run("sweep --model bernoulli --n-range 1..x", error="error: bad n range '1..x'; expected A..B"),
    Run("sweep --model bernoulli --n-range ..3", error="error: bad n range '..3'; expected A..B"),
    Run("sweep --model bernoulli --n-range 1..2..3",
        error="error: bad n range '1..2..3'; expected A..B"),
    # --samples is checked before anything is computed, even where no oracle
    # runs: a standard error needs two samples, and one must not print nan.
    Run("sweep --model bernoulli --n-range 1..2 --oracle --samples 1", error=SAMPLES_RULE),
    Run("sweep --n-range 1..3 --samples 1", error=SAMPLES_RULE),
    Run("compare --n-range 1..3 --samples 0", error=SAMPLES_RULE),
    Run("validate --model gaussian --n-range 1..2 --samples 1", error=SAMPLES_RULE),
    Run("validate --model bernoulli --n-range 1..2 --samples 1", error=SAMPLES_RULE),
    # Each n draws from the stream of --seed + n, which must exist.
    Run("sweep --n-range 1..3 --oracle --samples 100 --seed -2",
        error="error: the stream seed --seed + n must be non-negative, got -1"),
    Run("validate --model bernoulli --n-range 1..2 --samples 100 --seed -5",
        error="error: the stream seed --seed + n must be non-negative, got -4"),
    # Config lines, each value checked whether or not a flag overrides it.
    Run("sweep", config="seed 5\n", error="error: {tmp}/run.cfg:1: expected key = value"),
    Run("sweep", config="modle = bernoulli\n", error="error: unknown config key 'modle'"),
    Run("sweep --n-range 1..2", config="oracle = maybe\n",
        error="error: config key 'oracle' takes 1/true/yes/on or 0/false/no/off, not 'maybe'"),
    Run("sweep --n-range 1..2", config="seed = abc\n",
        error="error: config key 'seed' takes an integer, not 'abc'"),
    Run("sweep --n-range 1..2", config="seed = 2.5\n",
        error="error: config key 'seed' takes an integer, not '2.5'"),
    Run("sweep --n-range 1..2", config="beta = x\n",
        error="error: config key 'beta' takes a number, not 'x'"),
    Run("sweep --n-range 1..2 --seed 3", config="seed = abc\n",
        error="error: config key 'seed' takes an integer, not 'abc'"),
    Run("sweep --n-range 1..2 --seed 3", config="seed = 2.5\n",
        error="error: config key 'seed' takes an integer, not '2.5'"),
    Run("sweep --n-range 1..2 --seed 3", config="beta = x\n",
        error="error: config key 'beta' takes a number, not 'x'"),
    # Every vacuous hockey-stick bound leaves nothing to plot, and no CSV.
    Run("sweep --model bernoulli --n-range 1..2 --family hockey-stick --beta 1e-300 --gamma 1e300"
        " --svg {tmp}/z.svg", error="error: no positive values to plot"),
    Run("sweep --model bernoulli --n-range 1..2 --family hockey-stick --beta 1e-300 --gamma 1e300"
        " --svg {tmp}/z.svg --csv {tmp}/z.csv", error="error: no positive values to plot"),
    # I/O errors print nothing to stdout and leave no other file.
    Run("bound --n 3 --csv /nonexistent/x.csv",
        error="i/o error: [Errno 2] No such file or directory: '/nonexistent/x.csv'"),
    Run("sweep --model bernoulli --n-range 1..2 --csv /nonexistent/dir/x.csv",
        error="i/o error: [Errno 2] No such file or directory: '/nonexistent/dir/x.csv'"),
    Run("sweep --n-range 1..2 --svg /nonexistent/a.svg",
        error="i/o error: [Errno 2] No such file or directory: '/nonexistent/a.svg'"),
    Run("sweep --n-range 1..2 --csv {tmp}/ok.csv --svg /nonexistent/a.svg",
        error="i/o error: [Errno 2] No such file or directory: '/nonexistent/a.svg'"),
    Run("sweep --config /nonexistent/file.cfg",
        error="i/o error: [Errno 2] No such file or directory: '/nonexistent/file.cfg'"),
    # A write that fails once its file is open (a full device): each command
    # writes its files before it prints, so nothing is printed, and the file
    # the run created before it is removed.
    Run("bound --n 3 --csv /dev/full", error=NO_SPACE),
    Run("sweep --n-range 1..2 --svg /dev/full", error=NO_SPACE),
    Run("sweep --n-range 1..2 --csv {tmp}/a.csv --svg /dev/full", error=NO_SPACE),
]


def main() -> int:
    failed = []
    for run in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            child = subprocess.run(
                [sys.executable, "-m", "fdivrisk.cli", *run.args(tmp)], capture_output=True
            )
            problems = check(run, child.returncode, child.stdout, child.stderr, tmp)
        failed += [f"{run.name}: {problem}" for problem in problems]
    print("\n".join(failed) or f"{len(RUNS)} runs pass their checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

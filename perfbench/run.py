"""fdivrisk benchmark: real CLI runs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

The source tree is the directory above this file; nothing is installed.  Each
CLI invocation of the workload (perfbench/spec.json) runs in its own child
process, one at a time, so every run starts cold, as a user's does.  A pass
runs all of a workload's invocations once; a run makes as many passes as fit
in ``--seconds`` (at least two), and each time is the median over passes.

Host speed on this class of shared machine drifts by up to 2x over seconds
to minutes, in CPU time as much as in wall time, which no run length
averages out.  So each child is bracketed by a fixed pure-Python loop, and
its times are scaled by CAL_REF_S / (mean loop time around it): reported
seconds are seconds at the host speed at which that loop takes CAL_REF_S.
The readable report also gives the unscaled times.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one plain pass and then traced passes (perfbench/tracer.py) and reports
the per-layer metrics.  Every output is checked against an exact Bayes-risk
reference computed before timing (perfbench/checks.py), and every pass must
reproduce the first pass's output bytes.  The last line of standard output is
the JSON result; a readable report goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Every run must end within 180 s; stop starting passes well before that.
DEADLINE_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
# setup_s times a child that runs only this: numpy plus the package.
SETUP_STATEMENT = "import fdivrisk.cli"
# The calibration loop takes about CAL_REF_S on an uncontended core of the
# machine the benchmark was defined on (Python 3.11).
CAL_ITERATIONS = 500_000
CAL_REF_S = 0.09

_RANGE = re.compile(r"\{(\d+)\.\.(\d+)\}")
_COUNT = re.compile(r"\{(\d+)\}")


def expand(template: list[str], offset: int, seed: int, out: Path) -> list[str]:
    """Instantiate an argv template for one seed (see perfbench/spec.json)."""
    argv = []
    for token in template:
        token = _RANGE.sub(lambda m: f"{int(m[1]) + offset}..{int(m[2]) + offset}", token)
        token = _COUNT.sub(lambda m: str(int(m[1]) + offset), token)
        argv.append(token.replace("{out}", str(out)))
    return argv + ["--seed", str(seed)]


def option(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def sample_counts(argv: list[str]) -> list[int]:
    n_range = option(argv, "--n-range")
    if n_range is not None:
        lo, hi = n_range.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(option(argv, "--n"))]


def calibrate() -> float:
    """Seconds a fixed pure-Python float loop takes now: the host's speed."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, CAL_ITERATIONS):
        total += math.log(i) * math.exp(-1.0 / i)
    return time.perf_counter() - start


class Runner:
    """Runs children one at a time, each between two calibration samples."""

    def __init__(self, scratch: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **{name: "1" for name in THREAD_VARS})
        self.scratch = scratch
        self.deadline = deadline
        self.calibration = calibrate()

    def run(self, command: list[str]) -> dict:
        """Run one child to completion; wall time includes process start.

        The child is killed if it is still running at the deadline.
        """
        out_path, err_path = self.scratch / "stdout", self.scratch / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        before, self.calibration = self.calibration, calibrate()
        return {
            "rc": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "scale": CAL_REF_S / (0.5 * (before + self.calibration)),
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_bytes(),
        }


def run_pass(runner: Runner, invocations: list[list[str]], traced: bool, setup: list[dict] | None) -> list[dict]:
    """Run every invocation once.  With ``setup`` given, time one import-only
    child after each invocation, so set-up samples spread over the run."""
    results = []
    for i, argv in enumerate(invocations):
        prefix = runner.scratch / f"trace{i}"
        if traced:
            command = [sys.executable, str(HERE / "tracer.py"), str(prefix), *argv]
        else:
            command = [sys.executable, "-m", "fdivrisk.cli", *argv]
        result = runner.run(command)
        files = {}
        for flag in ("--csv", "--svg"):
            path = option(argv, flag)
            if path is not None:
                path = Path(path)
                files[flag] = path.read_bytes() if path.exists() else b""
                path.unlink(missing_ok=True)
        result["files"] = files
        if traced and prefix.with_suffix(".json").exists():
            result["trace"] = tracer.summarize(str(prefix))
        results.append(result)
        if setup is not None:
            setup.append(runner.run([sys.executable, "-c", SETUP_STATEMENT]))
    return results


def outputs(result: dict) -> tuple:
    return (result["rc"], result["stdout"], tuple(sorted(result["files"].items())))


def check_outputs(chk: checks.Checks, invocations: list[list[str]], results: list[dict], risk: dict) -> list[float]:
    """Check the content of one pass's outputs; return the tightness ratios."""
    ratios = []
    for argv, result in zip(invocations, results):
        label = " ".join(argv)
        if not chk.check(result["rc"] == 0, f"exit code {result['rc']}: {label}"):
            continue
        command, model, ns = argv[0], option(argv, "--model"), sample_counts(argv)
        stdout = result["stdout"].decode("utf-8", "replace")
        if command in ("compare", "sweep"):
            csv = result["files"]["--csv"].decode("utf-8", "replace") if "--csv" in argv else stdout
            ratios += checks.check_csv(chk, csv, model, ns, risk, "--oracle" in argv)
            if "--svg" in argv:
                checks.check_svg(chk, result["files"]["--svg"].decode("utf-8", "replace"))
        elif command == "bound":
            checks.check_bound(chk, stdout, model, ns[0], risk)
        elif command == "validate":
            checks.check_validate(chk, stdout, risk)
    return ratios


def reference_risks(invocations: list[list[str]]) -> dict:
    risk = {}
    for argv in invocations:
        model = option(argv, "--model")
        for n in sample_counts(argv):
            if (model, n) not in risk:
                risk[model, n] = checks.bayes_risk(model, n)
    return risk


def check_import_location(runner: Runner) -> None:
    """Fail unless the children import fdivrisk from this source tree."""
    probe = runner.run([sys.executable, "-c", f"{SETUP_STATEMENT}; print(fdivrisk.cli.__file__)"])
    location = probe["stdout"].decode().strip()
    if probe["rc"] != 0 or not location.startswith(str(SRC)):
        raise RuntimeError(f"fdivrisk.cli does not import from {SRC}: {probe['stderr'].decode()[-500:]}")


def scaled(results: list[dict], key: str) -> float:
    return sum(r[key] * r["scale"] for r in results)


def measure(workload: dict, seed: int, seconds: int, trace: bool, scratch: Path) -> dict:
    runner = Runner(scratch, time.monotonic() + DEADLINE_S)
    offset = seed % max(1, workload["n_shift_band"])
    invocations = [expand(t, offset, seed, scratch) for t in workload["invocations"]]
    check_import_location(runner)
    risk = reference_risks(invocations)

    chk = checks.Checks()
    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    ratios: list[float] = []
    setup: list[dict] | None = None if trace else []
    measure_start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        use_trace = trace and bool(plain)
        results = run_pass(runner, invocations, use_trace, setup)
        if not plain:
            ratios = check_outputs(chk, invocations, results, risk)
        else:
            for argv, first, result in zip(invocations, plain[0], results):
                chk.check(outputs(result) == outputs(first), f"output differs from the first pass: {' '.join(argv)}")
        if use_trace:
            for argv, result in zip(invocations, results):
                chk.check("trace" in result, f"no trace written: {' '.join(argv)}")
        (traced if use_trace else plain).append(results)
        # Run only the passes that fit in --seconds, but at least MIN_PASSES.
        now = time.monotonic()
        elapsed = now - measure_start
        enough = len(traced if trace else plain) >= MIN_PASSES
        full = elapsed * (1.0 + 1.0 / (len(plain) + len(traced))) > seconds
        timed_out = any(r["rc"] == -signal.SIGKILL for r in results)
        if (enough and full) or timed_out or now + 1.25 * (now - pass_start) > runner.deadline:
            break

    median = statistics.median
    if trace:
        summaries = [tracer.merge([r["trace"] for r in p if "trace" in r]) for p in traced]
        for summary in summaries[1:]:
            chk.check(tracer.counts(summary) == tracer.counts(summaries[0]), "trace counts repeat across passes")
        per_pass = [tracer.layer_metrics(s) for s in summaries]
        # Counts are checked equal across passes above; times take the median.
        values = {
            key: first if isinstance(first, int) else median(m[key] for m in per_pass)
            for key, first in per_pass[0].items()
        }
        values["trace.overhead"] = median(scaled(p, "wall") for p in traced) / median(scaled(p, "wall") for p in plain)
        unscaled = {}
    else:
        values = {
            "wall_s": median(scaled(p, "wall") for p in plain),
            "cpu_s": median(scaled(p, "cpu") for p in plain),
            "peak_rss_mb": median(max(r["rss_mb"] for r in p) for p in plain),
            "setup_s": median(r["wall"] * r["scale"] for r in setup),
            "tightness": statistics.fmean(ratios) if ratios else 0.0,
            "pass_frac": (chk.attempted - chk.failed) / chk.attempted,
        }
        unscaled = {
            "wall_s": median(sum(r["wall"] for r in p) for p in plain),
            "cpu_s": median(sum(r["cpu"] for r in p) for p in plain),
            "setup_s": median(r["wall"] for r in setup),
            "speed_scale": median(r["scale"] for p in plain for r in p),
        }
    return {
        "checks": chk,
        "values": values,
        "unscaled": unscaled,
        "passes": len(traced if trace else plain),
        "invocations": invocations,
        "stderr": [r["stderr"] for p in plain + traced for r in p if r["rc"] != 0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fdivrisk" / "cli.py").is_file():
        print(f"error: no fdivrisk source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = build / f"perfbench-{os.getpid()}"
    scratch.mkdir()
    try:
        run = measure(spec["workloads"][args.workload], args.seed, args.seconds, bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    chk, values = run["checks"], run["values"]
    metrics_spec = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in metrics_spec} != set(values):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in metrics_spec})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}

    report = sys.stderr
    print(
        f"workload {args.workload}, seed {args.seed}, {run['passes']} passes, trace {args.trace}; "
        f"python {platform.python_version()}, numpy {numpy.__version__}, {os.cpu_count()} cpus",
        file=report,
    )
    for invocation in run["invocations"]:
        print(f"  fdivrisk {' '.join(invocation)}", file=report)
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}", file=report)
    for name, value in run["unscaled"].items():
        print(f"  unscaled {name:<39} {value:.6g}", file=report)
    print(f"  failed_frac {chk.failed}/{chk.attempted} = {chk.failed / chk.attempted:.6g}", file=report)
    for failure in chk.failures:
        print(f"  FAILED: {failure}", file=report)
    for text in run["stderr"][:3]:
        print(text.decode("utf-8", "replace")[-2000:], file=report)

    correct = chk.failed == 0
    print(json.dumps({"correct": correct, "attempted": chk.attempted, "failed": chk.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark harness; the package's own suite does not collect them.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def traced(tmp_path: Path, name: str, *cli_args: str) -> tuple[dict, str]:
    prefix = tmp_path / name
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(prefix), *cli_args],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return tracer.summarize(str(prefix)), proc.stdout


def test_divergence_reached_through_bounds_is_counted(tmp_path):
    # With --optimize the CLI never calls e_beta_gamma_numeric itself: every
    # evaluation goes through the binding inside fdivrisk.bounds.
    summary, _ = traced(tmp_path, "t", "bound", "--model", "bernoulli", "--n", "4", "--family", "hockey-stick", "--optimize")
    metrics = tracer.layer_metrics(summary)
    evals = metrics["divergences.e_beta_gamma.bernoulli.calls"]
    assert evals > 0
    assert summary["counters"]["bounds.search_div_evals"] == evals
    assert metrics["bounds.optimize_parameters.calls"] == 1
    assert metrics["numerics.adaptive_quadrature.integrand_evals"] > 0
    assert metrics["numerics.bisect_root.f_evals"] > 0
    assert metrics["bounds.cache_lookups"] >= evals


def test_two_traced_runs_give_identical_counts(tmp_path):
    argv = ("compare", "--model", "bernoulli", "--n-range", "1..3", "--optimize", "--seed", "11")
    first, out1 = traced(tmp_path, "a", *argv)
    second, out2 = traced(tmp_path, "b", *argv)
    assert out1 == out2
    assert tracer.counts(first) == tracer.counts(second)
    assert tracer.counts(first)["calls:divergences.e_beta_gamma.bernoulli"] > 0


def test_traced_output_matches_plain_output(tmp_path):
    argv = ("validate", "--model", "gaussian", "--n-range", "1..2")
    plain = subprocess.run([sys.executable, "-m", "fdivrisk.cli", *argv], env=ENV, capture_output=True, timeout=120)
    _, out = traced(tmp_path, "v", *argv)
    assert plain.returncode == 0
    assert out.encode() == plain.stdout


def test_reference_risk_matches_package_oracles():
    from fdivrisk import BernoulliModel, GaussianModel
    from fdivrisk.validation import exact_bernoulli_risk

    for n in (1, 2, 7, 30):
        assert checks.bayes_risk("bernoulli", n) == pytest.approx(exact_bernoulli_risk(BernoulliModel(n)), rel=1e-10)
        assert checks.bayes_risk("gaussian", n) == pytest.approx(GaussianModel(n).bayes_risk_reference().value, rel=1e-14)


COMPARE = ["compare", "--model", "bernoulli", "--n-range", "1..2", "--seed", "1"]


def _check_compare(factors: list[tuple[float, float]]) -> tuple[checks.Checks, list[float]]:
    """Check a compare CSV whose bound cells are the given multiples of the risk."""
    risk = run.reference_risks([COMPARE])
    rows = [checks.CSV_HEADER]
    for n, (h, k) in enumerate(factors, 1):
        rows.append(f"{n},{h * risk['bernoulli', n]!r},{k * risk['bernoulli', n]!r},,")
    result = {"rc": 0, "stdout": ("\n".join(rows) + "\n").encode(), "files": {}}
    chk = checks.Checks()
    return chk, run.check_outputs(chk, [COMPARE], [result], risk)


@pytest.mark.parametrize("factor", [1.01, -0.001, math.nan, math.inf])
def test_wrong_bound_cell_counts_as_failed(factor):
    good, ratios = _check_compare([(0.3, 0.2), (0.3, 0.2)])
    assert good.failed == 0
    assert ratios == pytest.approx([0.3, 0.3])

    bad, _ = _check_compare([(0.3, 0.2), (0.3, factor)])
    assert bad.attempted == good.attempted
    assert bad.failed == 1


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Output checks for the fdivrisk benchmark, against a Bayes-risk reference
that shares no code with fdivrisk.

Reference risks (absolute loss, Bayes estimator = posterior median):

- Gaussian location: sqrt(2/pi) * sigma_post, with
  sigma_post^2 = 1 / (1/sigma_w^2 + n/sigma^2) at the CLI defaults.
- Coin flip: sum_k a/(a+b) * (1 - 2 I_{m_k}(a+1, b)) / (n+1), with
  a = k+1, b = n-k+1 and m_k the median of Beta(a, b).  This is
  E|W - m_k| under the Beta(a, b) posterior, averaged over the uniform
  marginal of the Hamming weight k.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy import special

CSV_HEADER = "n,hellinger_bound,hockey_stick_bound,oracle_risk,oracle_stderr"
# The CLI's documented Gaussian defaults; the workloads do not override them.
SIGMA_W_SQ = 1.0
SIGMA_SQ = 2.0
# Bound cells are certified lower bounds; allow only float rounding above the risk.
SOUND_REL = 1e-12
# validate prints bounds with 8 significant digits.
PRINTED_REL = 1e-7
# A Monte-Carlo risk further than this many standard errors from the exact
# risk is a fault (chance about 2e-9 per row for a correct sampler).
ORACLE_SIGMAS = 6.0

_VALIDATE_BOUND = re.compile(r"^(bernoulli|gaussian)\(n=(\d+)[^)]*\): .* <= risk\s+analytic=\s*(\S+)")
_VALIDATE_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def bayes_risk(model: str, n: int) -> float:
    """Exact Bayes risk of the model at sample count n."""
    if model == "gaussian":
        return math.sqrt(2.0 / math.pi) * math.sqrt(1.0 / (1.0 / SIGMA_W_SQ + n / SIGMA_SQ))
    if model != "bernoulli":
        raise ValueError(f"unknown model {model!r}")
    k = np.arange(n + 1, dtype=float)
    a = k + 1.0
    b = n - k + 1.0
    median = special.betaincinv(a, b, 0.5)
    return float(np.sum(a / (a + b) * (1.0 - 2.0 * special.betainc(a + 1.0, b, median))) / (n + 1.0))


class Checks:
    """Tally of attempted and failed checks, with the first few failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def _float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def check_csv(checks: Checks, text: str, model: str, ns: list[int], risk: dict, oracle: bool) -> list[float]:
    """Check one CSV; return each row's largest bound divided by the exact risk."""
    lines = text.splitlines()
    checks.check(bool(lines) and lines[0] == CSV_HEADER, f"{model}: CSV header")
    rows = [line.split(",") for line in lines[1:]]
    if not checks.check(
        [row[0] for row in rows] == [str(n) for n in ns] and all(len(row) == 5 for row in rows),
        f"{model}: CSV rows for n={ns[0]}..{ns[-1]}",
    ):
        return []
    ratios = []
    for row, n in zip(rows, ns):
        ref = risk[model, n]
        try:
            hellinger, hockey, oracle_risk, stderr = (_float(c) for c in row[1:])
        except ValueError:
            checks.check(False, f"{model} n={n}: unparsable CSV row")
            continue
        cells = [v for v in (hellinger, hockey) if v is not None]
        checks.check(len(cells) == 2, f"{model} n={n}: both bound cells present")
        for value in cells:
            checks.check(
                math.isfinite(value) and 0.0 <= value <= ref * (1.0 + SOUND_REL),
                f"{model} n={n}: bound {value!r} outside [0, risk {ref!r}]",
            )
        if oracle:
            checks.check(
                oracle_risk is not None
                and stderr is not None
                and math.isfinite(oracle_risk)
                and 0.0 < stderr < math.inf
                and abs(oracle_risk - ref) <= ORACLE_SIGMAS * stderr,
                f"{model} n={n}: oracle {oracle_risk!r} +- {stderr!r} vs risk {ref!r}",
            )
        if cells:
            ratios.append(max(cells) / ref)
    return ratios


def check_bound(checks: Checks, stdout: str, model: str, n: int, risk: dict) -> None:
    values = [line.split()[1] for line in stdout.splitlines() if line.startswith("bound ")]
    ok = len(values) == 1
    if ok:
        try:
            value = float(values[0])
        except ValueError:
            ok = False
        else:
            ok = math.isfinite(value) and 0.0 <= value <= risk[model, n] * (1.0 + SOUND_REL)
    checks.check(ok, f"bound {model} n={n}: {values!r} vs risk {risk[model, n]!r}")


def check_validate(checks: Checks, stdout: str, risk: dict) -> None:
    """Every check passed, and every printed bound is below the exact risk."""
    lines = stdout.splitlines()
    summary = _VALIDATE_SUMMARY.match(lines[-1]) if lines else None
    checks.check(
        summary is not None and summary[1] == summary[2] and int(summary[2]) > 0,
        f"validate summary {lines[-1] if lines else ''!r}",
    )
    for line in lines:
        match = _VALIDATE_BOUND.match(line)
        if match:
            model, n, value = match[1], int(match[2]), float(match[3])
            checks.check(
                0.0 <= value <= risk[model, n] * (1.0 + PRINTED_REL),
                f"validate {model} n={n}: bound {value!r} vs risk {risk[model, n]!r}",
            )


def check_svg(checks: Checks, text: str) -> None:
    checks.check(text.startswith("<svg") and text.rstrip().endswith("</svg>") and "<polyline" in text, "SVG plot")

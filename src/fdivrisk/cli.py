"""Command-line front end: single bounds, n-sweeps, and oracle validation.

Subcommands: ``bound`` (one bound, printed), ``sweep`` (CSV/SVG risk curves
over a range of sample counts), ``compare`` (sweep with every family), and
``validate`` (oracle certification, exit 0 only if everything passes).

Exit codes: 0 success, 1 validation failure, 2 argument error, numerical
failure (an ``ArithmeticError`` such as an overflow) or running out of memory
(such as a ``--samples`` too large to hold), 3 I/O error.
All randomness flows from ``--seed`` (fixed default, never wall clock), so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

from .bounds import (
    BoundResult,
    hellinger_bound,
    hockey_stick_bound,
    optimize_parameters,
)
from .divergences import e_beta_gamma_numeric, hellinger_divergence
from .models import DEFAULT_SAMPLES, DEFAULT_SEED, BernoulliModel, GaussianModel, Model
from .svg import render_line_plot
from .validation import (
    FIXED_BETA,
    FIXED_GAMMA,
    certification_suite,
    default_order,
    generator_label,
    risk_reports,
)

__all__ = ["main", "RiskCurve", "RiskCurveRow", "SweepConfig"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

FAMILIES = ("hellinger", "hockey_stick")
CSV_HEADER = "n,hellinger_bound,hockey_stick_bound,oracle_risk,oracle_stderr"


# --------------------------------------------------------------------------
# Sweep data model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    model: str
    n_lo: int
    n_hi: int
    families: tuple[str, ...]
    sigma_w_sq: float
    sigma_sq: float
    p: float | None
    beta: float
    gamma: float
    optimize: bool
    oracle: bool
    samples: int
    seed: int

    def __post_init__(self):
        if self.n_lo > self.n_hi or self.n_lo < 1:
            raise ValueError("n range must be non-empty and start at 1 or above")
        if not self.families:
            raise ValueError("at least one bound family is required")
        for family in self.families:
            if family not in FAMILIES:
                raise ValueError(f"unknown bound family {family!r}")


@dataclass(frozen=True)
class RiskCurveRow:
    n: int
    hellinger: float | None
    hockey_stick: float | None
    oracle_risk: float | None
    oracle_stderr: float | None


@dataclass(frozen=True)
class RiskCurve:
    rows: tuple[RiskCurveRow, ...]

    def __post_init__(self):
        ns = [row.n for row in self.rows]
        if ns != sorted(ns):
            raise ValueError("rows must be sorted by n")
        for row in self.rows:
            for v in (row.hellinger, row.hockey_stick):
                if v is not None and v < 0.0:
                    raise ValueError("bound values must be non-negative")


def _fmt_cell(v: float | None) -> str:
    return "" if v is None else format(v, ".17g")


def risk_curve_csv(curve: RiskCurve) -> str:
    lines = [CSV_HEADER]
    for row in curve.rows:
        lines.append(
            ",".join(
                (
                    str(row.n),
                    _fmt_cell(row.hellinger),
                    _fmt_cell(row.hockey_stick),
                    _fmt_cell(row.oracle_risk),
                    _fmt_cell(row.oracle_stderr),
                )
            )
        )
    return "\n".join(lines) + "\n"


def build_model(kind: str, n: int, sigma_w_sq: float, sigma_sq: float) -> Model:
    if kind == "bernoulli":
        return BernoulliModel(n)
    if kind == "gaussian":
        return GaussianModel(n, sigma_w_sq, sigma_sq)
    raise ValueError(f"unknown model {kind!r}")


def _family_bound(
    model: Model, family: str, config: "SweepConfig | argparse.Namespace"
) -> BoundResult:
    """One bound from the family parameters (p, beta, gamma, optimize) of a
    sweep config or of the parsed ``bound`` arguments."""
    if config.optimize:
        return optimize_parameters(model, family)
    coeff = model.small_ball_coefficient()
    if family == "hellinger":
        p = config.p if config.p is not None else default_order(model)
        return hellinger_bound(p, hellinger_divergence(model, p), coeff)
    return hockey_stick_bound(
        config.beta, config.gamma, e_beta_gamma_numeric(model, config.beta, config.gamma), coeff
    )


def compute_risk_curve(config: SweepConfig) -> RiskCurve:
    """Bounds and, with ``config.oracle``, the risk oracle for each n.

    The oracle columns come from ``risk_reports``: worker threads draw them
    while this thread computes the bounds.
    """
    models = [
        build_model(config.model, n, config.sigma_w_sq, config.sigma_sq)
        for n in range(config.n_lo, config.n_hi + 1)
    ]
    reports = risk_reports(models, config.samples, config.seed) if config.oracle else None
    rows = []
    for model in models:
        hellinger = hockey = risk = stderr = None
        if "hellinger" in config.families:
            hellinger = _family_bound(model, "hellinger", config).value
        if "hockey_stick" in config.families:
            hockey = _family_bound(model, "hockey_stick", config).value
        if reports is not None:
            risk, stderr = next(reports)
        rows.append(RiskCurveRow(model.n, hellinger, hockey, risk, stderr))
    return RiskCurve(tuple(rows))


def render_curve_svg(curve: RiskCurve, title: str) -> str:
    xs = [row.n for row in curve.rows]
    series: list[tuple[str, list[float | None]]] = []
    if any(row.hellinger is not None for row in curve.rows):
        series.append(("hellinger", [row.hellinger for row in curve.rows]))
    if any(row.hockey_stick is not None for row in curve.rows):
        series.append(("hockey-stick", [row.hockey_stick for row in curve.rows]))
    if any(row.oracle_risk is not None for row in curve.rows):
        series.append(("oracle risk", [row.oracle_risk for row in curve.rows]))
    return render_line_plot(xs, series, title=title, x_label="n", y_label="risk lower bound")


# --------------------------------------------------------------------------
# Argument handling
# --------------------------------------------------------------------------

# name -> (coercion, help); used for both flags and the flat config file.
_OPTIONS: dict[str, tuple] = {
    "model": (str, "estimation model: bernoulli | gaussian"),
    "n": (int, "sample count for a single bound"),
    "n_range": (str, "inclusive sweep range, e.g. 1..50"),
    "sigma_w_sq": (float, "prior variance (gaussian model)"),
    "sigma_sq": (float, "noise variance (gaussian model)"),
    "p": (float, "Hellinger order (> 1)"),
    "beta": (float, "hockey-stick beta (> 0)"),
    "gamma": (float, "hockey-stick gamma (>= beta)"),
    "samples": (int, "Monte-Carlo sample count"),
    "seed": (int, "RNG seed (fixed default; runs are reproducible)"),
    "csv": (str, "write CSV output to this path"),
    "svg": (str, "write an SVG plot to this path"),
}
# Values of options that neither the flags nor the config file set.
_DEFAULTS = {
    "model": "bernoulli",
    "sigma_w_sq": GaussianModel.sigma_w_sq,
    "sigma_sq": GaussianModel.sigma_sq,
    "beta": FIXED_BETA,
    "gamma": FIXED_GAMMA,
    "samples": DEFAULT_SAMPLES,
    "seed": DEFAULT_SEED,
}
_BOOL_OPTIONS = {
    "optimize": "optimise over family parameters instead of fixed values",
    "oracle": "add Monte-Carlo / exact risk columns",
    "self_test_negate": "flip one certification to verify failures are caught",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    for name, (coerce, help_text) in _OPTIONS.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=coerce, default=None, help=help_text)
    for name, help_text in _BOOL_OPTIONS.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, action="store_const", const=True, default=None, help=help_text)
    parser.add_argument(
        "--family",
        dest="family",
        action="append",
        default=None,
        choices=["hellinger", "hockey-stick", "hockey_stick"],
        help="bound family; repeat the flag for several",
    )
    parser.add_argument("--config", default=None, help="flat key=value config file; flags override it")


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve_options(args: argparse.Namespace) -> None:
    """Fill options left unset by the flags from the config file, then from
    the defaults."""
    values = parse_config_file(args.config) if args.config else {}
    for key, raw in values.items():
        if key == "family":
            if args.family is None:
                args.family = [f.strip() for f in raw.split(",") if f.strip()]
            continue
        if key in _BOOL_OPTIONS:
            if getattr(args, key) is None:
                setattr(args, key, raw.lower() in ("1", "true", "yes", "on"))
            continue
        if key not in _OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            setattr(args, key, _OPTIONS[key][0](raw))
    for key, value in _DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _parse_n_range(args: argparse.Namespace, default: tuple[int, int]) -> tuple[int, int]:
    if args.n_range:
        text = args.n_range
        if ".." not in text:
            raise ValueError(f"bad n range {text!r}; expected A..B")
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    if args.n is not None:
        return args.n, args.n
    return default


def _families(args: argparse.Namespace, default: tuple[str, ...] = FAMILIES) -> tuple[str, ...]:
    if not args.family:
        return default
    seen = []
    for name in args.family:
        canonical = name.replace("-", "_")
        if canonical not in seen:
            seen.append(canonical)
    return tuple(seen)


def _sweep_config(args: argparse.Namespace, families: tuple[str, ...]) -> SweepConfig:
    n_lo, n_hi = _parse_n_range(args, (1, 50))
    return SweepConfig(
        model=args.model,
        n_lo=n_lo,
        n_hi=n_hi,
        families=families,
        sigma_w_sq=args.sigma_w_sq,
        sigma_sq=args.sigma_sq,
        p=args.p,
        beta=args.beta,
        gamma=args.gamma,
        optimize=bool(args.optimize),
        oracle=bool(args.oracle),
        samples=args.samples,
        seed=args.seed,
    )


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


# Options that only a sweep uses, which a single bound would silently drop.
_SWEEP_ONLY = ("oracle", "svg", "n_range")


def cmd_bound(args: argparse.Namespace) -> int:
    family = _families(args, ("hellinger",))[0]
    # Validate family parameters before anything else so bad parameters are
    # reported even when the model flags are absent.
    if family == "hellinger" and args.p is not None and not args.p > 1.0:
        raise ValueError("p must exceed 1")
    if family == "hockey_stick":
        if not args.beta > 0.0:
            raise ValueError("beta must be positive")
        if not args.gamma >= args.beta:
            raise ValueError("gamma must be at least beta")
    ignored = ["--" + name.replace("_", "-") for name in _SWEEP_ONLY if getattr(args, name)]
    if ignored:
        raise ValueError(f"bound does not take {', '.join(ignored)}")
    if args.n is None:
        raise ValueError("--n is required for a single bound")
    model = build_model(args.model, args.n, args.sigma_w_sq, args.sigma_sq)
    result = _family_bound(model, family, args)

    rows = [
        ("bound", format(result.value, ".17g")),
        ("rho_star", format(result.rho_star, ".17g")),
        ("divergence", f"{result.divergence.value:.17g} ({result.divergence.method})"),
        ("parameters", generator_label(result.generator)),
        ("method", result.method + (" [vacuous]" if result.vacuous else "")),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    if args.csv:
        n = args.n
        hellinger = result.value if family == "hellinger" else None
        hockey = result.value if family == "hockey_stick" else None
        curve = RiskCurve((RiskCurveRow(n, hellinger, hockey, None, None),))
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(risk_curve_csv(curve))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, *, all_families: bool = False) -> int:
    families = _families(args) if not all_families else FAMILIES
    config = _sweep_config(args, families)
    curve = compute_risk_curve(config)
    text = risk_curve_csv(curve)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        title = f"{config.model}: risk lower bounds vs n"
        with open(args.svg, "w", encoding="utf-8", newline="") as handle:
            handle.write(render_curve_svg(curve, title))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    n_lo, n_hi = _parse_n_range(args, (1, 20))
    template = build_model(args.model, n_lo, args.sigma_w_sq, args.sigma_sq)
    reports = certification_suite(
        template,
        range(n_lo, n_hi + 1),
        beta=args.beta,
        gamma=args.gamma,
        p=args.p,
        samples=args.samples,
        seed=args.seed,
        optimize=bool(args.optimize),
    )
    if args.self_test_negate and reports:
        first = reports[0]
        reports[0] = replace(
            first, quantity=first.quantity + " [negated for self-test]", passed=not first.passed
        )
    width = max(len(r.quantity) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.quantity:<{width}}  analytic={r.analytic:>13.8g}  oracle={r.oracle:>13.8g}  "
            f"tol={r.tolerance_used:>10.3g}  {status}"
        )
    failed = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdivrisk",
        description="Lower bounds on Bayesian estimation risk via f-divergences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bound", "compute one risk lower bound"),
        ("sweep", "bounds as a function of n, emitted as CSV (and optional SVG)"),
        ("compare", "sweep with every bound family"),
        ("validate", "certify bounds and divergences against oracles"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_options(args)
        if args.command == "bound":
            return cmd_bound(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "compare":
            return cmd_sweep(args, all_families=True)
        return cmd_validate(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

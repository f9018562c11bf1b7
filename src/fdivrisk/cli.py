"""Command-line front end: single bounds, n-sweeps, and oracle validation.

Subcommands: ``bound`` (one bound, printed), ``sweep`` (CSV/SVG risk curves
over a range of sample counts), ``compare`` (sweep with every family), and
``validate`` (oracle certification, exit 0 only if everything passes).

Every option is a flag and a key of the flat config file, and ``_OPTIONS``
says which commands read it and holds its default.  The defaults that depend
on the model or the command (the Hellinger order, the n range and the
families) are filled by ``_resolve_options``, so the library takes complete
arguments and decides none.  A command given an option it does not read,
either way, exits 2 without computing anything.  So does a family or model
parameter that breaks its rule, also where the chosen family or model does
not use it (``--p`` beside ``--family hockey-stick``, ``--sigma-sq`` beside
``--model bernoulli``).  ``sweep``, ``compare`` and ``validate`` take their
sample counts from ``--n-range A..B`` with ``1 <= A <= B``, or from ``--n``
alone, never both, and check ``--samples`` before computing anything; so
do the coin-flip oracle runs (``validate``, ``--oracle``) with the lowest
stream seed ``--seed`` + n.

Exit codes: 0 success, 1 validation failure, 2 argument error (a malformed
command line too, in one line), numerical failure (an ``ArithmeticError``
such as an overflow) or running out of memory (such as a ``--samples`` too
large to hold), 3 I/O error (an output file that cannot be opened or
written, or a closed standard output or standard error), 130 on an
interrupt (Ctrl-C) and 143 on SIGTERM, the codes a shell gives a job that
SIGINT or SIGTERM ends.  A command writes its files before it prints, and a
run whose file write fails prints nothing and leaves none of the files it
created.  A regular output file is replaced by a rename once every file is
written, so no file is truncated or half-written; a later rename can still
fail after an earlier one succeeded.
All randomness flows from ``--seed`` (fixed default, never wall clock), so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import signal
import stat
import sys
import threading

from .bounds import FAMILIES, _family_key, family_bounds
from .generators import Hellinger, HockeyStick
from .models import BernoulliModel, GaussianModel, Model, _check_samples, _check_seed
from .svg import render_line_plot
from .validation import certification_suite, generator_label, risk_reports

__all__ = ["main", "compute_risk_curve"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

# A row holds n, one bound per family in FAMILIES order, then the oracle
# risk and its standard error; None is an empty cell.
CSV_HEADER = "n,hellinger_bound,hockey_stick_bound,oracle_risk,oracle_stderr"


# --------------------------------------------------------------------------
# Risk curves
# --------------------------------------------------------------------------


def risk_curve_csv(rows: list[tuple]) -> str:
    lines = [CSV_HEADER]
    for n, *cells in rows:
        lines.append(",".join([str(n), *("" if v is None else format(v, ".17g") for v in cells)]))
    return "\n".join(lines) + "\n"


def build_model(kind: str, n: int, sigma_w_sq: float, sigma_sq: float) -> Model:
    if kind == "bernoulli":
        return BernoulliModel(n)
    if kind == "gaussian":
        return GaussianModel(n, sigma_w_sq, sigma_sq)
    raise ValueError(f"unknown model {kind!r}")


def compute_risk_curve(
    models: list[Model],
    families: list[str],
    *,
    p: float,
    beta: float,
    gamma: float,
    optimize: bool,
    oracle: bool,
    samples: int,
    seed: int,
) -> list[tuple]:
    """One row per model, in ``CSV_HEADER`` order: the bounds of
    ``families``, None for the other family, and, with ``oracle``, the risk
    oracle.

    The bound columns come first, from one ``family_bounds`` call, so the
    first error of a column in ``FAMILIES`` order is the one raised and it
    starts no draw; then ``risk_reports`` runs the oracle.
    """
    columns = family_bounds(models, families, p=p, beta=beta, gamma=gamma, optimize=optimize)
    risks = risk_reports(models, samples, seed) if oracle else [(None, None)] * len(models)
    return [
        (model.n, *(columns[key][i].value if key in columns else None for key in FAMILIES), *risk)
        for i, (model, risk) in enumerate(zip(models, risks))
    ]


def render_curve_svg(rows: list[tuple], title: str) -> str:
    series = []
    for column, label in enumerate(("hellinger", "hockey-stick", "oracle risk"), 1):
        ys = [row[column] for row in rows]
        if any(y is not None for y in ys):
            series.append((label, ys))
    xs = [row[0] for row in rows]
    return render_line_plot(xs, series, title=title)


# --------------------------------------------------------------------------
# Argument handling
# --------------------------------------------------------------------------


_ALL = ("bound", "sweep", "compare", "validate")
# The variances default to those of GaussianModel.
_GAUSSIAN = GaussianModel._field_defaults
# The commands that run over a range of sample counts.
_RANGED = ("sweep", "compare", "validate")
# name -> (coercion, default, the commands that read it, help), for both the
# flags and the flat config file.  The coercion is str, int or float, bool
# for a switch, or list for a repeatable flag.  The default applies where
# neither the flags nor the config file set the option; None marks no
# default, or one that _resolve_options works out from the model or the
# command (p, family, n_range).  The other commands reject the option, and
# list it in this order.
_OPTIONS: dict[str, tuple[type, object, tuple[str, ...], str]] = {
    "model": (str, "bernoulli", _ALL, "estimation model: bernoulli | gaussian"),
    "n": (int, None, _ALL, "sample count; for a sweep, the same as --n-range N..N"),
    "sigma_w_sq": (float, _GAUSSIAN["sigma_w_sq"], _ALL, "prior variance (gaussian model)"),
    "sigma_sq": (float, _GAUSSIAN["sigma_sq"], _ALL, "noise variance (gaussian model)"),
    "family": (list, None, ("bound", "sweep"), "hellinger | hockey-stick; repeat for several"),
    "p": (float, None, _ALL, "Hellinger order (> 1)"),
    "beta": (float, 0.75, _ALL, "hockey-stick beta (> 0)"),
    "gamma": (float, 2.2, _ALL, "hockey-stick gamma (>= beta)"),
    "optimize": (bool, False, _ALL, "optimise over family parameters instead of fixed values"),
    "seed": (int, 1729, _ALL, "RNG seed (fixed default; runs are reproducible)"),
    "config": (str, None, _ALL, "flat key=value config file; flags override it"),
    "csv": (str, None, ("bound", "sweep", "compare"), "write CSV output to this path"),
    "oracle": (bool, False, ("sweep", "compare"), "add Monte-Carlo / exact risk columns"),
    "samples": (int, 10**6, _RANGED, "Monte-Carlo sample count"),
    "svg": (str, None, ("sweep", "compare"), "write an SVG plot to this path"),
    "n_range": (str, None, _RANGED, "inclusive sweep range, e.g. 1..50"),
    "self_test_negate": (bool, False, ("validate",), "flip one check to show failures are caught"),
}
# What the coercions of _OPTIONS that can fail accept, for their messages.
_KINDS = {int: "an integer", float: "a number"}
# Config-file spellings of the boolean options.
_BOOL_VALUES = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_options(parser: argparse.ArgumentParser, command: str) -> None:
    """Every flag, so that an unread one gets the one-line rejection; the
    help lists those ``command`` reads."""
    for name, (coerce, _, commands, help_text) in _OPTIONS.items():
        if command not in commands:
            help_text = argparse.SUPPRESS
        if coerce is bool:
            kind: dict = dict(action="store_const", const=True)
        elif coerce is list:
            kind = dict(action="append")
        else:
            kind = dict(type=coerce)
        parser.add_argument(_flag(name), dest=name, default=None, help=help_text, **kind)


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


def _config_value(key: str, raw: str) -> object:
    if key not in _OPTIONS or key == "config":
        raise ValueError(f"unknown config key {key!r}")
    coerce = _OPTIONS[key][0]
    if coerce is list:
        return [item.strip() for item in raw.split(",") if item.strip()]
    if coerce is bool:
        if raw.lower() not in _BOOL_VALUES:
            raise ValueError(
                f"config key {key!r} takes 1/true/yes/on or 0/false/no/off, not {raw!r}"
            )
        return _BOOL_VALUES[raw.lower()]
    try:
        return coerce(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} takes {_KINDS[coerce]}, not {raw!r}") from None


def _resolve_options(args: argparse.Namespace) -> list[str]:
    """Fill options left unset by the flags from the config file, then from
    the defaults: those of ``_OPTIONS``, then those that depend on the model
    or the command.  Every config value is checked, also where a flag
    overrides it.  For a sweep ``--n N`` is ``--n-range N..N``, so there a
    flag for either overrides the file's values of both.

    Returns the flags of the options given, by flag or config key, that the
    command does not read; the defaults are filled after this check.
    """
    values = parse_config_file(args.config) if args.config else {}
    n_flagged = args.command in _RANGED and (args.n, args.n_range) != (None, None)
    for key, raw in values.items():
        value = _config_value(key, raw)
        if getattr(args, key) is None and not (n_flagged and key in ("n", "n_range")):
            setattr(args, key, value)
    unread = [
        _flag(name)
        for name, (_, _, commands, _) in _OPTIONS.items()
        if args.command not in commands and getattr(args, name) is not None
    ]
    for name, (_, default, _, _) in _OPTIONS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.p is None:
        args.p = 2.0 if args.model == "bernoulli" else 1.5
    if args.n is None and args.n_range is None:
        args.n_range = "1..20" if args.command == "validate" else "1..50"
    # An empty config line `family =` also means the default.
    if not args.family:
        args.family = ["hellinger"] if args.command == "bound" else list(FAMILIES)
    return unread


def _n_range(args: argparse.Namespace) -> range:
    """The sample counts of ``--n-range A..B`` or of ``--n`` alone; the one
    check of a sweep's sample counts."""
    if args.n_range is None:
        ns = range(args.n, args.n + 1)
    elif args.n is not None:
        raise ValueError("give --n or --n-range, not both")
    else:
        lo, _, hi = args.n_range.partition("..")
        try:
            ns = range(int(lo), int(hi) + 1)
        except ValueError:
            raise ValueError(f"bad n range {args.n_range!r}; expected A..B") from None
    if not ns or ns.start < 1:
        raise ValueError("n range must be non-empty and start at 1 or above")
    return ns


def _models(args: argparse.Namespace) -> list[Model]:
    return [build_model(args.model, n, args.sigma_w_sq, args.sigma_sq) for n in _n_range(args)]


def _bound_family(args: argparse.Namespace) -> str:
    """The one family ``bound`` computes."""
    families = tuple(dict.fromkeys(_family_key(name) for name in args.family))
    if len(families) > 1:
        raise ValueError(f"bound takes one family, got {', '.join(families)}")
    return families[0]


def _check_parameters(args: argparse.Namespace) -> None:
    """Check every family and model parameter against its rule, also those
    the chosen families or model do not use, so that none is dropped
    unchecked.  The defaults pass every rule."""
    Hellinger(args.p)
    HockeyStick(args.beta, args.gamma)
    if args.model == "bernoulli":
        # The Gaussian model checks its variances at each n it is built for;
        # n = 1 gives the largest noise variance sigma_sq / n.
        GaussianModel(1, args.sigma_w_sq, args.sigma_sq)


def _write_outputs(outputs: dict[str, str]) -> None:
    """Write each ``{path: text}`` of a run, before the run prints anything.
    Every path is first opened without truncating it, so a path that cannot
    be opened fails the run before any file is written.  A regular file,
    the target of a symlink included, gets its text through a new file in
    its directory, with its mode, renamed onto it only once every write has
    succeeded; any other path (a device, a pipe such as ``/dev/stdout``) is
    written in place.  If anything fails, the new files and the files that
    did not exist before are removed.  So no file is truncated or
    half-written, but a later rename can still fail after an earlier one
    succeeded.  Renaming has its limits: a file in a directory this process
    cannot write to fails the run, and a replaced file loses its hard links
    and takes this process's owner and group."""
    created, temps = [], {}
    try:
        for path in outputs:
            exists = os.path.exists(path)
            open(path, "ab").close()
            if not exists:
                created.append(os.path.realpath(path))
        for path, text in outputs.items():
            # os.stat follows a /dev/fd link to a pipe's own inode, where
            # realpath gives a name that does not exist.
            mode = os.stat(path).st_mode
            real = os.path.realpath(path)
            if not (stat.S_ISREG(mode) and os.path.exists(real) and os.path.samefile(path, real)):
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
                continue
            import tempfile  # imported here: a run that writes no file does not need it

            try:
                fd, temp = tempfile.mkstemp(dir=os.path.dirname(real))
            except OSError as exc:
                # Its message names the new file; the user gave ``path``.
                raise OSError(exc.errno, exc.strerror, path) from None
            temps[temp] = real
            with open(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.chmod(temp, stat.S_IMODE(mode))
        for temp in list(temps):
            os.replace(temp, temps[temp])
            del temps[temp]
    except BaseException:
        # Ctrl-C and SIGTERM too: no new file outlives the run.
        for path in [*temps, *created]:
            os.remove(path)
        raise


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_bound(args: argparse.Namespace, family: str) -> int:
    if args.n is None:
        raise ValueError("--n is required for a single bound")
    model = build_model(args.model, args.n, args.sigma_w_sq, args.sigma_sq)
    [[result]] = family_bounds(
        [model], [family], p=args.p, beta=args.beta, gamma=args.gamma, optimize=args.optimize
    ).values()

    rows = [
        ("bound", format(result.value, ".17g")),
        ("rho_star", format(result.rho_star, ".17g")),
        ("divergence", f"{result.divergence.value:.17g} ({result.divergence.method})"),
        ("parameters", generator_label(result.generator)),
        ("method", "closed_form_rho" + (" [vacuous]" if result.vacuous else "")),
    ]
    if args.csv:
        bounds = [result.value if name == family else None for name in FAMILIES]
        _write_outputs({args.csv: risk_curve_csv([(args.n, *bounds, None, None)])})
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = compute_risk_curve(
        _models(args),
        args.family,
        p=args.p,
        beta=args.beta,
        gamma=args.gamma,
        optimize=args.optimize,
        oracle=args.oracle,
        samples=args.samples,
        seed=args.seed,
    )
    text = risk_curve_csv(rows)
    outputs = {args.csv: text} if args.csv else {}
    # Rendered before any file is written, so that a run that cannot plot
    # writes nothing.
    if args.svg:
        outputs[args.svg] = render_curve_svg(rows, f"{args.model}: risk lower bounds vs n")
    _write_outputs(outputs)
    if not args.csv:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    reports = certification_suite(
        _models(args),
        beta=args.beta,
        gamma=args.gamma,
        p=args.p,
        samples=args.samples,
        seed=args.seed,
        optimize=args.optimize,
    )
    if args.self_test_negate:
        first = reports[0]
        reports[0] = first._replace(
            quantity=first.quantity + " [negated for self-test]", passed=not first.passed
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


class _Terminated(BaseException):
    """SIGTERM, raised by the handler ``main`` installs.  Not an
    ``Exception``, so ``_split_map`` does not catch it: it kills and reaps
    its forked child at once, which the signal to this process alone did not
    reach."""


def _terminate(signum, frame):
    raise _Terminated


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors ``main`` reports in one line; its
    subparsers are of the same class."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        _add_options(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    if sys.stdout is None or sys.stderr is None:
        # Python starts with a closed stream (``>&-``) set to None.
        if sys.stderr is not None:
            print("i/o error: standard output is closed", file=sys.stderr)
        return EXIT_IO
    # Only the main thread can set a handler; the caller's is restored on
    # return, since main also runs in-process.
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        previous = signal.signal(signal.SIGTERM, _terminate)
    # The error clauses sit inside the signal clauses, so a signal that lands
    # while an error line is written still ends in one line of its own.
    try:
        try:
            args = build_parser().parse_args(argv)
            unread = _resolve_options(args)
            # A bad family or parameter is reported before any option the command
            # does not read.
            family = _bound_family(args) if args.command == "bound" else None
            _check_parameters(args)
            if unread:
                raise ValueError(f"{args.command} does not take {', '.join(unread)}")
            if args.csv and args.svg and os.path.realpath(args.csv) == os.path.realpath(args.svg):
                raise ValueError(f"--csv and --svg name the same file {args.svg!r}")
            _check_samples(args.samples)
            if args.model == "bernoulli" and (args.command == "validate" or args.oracle):
                # Each n draws from the stream of --seed + n, so the first n's is
                # the lowest.
                _check_seed(args.seed + _n_range(args).start)
            if args.command == "bound":
                return cmd_bound(args, family)
            if args.command == "validate":
                return cmd_validate(args)
            return cmd_sweep(args)
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
    except KeyboardInterrupt:
        # A forked child got the same SIGINT, and _split_map has reaped it.
        print("error: interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        return 143
    finally:
        if on_main_thread:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())

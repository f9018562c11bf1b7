"""End-to-end tests of the command-line interface."""

import math
from pathlib import Path

import pytest

from fdivrisk import numerics, validation
from fdivrisk.cli import (
    CSV_HEADER,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
    risk_curve_csv,
)
from fdivrisk.models import BernoulliModel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_bernoulli_hellinger_n1(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--model", "bernoulli", "--n", "1", "--family", "hellinger", "--p", "2"
        )
        assert code == EXIT_OK
        # 2/27 divided by the scaled chi-squared value 4/3.
        value = float(out.splitlines()[0].split()[-1])
        assert value == pytest.approx(1.0 / 18.0, rel=1e-12)
        assert "rho_star" in out
        assert "hellinger(p=2)" in out

    def test_gaussian_hellinger_meets_closed_form_floor(self, capsys):
        code, out, _ = run(
            capsys,
            "bound",
            *["--model", "gaussian", "--n", "2", "--sigma-w-sq", "1", "--sigma-sq", "2"],
            *["--family", "hellinger", "--p", "1.5"],
        )
        assert code == EXIT_OK
        value = float(out.splitlines()[0].split()[-1])
        floor = 81.0 * math.sqrt(2.0 * math.pi) / 2048.0 * math.sqrt(1.0 / (1.0 + 2.0 * 0.5))
        assert value >= floor

    def test_bad_order_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "--family", "hellinger", "--p", "0.5")
        assert code == EXIT_USAGE
        assert "p must exceed 1" in err

    def test_hockey_stick_bound(self, capsys):
        code, out, _ = run(
            capsys,
            "bound",
            *["--model", "bernoulli", "--n", "1", "--family", "hockey-stick"],
        )
        assert code == EXIT_OK
        value = float(out.splitlines()[0].split()[-1])
        assert value == pytest.approx(5.0 * 0.75**2 / 66.0, rel=1e-10)

    def test_overflow_is_one_line_usage_error(self, capsys):
        # The order-300 Hellinger value at n = 2000 overflows a float.
        code, out, err = run(capsys, "bound", "--model", "bernoulli", "--n", "2000", "--p", "300")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            # The Gaussian hockey-stick quadrature returns nan at this
            # variance ratio.
            "sweep --model gaussian --n-range 1..2 --sigma-sq 1e-300 --family hockey-stick --oracle",
            "bound --model gaussian --n 1 --sigma-sq 1e-300 --family hockey-stick --optimize",
            # The order-64 Hellinger value at n = 100000 overflows to inf.
            "bound --model bernoulli --n 100000 --p 64",
        ],
    )
    def test_non_finite_divergence_is_one_line_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, n",
        [
            # sigma_sq / n underflows to 0 although both variances are positive.
            ("bound --model gaussian --n 2 --sigma-sq 5e-324", 2),
            ("bound --model gaussian --n 2 --sigma-sq 5e-324 --family hockey-stick", 2),
            # At n = 1 the variance ratio 1 / 5e-324 overflows.
            ("sweep --model gaussian --n-range 1..2 --sigma-sq 5e-324 --oracle", 1),
        ],
    )
    def test_degenerate_noise_variance_is_named(self, capsys, argv, n):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: variance ratio sigma_w_sq / (sigma_sq / n) is not finite at "
            f"sigma_w_sq = 1.0, sigma_sq = 5e-324, n = {n}\n"
        )

    @pytest.mark.parametrize(
        "argv, r",
        [
            # The slice discriminant cancels below 0.
            ("bound --model gaussian --n 1 --sigma-sq 1e-20 --family hockey-stick", "1e+20"),
            # marginal_var rounds to noise_var, so the slice quadratic has no x^2 term.
            ("bound --model gaussian --n 2 --sigma-w-sq 1e-320 --family hockey-stick", "1e-320"),
        ],
    )
    def test_gaussian_hockey_stick_rounding_names_variance_ratio(self, capsys, argv, r):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: numerical failure (ArithmeticError):")
        assert len(err.splitlines()) == 1
        assert err.endswith(f"variance ratio r = sigma_w_sq / (sigma_sq / n) = {r}\n")

    def test_continued_fraction_stall_is_one_line_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(numerics, "_BETACF_MAX_ITER", 2)
        code, out, err = run(
            capsys, "bound", "--model", "bernoulli", "--n", "400", "--family", "hockey-stick"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "continued fraction stalled" in err

    def test_sweep_only_options_rejected(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code, out, err = run(
            capsys, "bound", "--n", "5", "--oracle", "--svg", str(svg), "--n-range", "1..3"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: bound does not take --oracle, --svg, --n-range\n"
        assert not svg.exists()
        # A bad family parameter is still reported first.
        code, _, err = run(capsys, "bound", "--n", "5", "--p", "0.5", "--oracle")
        assert code == EXIT_USAGE
        assert "p must exceed 1" in err

    @pytest.mark.parametrize("command", ["bound", "sweep"])
    def test_unknown_config_family_is_usage_error(self, capsys, tmp_path, command):
        # A --family flag and a config-file family get the same one-line
        # check, so no command prints bounds of some other family.
        config = tmp_path / "bad.cfg"
        config.write_text("family = foo\n")
        csv = tmp_path / "out.csv"
        for given in (["--config", str(config)], ["--family", "foo"]):
            code, out, err = run(capsys, command, "--n", "5", *given, "--csv", str(csv))
            assert code == EXIT_USAGE
            assert out == ""
            assert err == "error: unknown bound family 'foo'\n"
            assert not csv.exists()

    def test_more_than_one_family_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "bound", "--n", "5", "--family", "hellinger", "--family", "hockey-stick"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: bound takes one family, got hellinger, hockey_stick\n"
        config = tmp_path / "two.cfg"
        config.write_text("family = hockey-stick, hellinger\n")
        code, out, err = run(capsys, "bound", "--n", "5", "--config", str(config))
        assert code == EXIT_USAGE
        assert err == "error: bound takes one family, got hockey_stick, hellinger\n"
        # A repeated family is one family.
        code, _, _ = run(
            capsys, "bound", "--n", "5", "--family", "hellinger", "--family", "hellinger"
        )
        assert code == EXIT_OK

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "--model", "bernoulli")
        assert code == EXIT_USAGE
        assert "--n" in err

    def test_csv_row_emission(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        code, _, _ = run(
            capsys,
            "bound",
            *["--model", "bernoulli", "--n", "1", "--family", "hellinger", "--csv", str(path)],
        )
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("1,")


class TestSweepCommand:
    def test_stdout_csv_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            *["--model", "bernoulli", "--n-range", "1..3", "--family", "hellinger"],
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        # hellinger only: hockey-stick and oracle cells stay empty
        assert lines[1].split(",")[2] == ""
        assert lines[1].split(",")[3] == ""

    def test_fixed_parameter_values_match_engine(self, capsys):
        from fdivrisk.bounds import hellinger_bound, hockey_stick_bound
        from oracles import chi_squared_bernoulli

        from fdivrisk.divergences import e_beta_gamma_numeric
        from fdivrisk.models import BernoulliModel

        code, out, _ = run(capsys, "sweep", "--model", "bernoulli", "--n-range", "2..2")
        assert code == EXIT_OK
        cells = out.splitlines()[1].split(",")
        model = BernoulliModel(2)
        expected_h = hellinger_bound(2.0, chi_squared_bernoulli(model), 2.0).value
        expected_hs = hockey_stick_bound(
            0.75, 2.2, e_beta_gamma_numeric(model, 0.75, 2.2), 2.0
        ).value
        assert float(cells[1]) == pytest.approx(expected_h, rel=1e-15)
        assert float(cells[2]) == pytest.approx(expected_hs, rel=1e-15)

    def test_deterministic_with_oracle(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "sweep",
            *["--model", "bernoulli", "--n-range", "1..4", "--oracle"],
            *["--samples", "20000", "--seed", "99"],
        ]
        assert main(args + ["--csv", str(a)]) == EXIT_OK
        assert main(args + ["--csv", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        # and a different seed changes the oracle column
        c = tmp_path / "c.csv"
        assert main(args[:-2] + ["--seed", "100", "--csv", str(c)]) == EXIT_OK
        assert a.read_bytes() != c.read_bytes()

    def test_svg_written_and_csv_unaffected(self, capsys, tmp_path):
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        svg = tmp_path / "plot.svg"
        base = ["sweep", "--model", "bernoulli", "--n-range", "1..3"]
        assert main(base + ["--csv", str(csv_a)]) == EXIT_OK
        assert main(base + ["--csv", str(csv_b), "--svg", str(svg)]) == EXIT_OK
        capsys.readouterr()
        assert csv_a.read_bytes() == csv_b.read_bytes()
        content = svg.read_text()
        assert content.startswith("<svg")
        assert "polyline" in content

    def test_gaussian_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep",
            *["--model", "gaussian", "--n-range", "1..2", "--sigma-w-sq", "1", "--sigma-sq", "2"],
            *["--oracle"],
        )
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        # exact oracle: stderr column is zero
        assert float(rows[0].split(",")[4]) == 0.0

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, err = run(
            capsys,
            "sweep",
            *["--model", "bernoulli", "--n-range", "1..2", "--csv", "/nonexistent/dir/x.csv"],
        )
        assert code == EXIT_IO
        assert "i/o error" in err

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--model", "bernoulli", "--n-range", "5")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "sweep", "--model", "bernoulli", "--n-range", "5..2")
        assert code == EXIT_USAGE
        for text in ("1..x", "..3", "1..2..3"):
            code, out, err = run(capsys, "sweep", "--model", "bernoulli", "--n-range", text)
            assert code == EXIT_USAGE
            assert out == ""
            assert err == f"error: bad n range {text!r}; expected A..B\n"

    def test_out_of_memory_is_one_line_usage_error(self, capsys, monkeypatch):
        def simulate_risk(model, samples, seed):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(BernoulliModel, "simulate_risk", simulate_risk)
        code, out, err = run(capsys, "sweep", "--n-range", "1..3", "--oracle")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"

    def test_single_oracle_sample_is_usage_error(self, capsys):
        # A standard error needs two samples; one must not print nan.
        code, out, err = run(
            capsys,
            "sweep",
            *["--model", "bernoulli", "--n-range", "1..2", "--oracle", "--samples", "1"],
        )
        assert code == EXIT_USAGE
        assert "nan" not in out
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_samples_checked_before_any_computation(self, capsys, monkeypatch):
        # validate computes its brute-force grids before any risk oracle runs.
        def brute_force_divergence(*args):
            raise AssertionError("computed before --samples was checked")

        monkeypatch.setattr(validation, "brute_force_divergence", brute_force_divergence)
        code, out, err = run(capsys, "validate", "--n-range", "1..2", "--samples", "1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: samples must be at least 2 (the standard error needs two)\n"

    def test_compare_fills_both_families(self, capsys):
        code, out, _ = run(capsys, "compare", "--model", "bernoulli", "--n-range", "1..2")
        assert code == EXIT_OK
        cells = out.splitlines()[1].split(",")
        assert cells[1] != "" and cells[2] != ""


class TestOptionTable:
    SAME_UNREAD = "validate does not take --family, --csv, --oracle, --svg"
    SAMPLES_RULE = "samples must be at least 2 (the standard error needs two)"

    @pytest.mark.parametrize(
        "argv, config, err",
        [
            ("validate --csv {tmp}/v.csv", "", "validate does not take --csv"),
            ("validate --svg {tmp}/v.svg", "", "validate does not take --svg"),
            ("validate --family hellinger", "", "validate does not take --family"),
            ("validate --oracle", "", "validate does not take --oracle"),
            (
                "validate --csv {tmp}/v.csv --svg {tmp}/v.svg --family hellinger --oracle",
                "",
                SAME_UNREAD,
            ),
            ("compare --family hellinger", "", "compare does not take --family"),
            ("sweep --self-test-negate", "", "sweep does not take --self-test-negate"),
            ("bound --n 3 --samples 10", "", "bound does not take --samples"),
            (
                "validate",
                "csv = {tmp}/v.csv\nsvg = {tmp}/v.svg\nfamily = hellinger\noracle = true\n",
                SAME_UNREAD,
            ),
            ("compare", "family = hellinger\n", "compare does not take --family"),
            ("sweep", "self-test-negate = yes\n", "sweep does not take --self-test-negate"),
            ("bound --n 3", "samples = 10\n", "bound does not take --samples"),
            ("sweep --n 5 --n-range 1..2", "", "give --n or --n-range, not both"),
            ("validate --n-range 0..2", "", "n range must be non-empty and start at 1 or above"),
            ("validate --n-range 3..1", "", "n range must be non-empty and start at 1 or above"),
            # A parameter the chosen family or model does not use still meets
            # its rule, given by flag or by config key.
            ("bound --n 3 --family hockey-stick --p 0.5", "", "p must exceed 1"),
            ("sweep --n-range 1..3 --family hellinger --beta 5", "", "gamma must be at least beta"),
            ("bound --model bernoulli --n 3 --sigma-sq 0", "", "variances must be strictly positive"),
            ("bound --n 3 --family hockey-stick", "p = 0.5\n", "p must exceed 1"),
            ("compare --model gaussian --n-range 1..2 --optimize", "gamma = 0.5\n", "gamma must be at least beta"),
            ("validate --n-range 1..2", "sigma-w-sq = -1\n", "variances must be strictly positive"),
            # --samples is checked before anything is computed, even where no
            # oracle runs.
            ("sweep --n-range 1..3 --samples 1", "", SAMPLES_RULE),
            ("compare --n-range 1..3 --samples 0", "", SAMPLES_RULE),
            ("validate --model gaussian --n-range 1..2 --samples 1", "", SAMPLES_RULE),
            ("validate --model bernoulli --n-range 1..2 --samples 1", "", SAMPLES_RULE),
            # Each n draws from the stream of --seed + n, which must exist.
            (
                "sweep --n-range 1..3 --oracle --samples 100 --seed -2",
                "",
                "the stream seed --seed + n must be non-negative, got -1",
            ),
            (
                "validate --model bernoulli --n-range 1..2 --samples 100 --seed -5",
                "",
                "the stream seed --seed + n must be non-negative, got -4",
            ),
            # Every command takes --seed, which the benchmark harness appends.
            ("bound --n 3 --seed 4", "", None),
        ],
    )
    def test_each_command_reads_only_its_options(self, capsys, tmp_path, argv, config, err):
        argv = argv.format(tmp=tmp_path).split()
        if config:
            (tmp_path / "run.cfg").write_text(config.format(tmp=tmp_path))
            argv += ["--config", str(tmp_path / "run.cfg")]
        code, out, got = run(capsys, *argv)
        if err is None:
            assert code == EXIT_OK and got == ""
            return
        assert (code, out, got) == (EXIT_USAGE, "", f"error: {err}\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == (["run.cfg"] if config else [])


class TestGoldenOutput:
    # Bound-only output, which draws no random numbers: refactors and
    # speed-ups must leave it byte-identical to the stored files.  The
    # --optimize cases pin the parameter search over p and tau.
    ARGS = {
        "bernoulli": ("--model", "bernoulli", "--n-range", "1..50"),
        "gaussian": ("--model", "gaussian", "--n-range", "1..50"),
        "bernoulli_optimize": ("--model", "bernoulli", "--n-range", "1..12", "--optimize"),
        "gaussian_optimize": ("--model", "gaussian", "--n-range", "1..8", "--optimize"),
    }

    @pytest.mark.parametrize("name", list(ARGS))
    def test_compare_matches_golden_file(self, capsys, name):
        golden = Path(__file__).parent / "golden" / f"compare_{name}.csv"
        code, out, _ = run(capsys, "compare", *self.ARGS[name])
        assert code == EXIT_OK
        assert out.encode() == golden.read_bytes()


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "# sweep configuration\n"
            "model = bernoulli\n"
            "n-range = 1..2\n"
            "family = hellinger\n"
            "seed = 7\n"
        )
        code_a, out_a, _ = run(capsys, "sweep", "--config", str(config))
        assert code_a == EXIT_OK
        assert len(out_a.splitlines()) == 3

        code_b, out_b, _ = run(capsys, "sweep", "--config", str(config), "--n-range", "1..4")
        assert code_b == EXIT_OK
        assert len(out_b.splitlines()) == 5

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("modle = bernoulli\n")
        code, _, err = run(capsys, "sweep", "--config", str(config))
        assert code == EXIT_USAGE
        assert "unknown config key" in err

    @pytest.mark.parametrize("value", ["true", "Yes", "0", "OFF"])
    def test_boolean_spellings(self, capsys, tmp_path, value):
        config = tmp_path / "bool.cfg"
        config.write_text(f"oracle = {value}\nsamples = 1000\n")
        code, out, _ = run(capsys, "sweep", "--n-range", "1..2", "--config", str(config))
        assert code == EXIT_OK
        on = value.lower() in ("1", "true", "yes", "on")
        assert out.splitlines()[1].endswith(",") != on

    def test_bad_boolean_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "bool.cfg"
        config.write_text("oracle = maybe\n")
        code, out, err = run(capsys, "sweep", "--n-range", "1..2", "--config", str(config))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: config key 'oracle' takes 1/true/yes/on or 0/false/no/off, not 'maybe'\n"
        )

    @pytest.mark.parametrize("flag", [[], ["--seed", "3"]])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed = abc", "config key 'seed' takes an integer, not 'abc'"),
            ("seed = 2.5", "config key 'seed' takes an integer, not '2.5'"),
            ("beta = x", "config key 'beta' takes a number, not 'x'"),
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, tmp_path, flag, line, message):
        # Checked whether or not a flag overrides the key.
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        code, out, err = run(capsys, "sweep", "--n-range", "1..2", "--config", str(config), *flag)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"

    def test_missing_config_file_is_io_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--config", "/nonexistent/file.cfg")
        assert code == EXIT_IO


class TestValidateCommand:
    def test_bernoulli_validate_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            *["--model", "bernoulli", "--n-range", "1..4", "--samples", "200000"],
        )
        assert code == EXIT_OK
        assert "PASS" in out
        assert "FAIL" not in out

    def test_gaussian_validate_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            *["--model", "gaussian", "--n-range", "1..4", "--samples", "100000"],
        )
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_self_test_negate_fails(self, capsys):
        code, out, _ = run(
            capsys,
            "validate",
            *["--model", "bernoulli", "--n-range", "1..2", "--samples", "50000"],
            "--self-test-negate",
        )
        assert code == EXIT_VALIDATION
        assert "FAIL" in out
        assert "negated for self-test" in out

    def test_repeat_runs_share_exit_code(self, capsys):
        args = ["validate", "--model", "bernoulli", "--n-range", "1..2", "--samples", "50000"]
        first = main(list(args))
        second = main(list(args))
        capsys.readouterr()
        assert first == second == EXIT_OK


class TestRiskCurveType:
    def test_csv_formatting_17_digits(self):
        text = risk_curve_csv([(1, 1.0 / 3.0, None, None, None)])
        assert "0.33333333333333331" in text

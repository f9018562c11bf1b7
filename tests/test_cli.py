"""End-to-end tests of the command-line interface."""

import math
import os
from pathlib import Path

import pytest

from fdivrisk import bounds, cli, numerics, validation
from fdivrisk.cli import (
    CSV_HEADER,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
    risk_curve_csv,
)
from fdivrisk.models import BernoulliModel, GaussianModel


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

    @pytest.mark.parametrize(
        "argv, model",
        [
            ("--sigma-w-sq 3.5e254 --p 1.41", GaussianModel(1, 3.5e254)),
            ("--sigma-sq 1e-300 --p 1.5", GaussianModel(1, 1.0, 1e-300)),
            # 2 pi sigma_w_sq overflows too; the small-ball coefficient does not.
            ("--sigma-w-sq 3e307", GaussianModel(1, 3e307)),
        ],
    )
    def test_gaussian_hellinger_power_overflow_gives_a_bound(self, capsys, argv, model):
        # (1 + r)^p overflows a float; the divergence, 1.4e52, 1.2e75 and
        # 7.2e76, does not.
        code, out, err = run(capsys, "bound", "--model", "gaussian", "--n", "1", *argv.split())
        assert (code, err) == (EXIT_OK, "")
        assert "(closed_form_log)" in out
        assert 0.0 < float(out.splitlines()[0].split()[-1]) <= model.bayes_risk_reference().value

    @pytest.mark.parametrize(
        "model, label", [("bernoulli", "hellinger(p=2)"), ("gaussian", "hellinger(p=1.5)")]
    )
    def test_default_family_and_order(self, capsys, model, label):
        code, out, err = run(capsys, "bound", "--model", model, "--n", "3")
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[3].split() == ["parameters", label]

    def test_unknown_model_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bound", "--n", "3", "--model", "foo")
        assert (code, out, err) == (EXIT_USAGE, "", "error: unknown model 'foo'\n")

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

    def test_variance_ratio_underflow_still_gives_a_bound(self, capsys):
        # r = 1e-300 / (1e300 / 5) rounds to 0 at finite variances.
        argv = "bound --model gaussian --n 5 --sigma-w-sq 1e-300 --sigma-sq 1e300"
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (EXIT_OK, "")
        assert float(out.splitlines()[0].split()[-1]) == pytest.approx(1.3218547541999669e-151)

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

    @pytest.mark.parametrize("n", [7, 50])
    def test_gaussian_hockey_stick_at_large_gamma_gives_a_bound(self, capsys, n):
        # E is nearly 0, and its quadrature stops at the rounding floor.
        argv = f"bound --model gaussian --n {n} --sigma-w-sq 40 --sigma-sq 1 --family hockey-stick"
        code, out, err = run(capsys, *argv.split(), "--beta", "1", "--gamma", "1e12")
        assert (code, err) == (EXIT_OK, "")
        bound = float(out.splitlines()[0].split()[-1])
        assert 0.0 < bound <= GaussianModel(n, 40.0, 1.0).bayes_risk_reference().value

    def test_gaussian_hockey_stick_stall_above_rounding_floor_is_usage_error(self, capsys):
        argv = "bound --model gaussian --n 1 --sigma-w-sq 1e20 --sigma-sq 1 --family hockey-stick"
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: numerical failure (QuadratureError): integration stalled")
        assert len(err.splitlines()) == 1

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

    def test_unopenable_csv_prints_nothing(self, capsys):
        code, out, err = run(capsys, "bound", "--n", "3", "--csv", "/nonexistent/x.csv")
        assert (code, out) == (EXIT_IO, "")
        assert err == "i/o error: [Errno 2] No such file or directory: '/nonexistent/x.csv'\n"

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

    def test_gaussian_exact_risk_where_n_sigma_w_sq_overflows(self, capsys):
        # 7 * 2.8e307 and 8 * 2.8e307 overflow; the variance ratio r = n does not.
        argv = (
            "sweep --model gaussian --n-range 6..8 --sigma-w-sq 2.8e307 --sigma-sq 2.8e307 "
            "--family hellinger --oracle"
        )
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (EXIT_OK, "")
        for n, line in zip((6, 7, 8), out.splitlines()[1:]):
            risk = float(line.split(",")[3])
            exact = math.sqrt(2.0 / math.pi) * math.sqrt(2.8e307 / (1.0 + n))
            assert risk == pytest.approx(exact, rel=1e-15), n

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

    @pytest.mark.parametrize("to_csv", [False, True])
    def test_unplottable_sweep_writes_nothing(self, capsys, tmp_path, to_csv):
        # Every hockey-stick bound is vacuous, so there is nothing to plot.
        csv, svg = tmp_path / "z.csv", tmp_path / "z.svg"
        argv = [
            "sweep",
            *["--model", "bernoulli", "--n-range", "1..2", "--family", "hockey-stick"],
            *["--beta", "1e-300", "--gamma", "1e300", "--svg", str(svg)],
        ]
        code, out, err = run(capsys, *argv, *(["--csv", str(csv)] if to_csv else []))
        assert (code, out, err) == (EXIT_USAGE, "", "error: no positive values to plot\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_searched_column_fails_at_its_first_n_on_any_process_count(self, capsys, monkeypatch, workers):
        # Every n fails; with two workers n = 1 is this process's and n = 2
        # the forked child's.
        monkeypatch.setattr(bounds, "_worker_count", lambda: workers)
        argv = "compare --model gaussian --n-range 1..4 --sigma-w-sq 1e-16 --sigma-sq 1 --optimize"
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: numerical failure (ArithmeticError): Gaussian hockey-stick slice quadratic"
            " lost to rounding at variance ratio r = sigma_w_sq / (sigma_sq / n) = 1e-16\n"
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    def test_unopenable_svg_prints_nothing(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--n-range", "1..2", "--svg", "/nonexistent/a.svg"
        )
        assert (code, out) == (EXIT_IO, "")
        assert err == "i/o error: [Errno 2] No such file or directory: '/nonexistent/a.svg'\n"

    def test_unopenable_svg_leaves_no_csv(self, capsys, tmp_path):
        csv = tmp_path / "ok.csv"
        argv = ["sweep", "--n-range", "1..2", "--csv", str(csv), "--svg", "/nonexistent/a.svg"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (EXIT_IO, "")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize(
        "argv, got",
        [
            ("validate --model bernoulli --n-range 1..2 --samples 100 --seed -5", -4),
            ("sweep --model bernoulli --n-range 1..3 --oracle --samples 100 --seed -5", -4),
            ("sweep --n 2 --oracle --samples 1000 --seed -3", -1),
        ],
    )
    def test_seed_checked_before_any_computation(self, capsys, monkeypatch, argv, got):
        # validate computes its brute-force grids, and sweep the first n's
        # bounds, before any stream is drawn.
        def computed(*args, **kwargs):
            raise AssertionError("computed before --seed was checked")

        monkeypatch.setattr(validation, "brute_force_divergence", computed)
        monkeypatch.setattr(cli, "family_bounds", computed)
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: the stream seed --seed + n must be non-negative, got {got}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            "sweep --model gaussian --oracle",
            "compare --model bernoulli",
            "validate --model bernoulli --samples 2000",
        ],
    )
    def test_n_is_the_one_point_range(self, capsys, argv):
        code, out, err = run(capsys, *argv.split(), "--n", "3")
        assert (code, err) == (EXIT_OK, "")
        assert run(capsys, *argv.split(), "--n-range", "3..3") == (code, out, err)

    def test_compare_fills_both_families(self, capsys):
        code, out, _ = run(capsys, "compare", "--model", "bernoulli", "--n-range", "1..2")
        assert code == EXIT_OK
        cells = out.splitlines()[1].split(",")
        assert cells[1] != "" and cells[2] != ""


class TestMalformedCommandLine:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--n", "3", "--seed", "abc"],
            ["bound", "--n"],
            ["bound", "--n", "3", "--nope"],
            ["bogus"],
            [],
        ],
        ids=" ".join,
    )
    def test_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["bound", "--help"])
        assert caught.value.code == 0
        assert "--family" in capsys.readouterr().out

    def test_abbreviated_flags_still_work(self, capsys):
        assert run(capsys, "bound", "--n", "3", "--fam", "hockey-stick", "--opt") == run(
            capsys, "bound", "--n", "3", "--family", "hockey-stick", "--optimize"
        )


class TestOptionTable:
    SAME_UNREAD = "validate does not take --family, --csv, --oracle, --svg"
    SAMPLES_RULE = "samples must be at least 2 (the standard error needs two)"
    INFINITE_NOISE = "noise variance sigma_sq must be finite, got inf"

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
            # An infinite noise variance would make the variance ratio r = 0.
            ("bound --model gaussian --n 5 --sigma-sq inf", "", INFINITE_NOISE),
            ("bound --model gaussian --n 5 --sigma-sq inf --family hockey-stick", "", INFINITE_NOISE),
            ("bound --model bernoulli --n 5 --sigma-sq inf", "", INFINITE_NOISE),
            ("sweep --model gaussian --n-range 1..3", "sigma-sq = 1e400\n", INFINITE_NOISE),
            # An infinite family parameter is named; a nan one breaks its order rule.
            ("bound --n 3 --p inf", "", "p must be finite, got inf"),
            ("bound --n 3 --family hockey-stick --gamma inf", "", "gamma must be finite, got inf"),
            ("bound --n 3 --beta inf --gamma inf", "", "beta must be finite, got inf"),
            ("bound --n 3 --p nan", "", "p must exceed 1"),
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
    # --optimize cases pin the parameter search over p and tau, on both sides
    # of the switch to the numpy path at n = 126, and at Gaussian variances
    # away from the defaults, where the tau scan skips other grid points;
    # n = 1000..1039 pins the coin-flip hockey-stick kernel's numpy path and
    # the Hellinger sum at large n; n = 120..400 crosses the switch and packs
    # many n into each block of weights.
    ARGS = {
        "bernoulli": ("--model", "bernoulli", "--n-range", "1..50"),
        "gaussian": ("--model", "gaussian", "--n-range", "1..50"),
        "bernoulli_1000": ("--model", "bernoulli", "--n-range", "1000..1039"),
        "bernoulli_120_400": ("--model", "bernoulli", "--n-range", "120..400"),
        "bernoulli_optimize": ("--model", "bernoulli", "--n-range", "1..12", "--optimize"),
        "bernoulli_124_129_optimize": (
            "--model",
            "bernoulli",
            "--n-range",
            "124..129",
            "--optimize",
        ),
        "gaussian_optimize": ("--model", "gaussian", "--n-range", "1..8", "--optimize"),
        "gaussian_1_30_optimize_wide_prior": (
            *("--model", "gaussian", "--n-range", "1..30", "--optimize"),
            *("--sigma-w-sq", "10", "--sigma-sq", "0.1"),
        ),
        "gaussian_1_30_optimize_narrow_prior": (
            *("--model", "gaussian", "--n-range", "1..30", "--optimize"),
            *("--sigma-w-sq", "0.01", "--sigma-sq", "30"),
        ),
    }

    @pytest.mark.parametrize("name", list(ARGS))
    def test_compare_matches_golden_file(self, capsys, name):
        golden = Path(__file__).parent / "golden" / f"compare_{name}.csv"
        code, out, _ = run(capsys, "compare", *self.ARGS[name])
        assert code == EXIT_OK
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("model", ["bernoulli", "gaussian"])
    def test_default_range_matches_golden_file(self, capsys, model):
        # The default n range of compare is the 1..50 of the golden files.
        golden = Path(__file__).parent / "golden" / f"compare_{model}.csv"
        code, out, _ = run(capsys, "compare", "--model", model)
        assert code == EXIT_OK
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize(
        "name, argv",
        [
            # n = 8190 fills exactly one block of weights, n = 8192 needs two.
            (
                "sweep_bernoulli_hockey_stick_8188_8193.csv",
                "--model bernoulli --family hockey-stick --n-range 8188..8193",
            ),
            # Searched bound columns beside the seeded oracle columns.
            (
                "sweep_bernoulli_oracle_optimize_1_3.csv",
                "--model bernoulli --n-range 1..3 --oracle --optimize --samples 20000",
            ),
            # The exact Gaussian risk, to 17 digits.
            ("sweep_gaussian_oracle_1_50.csv", "--model gaussian --n-range 1..50 --oracle"),
        ],
    )
    def test_sweep_matches_golden_file(self, capsys, name, argv):
        golden = Path(__file__).parent / "golden" / name
        code, out, err = run(capsys, "sweep", *argv.split())
        assert (code, err) == (EXIT_OK, "")
        assert out.encode() == golden.read_bytes()

    def test_oracle_sweep_matches_golden_file(self, capsys):
        # Unlike the files above, this one pins seeded draws: the coin-flip
        # oracle columns, from Beta-median tables.
        golden = Path(__file__).parent / "golden" / "sweep_bernoulli_oracle.csv"
        argv = ("sweep", "--model", "bernoulli", "--n-range", "1..12", "--oracle")
        code, out, err = run(capsys, *argv, "--samples", "200000")
        assert (code, err) == (EXIT_OK, "")
        assert out.encode() == golden.read_bytes()

    def test_validate_matches_golden_file(self, capsys):
        # Pins the coin-flip brute-force grid at n = 7 with a non-integer
        # order, and the seeded Monte-Carlo risks of n = 7..9.
        golden = Path(__file__).parent / "golden" / "validate_bernoulli_7_9.txt"
        argv = ("validate", "--model", "bernoulli", "--n-range", "7..9", "--p", "3.5")
        code, out, err = run(capsys, *argv, "--samples", "20000")
        assert (code, err) == (EXIT_OK, "")
        assert out.encode() == golden.read_bytes()

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("bound_bernoulli_100000_hellinger.txt", "--n 100000 --family hellinger"),
            # One n whose weights span 13 numpy blocks.
            ("bound_bernoulli_100000_hockey_stick.txt", "--n 100000 --family hockey-stick"),
            # 77 one-n evaluations of the numpy path, one per search step
            # except 3 skipped grid points.
            (
                "bound_bernoulli_10000_hockey_stick_optimize.txt",
                "--n 10000 --family hockey-stick --optimize",
            ),
        ],
    )
    def test_large_n_bound_matches_golden_file(self, capsys, name, argv):
        golden = Path(__file__).parent / "golden" / name
        code, out, err = run(capsys, "bound", "--model", "bernoulli", *argv.split())
        assert (code, err) == (EXIT_OK, "")
        assert out.encode() == golden.read_bytes()

    def test_svg_matches_golden_file(self, capsys, tmp_path):
        golden = Path(__file__).parent / "golden" / "sweep_bernoulli_1_12.svg"
        svg = tmp_path / "plot.svg"
        argv = ("sweep", "--model", "bernoulli", "--n-range", "1..12", "--svg", str(svg))
        code, _, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert svg.read_bytes() == golden.read_bytes()


class TestOracleOrder:
    # The bound columns are computed family by family over every n, so the
    # oracle draws of every n are submitted first and run meanwhile.
    @pytest.mark.parametrize(
        "module, argv",
        [
            (cli, "sweep --model bernoulli --n-range 1..4 --oracle --samples 2000"),
            (validation, "validate --model bernoulli --n-range 1..4 --samples 2000"),
        ],
    )
    def test_draws_submitted_before_the_first_bound(self, capsys, monkeypatch, module, argv):
        import concurrent.futures

        monkeypatch.setattr(bounds, "_worker_count", lambda: 1)
        submitted = []
        seen_at_first_bound = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(fn)
                return super().submit(fn, *args, **kwargs)

        def family_bounds(*args, real=module.family_bounds, **kwargs):
            if not seen_at_first_bound:
                seen_at_first_bound.append(len(submitted))
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(module, "family_bounds", family_bounds)
        code, _, err = run(capsys, *argv.split())
        assert (code, err) == (EXIT_OK, "")
        assert seen_at_first_bound == [4]

    def test_bound_error_at_a_later_n_cancels_the_draws_not_started(self, capsys, monkeypatch):
        import threading

        monkeypatch.setattr(bounds, "_worker_count", lambda: 1)
        started = []
        workers = set()
        release = threading.Event()

        def risk_report(model, samples, seed):
            started.append(model.n)
            workers.add(threading.current_thread())
            release.wait(10.0)
            return 0.25, 0.01

        def hellinger_divergence(model, p, real=bounds.hellinger_divergence):
            if model.n == 3:
                raise ArithmeticError("no divergence at n = 3")
            return real(model, p)

        monkeypatch.setattr(validation, "risk_report", risk_report)
        monkeypatch.setattr(bounds, "hellinger_divergence", hellinger_divergence)
        try:
            code, out, err = run(capsys, *"sweep --n-range 1..6 --oracle --samples 100".split())
        finally:
            release.set()
        for worker in workers:
            worker.join(10.0)
            assert not worker.is_alive()
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: numerical failure (ArithmeticError): no divergence at n = 3\n"
        # The one worker may have started n = 1; every later n was cancelled.
        assert set(started) <= {1}

    def test_first_error_in_column_order(self, capsys, monkeypatch):
        # The Hellinger column is computed first, so its error at n = 4 is
        # the one reported, although the hockey-stick bound fails at every n.
        from fdivrisk import bounds

        def hellinger_divergence(model, p, real=bounds.hellinger_divergence):
            if model.n == 4:
                raise ArithmeticError("no Hellinger divergence at n = 4")
            return real(model, p)

        def e_beta_gamma_sweep(models, beta, gamma):
            raise ArithmeticError("no hockey-stick divergence")

        monkeypatch.setattr(bounds, "hellinger_divergence", hellinger_divergence)
        monkeypatch.setattr(bounds, "e_beta_gamma_sweep", e_beta_gamma_sweep)
        code, out, err = run(capsys, *"compare --n-range 1..5".split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: numerical failure (ArithmeticError): no Hellinger divergence at n = 4\n"
        )


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

    def test_line_without_equals_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("seed 5\n")
        code, out, err = run(capsys, "sweep", "--config", str(config))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {config}:1: expected key = value\n"

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

    def test_empty_family_line_means_the_default(self, capsys, tmp_path):
        config = tmp_path / "empty.cfg"
        config.write_text("family =\n")
        for argv in (["sweep", "--n-range", "1..3"], ["bound", "--n", "3"]):
            expected = run(capsys, *argv)
            assert expected[0] == EXIT_OK
            assert run(capsys, *argv, "--config", str(config)) == expected

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

    def test_gaussian_validate_defaults(self, capsys):
        # n = 1..20 at order 3/2: two brute-force checks, then two bounds per n.
        code, out, _ = run(capsys, "validate", "--model", "gaussian")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "hellinger(p=1.5)" in lines[0]
        assert "gaussian(n=20," in lines[-2]
        assert lines[-1] == "42/42 checks passed"

    def test_brute_force_grid_overflow_is_one_line_usage_error(self, capsys):
        # x squared out to 8 marginal standard deviations overflows a float.
        argv = (
            "validate --model gaussian --n-range 10..11 --sigma-w-sq 2.0358453095027424e304 "
            "--sigma-sq 3.760231154043166e307 --samples 2000"
        )
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: numerical failure (FloatingPointError): ")
        assert len(err.splitlines()) == 1

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

"""End-to-end tests of the command-line interface."""

import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import golden_runs
import pytest
from conftest import assert_no_child

from fdivrisk import bounds, cli, divergences, numerics, validation
from fdivrisk.cli import (
    CSV_HEADER,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)
from fdivrisk.models import BernoulliModel, GaussianModel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
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

    def test_variance_ratio_underflow_still_gives_a_bound(self, capsys):
        # r = 1e-300 / (1e300 / 5) rounds to 0 at finite variances.
        argv = "bound --model gaussian --n 5 --sigma-w-sq 1e-300 --sigma-sq 1e300"
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (EXIT_OK, "")
        assert float(out.splitlines()[0].split()[-1]) == pytest.approx(1.3218547541999669e-151)

    @pytest.mark.parametrize("n", [7, 50])
    def test_gaussian_hockey_stick_at_large_gamma_gives_a_bound(self, capsys, n):
        # E is nearly 0, and its quadrature stops at the rounding floor.
        argv = f"bound --model gaussian --n {n} --sigma-w-sq 40 --sigma-sq 1 --family hockey-stick"
        code, out, err = run(capsys, *argv.split(), "--beta", "1", "--gamma", "1e12")
        assert (code, err) == (EXIT_OK, "")
        bound = float(out.splitlines()[0].split()[-1])
        assert 0.0 < bound <= GaussianModel(n, 40.0, 1.0).bayes_risk_reference().value

    def test_continued_fraction_stall_is_one_line_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(numerics, "_BETACF_MAX_ITER", 2)
        code, out, err = run(
            capsys, "bound", "--model", "bernoulli", "--n", "400", "--family", "hockey-stick"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "continued fraction stalled" in err

    def test_repeated_family_is_one_family(self, capsys):
        # Two families are an error (a row of golden_runs.RUNS); one twice is not.
        code, _, _ = run(
            capsys, "bound", "--n", "5", "--family", "hellinger", "--family", "hellinger"
        )
        assert code == EXIT_OK

    def test_takes_seed(self, capsys):
        # Every command takes --seed, which the benchmark harness appends.
        assert run(capsys, "bound", "--n", "3", "--seed", "4")[::2] == (EXIT_OK, "")

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

    def test_deterministic_with_oracle(self, capsys):
        # A different seed changes the oracle column; criterion 9 reruns one
        # seed and compares the bytes.
        args = "sweep --model bernoulli --n-range 1..4 --oracle --samples 20000 --seed".split()
        code_a, out_a, _ = run(capsys, *args, "99")
        code_b, out_b, _ = run(capsys, *args, "100")
        assert code_a == code_b == EXIT_OK
        assert out_a != out_b

    def test_svg_written_and_csv_unaffected(self, capsys, tmp_path):
        # The --svg row of golden_runs.RUNS pins the plot.
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        svg = tmp_path / "plot.svg"
        base = ["sweep", "--model", "bernoulli", "--n-range", "1..3"]
        assert main(base + ["--csv", str(csv_a)]) == EXIT_OK
        assert main(base + ["--csv", str(csv_b), "--svg", str(svg)]) == EXIT_OK
        capsys.readouterr()
        assert csv_a.read_bytes() == csv_b.read_bytes()

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("exists", [False, True])
    def test_csv_and_svg_on_one_file_is_rejected(self, capsys, monkeypatch, tmp_path, command, exists):
        # The SVG would overwrite the CSV; "./out" and "out" are one file.
        monkeypatch.chdir(tmp_path)
        if exists:
            (tmp_path / "out").write_text("kept\n")
        code, out, err = run(capsys, command, "--n-range", "1..2", "--csv", "./out", "--svg", "out")
        assert (code, out, err) == (EXIT_USAGE, "", "error: --csv and --svg name the same file 'out'\n")
        assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == (
            [("out", "kept\n")] if exists else []
        )

    def test_out_of_memory_is_one_line_usage_error(self, capsys, monkeypatch):
        def simulate_risk(model, samples, seed):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(BernoulliModel, "simulate_risk", simulate_risk)
        code, out, err = run(capsys, "sweep", "--n-range", "1..3", "--oracle")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 745. GiB for an array\n"

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


class TestClosedStreams:
    # A fresh CLI child started with stdout (fd 1) or stderr (fd 2) closed,
    # as by `>&-`, exits 3 before any work, with its one line where it can.
    CLOSED = "i/o error: standard output is closed\n"

    @pytest.mark.parametrize(
        "argv, fd, err",
        [
            pytest.param("compare --model bernoulli --n-range 1..5", 1, CLOSED, id="compare-stdout"),
            pytest.param("bound --model bernoulli --n 3", 1, CLOSED, id="bound-stdout"),
            pytest.param("validate --model bernoulli --n-range 1..2", 1, CLOSED, id="validate-stdout"),
            pytest.param("compare --model bernoulli --n-range 1..5", 2, "", id="compare-stderr"),
        ],
    )
    def test_exits_3_with_at_most_one_line(self, argv, fd, err):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        child = subprocess.run(
            [sys.executable, "-m", "fdivrisk.cli", *argv.split()],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=lambda: os.close(fd),
            timeout=60,
        )
        assert (child.returncode, child.stdout, child.stderr) == (EXIT_IO, "", err)


class TestInterrupt:
    # Ctrl-C sends SIGINT to the job's process group: the CLI and, during its
    # searches, the child it forked for every other one.  A job scheduler's
    # kill sends SIGTERM to the CLI alone.
    ARGV = "compare --model bernoulli --n-range 126..400 --optimize"

    @staticmethod
    def group(pgid):
        """The live processes of process group ``pgid`` other than its leader."""
        members = []
        for pid in (int(entry) for entry in os.listdir("/proc") if entry.isdigit()):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except (FileNotFoundError, ProcessLookupError):
                continue  # gone since the listing
            state, _, pgrp = stat.rpartition(")")[2].split()[:3]
            if int(pgrp) == pgid and pid != pgid and state != "Z":
                members.append(pid)
        return members

    def run_until(self, cpus, send):
        """Exit code, stdout and stderr of ARGV run as a fresh CLI child in
        its own process group, after ``send(pid)``: once the child has forked
        where it can (two CPUs and ``cpus`` "all"), otherwise 1 s into the
        run.  Fails if a process of the group is left."""

        def start():
            os.setsid()  # its own process group, as a shell gives a job
            signal.signal(signal.SIGINT, signal.SIG_DFL)  # not ignored, as in a background job
            if cpus == "one":
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        forks = cpus == "all" and bounds._worker_count() >= 2
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fdivrisk.cli", *self.ARGV.split()],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            preexec_fn=start,
        )
        try:
            deadline = time.monotonic() + (20.0 if forks else 1.0)
            while time.monotonic() < deadline and not (forks and self.group(proc.pid)):
                time.sleep(0.01)
            assert proc.poll() is None and bool(self.group(proc.pid)) == forks
            send(proc.pid)
            # The group as the CLI exits: communicate would also wait for a
            # child left running, which holds the same pipes.
            proc.wait(timeout=30)
            left = self.group(proc.pid)
            out, err = proc.communicate(timeout=30)
            assert left == []
            return proc.returncode, out, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            for pid in self.group(proc.pid):
                os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("cpus", ["all", "one"])
    def test_sigint_ends_in_one_line_and_exit_130(self, cpus):
        got = self.run_until(cpus, lambda pid: os.killpg(pid, signal.SIGINT))
        assert got == (130, "", "error: interrupted\n")

    def test_sigterm_to_the_cli_alone_ends_in_one_line_and_exit_143(self):
        # The CLI kills and reaps the forked child, which the signal missed.
        got = self.run_until("all", lambda pid: os.kill(pid, signal.SIGTERM))
        assert got == (143, "", "error: terminated\n")

    def test_sigterm_while_a_huge_log_factorial_table_grows_ends_in_one_line_and_exit_143(self):
        # bound --n 10^9 grows a table of 10^9 + 2 log-factorials, which the
        # child's 1 GiB address space cannot hold: left alone, it exits 2 with
        # "error: out of memory" after about 5 s.  The table grows in steps,
        # so the signal is handled between them.
        def start():
            os.setsid()
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        def catches_sigterm(pid):
            status = Path(f"/proc/{pid}/status").read_text()
            caught = int(status.split("SigCgt:")[1].split()[0], 16)
            return caught >> (signal.SIGTERM - 1) & 1

        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fdivrisk.cli", "bound", "--n", "1000000000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            preexec_fn=start,
        )
        try:
            # main's handler is in place, and the run is 0.3 s into its table.
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline and not catches_sigterm(proc.pid):
                time.sleep(0.01)
            time.sleep(0.3)
            assert proc.poll() is None
            os.kill(proc.pid, signal.SIGTERM)
            proc.wait(timeout=2)
            left = self.group(proc.pid)
            out, err = proc.communicate(timeout=30)
            assert left == []
            assert (proc.returncode, out, err) == (143, "", "error: terminated\n")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    @pytest.mark.parametrize(
        "raised, code, line",
        [
            (cli._Terminated, 143, "error: terminated\n"),
            (KeyboardInterrupt, 130, "error: interrupted\n"),
        ],
    )
    def test_a_signal_while_the_error_line_is_written_ends_in_its_own_line(
        self, monkeypatch, raised, code, line
    ):
        class Stderr:
            # Its first write raises ``raised``, as a signal handler would there.
            def __init__(self):
                self.pending, self.text = raised, ""

            def write(self, text):
                if self.pending is not None:
                    self.pending = None
                    raise raised
                self.text += text
                return len(text)

            def flush(self):
                pass

        def log_factorials(n):
            raise MemoryError

        monkeypatch.setattr(divergences, "_log_factorials", log_factorials)
        stderr = Stderr()
        monkeypatch.setattr(sys, "stderr", stderr)
        try:
            got = main(["bound", "--model", "bernoulli", "--n", "3"])
        except (KeyboardInterrupt, cli._Terminated) as exc:  # uncaught, it would end the test run
            got = exc
        assert (got, stderr.text) == (code, line)

    def test_main_restores_the_sigterm_handler_and_runs_off_the_main_thread(self, capsys):
        previous = signal.getsignal(signal.SIGTERM)
        assert run(capsys, "bound", "--n", "3")[0] == EXIT_OK
        assert signal.getsignal(signal.SIGTERM) is previous
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(["bound", "--n", "3"])))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and codes == [EXIT_OK]
        assert signal.getsignal(signal.SIGTERM) is previous


class TestGoldenOutput:
    # The rows of golden_runs.RUNS, run in-process and judged by golden_runs.check.
    def check(self, capsys, tmp_path, entry):
        code = main(entry.args(tmp_path))
        out, err = capsys.readouterr()
        return golden_runs.check(entry, code, out.encode(), err.encode(), tmp_path)

    @pytest.mark.parametrize(
        "entry",
        [entry for entry in golden_runs.RUNS if entry.golden and not entry.slow],
        ids=lambda entry: entry.name,
    )
    def test_fast_run_matches_its_file(self, capsys, tmp_path, entry):
        assert self.check(capsys, tmp_path, entry) == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "entry",
        [entry for entry in golden_runs.RUNS if entry.error and not entry.slow],
        ids=lambda entry: entry.name,
    )
    def test_failure_prints_its_one_line(self, capsys, monkeypatch, tmp_path, entry, workers):
        # On two workers a searched or oracle column forks a child for every other n.
        monkeypatch.setattr(bounds, "_worker_count", lambda: workers)
        assert self.check(capsys, tmp_path, entry) == []
        assert_no_child()

    def test_every_golden_file_has_a_run(self):
        # search_trajectories.json pins searches, not a CLI run; test_bounds.py reads it.
        files = {path.name for path in golden_runs.GOLDEN.iterdir()} - {"search_trajectories.json"}
        assert {entry.golden for entry in golden_runs.RUNS if entry.golden} == files
        assert all((entry.golden is None) != (entry.error is None) for entry in golden_runs.RUNS)

    def test_each_run_appears_once(self):
        names = [entry.name for entry in golden_runs.RUNS]
        assert [name for name in names if names.count(name) > 1] == []


class TestOracleOrder:
    # The bound columns are computed by one family_bounds call over every n,
    # and the oracle draws of every n after them.
    @pytest.mark.parametrize(
        "module, argv",
        [
            (cli, "sweep --model bernoulli --n-range 1..4 --oracle --samples 2000"),
            (validation, "validate --model bernoulli --n-range 1..4 --samples 2000"),
        ],
    )
    def test_every_bound_before_the_first_draw(self, capsys, monkeypatch, module, argv):
        monkeypatch.setattr(bounds, "_worker_count", lambda: 1)
        events = []

        def family_bounds(*args, real=module.family_bounds, **kwargs):
            events.append("bound")
            return real(*args, **kwargs)

        def risk_report(*args, real=validation.risk_report):
            events.append("draw")
            return real(*args)

        monkeypatch.setattr(module, "family_bounds", family_bounds)
        monkeypatch.setattr(validation, "risk_report", risk_report)
        code, _, err = run(capsys, *argv.split())
        assert (code, err) == (EXIT_OK, "")
        assert events == ["bound", "draw", "draw", "draw", "draw"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bound_error_starts_no_draw(self, capsys, monkeypatch, forks, workers):
        monkeypatch.setattr(bounds, "_worker_count", lambda: workers)
        started = []

        def risk_report(model, samples, seed):
            started.append(model.n)
            return 0.25, 0.01

        def hellinger_divergence(model, p, real=bounds.hellinger_divergence):
            if model.n == 3:
                raise ArithmeticError("no divergence at n = 3")
            return real(model, p)

        monkeypatch.setattr(validation, "risk_report", risk_report)
        monkeypatch.setattr(bounds, "hellinger_divergence", hellinger_divergence)
        code, out, err = run(capsys, *"sweep --n-range 1..6 --oracle --samples 100".split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: numerical failure (ArithmeticError): no divergence at n = 3\n"
        assert (started, forks) == ([], [])

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_searched_error_in_column_order(self, capsys, monkeypatch, forks, workers):
        # The searches are one list, Hellinger's before the hockey-stick
        # ones, so the Hellinger search's error at n = 4 is the one reported,
        # on one process or two, although every hockey-stick search fails.
        monkeypatch.setattr(bounds, "_worker_count", lambda: workers)

        def hellinger_divergence(model, p, real=bounds.hellinger_divergence):
            if model.n == 4:
                raise ArithmeticError("no Hellinger divergence at n = 4")
            return real(model, p)

        def e_beta_gamma_numeric(model, beta, gamma):
            raise ArithmeticError("no hockey-stick divergence")

        monkeypatch.setattr(bounds, "hellinger_divergence", hellinger_divergence)
        monkeypatch.setattr(bounds, "e_beta_gamma_numeric", e_beta_gamma_numeric)
        code, out, err = run(capsys, *"compare --n-range 1..5 --optimize".split())
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: numerical failure (ArithmeticError): no Hellinger divergence at n = 4\n"
        )
        assert len(forks) == (workers == 2)
        assert_no_child()

    def test_families_in_either_order_print_the_same_bytes(self, capsys):
        argv = "sweep --model bernoulli --n-range 1..4 --optimize".split()
        forward = run(capsys, *argv, "--family", "hellinger", "--family", "hockey-stick")
        assert forward[0] == EXIT_OK
        assert run(capsys, *argv, "--family", "hockey-stick", "--family", "hellinger") == forward


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

    @pytest.mark.parametrize("value", ["true", "Yes", "0", "OFF"])
    def test_boolean_spellings(self, capsys, tmp_path, value):
        config = tmp_path / "bool.cfg"
        config.write_text(f"oracle = {value}\nsamples = 1000\n")
        code, out, _ = run(capsys, "sweep", "--n-range", "1..2", "--config", str(config))
        assert code == EXIT_OK
        on = value.lower() in ("1", "true", "yes", "on")
        assert out.splitlines()[1].endswith(",") != on

    def test_empty_family_line_means_the_default(self, capsys, tmp_path):
        config = tmp_path / "empty.cfg"
        config.write_text("family =\n")
        for argv in (["sweep", "--n-range", "1..3"], ["bound", "--n", "3"]):
            expected = run(capsys, *argv)
            assert expected[0] == EXIT_OK
            assert run(capsys, *argv, "--config", str(config)) == expected


class TestValidateCommand:
    # The passing runs are rows of golden_runs.RUNS.
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

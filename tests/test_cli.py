"""Command-line interface: subcommands, config precedence, exit codes, import cost."""

import argparse
import importlib
import importlib.util
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import otdetect
from otdetect import SpecError, load_csv, preset_specs, sweep
from otdetect.cli import build_parser, main
from test_sweep import assert_no_child_left


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSingleConfigCommands:
    def test_dc(self, capsys):
        code, out, _ = run_cli(capsys, "dc", "--alpha0", "0.3", "--s", "3")
        assert code == 0
        assert "dc" in out
        assert "5.0" in out  # blinding strength s/(2 alpha0)

    def test_dc_without_byzantines_reports_na(self, capsys):
        code, out, _ = run_cli(capsys, "dc", "--alpha0", "0")
        assert code == 0
        assert "NA" in out

    def test_pe(self, capsys):
        code, out, _ = run_cli(capsys, "pe", "--N", "1", "--s", "2")
        assert code == 0
        assert "0.8413" in out

    def test_bounds(self, capsys, tmp_path):
        out_csv = tmp_path / "b.csv"
        code, out, _ = run_cli(
            capsys, "bounds", "--N", "20", "--s", "3", "--out", str(out_csv)
        )
        assert code == 0
        assert "lb_saved" in out
        assert out_csv.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--D", "nan"),
            ("--D", "inf"),
            ("--s", "inf"),
            # Finite values that overflow the LLR moments.
            ("--D", "1e308"),
            ("--D", "1e200"),
            ("--s", "1e200"),
            ("--s", "1e160"),
            ("--sigma2", "1e-320"),
        ],
    )
    def test_non_finite_parameter_exits_2(self, capsys, flag, value):
        for command in ("pe", "dc", "bounds"):
            code, out, err = run_cli(capsys, command, flag, value)
            assert code == 2, command
            assert "finite" in err
            assert "nan" not in out

    def test_llr_variance_underflow_exits_2(self, capsys):
        for command in ("pe", "dc", "bounds"):
            code, out, err = run_cli(capsys, command, "--s", "1e-200")
            assert code == 2, command
            assert "underflow" in err and "s=1e-200, sigma2=1.0" in err
            assert out == ""

    def test_dc_n_scaled_overflow_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "dc", "--D", "1e150", "--alpha0", "0.3", "--N", "1000000")
        assert code == 2
        assert "N-scaled" in err
        assert out == ""
        code, _, err = run_cli(
            capsys, "sweep", "--param", "N", "--grid", "10,1000000", "--metrics", "dc",
            "--D", "1e150", "--alpha0", "0.3",
        )
        assert code == 2
        assert "N-scaled" in err

    @pytest.mark.parametrize(
        "command,computes",
        [
            ("pe", "analytic_error_probs"),
            ("dc", "deflection_coefficient"),
            ("bounds", "transmission_savings_bounds"),
        ],
    )
    def test_unwritable_out_fails_before_computing(
        self, capsys, tmp_path, monkeypatch, command, computes
    ):
        def not_called(*args, **kwargs):
            raise AssertionError(f"{command} computed before the --out check")

        monkeypatch.setattr(f"otdetect.cli.{computes}", not_called)
        code, out, err = run_cli(capsys, command, "--out", str(tmp_path / "missing" / "x.csv"))
        assert (code, out) == (3, "")
        assert "does not exist" in err

    def test_bounds_empirical_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--N", "10", "--s", "3", "--mode", "empirical", "--trials", "2000"
        )
        assert code == 0
        assert "empirical" in out

    @pytest.mark.parametrize("trials", ["5", "999"])
    def test_bounds_empirical_refuses_too_few_trials(self, capsys, trials):
        # The envelope needs 1000 samples; fewer is refused, not silently raised.
        code, out, err = run_cli(
            capsys, "bounds", "--N", "10", "--mode", "empirical", "--trials", trials
        )
        assert (code, out) == (2, "")
        assert "--trials" in err and trials in err


class TestSweepCommand:
    def test_sweep_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "s.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--param", "D",
            "--grid", "0:4:2",
            "--metrics", "pe_analytic,dc",
            "--alpha0", "0.3",
            "--trials", "200",
            "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 4  # header + 3 grid points
        assert lines[0] == "D,pe_analytic,dc"

    def test_grid_list_syntax(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--param", "s", "--grid", "1,2,3", "--metrics", "pe_analytic"
        )
        assert code == 0

    def test_invalid_metric_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--param", "D", "--grid", "0:4:2", "--metrics", "nope"
        )
        assert code == 2
        assert "nope" in err

    def test_invalid_grid_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--param", "D", "--grid", "4:0:1", "--metrics", "dc"
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["0:nan:1", "nan:1:1", "0:1:nan", "0:inf:1", "0:1:inf"])
    def test_non_finite_grid_range_exits_2(self, capsys, grid):
        code, out, err = run_cli(
            capsys, "sweep", "--param", "D", "--grid", grid, "--metrics", "dc"
        )
        assert (code, out) == (2, "")
        assert f"grid range {grid!r} must have a finite start, stop and step" in err

    def test_nt_analytic_at_large_n(self, capsys, tmp_path):
        out_csv = tmp_path / "nt.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--param", "D", "--grid", "0:4:2", "--metrics", "nt_analytic",
            "--N", "300", "--alpha0", "0.3", "--trials", "1000", "--out", str(out_csv),
        )
        assert code == 0
        result = load_csv(out_csv)
        assert len(result.rows) == 3
        for name in ("nt_analytic", "nt_analytic_se"):
            assert all(math.isfinite(v) for v in result.column(name))
        assert all(1.0 <= v <= 300.0 for v in result.column("nt_analytic"))
        assert all(v > 0.0 for v in result.column("nt_analytic_se"))

    def test_invalid_model_value_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--param", "D", "--grid", "0:2:1", "--metrics", "dc",
            "--alpha0", "1.5",
        )
        assert code == 2

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--param", "D",
            "--grid", "0:2:1",
            "--metrics", "dc",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 3

    def test_workers_below_one_exits_2(self, capsys, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("the grid was computed before the --workers check")

        monkeypatch.setattr("otdetect.cli.run_sweep", not_called)
        monkeypatch.setattr("otdetect.cli.run_sweeps", not_called)
        code, _, err = run_cli(
            capsys, "sweep", "--param", "D", "--grid", "0:2:1", "--metrics", "dc", "--workers", "0"
        )
        assert code == 2
        assert "--workers" in err
        code, _, err = run_cli(capsys, "preset", "fig2", "--workers", "0")
        assert code == 2
        assert "--workers" in err

    def test_seed_out_of_range_exits_2(self, capsys, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("the grid was computed before the seed check")

        monkeypatch.setattr("otdetect.cli.run_sweep", not_called)
        monkeypatch.setattr("otdetect.cli.run_sweeps", not_called)
        for seed in ("-1", str(2**64)):
            code, _, err = run_cli(
                capsys, "sweep", "--param", "D", "--grid", "0:2:1", "--metrics", "dc",
                "--seed", seed,
            )
            assert code == 2
            assert "seed" in err
            code, _, err = run_cli(capsys, "preset", "fig1a", "--seed", seed)
            assert code == 2

    def test_swept_parameter_base_value_exits_2(self, capsys, tmp_path, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("the grid was computed over a base value of its parameter")

        monkeypatch.setattr("otdetect.cli.run_sweep", not_called)
        cfg = tmp_path / "d.cfg"
        cfg.write_text("D = 4\n")
        for flags in (("--D", "4"), ("--config", str(cfg))):
            code, out, err = run_cli(
                capsys, "sweep", "--param", "D", "--grid", "0:2:1", "--metrics", "dc", *flags
            )
            assert (code, out) == (2, ""), flags
            assert "--param D" in err and "do not set it" in err

    def test_unwritable_out_fails_before_computing(self, capsys, tmp_path, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("the grid was computed before the --out check")

        monkeypatch.setattr("otdetect.cli.run_sweep", not_called)
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--param", "D",
            "--grid", "0:2:1",
            "--metrics", "pe_empirical",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 3
        assert "does not exist" in err
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--param", "D",
            "--grid", "0:2:1",
            "--metrics", "dc",
            "--out", str(tmp_path),
        )
        assert code == 3


class TestConfigFile:
    def test_file_and_cli_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("N = 1\ns = 2.0  # signal\nalpha0 = 0\n")
        code, out, _ = run_cli(capsys, "pe", "--config", str(cfg))
        assert code == 0
        assert "0.8413" in out
        # CLI overrides the file value.
        code, out, _ = run_cli(capsys, "pe", "--config", str(cfg), "--s", "4.0")
        assert code == 0
        assert "0.9772" in out  # Q(-2)

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "pe", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "argv,text,unused",
        [
            (["pe"], "trials = 5\n", "pe does not use trials"),
            (["dc"], "N = 20\nseed = 3\ntrials = 5\n", "dc does not use seed, trials"),
            (["preset", "fig1a"], "s = 2\nseed = 3\n", "preset does not use s"),
        ],
    )
    def test_key_the_command_does_not_read_exits_2(self, capsys, tmp_path, argv, text, unused):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert unused in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "pe", "--config", "/no/such/file.cfg")
        assert code == 2


class TestPresetCommand:
    def test_config_file_trials(self, capsys, tmp_path):
        # CLI > config file > the preset's own default, as for every other setting.
        cfg = tmp_path / "trials.cfg"
        cfg.write_text("trials = 50\n")
        runs = {
            "file": ("--config", str(cfg)),
            "cli": ("--trials", "50"),
            "both": ("--config", str(cfg), "--trials", "60"),
            "cli60": ("--trials", "60"),
        }
        for name, flags in runs.items():
            code, _, _ = run_cli(capsys, "preset", "fig1a", *flags, "--out", str(tmp_path / name))
            assert code == 0
        for suffix in ("_s0.5.csv", "_s4.csv", "_s0.5.csv.meta.json", "_s4.csv.meta.json"):
            files = {name: (tmp_path / (name + suffix)).read_bytes() for name in runs}
            assert files["file"] == files["cli"]
            assert files["both"] == files["cli60"]
        assert files["file"] != files["both"]

    def test_default_trials_without_cli_or_file_value(self, capsys, tmp_path, monkeypatch):
        seen = []

        def record(specs, workers=1):
            seen.extend(spec.n_trials for spec in specs)
            raise SpecError("stop before computing")

        monkeypatch.setattr("otdetect.cli.run_sweeps", record)
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = 3\n")
        code, _, _ = run_cli(
            capsys, "preset", "fig1a", "--config", str(cfg), "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert seen == [spec.n_trials for _, spec in preset_specs("fig1a")] == [4000, 4000]

    def test_preset_fig2_writes_two_csvs(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "preset", "fig2",
            "--trials", "300",
            "--out", str(tmp_path / "fig2"),
        )
        assert code == 0
        assert (tmp_path / "fig2_alpha0.3.csv").exists()
        assert (tmp_path / "fig2_alpha0.5.csv").exists()

    def test_preset_deterministic_across_runs_and_workers(self, capsys, tmp_path):
        args = ["preset", "fig2", "--trials", "200", "--seed", "5"]
        run_cli(capsys, *args, "--out", str(tmp_path / "r1"))
        run_cli(capsys, *args, "--out", str(tmp_path / "r2"))
        run_cli(capsys, *args, "--out", str(tmp_path / "r3"), "--workers", "4")
        for label in ("alpha0.3", "alpha0.5"):
            b1 = (tmp_path / f"r1_{label}.csv").read_bytes()
            b2 = (tmp_path / f"r2_{label}.csv").read_bytes()
            b3 = (tmp_path / f"r3_{label}.csv").read_bytes()
            assert b1 == b2 == b3

    def test_unwritable_out_fails_before_computing(self, capsys, tmp_path, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("a curve was computed before the --out check")

        monkeypatch.setattr("otdetect.cli.run_sweeps", not_called)
        code, _, err = run_cli(
            capsys, "preset", "fig2", "--out", str(tmp_path / "missing" / "fig2")
        )
        assert code == 3
        assert "does not exist" in err

    @pytest.mark.parametrize("out", [".", "/", "..", "sub/", "sub/.."])
    def test_out_without_a_file_name_exits_2(self, capsys, tmp_path, monkeypatch, out):
        # The stem's last component prefixes each file name: "." and "/" have
        # none, and ".." would write hidden files named ".._<curve>.csv".
        def not_called(*args, **kwargs):
            raise AssertionError("a curve was computed before the --out check")

        monkeypatch.setattr("otdetect.cli.run_sweeps", not_called)
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        code, out_text, err = run_cli(capsys, "preset", "fig2", "--trials", "20", "--out", out)
        assert (code, out_text) == (2, "")
        assert "--out" in err and "file stem" in err
        assert list(tmp_path.rglob("*")) == [tmp_path / "sub"]

    def test_model_parameters_exit_2(self, capsys, tmp_path, monkeypatch):
        # A preset fixes its model; a parameter from either source is refused
        # before any curve is computed.
        def not_called(*args, **kwargs):
            raise AssertionError("a curve was computed before the parameter check")

        monkeypatch.setattr("otdetect.cli.run_sweeps", not_called)
        with pytest.raises(SystemExit) as exc:
            main(["preset", "fig1a", "--N", "50", "--alpha0", "0.9", "--trials", "20"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "--N 50 --alpha0 0.9" in captured.err
        cfg = tmp_path / "model.cfg"
        cfg.write_text("D = 1\nprior_h1 = 0.3\ntrials = 20\n")
        code, _, err = run_cli(capsys, "preset", "fig2", "--config", str(cfg))
        assert code == 2
        assert "D, prior_h1" in err

    def test_unknown_preset_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            main(["preset", "fig9"])  # argparse rejects the choice


_COMMON = {"-h", "--help", "--config", "--out"}
_MODEL = {"--N", "--s", "--sigma2", "--alpha0", "--D", "--prior-h1"}
_MC = {"--trials", "--seed"}
_FLAGS = {
    "pe": _COMMON | _MODEL,
    "dc": _COMMON | _MODEL,
    "bounds": _COMMON | _MODEL | _MC | {"--mode"},
    "sweep": _COMMON | _MODEL | _MC | {"--workers", "--param", "--grid", "--metrics"},
    "preset": _COMMON | _MC | {"--workers", "--paper-scale"},
}


class TestFlags:
    def test_each_command_takes_only_the_flags_it_reads(self):
        (subparsers,) = (
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        flags = {
            name: {s for action in p._actions for s in action.option_strings}
            for name, p in subparsers.choices.items()
        }
        assert flags == _FLAGS

    @pytest.mark.parametrize(
        "argv,refused",
        [
            (["pe", "--trials", "-3"], "--trials -3"),
            (["dc", "--seed", "3", "--workers", "2"], "--seed 3 --workers 2"),
            (["bounds", "--workers", "4"], "--workers 4"),
            (["sweep", "--param", "D", "--grid", "0:2:1", "--metrics", "dc", "--paper-scale"],
             "--paper-scale"),
            # Not an abbreviation of preset's --seed.
            (["preset", "fig1a", "--s", "3"], "--s 3"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv, refused):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"unrecognized arguments: {refused}" in captured.err

    @pytest.mark.parametrize(
        "argv,refused",
        [
            (["pe", "--trials", "-3"], "--trials -3"),
            (["dc", "--seed", "3"], "--seed 3"),
            (["preset", "fig2", "--N", "50"], "--N 50"),
        ],
    )
    def test_refused_flag_shows_the_command_usage(self, capsys, argv, refused):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith(f"usage: otdetect {argv[0]} ")
        assert f"otdetect {argv[0]}: error: unrecognized arguments: {refused}\n" in err


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that --workers >= 2 forks even on a one-CPU machine."""
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)


class TestParallelSweeps:
    def test_same_bytes_at_every_worker_count(self, capsys, tmp_path, monkeypatch, two_cpus):
        calls = [
            ["preset", "fig2", "--trials", "300", "--out", "fig2"],
            ["sweep", "--param", "N", "--grid", "2,5,10,20",
             "--metrics", "pe_analytic,ns_empirical,nt_analytic,ns_lb,dc,d_star",
             "--alpha0", "0.3", "--D", "4", "--trials", "300", "--out", "n.csv"],
        ]
        stdout = {}
        for workers in ("1", "2", "8"):
            (tmp_path / workers).mkdir()
            monkeypatch.chdir(tmp_path / workers)
            stdout[workers] = []
            for argv in calls:
                code, out, _ = run_cli(capsys, *argv, "--workers", workers)
                assert code == 0
                stdout[workers].append(out)
            assert_no_child_left()
        assert stdout["1"] == stdout["2"] == stdout["8"]
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert len(names) == 6  # 2 + 1 CSVs, each with its sidecar
        for workers in ("2", "8"):
            assert names == sorted(p.name for p in (tmp_path / workers).iterdir())
            for name in names:
                want = (tmp_path / "1" / name).read_bytes()
                assert (tmp_path / workers / name).read_bytes() == want

    def test_failing_point_exits_2_before_fork(self, capsys, monkeypatch, two_cpus):
        # Grid index 1 would be the child's; its N-scaled dc moments overflow,
        # which the spec refuses before any process is forked.
        def no_fork():
            raise AssertionError("forked for a sweep that cannot run")

        monkeypatch.setattr(os, "fork", no_fork)
        code, out, err = run_cli(
            capsys, "sweep", "--param", "N", "--grid", "10,1000000", "--metrics", "dc",
            "--D", "1e150", "--alpha0", "0.3", "--workers", "2",
        )
        assert (code, out) == (2, "")
        assert "N-scaled" in err
        assert_no_child_left()

    def test_preset_forks_once_per_call(self, capsys, tmp_path, monkeypatch, two_cpus):
        # Both curves form one grid: --workers 2 forks one child for the
        # whole preset, not one per curve.
        fork = os.fork
        forks = []

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        code, _, _ = run_cli(
            capsys, "preset", "fig2", "--trials", "200", "--workers", "2",
            "--out", str(tmp_path / "fig2"),
        )
        assert code == 0
        assert len(forks) == 1
        assert_no_child_left()

    def test_workers_1_never_forks(self, capsys, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked at --workers 1")

        monkeypatch.setattr(os, "fork", no_fork)
        code, _, _ = run_cli(
            capsys, "preset", "fig1a", "--trials", "20", "--workers", "1",
            "--out", str(tmp_path / "fig1a"),
        )
        assert code == 0

    def test_stdout_printed_once_through_a_pipe(self, tmp_path):
        # Piped stdout is block-buffered, so the preset forks while the line
        # printed before main still sits in the buffer; a child that flushed
        # it would print it twice.
        run = (
            "import sys; from otdetect import sweep; sweep._usable_cpus = lambda: 2; "
            "print('before main'); "
            "from otdetect.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        out = {}
        for workers in ("1", "2"):
            out[workers] = subprocess.run(
                [sys.executable, "-c", run, "preset", "fig1a", "--trials", "20",
                 "--workers", workers, "--out", "fig1a"],
                capture_output=True,
                text=True,
                check=True,
                cwd=tmp_path,
                env=env,
            ).stdout
        assert out["2"].count("before main") == 1
        assert out["2"].count("[fig1a/s0.5]") == out["2"].count("[fig1a/s4]") == 1
        assert out["2"] == out["1"]


def subprocess_env() -> dict:
    """Environment for a fresh interpreter that imports this otdetect."""
    src = str(Path(otdetect.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_parser_reuse_matches_fresh_processes(capsys, tmp_path, monkeypatch):
    # main() builds its parser once per process; flags of one call must not
    # leak into the next.  Each call alone, in a fresh interpreter, is the
    # reference for stdout and for every file written.
    calls = [
        ["preset", "fig1a", "--paper-scale", "--trials", "20", "--seed", "2", "--workers", "3",
         "--out", "paper"],
        ["sweep", "--param", "D", "--grid", "0:4:2", "--metrics", "pe_analytic,pe_empirical,dc",
         "--alpha0", "0.3", "--trials", "200", "--out", "sweep.csv"],
        ["preset", "fig1a", "--trials", "20", "--out", "desk"],
    ]
    (tmp_path / "alone").mkdir()
    alone = [
        subprocess.run(
            [sys.executable, "-m", "otdetect.cli", *argv],
            capture_output=True,
            text=True,
            check=True,
            cwd=tmp_path / "alone",
            env=subprocess_env(),
        ).stdout
        for argv in calls
    ]
    (tmp_path / "reused").mkdir()
    monkeypatch.chdir(tmp_path / "reused")
    for argv, want in zip(calls, alone):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == want
    names = sorted(p.name for p in (tmp_path / "alone").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "reused").iterdir())
    assert len(names) == 10  # 2 + 1 + 2 CSVs, each with its sidecar
    for name in names:
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def run_probe(probe: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run ``probe`` in a fresh interpreter that imports this otdetect."""
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        cwd=cwd,
        env=subprocess_env(),
    )


def test_cli_import_loads_no_scipy():
    # Importing scipy.special alone takes about 0.25 s, all of it start-up
    # cost of every CLI call; the package imports it only in the analytic
    # functions that use it.  run_sweep forks with os alone, so no
    # process-pool module is loaded either.
    probe = (
        "import otdetect.cli, sys; print(' '.join(m for m in sys.modules if m == 'scipy'"
        " or m.startswith(('scipy.', 'multiprocessing', 'concurrent.futures.process'))))"
    )
    assert run_probe(probe).stdout.strip() == ""


def test_monte_carlo_commands_run_without_scipy(tmp_path):
    # Calls whose metrics are all Monte Carlo finish without loading scipy;
    # an analytic command then loads scipy.special on first use.
    probe = textwrap.dedent(
        """
        import sys
        from otdetect.cli import main

        calls = [
            ['preset', 'fig2', '--trials', '200', '--workers', '1'],
            ['sweep', '--param', 'D', '--grid', '0:4:2', '--trials', '200', '--workers', '1',
             '--metrics', 'pe_empirical,ns_empirical,nt_analytic', '--out', 'mc.csv'],
        ]
        for argv in calls:
            assert main(argv) == 0, argv
        loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]
        print('after monte carlo:', loaded, file=sys.stderr)
        assert main(['pe', '--N', '3']) == 0
        print('after pe:', 'scipy.special' in sys.modules, file=sys.stderr)
        """
    )
    lines = run_probe(probe, cwd=tmp_path).stderr.splitlines()
    assert lines == ["after monte carlo: []", "after pe: True"]


def test_public_names_resolve_once():
    names = otdetect.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(otdetect, name), name


def test_benchmark_tracer_targets_exist(tmp_path):
    # perfbench/spans.py traces a run by replacing otdetect.<module>.<name>
    # attributes; a driver refactor that drops one of those imports would
    # break the traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    loader_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader_spec)
    loader_spec.loader.exec_module(spans)
    targets = [spans.ROOT] + [f"{m}.{n}" for m, names, _ in spans.WRAPPED for n in names]
    for target in targets:
        module_name, name = target.split(".")
        module = importlib.import_module(f"otdetect.{module_name}")
        assert callable(getattr(module, name, None)), target
    # Each span extractor reads fields off the result of the function it
    # wraps: run it on a real result, called as the calling module calls it.
    cfg = otdetect.ModelConfig(n_sensors=4, signal=2.0, byz_frac=0.25, attack_strength=1.0)
    spec = otdetect.SweepSpec(
        base=cfg, sweep_param="D", grid=(0.0, 1.0), metrics=("nt_analytic",), n_trials=20
    )
    sweep_result = otdetect.run_sweep(spec)
    calls = {
        "sweep.run_batch": (cfg, 20, 1),
        "sweep.expected_transmissions": (cfg, 1000, 1),
        "cli.run_sweep": (spec, 1),
        "cli.emit_csv": (sweep_result, tmp_path / "out.csv"),
    }
    assert set(calls) == set(spans.ATTRS)
    for target, args in calls.items():
        module_name, name = target.split(".")
        fn = getattr(importlib.import_module(f"otdetect.{module_name}"), name)
        attrs = spans.ATTRS[target](args, {}, fn(*args))
        assert attrs and all(isinstance(v, int | float) for v in attrs.values()), target

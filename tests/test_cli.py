"""Command-line behaviour: exit codes, CSV contracts, config files."""

import hashlib
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acp.cli import _format_cell, build_parser, main, resolve_options, write_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(*argv) -> int:
    return main(list(argv))


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert _run("frobnicate") == 2

    def test_unknown_flag(self, capsys):
        assert _run("bounds", "--no-such-flag", "1") == 2

    def test_bad_family_value(self, capsys):
        assert _run("bounds", "--family", "cauchy") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--format", "csv"),
            ("approx", "--trials", "1"),
            ("estimate", "--lengthscale", "2.0"),
            ("estimate", "--signal-var", "4"),
        ],
    )
    def test_removed_flags_are_rejected(self, argv, capsys):
        assert _run(*argv) == 2

    def test_unwritable_output(self, tmp_path, capsys):
        missing_dir = tmp_path / "does" / "not" / "exist" / "x.csv"
        code = _run("bounds", "--trials", "100", "--out", str(missing_dir))
        assert code == 1

    def test_invalid_domain_value_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert _run("bounds", "--i-total", "-5", "--out", str(out)) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ("--mu", "2,nan"),
            ("--i-total", "inf"),
            ("--family", "uniform", "--m", "inf"),
            ("--m2", "nan"),
            ("--cs", "inf"),
            ("--family", "uniform", "--delta", "1.5"),
            ("--family", "exponential", "--delta", "1.5"),
            ("--family", "truncated-gaussian", "--scale", "inf"),
            ("--family", "truncated-gaussian", "--scale", "nan"),
        ],
    )
    def test_bad_bounds_config_writes_nothing(self, tmp_path, capsys, flags):
        out, dump = tmp_path / "b.csv", tmp_path / "trials.csv"
        code = _run("bounds", *flags, "--trials", "1", "--out", str(out), "--dump-trials", str(dump))
        assert code == 2
        assert not out.exists() and not dump.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--noise", "inf"),
            ("estimate", "--noise", "nan"),
            ("slope", "--noise", "1,inf", "--trials", "20"),
            ("slope", "--noise", "1,nan", "--trials", "20"),
        ],
    )
    def test_non_finite_noise_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "o.csv"
        assert _run(*argv, "--out", str(out)) == 2
        assert not out.exists() and not (tmp_path / "o_summary.csv").exists()
        assert "noise" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "0,inf"])
    def test_non_finite_epsilon_writes_nothing(self, tmp_path, capsys, eps):
        out = tmp_path / "a.csv"
        assert _run("approx", "--eps", eps, "--out", str(out)) == 2
        assert not out.exists()
        assert "epsilon" in capsys.readouterr().err

    def test_success(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert _run("bounds", "--trials", "200", "--out", str(out)) == 0
        assert out.exists()


class TestBoundsOutput:
    def test_report_row_matches_theory(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert _run("bounds", "--family", "exponential", "--i-total", "10",
                    "--trials", "2000", "--seed", "7", "--out", str(out)) == 0
        header, row = out.read_text().strip().split("\n")
        assert header == "lower,upper,empirical_mean_cost,n_trials,standard_error,within_bounds"
        cells = row.split(",")
        assert float(cells[0]) == pytest.approx(10.0)
        assert float(cells[1]) == pytest.approx(12.0)
        assert float(cells[2]) == pytest.approx(11.0, abs=3 * float(cells[4]))
        assert cells[5] == "true"

    def test_trial_dump(self, tmp_path, capsys):
        out, dump = tmp_path / "b.csv", tmp_path / "trials.csv"
        assert _run("bounds", "--trials", "150", "--out", str(out),
                    "--dump-trials", str(dump)) == 0
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "trial_id,n_steps,s_n,overshoot"
        assert len(lines) == 151


class TestEstimateOutput:
    def test_near_noiseless_step_stays_within_total(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert _run("estimate", "--noise", "1e-6", "--out", str(out)) == 0
        header, row = out.read_text().strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["i_s_bits"]) <= float(cells["i_total_bits"])
        assert cells["predicted_steps"] == "1"


class TestApproxOutput:
    def test_certain_goal_has_positive_zero_search_bits(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert _run("approx", "--eps", "0,1000", "--out", str(out)) == 0
        last = out.read_text().strip().split("\n")[-1]
        assert last == "1000.000000,1024,1.000000,0.000000,0.000000"


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert _run("slope", "--noise", "0.1,1.0", "--trials", "20",
                        "--seed", "5", "--out", str(out)) == 0
        assert _read(a) == _read(b)
        assert _read(tmp_path / "a_summary.csv") == _read(tmp_path / "b_summary.csv")

    def test_estimate_bytes_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert _run("estimate", "--seed", "11", "--out", str(out)) == 0
        assert _read(out) == (
            b"i_total_bits,i_s_bits,c_eff,predicted_steps,mc_error_bits,margin,solvable\n"
            b"5.321758,2.477488,2.148046,3,0.903436,0.783303,true\n"
        )

    def test_slope_summary_bytes_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert _run("slope", "--noise", "0.1,0.5", "--trials", "20", "--seed", "11",
                    "--out", str(out)) == 0
        assert _read(tmp_path / "s_summary.csv") == (
            b"sigma,steps_predicted,steps_actual_mean,steps_actual_se,gap\n"
            b"0.100000,2,2.000000,0.072548,0.000000\n"
            b"0.500000,3,40.050000,1.219307,37.050000\n"
        )

    def test_slope_bytes_are_pinned(self, tmp_path, capsys):
        # every sigma = 3 trial runs to the 200-step cap
        out = tmp_path / "s.csv"
        assert _run("slope", "--noise", "0.3,3", "--trials", "20", "--seed", "5",
                    "--out", str(out)) == 0
        assert hashlib.sha256(_read(out)).hexdigest() == (
            "cc561a6209d58f9ac3c1623f09d0dbfe0c0685301faace47e6d06c0996dd6794"
        )
        assert hashlib.sha256(_read(tmp_path / "s_summary.csv")).hexdigest() == (
            "81fff5308767e000d625a5d236b3741fdf2a359e42adb2c87cf54c7f607d36d8"
        )

    def test_bounds_bytes_are_pinned(self, tmp_path, capsys):
        out, dump = tmp_path / "b.csv", tmp_path / "trials.csv"
        assert _run("bounds", "--trials", "2000", "--seed", "11", "--out", str(out),
                    "--dump-trials", str(dump)) == 0
        assert _read(out) == (
            b"lower,upper,empirical_mean_cost,n_trials,standard_error,within_bounds\n"
            b"10.000000,12.000000,10.997500,2000,0.069833,true\n"
        )
        assert hashlib.sha256(_read(dump)).hexdigest() == (
            "b9aef3378a6b16a6c5b186e04eedd0f8caadc06359425c6295e5b6f7dfa024c9"
        )

    def test_workers_do_not_change_output(self, tmp_path, capsys):
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert _run("bounds", "--trials", "300", "--seed", "3", "--out", str(a),
                    "--workers", "1") == 0
        assert _run("bounds", "--trials", "300", "--seed", "3", "--out", str(b),
                    "--workers", "4") == 0
        assert _read(a) == _read(b)


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 150\nseed = 9\n# comment\ni-total = 5\n")
        out = tmp_path / "o.csv"
        assert _run("bounds", "--config", str(cfg), "--out", str(out)) == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        assert row[3] == "150"
        assert float(row[0]) == pytest.approx(5.0)

    def test_flag_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=150\n")
        out = tmp_path / "o.csv"
        assert _run("bounds", "--config", str(cfg), "--trials", "220", "--out", str(out)) == 0
        assert out.read_text().strip().split("\n")[1].split(",")[3] == "220"

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert _run("bounds", "--config", str(cfg)) == 2

    def test_removed_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("signal_var=4\n")
        out = tmp_path / "e.csv"
        assert _run("estimate", "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert _run("bounds", "--config", str(tmp_path / "nope.cfg")) == 2


class TestCsvWriter:
    def test_empty_results_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(str(path), ["a", "b"], [])
        assert path.read_bytes() == b"a,b\n"

    def test_formats(self, tmp_path):
        path = tmp_path / "fmt.csv"
        write_csv(str(path), ["x"], [[1.5], [2], [True], ["txt"]])
        assert path.read_bytes() == b"x\n1.500000\n2\ntrue\ntxt\n"

    @pytest.mark.parametrize(
        "value, cell",
        [
            (True, b"true"),
            (False, b"false"),
            (np.bool_(True), b"true"),
            (np.bool_(False), b"false"),
            (7, b"7"),
            (-12, b"-12"),
            (np.int64(-3), b"-3"),
            (0.1, b"0.100000"),
            (np.float64(2.5), b"2.500000"),
            ("txt", b"txt"),
            ("a,b", b'"a,b"'),
            (float("nan"), b"nan"),
            (float("inf"), b"inf"),
            (float("-inf"), b"-inf"),
            (-0.0, b"-0.000000"),
        ],
    )
    def test_cell_bytes(self, tmp_path, value, cell):
        path = tmp_path / "cell.csv"
        write_csv(str(path), ["x"], [[value]])
        assert path.read_bytes() == b"x\n" + cell + b"\n"

    @settings(max_examples=50, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float64_cell_matches_float(self, x):
        assert _format_cell(x) == _format_cell(np.float64(x))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_int64_cell_matches_int(self, n):
        assert _format_cell(n) == _format_cell(np.int64(n))

    def test_lf_newlines_only(self, tmp_path):
        path = tmp_path / "nl.csv"
        write_csv(str(path), ["x"], [[1]])
        assert b"\r" not in path.read_bytes()


class TestHelp:
    @pytest.mark.parametrize("sub", ["bounds", "slope", "coloring", "estimate", "approx"])
    def test_help_lists_defaults(self, sub, capsys):
        assert _run(sub, "--help") == 0
        text = capsys.readouterr().out
        assert "default:" in text
        assert "--seed" in text


def _readme_commands() -> list[str]:
    """Every `acp ...` line inside README's fenced sh blocks."""
    lines, in_sh = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("acp "):
            lines.append(line)
    return lines


class TestReadme:
    def test_lists_every_subcommand(self):
        assert sorted(shlex.split(c)[1] for c in _readme_commands()) == sorted(
            ["bounds", "slope", "coloring", "estimate", "approx"]
        )

    @pytest.mark.parametrize("command", _readme_commands())
    def test_command_parses(self, command):
        # parse and resolve only; nothing runs
        args = build_parser().parse_args(shlex.split(command)[1:])
        assert resolve_options(args)["out"]

"""Command-line behaviour: exit codes, CSV contracts, config files.

Two tables hold the CLI's end-to-end contract. Every ``REFUSALS`` row must
exit 1 or 2 and write nothing; every ``PINNED`` row must write the same
pinned bytes at ``--workers 1`` and ``--workers 2``.
"""

import csv
import hashlib
import io
import json
import multiprocessing
import os
import shlex
import signal
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acp import cli, stopping
from acp.cli import _format_cell, _format_chunk, build_parser, main, resolve_options, write_csv
from acp.cli import _CHUNK_ROWS, _RUNNERS
from acp.stopping import TRIAL_BLOCK, StepCapExceeded

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


def _reference_structured_text(rows: np.ndarray) -> str:
    """A structured array's rows as one %-template line each (%d or %.6f per field)."""
    fields = rows.dtype.names
    template = ",".join("%.6f" if rows.dtype[name].kind == "f" else "%d" for name in fields) + "\n"
    return "".join(map(template.__mod__, zip(*(rows[name].tolist() for name in fields))))


def _one_chunk(rows: np.ndarray) -> cli._Stream:
    """Structured ``rows`` as a stream of one chunk, the form write_csv takes them in."""
    return cli._Stream(len(rows), iter((rows,)))


def _run(*argv) -> int:
    return main(list(argv))


def _drain(run) -> tuple[list, list[str]]:
    """A runner's tables in the order it yields them, and the report lines it returns.

    A streamed table is cut to its first chunk of records, taken before the
    runner goes on, as main's writer takes it.
    """
    tables = []
    while True:
        try:
            path, header, rows = next(run)
        except StopIteration as done:
            return tables, done.value
        if isinstance(rows, cli._Stream):
            rows = next(iter(rows))
        tables.append((path, header, rows))


@contextmanager
def _time_limit(seconds: int):
    """Fail the test once ``seconds`` pass: a hung run fails its row instead of stalling the suite."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")  # a BaseException: main does not catch it

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class Refusal(NamedTuple):
    """A run that exits ``code``, says ``stderr`` and writes nothing, without calling ``harness``."""

    argv: tuple
    stderr: str = ""
    code: int = 2
    harness: str | None = None


class Pinned(NamedTuple):
    """A run whose CSVs hold ``pins`` (exact bytes or a sha256) and whose report holds ``stdout``."""

    argv: tuple
    pins: dict
    stdout: str = ""


def _check_refusal(row: Refusal, tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    if row.harness:
        monkeypatch.setattr(row.harness, lambda *a, **k: pytest.fail(f"{row.harness} ran before the refusal"))
    with _time_limit(20):
        assert main(list(row.argv)) == row.code
    assert row.stderr in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _check_pinned(row: Pinned, tmp_path, capsys, monkeypatch) -> None:
    for workers in ("1", "2"):
        folder = tmp_path / f"workers{workers}"
        folder.mkdir()
        monkeypatch.chdir(folder)
        with _time_limit(60):
            assert main([*row.argv, "--workers", workers]) == 0
        assert row.stdout in capsys.readouterr().out
        _check_files(row, folder, workers)


def _check_files(row: Pinned, folder: Path, label: str) -> None:
    for name, pin in row.pins.items():
        data = (folder / name).read_bytes()
        assert (data if isinstance(pin, bytes) else hashlib.sha256(data).hexdigest()) == pin, (label, name)


def _table(table: dict, check) -> type:
    """A base class with one test per name in ``table``, which maps to one row or to rows by test id.

    The names and ids are the ones these cases have always been reported under;
    a new row joins ``test_refused`` or ``test_pinned``.
    """
    tests = {}
    for name, rows in table.items():
        if isinstance(rows, dict):
            @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
            def test(self, tmp_path, capsys, monkeypatch, row):
                check(row, tmp_path, capsys, monkeypatch)
        else:
            def test(self, tmp_path, capsys, monkeypatch, row=rows):
                check(row, tmp_path, capsys, monkeypatch)
        tests[name] = test
    return type("Table", (), tests)


DUMP = ("--out", "b.csv", "--dump-trials", "t.csv")
BOUNDS_HEADER = b"lower,upper,empirical_mean_cost,n_trials,standard_error,within_bounds\n"
ESTIMATE_HEADER = b"i_total_bits,i_s_bits,c_eff,predicted_steps,mc_error_bits,margin,solvable\n"

# Each row runs in an empty folder, which must stay empty.
REFUSALS = {
    "test_unknown_subcommand": Refusal(("frobnicate",)),
    "test_unknown_flag": Refusal(("bounds", "--no-such-flag", "1")),
    "test_bad_family_value": Refusal(("bounds", "--family", "cauchy")),
    "test_removed_flags_are_rejected": {f"argv{i}": Refusal(argv) for i, argv in enumerate([
        ("bounds", "--format", "csv"),
        ("approx", "--trials", "1"),
        ("estimate", "--lengthscale", "2.0"),
        ("estimate", "--signal-var", "4"),
        ("bounds", "--m2", "9"),
    ])},
    "test_unwritable_output": Refusal(("bounds", "--trials", "100", "--out", "does/not/exist/x.csv"), code=1),
    "test_missing_output_directory_fails_before_work": {
        f"argv{i}-{harness}": Refusal((*argv, "--out", "missing/o.csv"), "no directory", 1, harness)
        for i, (argv, harness) in enumerate([
            (("bounds", "--trials", "100"), "acp.stopping.run_trial_blocks"),
            (("slope", "--trials", "20"), "acp.slope.run_noise_sweep"),
            (("coloring", "--n", "8", "--p", "0.25", "--k", "3", "--instances", "50"), "acp.coloring.run_campaign"),
            (("estimate",), "acp.gp.a_priori_estimate"),
            (("approx",), "acp.approx.default_knapsack"),
            # a bad option value exits 2 only once the directory is known to exist
            (("bounds", "--delta", "2"), "acp.stopping.run_trial_blocks"),
            (("slope", "--trials", "5"), "acp.slope.run_noise_sweep"),
            (("coloring", "--n", "10", "--p", "nan", "--k", "3", "--instances", "50"), "acp.coloring.run_campaign"),
            (("coloring", "--n", "10"), "acp.coloring.run_campaign"),
            (("estimate", "--trials", "15"), "acp.gp.a_priori_estimate"),
            (("approx", "--items", "21"), "acp.approx.default_knapsack"),
            (("bounds", "--seed", "-1"), "acp.stopping.run_trial_blocks"),
            (("slope", "--workers", "0"), "acp.slope.run_noise_sweep"),
        ])
    },
    "test_bad_seed_or_workers_writes_nothing": {
        f"argv{i}-{message}": Refusal(argv, message)
        for i, (argv, message) in enumerate([
            (("bounds", "--seed", "-1"), "--seed must be non-negative"),
            (("approx", "--workers", "0"), "--workers must be at least 1"),
        ])
    },
    # 4 / r rounds to one bin: refused when the estimation task is built, naming the resolution
    "test_one_bin_resolution_is_refused": {
        f"argv{i}": Refusal(argv, f"resolution {argv[-1]} leaves one bin")
        for i, argv in enumerate([("estimate", "--resolution", "3"), ("slope", "--resolution", "3.99")])
    },
    # refused before any trial runs, so the report CSV is not left behind either
    "test_missing_dump_directory_writes_nothing": Refusal(
        ("bounds", "--trials", "100", "--out", "b.csv", "--dump-trials", "missing/t.csv"), "no directory", 1,
        "acp.stopping.run_trial_blocks"),
    # one trial expects about 2e7 steps, past STEP_CAP: refused before it runs, not cut off by the cap
    "test_trial_over_step_cap_writes_nothing": Refusal(
        ("bounds", "--trials", "1", "--i-total", "2e7", *DUMP), "over the step cap",
        harness="acp.stopping.run_trial_blocks"),
    "test_invalid_domain_value_is_config_error": Refusal(("bounds", "--i-total", "-5")),
    "test_bad_bounds_config_writes_nothing": {
        f"flags{i}": Refusal(("bounds", *flags, "--trials", "1", *DUMP)) for i, flags in enumerate([
            ("--mu", "2,nan"),
            ("--i-total", "inf"),
            ("--family", "uniform", "--m", "inf"),
            ("--family", "truncated-gaussian", "--m", "nan"),
            ("--cs", "inf"),
            ("--family", "uniform", "--delta", "1.5"),
            ("--family", "exponential", "--delta", "1.5"),
            ("--family", "truncated-gaussian", "--scale", "inf"),
            ("--family", "truncated-gaussian", "--scale", "nan"),
            # mu_1^2 overflows, or mu_tail^2 underflows to 0
            ("--family", "exponential", "--mu-inf", "1e200"),
            ("--family", "deterministic", "--mu-inf", "1e200"),
            ("--mu", "1e200", "--mu-inf", "1"),
            ("--mu-inf", "1e-200"),
            ("--mu", "1", "--mu-inf", "1e-200"),
            # only the truncated-gaussian takes a support bound or a scale
            ("--family", "exponential", "--m", "1"),
            ("--family", "uniform", "--m", "5"),
            ("--family", "deterministic", "--m", "5"),
            ("--family", "uniform", "--m", "1e300", "--mu-inf", "1"),
            ("--family", "exponential", "--scale", "0.5"),
            ("--family", "uniform", "--scale", "0.5"),
            ("--family", "deterministic", "--scale", "0.5"),
        ])
    },
    "test_extreme_truncated_gaussian_writes_nothing": {
        f"flags{i}": Refusal(("bounds", "--family", "truncated-gaussian", *flags, "--trials", "1", *DUMP),
                             "too extreme to sample reliably")
        for i, flags in enumerate([("--m", "0.5", "--mu-inf", "0.005", "--scale", "5"),
                                   ("--m", "1", "--mu-inf", "0.95", "--scale", "1")])
    },
    # (M / mu_tail)^2 overflows
    "test_overflowing_step_budget_writes_nothing": {
        f"flags{i}": Refusal(("bounds", *flags, "--trials", "10", *DUMP), "overflows")
        for i, flags in enumerate([("--family", "uniform", "--mu", "1e150", "--mu-inf", "1e-10"),
                                   ("--family", "truncated-gaussian", "--m", "1e300", "--scale", "1")])
    },
    # 10^4 trials of about 10^6 expected steps each: refused before any trial runs
    "test_runaway_step_total_writes_nothing": Refusal(
        ("bounds", "--family", "exponential", "--mu-inf", "1e-5", "--i-total", "10", "--trials", "10000", *DUMP),
        "1e+10 steps"),
    # refused before any graph is drawn; the search for a 1-colorable G(10, 0.3) would not end
    "test_single_color_writes_nothing": Refusal(
        ("coloring", "--n", "10", "--p", "0.3", "--k", "1", "--instances", "50"), "k must be at least 2"),
    "test_bad_graph_config_writes_nothing": {
        f"{n}-{p}-{message}": Refusal(("coloring", "--n", n, "--p", p, "--k", "3", "--instances", "50"), message)
        for n, p, message in [
            ("0", "0.3", "n must be at least 1"),
            ("10", "nan", "p must lie in [0, 1]"),
            ("10", "1.5", "p must lie in [0, 1]"),
            ("10", "-0.1", "p must lie in [0, 1]"),
            # solve used to recurse once per vertex: n = 990 ended in a RecursionError, exit 1
            ("990", "0.0005", "n must be at most 512, got 990"),
            ("1100", "0.0005", "n must be at most 512, got 1100"),
        ]
    },
    "test_non_finite_noise_writes_nothing": {f"argv{i}": Refusal(argv, "noise") for i, argv in enumerate([
        ("estimate", "--noise", "inf"),
        ("estimate", "--noise", "nan"),
        ("slope", "--noise", "1,inf", "--trials", "20"),
        ("slope", "--noise", "1,nan", "--trials", "20"),
        # sigma is finite but sigma^2 overflows: a config error, not an OverflowError
        ("estimate", "--noise", "1e160"),
        ("slope", "--noise", "1e160,1", "--trials", "20"),
        ("slope", "--noise", "1,1e160", "--trials", "20"),
    ])},
    # refused before the hypothesis grid is built: over 10^10 posterior cells
    "test_runaway_estimate_writes_nothing": {
        f"flags{i}": Refusal(("estimate", *flags), "posterior cells")
        for i, flags in enumerate([("--trials", "10000000"), ("--grid", "1000000000")])
    },
    # refused when the task is built; 16 draws is the least the estimator takes
    "test_too_few_estimate_draws_writes_nothing": Refusal(
        ("estimate", "--trials", "15"), "n_outcome_samples must be at least 16"),
    # refused before any estimate or trial runs: over 10^10 cell-steps
    "test_runaway_slope_writes_nothing": {f"flags{i}": Refusal(("slope", *flags), "cell-steps") for i, flags in enumerate([
        ("--noise", "0.1,0.2", "--trials", "100000000"),
        ("--noise", "100,200", "--trials", "20", "--step-cap", "100000000"),
        # 7000 levels x (20 x 1 x 401 + 1 565 504 estimate cells) = 1.1e10
        ("--noise", ",".join(map(str, range(1, 7001))), "--trials", "20", "--step-cap", "1"),
    ])},
    "test_non_finite_epsilon_writes_nothing": {
        eps: Refusal(("approx", "--eps", eps), "epsilon") for eps in ("nan", "0,inf")
    },
    "test_refused": {
        # the dump would overwrite the report
        "dump-is-out": Refusal(("bounds", "--trials", "100", "--out", "x.csv", "--dump-trials", "x.csv"),
                               "name the same file", harness="acp.stopping.run_trial_blocks"),
        "dump-is-out-by-path": Refusal(("bounds", "--trials", "100", "--out", "x.csv", "--dump-trials", "./x.csv"),
                                       "name the same file", harness="acp.stopping.run_trial_blocks"),
        "empty-out": Refusal(("slope", "--out", ""), "--out must name a file", harness="acp.slope.run_noise_sweep"),
        # an output path that is a directory is refused before any work, not at write time
        "dump-is-directory": Refusal(("bounds", "--trials", "100", "--out", "b.csv", "--dump-trials", "."),
                                     "is a directory", 1, "acp.stopping.run_trial_blocks"),
        "out-is-directory": Refusal(("slope", "--trials", "20", "--out", "."), "is a directory", 1,
                                    "acp.slope.run_noise_sweep"),
        # 1e308 times the unit-cost upper bound of 12 steps overflows
        "cs-overflows-upper-bound": Refusal(("bounds", "--trials", "100", "--i-total", "10", "--cs", "1e308", *DUMP),
                                            "--cs 1e+308", harness="acp.stopping.run_trial_blocks"),
        # named by the flag, before the knapsack is drawn
        **{f"approx-{flag[2:]}-{value}": Refusal(("approx", flag, value), message,
                                                  harness="acp.approx.default_knapsack")
           for flag, value, message in [
               ("--items", "0", "--items must be between 1 and 20, got 0"),
               ("--items", "30", "--items must be between 1 and 20, got 30"),
               ("--eps", "0.5,0.1", "--eps must list strictly ascending epsilons, got 0.5,0.1"),
               ("--eps", "-1", "--eps must list finite, non-negative epsilons, got -1.0"),
           ]},
        # named by the flag, not by the library's step_cost
        **{f"cs-{value}": Refusal(("bounds", "--trials", "100", "--cs", value, *DUMP),
                                  f"--cs must be positive and finite, got {float(value)!r}",
                                  harness="acp.stopping.run_trial_blocks")
           for value in ("0", "-1", "inf", "nan")},
    },
}


class TestExitCodes(_table(REFUSALS, _check_refusal)):
    """Every ``REFUSALS`` row, and the edge values that must run cleanly instead."""

    @pytest.mark.parametrize(
        "argv", [("estimate", "--noise", "1e-155"), ("slope", "--noise", "1e-155,1", "--trials", "20")]
    )
    def test_tiny_noise_runs_without_warnings(self, tmp_path, capsys, argv):
        # nearly every scaled residual squares past the float range: zero-mass cells, not a warning
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(*argv, "--out", str(out)) == 0
        if argv[0] == "estimate":
            assert out.read_text().splitlines()[1].startswith("5.321758,5.321758,1.000000,1,")

    def test_huge_noise_slope_runs_without_warnings(self, tmp_path, capsys):
        # sigma^2 is finite but 2 sigma^2 is not: the agent scales by sigma sqrt(2 / n) instead
        out = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run("slope", "--noise", "1.2e154,1", "--trials", "20", "--step-cap", "50",
                        "--out", str(out)) == 0
        rows = [r for r in csv.DictReader(io.StringIO(out.read_text())) if float(r["sigma"]) > 1]
        assert len(rows) == 20
        for row in rows:
            assert (row["steps_actual"], row["completed"]) == ("50", "false")
            assert np.isfinite(float(row["final_error"]))
        # the estimator cannot price the level: no prediction and no gap, not a prediction of 0 steps
        huge, unit = csv.DictReader(io.StringIO((tmp_path / "s_summary.csv").read_text()))
        assert (huge["steps_predicted"], huge["steps_actual_mean"], huge["gap"]) == ("", "50.000000", "")
        assert (unit["sigma"], unit["steps_predicted"], unit["gap"]) == ("1.000000", "4", "46.000000")
        report = capsys.readouterr().out.splitlines()
        assert report[1].split()[1:] == ["-", "50.00", "0.00", "-"]

    @pytest.mark.parametrize("argv, harness", [
        (("slope", "--trials", "20"), "acp.slope.run_noise_sweep"),
        (("coloring", "--n", "8", "--p", "0.25", "--k", "3", "--instances", "50"), "acp.coloring.run_campaign"),
    ])
    def test_summary_path_is_directory_writes_nothing(self, tmp_path, capsys, monkeypatch, argv, harness):
        (tmp_path / "x_summary.csv").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, lambda *a, **k: pytest.fail(f"{harness} ran before the refusal"))
        assert _run(*argv, "--out", "x.csv") == 1
        assert "x_summary.csv: it is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["x_summary.csv"]

    def test_success(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert _run("bounds", "--trials", "200", "--out", str(out)) == 0
        assert out.exists()


PINNED = {
    "test_rerun_is_byte_identical": Pinned(
        ("slope", "--noise", "0.1,1.0", "--trials", "20", "--seed", "5", "--out", "s.csv"),
        {"s.csv": "987bd14d5cc3d0587b9a01015a69d3b216f3c126fe0d819e1298feed1354d471",
         "s_summary.csv": "0e75666645de198fe0b564b44990f7f29be3bd4107dcbd115f0e3400c074596e"}),
    "test_estimate_bytes_are_pinned": Pinned(
        ("estimate", "--seed", "11", "--out", "e.csv"),
        {"e.csv": ESTIMATE_HEADER + b"5.321758,2.477488,2.148046,3,0.903436,0.783303,true\n"}),
    # 2048 draws span several posterior blocks of the estimator
    "test_large_estimate_bytes_are_pinned": {
        f"flags{i}-{row.decode()}": Pinned(("estimate", *flags, "--out", "e.csv"), {"e.csv": ESTIMATE_HEADER + row})
        for i, (flags, row) in enumerate([
            (("--trials", "2048", "--seed", "3"), b"5.321758,2.469381,2.155098,3,0.159706,0.139380,true\n"),
            (("--noise", "3", "--trials", "2048", "--seed", "0"),
             b"5.321758,0.514378,10.346008,11,0.159706,3.212276,true\n"),
        ])
    },
    "test_slope_summary_bytes_are_pinned": Pinned(
        ("slope", "--noise", "0.1,0.5", "--trials", "20", "--seed", "11", "--out", "s.csv"),
        {"s_summary.csv": b"sigma,steps_predicted,steps_actual_mean,steps_actual_se,gap\n"
                          b"0.100000,2,2.000000,0.072548,0.000000\n"
                          b"0.500000,3,40.050000,1.219307,37.050000\n"}),
    # every sigma = 3 trial runs to the 200-step cap
    "test_slope_bytes_are_pinned": Pinned(
        ("slope", "--noise", "0.3,3", "--trials", "20", "--seed", "5", "--out", "s.csv"),
        {"s.csv": "cc561a6209d58f9ac3c1623f09d0dbfe0c0685301faace47e6d06c0996dd6794",
         "s_summary.csv": "81fff5308767e000d625a5d236b3741fdf2a359e42adb2c87cf54c7f607d36d8"}),
    "test_bounds_bytes_are_pinned": Pinned(
        ("bounds", "--trials", "2000", "--seed", "11", *DUMP),
        {"b.csv": BOUNDS_HEADER + b"10.000000,12.000000,10.997500,2000,0.069833,true\n",
         "t.csv": "b9aef3378a6b16a6c5b186e04eedd0f8caadc06359425c6295e5b6f7dfa024c9"}),
    # the upper bound reads M2 and the step budget reads M, both the family's exact values;
    # only the truncated-gaussian takes --m and --scale, which set its window, M2 and draws
    "test_bounds_family_bytes_are_pinned": {
        f"{family}-overrides{i}-{row.decode()}-{n_delta}-{dump_sha}": Pinned(
            ("bounds", "--family", family, "--mu", "2,1.5", "--mu-inf", "1", "--i-total", "20", "--trials", "500",
             "--seed", "3", *overrides, *DUMP),
            {"b.csv": BOUNDS_HEADER + row, "t.csv": dump_sha}, f"steps for completion w.p. 95.00%: {n_delta}\n")
        for i, (family, overrides, row, n_delta, dump_sha) in enumerate([
            ("uniform", (), b"10.000000,25.333333,19.018000,500,0.131780,true\n", 66,
             "5f26615904e7ec4cd5fd9d7fa510798c8d41fefd18a1a41b5151f99c6494342d"),
            ("truncated-gaussian", ("--scale", "0.3"),
             b"10.000000,24.090000,18.974000,500,0.059748,true\n", 160,
             "e7cd28926aa6a72e2b1fefd9ac109c89b6239b2239393f23a4d5de39825674c9"),
            ("deterministic", (), b"10.000000,24.000000,19.000000,500,0.000000,true\n", 37,
             "08e5cda0b266f97a277bff1056b487953338c1cfccf32aed9865290a3a6694c9"),
            ("truncated-gaussian", ("--m", "3", "--scale", "0.8"),
             b"10.000000,24.379698,19.006000,500,0.127139,true\n", 50,
             "3159acbd3858e7b1d08016e188f458f20c5589b07fc53dc0c252918f977266d2"),
            ("truncated-gaussian", (), b"10.000000,24.249866,18.988000,500,0.096303,true\n", 160,
             "b2100b1a1262a96b2437de11173c95eb22a08a625d9c5e1da7a6062a3346db77"),
            ("truncated-gaussian", ("--m", "5"),
             b"10.000000,24.249866,18.988000,500,0.096303,true\n", 85,
             "854ea5c5d3e78a11aefde0ed5c06eb3212d41b43535d0687f8635f904416b508"),
        ])
    },
    # about 9000 steps a trial: three rounds of up to 4096 steps, each in ten chunks of four trials
    "test_long_trial_bytes_are_pinned": {
        f"{family}-{row.decode()}-{dump_sha}": Pinned(
            ("bounds", "--family", family, "--mu", "2,1.5", "--mu-inf", "1", "--i-total", "9000", "--trials", "40",
             "--seed", "3", *DUMP),
            {"b.csv": BOUNDS_HEADER + row, "t.csv": dump_sha})
        for family, row, dump_sha in [
            ("deterministic", b"4500.000000,9004.000000,8999.000000,40,0.000000,true\n",
             "a8ee615e2bb22f76912a6eddfb3868e22bfef221cd0564a90643764bad2229c3"),
            ("exponential", b"4500.000000,9008.000000,8990.575000,40,15.529578,true\n",
             "36e69048c55ea658b8d12a8e95339ac92aa03d54dd02f439a5041175162d12b3"),
            ("uniform", b"4500.000000,9005.333333,8990.300000,40,8.924196,true\n",
             "4de3c6ba6f7d406fb586d24280a51544b50fb04e8e06e02b6955681376e15e56"),
            ("truncated-gaussian", b"4500.000000,9004.249866,8993.475000,40,7.375200,true\n",
             "7ac4244209264f2c1adf0185c0e999210b4171b749ee5643c220ceae09f3a59d"),
        ]
    },
    "test_coloring_bytes_are_pinned": {
        f"flags{i}-{detail_sha}-{summary_sha}": Pinned(
            ("coloring", *flags, "--out", "c.csv"), {"c.csv": detail_sha, "c_summary.csv": summary_sha})
        for i, (flags, detail_sha, summary_sha) in enumerate([
            # the default campaign keeps 250 of about 3 800 drawn graphs
            (("--seed", "0"),
             "88fc1b1cf27fa32c2b754e3bd060479cc99aa99eef133ab394127352adfd80c5",
             "d7ace1355e2818d4910e39c1dff03b3f4d70ddb6178c3f34e0418a278812d9eb"),
            (("--n", "10", "--p", "0.3", "--k", "3", "--instances", "50", "--seed", "11"),
             "6dc41fe62eecffd1636993bfa1ef71a5b2ec9d83d007dd478d6b9bb086f48372",
             "094b4721c3f6e3d7f91298bd411ef4db688e28ade9b849fdcd536d968c656098"),
            (("--seed", "42"),
             "47071fe46eb4dfddfe43e9efe50725e342aa032f4992d1d7d8220e7c7520d72c",
             "cbdc0a64fc8ae394471f6533513867df13ae5ec8e9a73270d3443e1fed2b7902"),
            # deep searches: the random agent averages about 2 900 expansions here
            (("--n", "30", "--p", "0.15", "--k", "3", "--instances", "50", "--seed", "1"),
             "53fcd9be9b5c4684b04ba358b44eacccc62bcd489d8dd395e9babc2c6cdb519f",
             "1c24ce95cddbdb0f5032de19bcb9bca37d5946dfa82121ac5b1b0a754f09795e"),
            # 70 vertices: two-word neighbor masks in the filter
            (("--n", "70", "--p", "0.04", "--k", "3", "--instances", "50", "--seed", "3"),
             "04682b9adc6c03efa29343df0192b5cc6f54d98a09cd1c4d178adfb7a1fc9823",
             "805f257388d31676c8b0df7da621d26786794caf0c975d2e778c55c66a964eca"),
        ])
    },
    "test_approx_bytes_are_pinned": {
        f"flags{i}-{sha}": Pinned(("approx", *flags, "--out", "a.csv"), {"a.csv": sha})
        for i, (flags, sha) in enumerate([
            (("--items", "20", "--seed", "3"), "8558084c9fcf77189c966a3f3d11812bc70ac2ac5d600eec07ab2f48d547fad6"),
            (("--seed", "11"), "9ea140eb2ee7d9f88091014e1048b15823fedfad4db4e92aebf9cf92dd2cc595"),
            # f* = 48 and total profit 127: eps 5 and 50 admit overweight subsets, 1e300 all of them
            (("--items", "12", "--seed", "4", "--eps", "0,0.5,5,50,1e300"),
             "06fd5df20f64a64c929841ab07f70fe594bca5e9a58c81c220cceb6ec097116b"),
        ])
    },
    # two trial blocks, so the parallel run really starts a pool
    "test_workers_do_not_change_output": Pinned(
        ("bounds", "--trials", "2000", "--seed", "3", *DUMP),
        {"b.csv": "14cbb5fd9dd4b766c612d3d8eab6515dc0be3eee0b6907bdbae7dc3a24e8a303",
         "t.csv": "4f2d836dbee048cde5e4c83167164ea834b5e06021dfa611c7344a29852b0923"}),
    "test_pinned": {
        "coloring-n10": Pinned(
            ("coloring", "--n", "10", "--p", "0.3", "--k", "3", "--instances", "50", "--out", "c.csv"),
            {"c.csv": "5b83dee32dfa7fac76ca649ea74e7c6d1ba37e9a36813c0550703dd6d1ef1d5b",
             "c_summary.csv": "bc2a4dfe3f759b28bc62ac4a296334e4d11c551e2332201c9ecc6fc223293ac9"}),
        # deep searches: the random agent averages about 2 400 expansions an instance here
        "coloring-deep": Pinned(
            ("coloring", "--n", "30", "--p", "0.15", "--k", "3", "--instances", "50", "--out", "c.csv"),
            {"c.csv": "5d8a419face94e9f056dcded82cffc30e2c3d04728e68df35c117574cd21b897",
             "c_summary.csv": "eda299a4253bef13c03a7b19c0dbc91e51617c267496eba3bd8a8cac4b7e06ca"}),
        # 26 trials are two sweep blocks per level, so --workers 2 starts a pool
        "slope-two-blocks": Pinned(
            ("slope", "--noise", "0.3,3", "--trials", "26", "--out", "s.csv"),
            {"s.csv": "88b4521e37c4d448c8d83f426d3cbeea853dc6c34870f8263b03062fdd1a71cd",
             "s_summary.csv": "1212ff63a9c4e80e9f6ffeddb6ccb9521459f7344bc56c663356e235255728d8"}),
        # the slope agent's candidate screen at tiny sigma and up to the step cap
        "slope-screen": Pinned(
            ("slope", "--noise", "0.05,1,3", "--trials", "26", "--step-cap", "2000", "--out", "s.csv"),
            {"s.csv": "69c1e95cd0db5cc2fc777424164cec2ee48fe86c394c97f2cff05f903d40e5f3",
             "s_summary.csv": "39f163b91639eaca91bfe81d57a4df82802a66b397513b7eb196534da1b641b5"}),
        # the mc-many-short benchmark command: 98 trial blocks and 7 chunks of the dump writer
        "mc-many-short": Pinned(
            ("bounds", "--family", "exponential", "--i-total", "10", "--trials", "100000", *DUMP),
            {"b.csv": "5b4fea2a495f3c4422db5a3bed60a17668dade06d63daab9f8a64caf48d8341f",
             "t.csv": "b5ca476cdda3bb139e1f8b9faa88b0df1ac179f2c2fff40647093714a0eb3597"}),
        # about 9000 steps a trial: several rounds of the block engine, several chunks each;
        # 1025 trials are two trial blocks, so --workers 2 starts a pool
        **{f"long-{family}": Pinned(
            ("bounds", "--family", family, "--mu", "2,1.5", "--i-total", "9000", "--trials", "1025", *DUMP),
            {"b.csv": report_sha, "t.csv": dump_sha})
           for family, report_sha, dump_sha in [
               ("deterministic", "9f50ceb440cf10ade9ae4043543242e05db23b1a6198464f05e9e28314ced89f",
                "f237fb1105405fc420b8d9700f2fc637be68bf6301f8386a2534c1be704da491"),
               ("exponential", "076281b984279e5af99f6cc12c148114c1ad9ad0f1dd9c930dd44bc97e781b48",
                "edcae9a96ae8d6d4f3430a6b89c6844318f1102e724bdd0185e91187683949b4"),
               ("uniform", "54f833d03e2f48b7ca8ff769f7a28799b20387b7b9aa3cff806a09c2d739e0e8",
                "28d3a4edaf3254363de14c448cff91e974e2c624a4f2c58947b2de557808e826"),
               ("truncated-gaussian", "b62fd1f070cd73b6fa87c1c748be59b5e9dec7b852c71691d400fe9a7b70024b",
                "85f36253b46d19190a9e9964de54aa31b6abf7e2cedeaf7aaf0351424c1d1e05"),
           ]},
        # a 5000-step prefix: the second round straddles its end, and every trial
        # (about 9000 steps) runs into a third round drawn against the scalar tail mean
        **{f"prefix-{family}": Pinned(
            ("bounds", "--family", family, "--mu", ",".join(["2"] * 5000), "--mu-inf", "1.5", "--i-total", "16000",
             "--trials", "1025", *DUMP),
            {"b.csv": report_sha, "t.csv": dump_sha})
           for family, report_sha, dump_sha in [
               ("exponential", "c87b6997c464cfb30a80067c95e2fa56131057ba3a47f69c3a65ef82f3285e02",
                "500182227b7b234d81ea8456d06b70a5af03db57845982fde266ff8e34b22789"),
               ("truncated-gaussian", "dac13e7393d9732d967296284b31b9bc57d592e7329a23d5ac2e3dd5754bfdbd",
                "f36ee05b5e0c16ccc1acb49714e206966dc506fd6898983880b605d6fdb9b66e"),
           ]},
        # s_n above 2^43 sends the dump through the row writer
        "row-writer-dump": Pinned(
            ("bounds", "--mu-inf", "1e12", "--i-total", "1e13", "--trials", "50", *DUMP),
            {"b.csv": "bff63b3faf5ac9b888d08725e294a6bb7c30ce9babd0557357d5b2fcf1275d8b",
             "t.csv": "d49825779488e67310b8cc036e9320aba640c47f16526a63cefd933b599f1577"}),
        # costs near the float range: the mean and SE are priced after averaging step counts,
        # so the SE is 1e300 times the unit-cost SE of 0.3212 steps, finite and without an overflow warning
        "cs-near-float-max": Pinned(
            ("bounds", "--trials", "100", "--i-total", "10", "--cs", "1e300", "--out", "b.csv"),
            {"b.csv": "864464baa465dff186d1cae9ff0004e9c6fa3715051a46143db5f8c26f8bf36d"},
            "+/- 32118939313530623"),
        # 16 draws is the least the estimator takes
        "estimate-16-draws": Pinned(
            ("estimate", "--trials", "16", "--out", "e.csv"),
            {"e.csv": "752f4d993cc2de003ed756a66ea5382ead46d17119e73d7d6868afa04e23b816"}),
    },
}


class TestDeterminism(_table(PINNED, _check_pinned)):
    """Every ``PINNED`` row, at ``--workers 1`` and ``--workers 2``."""


#: ``PINNED`` rows whose bytes go through numpy kernels chosen per CPU: the estimator's exp,
#: the truncated gaussian's ``_ndtri`` log and the exponential family's log1p.
SIMD_ROWS = (
    PINNED["test_estimate_bytes_are_pinned"],
    next(row for row in PINNED["test_bounds_family_bytes_are_pinned"].values() if "truncated-gaussian" in row.argv),
    next(row for row in PINNED["test_long_trial_bytes_are_pinned"].values() if "exponential" in row.argv),
)

#: Run in a fresh interpreter: print the dispatched CPU features numpy still uses, then
#: run each (argv, file names) row of argv[1] and print its files' sha256, as one JSON line.
_RERUN = """\
import contextlib, hashlib, io, json, os, sys, tempfile
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
used = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
hashes = []
if not used:
    from acp.cli import main
    for argv, names in json.loads(sys.argv[1]):
        os.chdir(tempfile.mkdtemp(dir=sys.argv[2]))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
        hashes.append({name: hashlib.sha256(open(name, "rb").read()).hexdigest() for name in names})
print(json.dumps({"used": used, "hashes": hashes}))
"""


def _dispatched_features() -> list[str]:
    """The CPU features past its baseline that numpy dispatches to on this host."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def test_pins_hold_at_the_baseline_simd_level(tmp_path):
    # tier-1 checks the pins at this host's SIMD level; this reruns SIMD_ROWS with
    # numpy held to its baseline, so a kernel whose last bit differs by CPU shows here
    features = _dispatched_features()
    if not features:
        pytest.skip("numpy dispatches to no CPU feature past its baseline on this host")
    setting = " ".join(features)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": setting,
           "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    rows = [([*row.argv, "--workers", "1"], list(row.pins)) for row in SIMD_ROWS]
    done = subprocess.run([sys.executable, "-W", "always::ImportWarning", "-c", _RERUN, json.dumps(rows), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    if "NPY_DISABLE_CPU_FEATURES" in done.stderr:
        pytest.skip(f"numpy refused NPY_DISABLE_CPU_FEATURES={setting!r}: {done.stderr.strip()}")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    if result["used"]:
        pytest.skip(f"numpy ignored NPY_DISABLE_CPU_FEATURES={setting!r} and still uses {result['used']}")
    for row, hashes in zip(SIMD_ROWS, result["hashes"], strict=True):
        for name, pin in row.pins.items():
            assert hashes[name] == (pin if isinstance(pin, str) else hashlib.sha256(pin).hexdigest()), (row.argv, name)


def test_bounds_pins_hold_through_python_m_acp(tmp_path):
    # the in-process rows run with every acp module loaded by the tests; this fresh
    # interpreter loads only what bounds runs, through the package's lazy modules
    row = PINNED["test_bounds_bytes_are_pinned"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "acp", *row.argv], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    _check_files(row, tmp_path, "python -m acp")


def test_every_subcommand_has_refusal_and_pinned_rows():
    for table in (REFUSALS, PINNED):
        rows = [row for group in table.values() for row in (group.values() if isinstance(group, dict) else [group])]
        assert {row.argv[0] for row in rows} >= set(_RUNNERS)
    # the 2000-trial bounds rows span two trial blocks, so --workers 2 starts a pool
    assert 2000 > TRIAL_BLOCK


class TestRunners:
    @pytest.mark.parametrize(
        "argv, written",
        [
            # the dump is written while the trials run, before the report that sums them up
            (("bounds", "--trials", "100", "--out", "b.csv", "--dump-trials", "t.csv"), ["t.csv", "b.csv"]),
            (("slope", "--noise", "0.1,0.3", "--trials", "20", "--step-cap", "20", "--out", "s.csv"),
             ["s.csv", "s_summary.csv"]),
            (("coloring", "--n", "8", "--p", "0.25", "--k", "3", "--instances", "50", "--out", "c.csv"),
             ["c.csv", "c_summary.csv"]),
            (("estimate", "--out", "e.csv"), ["e.csv"]),
            (("approx", "--out", "a.csv"), ["a.csv"]),
        ],
    )
    def test_runner_returns_tables_and_lines_without_io(self, tmp_path, capsys, monkeypatch, argv, written):
        monkeypatch.chdir(tmp_path)
        tables, lines = _drain(_RUNNERS[argv[0]](resolve_options(build_parser().parse_args(argv))))
        assert capsys.readouterr() == ("", "")
        assert list(tmp_path.iterdir()) == []
        assert [path for path, _, _ in tables] == written
        assert all(len(header) == len(rows[0]) for _, header, rows in tables)
        assert lines and all(isinstance(line, str) for line in lines)

    def test_main_writes_tables_then_report_then_paths(self, tmp_path, capsys):
        out, dump = tmp_path / "b.csv", tmp_path / "t.csv"
        assert _run("bounds", "--trials", "100", "--out", str(out), "--dump-trials", str(dump)) == 0
        report = capsys.readouterr().out.splitlines()
        assert report[0] == "exponential gains, target 10.0 bits, 100 trials"
        assert report[-1] == f"wrote {out} and {dump}"
        assert out.exists() and dump.exists()


def _fail_in_block(monkeypatch, failing_block: int) -> None:
    """Make trial block ``failing_block`` raise; forked workers inherit the patch."""
    simulate = stopping._simulate_block

    def fail(spec, total_bits, n, seed, *args):
        if seed.spawn_key == (failing_block,):
            raise StepCapExceeded(f"block {failing_block} failed")
        return simulate(spec, total_bits, n, seed, *args)

    monkeypatch.setattr(stopping, "_simulate_block", fail)


class _ReportRecorder(io.StringIO):
    """A stderr that notes which worker processes are alive when the failure is reported."""

    children = None

    def write(self, text):
        self.children = multiprocessing.active_children()
        return super().write(text)


class TestFailedRun:
    """A run that fails once its trial dump has begun leaves no file and no worker process.

    The workers are stopped before the failure is reported, not when the
    interpreter next collects the failed run.
    """

    @staticmethod
    def _fails(tmp_path, monkeypatch, argv, message):
        stderr = _ReportRecorder()
        monkeypatch.setattr("sys.stderr", stderr)
        monkeypatch.chdir(tmp_path)
        assert _run(*argv, *DUMP) == 1
        assert message in stderr.getvalue()
        assert stderr.children == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("n_blocks, failing_block", [(5, 2), (20, 9)])
    def test_failing_trial_block(self, tmp_path, monkeypatch, workers, n_blocks, failing_block):
        _fail_in_block(monkeypatch, failing_block)
        self._fails(tmp_path, monkeypatch, ("bounds", "--trials", str(n_blocks * TRIAL_BLOCK), "--workers", workers),
                    f"StepCapExceeded: block {failing_block} failed")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failing_dump_write(self, tmp_path, monkeypatch, workers):
        formatted = []

        def fail_second(columns):
            formatted.append(len(columns[0]))
            if len(formatted) == 2:
                raise OSError("no space left on the device")
            return _format_chunk(columns)

        monkeypatch.setattr(cli, "_format_chunk", fail_second)
        self._fails(tmp_path, monkeypatch, ("bounds", "--trials", str(40 * TRIAL_BLOCK), "--workers", workers),
                    "no space left on the device")

    def test_failing_report_write_removes_the_dump(self, tmp_path, monkeypatch):
        # the dump takes the fast path to the end; only the report's row goes through _format_cell
        def fail(value):
            raise OSError("no space left for the report")

        monkeypatch.setattr(cli, "_format_cell", fail)
        self._fails(tmp_path, monkeypatch, ("bounds", "--trials", str(2 * TRIAL_BLOCK)), "no space left for the report")

    def test_only_regular_files_are_removed(self, tmp_path):
        regular = tmp_path / "r.csv"
        regular.write_text("x\n")
        link = tmp_path / "stdout"  # like /dev/stdout, a link to what the run writes into
        link.symlink_to(regular)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        for path in (link, fifo, tmp_path / "missing.csv"):
            cli._discard(str(path))
        assert link.is_symlink() and fifo.exists() and regular.exists()
        cli._discard(str(regular))
        assert not regular.exists()


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

    @pytest.mark.parametrize("trials", [10**5, 10**6])
    def test_dump_run_memory_per_trial(self, tmp_path, capsys, monkeypatch, trials):
        # the dump is written as the trial blocks finish; the summary keeps n_steps and
        # overshoot (16 bytes a trial) and its standard error takes 8 more for a moment
        monkeypatch.chdir(tmp_path)
        argv = ("bounds", "--family", "exponential", "--i-total", "10", "--seed", "5", *DUMP)
        assert _run(*argv, "--trials", "100") == 0  # imports and lazy set-up, outside the trace
        tracemalloc.start()
        try:
            assert _run(*argv, "--trials", str(trials)) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20 + 24 * trials


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

    def test_twenty_item_run_holds_one_block(self, tmp_path, capsys, monkeypatch):
        # goal sets are counted a block of values at a time; a table of the
        # 2^20 subsets' values alone would be 8 MiB
        monkeypatch.chdir(tmp_path)
        argv = ("approx", "--items", "20", "--out", "a.csv")
        assert _run(*argv) == 0  # imports and lazy set-up, outside the trace
        tracemalloc.start()
        try:
            assert _run(*argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


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
            # csv quotes a row's only field when it is empty
            (None, b'""'),
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

    CELLS = st.one_of(
        st.booleans(),
        st.booleans().map(np.bool_),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.floats().map(np.float64),
        st.floats(),
        st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
        st.integers(-(10**40), 10**40),
        st.text(alphabet=st.sampled_from('a1.,"\n\r \'-'), max_size=6),
    )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.one_of(CELLS, st.floats(), st.integers()), max_size=4),
                st.integers(1, 3),
                st.booleans(),
            ),
            max_size=8,
        )
    )
    def test_bytes_match_csv_writer(self, tmp_path_factory, runs):
        # repeated rows form runs of one cell-type order; some rows are tuples
        rows = [tuple(row) if as_tuple else row for row, times, as_tuple in runs for _ in range(times)]
        path = tmp_path_factory.mktemp("csv") / "mixed.csv"
        write_csv(str(path), ["h1", "h,2"], rows)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["h1", "h,2"])
        writer.writerows([_format_cell(cell) for cell in row] for row in rows)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    INT64 = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), 2**63 - 1, 0]))
    FLOAT64 = st.one_of(st.floats(), st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from(["i", "f"]), min_size=1, max_size=4).flatmap(
            lambda kinds: st.tuples(
                st.just(kinds),
                st.lists(st.tuples(*[TestCsvWriter.INT64 if k == "i" else TestCsvWriter.FLOAT64
                                     for k in kinds]), max_size=6),
            )
        )
    )
    def test_structured_rows_match_list_rows(self, tmp_path_factory, table):
        kinds, rows = table
        header = [f"c{j}" for j in range(len(kinds))]
        dtype = [(name, np.int64 if k == "i" else np.float64) for name, k in zip(header, kinds)]
        folder = tmp_path_factory.mktemp("typed")
        write_csv(str(folder / "typed.csv"), header, _one_chunk(np.array(rows, dtype=dtype)))
        write_csv(str(folder / "list.csv"), header, [list(row) for row in rows])
        assert (folder / "typed.csv").read_bytes() == (folder / "list.csv").read_bytes()

    INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
    # the fast path's range: finite and below 2**43 in magnitude
    LIMIT = 2.0**43
    IN_RANGE = st.one_of(
        st.floats(-LIMIT, LIMIT, exclude_min=True, exclude_max=True),
        # dyadic values k / 2**j; the exact ties at the sixth decimal are the odd multiples of 2**-7
        st.builds(lambda k, j: k / 2.0**j, st.integers(-(2**40), 2**40), st.integers(0, 64)),
        st.builds(lambda k: (2 * k + 1) / 2.0**7, st.integers(-(2**48), 2**48)),
        # (k + 1/2) / 10**6 and its neighbours either side, of either sign
        st.builds(
            lambda k, step, sign: sign * float(np.nextafter((k + 0.5) / 1e6, (k + 0.5) / 1e6 + step)),
            st.integers(0, 2**52), st.sampled_from([-1, 0, 1]), st.sampled_from([-1.0, 1.0]),
        ),
        # subnormals
        st.floats(-2.0**-1022, 2.0**-1022),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -4e-7, 5e-7, -5e-7,
                         float(np.nextafter(2.0**43, 0)), -float(np.nextafter(2.0**43, 0)), 2.0**43 - 0.5]),
    )
    VALUES = {
        np.float64: IN_RANGE,
        np.float32: st.one_of(
            IN_RANGE, st.floats(-LIMIT, LIMIT, exclude_min=True, exclude_max=True, width=32)
        ),
        **{
            dt: st.one_of(
                st.integers(int(np.iinfo(dt).min), int(np.iinfo(dt).max)),
                st.sampled_from([int(np.iinfo(dt).min), int(np.iinfo(dt).max), 0]),
            )
            for dt in INT_DTYPES
        },
    }

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(list(VALUES)), min_size=1, max_size=4).flatmap(
            lambda dtypes: st.tuples(
                st.just(dtypes),
                st.lists(st.tuples(*[TestCsvWriter.VALUES[dt] for dt in dtypes]), max_size=12),
            )
        )
    )
    @example(((np.uint64, np.int64), [(2**64 - 1, -(2**63))]))
    # 9.9999995 rounds down to 9.999999; 9.9999996 carries into the whole part
    @example(((np.float64,), [(9.9999995,), (9.9999996,)]))
    @example(((np.float64,), [(0.999999,), (3.0,)]))
    @example(((np.float64,), [(-0.0,)]))
    def test_structured_bytes_match_template(self, tmp_path_factory, table):
        dtypes, rows = table
        header = [f"c{j}" for j in range(len(dtypes))]
        typed = np.array(rows, dtype=list(zip(header, dtypes)))
        path = tmp_path_factory.mktemp("typed") / "typed.csv"
        write_csv(str(path), header, _one_chunk(typed))
        assert path.read_bytes() == (",".join(header) + "\n" + _reference_structured_text(typed)).encode()

    @staticmethod
    def _trial_like(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        s_n = 10 + rng.exponential(1.0, n)
        return np.rec.fromarrays(
            (np.arange(n), rng.integers(-(2**62), 2**62, n), s_n, (s_n - 11) * 1e6, s_n.astype(np.float32)),
            names="trial_id,n,s_n,x,f32",
        )

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_chunk_edges_match_template(self, tmp_path, extra):
        assert _CHUNK_ROWS == 2**14
        rows = self._trial_like(_CHUNK_ROWS + extra, seed=extra + 1)
        path = tmp_path / "edge.csv"
        write_csv(str(path), ["a", "b", "c", "d", "e"], _one_chunk(rows))
        assert path.read_bytes() == ("a,b,c,d,e\n" + _reference_structured_text(rows)).encode()

    def test_out_of_range_chunk_between_in_range_chunks(self, tmp_path):
        # only the middle chunk holds inf, nan and 1e300; it takes the %-template path
        rows = self._trial_like(3 * _CHUNK_ROWS, seed=4)
        rows.x[_CHUNK_ROWS + np.array([0, 7, _CHUNK_ROWS - 1])] = [np.inf, np.nan, 1e300]
        path = tmp_path / "mixed.csv"
        write_csv(str(path), ["a", "b", "c", "d", "e"], _one_chunk(rows))
        text = path.read_text()
        assert text == "a,b,c,d,e\n" + _reference_structured_text(rows)
        assert ",inf," in text and ",nan," in text and f",{1e300:.6f}," in text

    @classmethod
    def _non_negative_like(cls, n: int, seed: int) -> np.ndarray:
        rows = cls._trial_like(n, seed)
        for name in ("n", "x"):
            rows[name] = np.abs(rows[name])
        return rows

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_non_negative_chunk_edges_take_the_fast_path(self, tmp_path, monkeypatch, extra):
        monkeypatch.setattr(cli, "_format_cell", lambda value: pytest.fail("a chunk took the row path"))
        rows = self._non_negative_like(_CHUNK_ROWS + extra, seed=extra + 1)
        path = tmp_path / "edge.csv"
        write_csv(str(path), ["a", "b", "c", "d", "e"], _one_chunk(rows))
        assert path.read_bytes() == ("a,b,c,d,e\n" + _reference_structured_text(rows)).encode()

    def test_row_path_chunk_between_fast_path_chunks(self, tmp_path, monkeypatch):
        texts = []

        def recorded(columns):
            texts.append(_format_chunk(columns))
            return texts[-1]

        monkeypatch.setattr(cli, "_format_chunk", recorded)
        rows = self._non_negative_like(3 * _CHUNK_ROWS, seed=4)
        rows.x[_CHUNK_ROWS + np.array([0, 7, _CHUNK_ROWS - 1])] = [np.inf, np.nan, 1e300]
        path = tmp_path / "mixed.csv"
        write_csv(str(path), ["a", "b", "c", "d", "e"], _one_chunk(rows))
        assert [text is None for text in texts] == [False, True, False]
        assert path.read_text() == "a,b,c,d,e\n" + _reference_structured_text(rows)

    def test_mc_many_short_dump_takes_the_fast_path(self):
        argv = ("bounds", "--family", "exponential", "--i-total", "10", "--trials", "100000", "--seed", "5",
                "--dump-trials", "t.csv")
        run = _RUNNERS["bounds"](resolve_options(build_parser().parse_args(argv)))  # closing it ends the stream
        path, _, dump = next(run)
        assert path == "t.csv" and len(dump) == 100_000
        # the pieces write_csv formats: each streamed chunk, cut at _CHUNK_ROWS
        chunks = [[records[name][lo:lo + _CHUNK_ROWS] for name in records.dtype.names]
                  for records in dump for lo in range(0, len(records), _CHUNK_ROWS)]
        assert [len(columns[0]) for columns in chunks] == [2**13] * 12 + [100_000 - 12 * 2**13]
        assert all(_format_chunk(columns) is not None for columns in chunks)
        # a negative value, -0.0 included, sends its chunk to the row path
        trial_id, n_steps, s_n, overshoot = (column.copy() for column in chunks[0])
        s_n[3] = -0.0
        assert _format_chunk([trial_id, n_steps, s_n, overshoot]) is None
        s_n[3], trial_id[5] = 0.0, -1
        assert _format_chunk([trial_id, n_steps, s_n, overshoot]) is None

    @pytest.mark.parametrize(
        "big", [2.0**43, -(2.0**43), float(np.nextafter(2.0**43, np.inf)), 1e13, 2.0**53, -(2.0**63)]
    )
    def test_values_past_the_limit_match_template(self, tmp_path, big):
        # int64 cannot hold round(|x| * 10**6) much past 2**43
        rows = np.rec.fromarrays((np.arange(3), np.array([0.5e-6, big, -1.5e-6])), names="i,x")
        path = tmp_path / "big.csv"
        write_csv(str(path), ["i", "x"], _one_chunk(rows))
        assert path.read_bytes() == ("i,x\n" + _reference_structured_text(rows)).encode()

    @pytest.mark.parametrize("bad", [np.bool_, "U3", object])
    def test_structured_rows_reject_other_kinds(self, tmp_path, bad):
        path = tmp_path / "typed.csv"
        rows = np.zeros(2, dtype=[("n", np.int64), ("x", bad)])
        with pytest.raises(TypeError):
            write_csv(str(path), ["n", "x"], _one_chunk(rows))
        assert not path.exists()

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

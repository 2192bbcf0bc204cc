#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes; takes about half a minute.

    python3 perfbench/selftest.py

For each workload, a tiny copy with the same subcommands is measured once
untraced and once traced. The test checks that every metric BENCHMARK.json
names is emitted with its unit, that the traced self times of the layers
cover at least 90% of the traced wall time, and that nothing failed. It
then checks that the failure accounting works: a hanging command is stopped
by the per-command timeout, a command exiting non-zero is counted, and the
output checks reject outputs that break their invariants.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, Runner, load_acp, measure
from workloads import WORKLOADS, CheckFailed, Command, check_approx, check_bounds

TINY: dict[str, tuple[Command, ...]] = {
    "mc-many-short": (
        Command(("bounds", "--family", "exponential", "--i-total", "10", "--trials", "500"), dump_trials=True),
    ),
    "mc-few-long": (
        Command(("bounds", "--family", "exponential", "--i-total", "500", "--trials", "100")),
        Command(("bounds", "--family", "truncated-gaussian", "--mu", "2,1.5", "--i-total", "500", "--trials", "20")),
    ),
    "predict": (
        Command(("estimate", "--trials", "16", "--grid", "101")),
        Command(("slope", "--trials", "20", "--noise", "0.3,1.0", "--step-cap", "40")),
    ),
    "exact-search": (
        Command(("coloring", "--n", "8", "--p", "0.25", "--k", "3", "--instances", "50")),
        Command(("approx", "--items", "10")),
    ),
}

#: `acp coloring` loops forever when no generated graph is colorable.
HANG = Command(("coloring", "--n", "12", "--p", "1.0", "--k", "3", "--instances", "50"))
EXIT_2 = Command(("bounds", "--family", "exponential", "--trials", "0"))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def expect_check_failure(check_fn, args, files, text: str, label: str) -> None:
    files["out"].write_text(text)
    try:
        check_fn(args, files)
    except CheckFailed:
        return
    raise SystemExit(f"selftest FAILED: {label} accepted a broken output")


def main() -> int:
    cli = load_acp()
    spec = json.loads((OUT.parent.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(sorted(TINY) == sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"]),
          "tiny workloads, WORKLOADS and BENCHMARK.json name different workloads")

    for name, commands in TINY.items():
        check([c.args[0] for c in commands] == [c.args[0] for c in WORKLOADS[name]],
              f"{name}: tiny copy runs other subcommands")
        for trace in (0, 1):
            record = measure(cli, f"selftest-{name}", commands, seed=3, seconds=0.3, trace=bool(trace),
                             setup_repeats=1)
            check(record["failed"] == 0, f"{name} trace {trace}: {record['failures']}")
            got = {k: m["unit"] for k, m in record["metrics"].items()}
            check(got == expected[trace], f"{name} trace {trace}: metrics {got} != {expected[trace]}")
            if trace:
                coverage = record["metrics"]["trace.coverage"]["value"]
                check(coverage >= 0.9, f"{name}: layer self times cover {coverage:.3f} of traced wall time")
            print(f"ok  {name} trace {trace}")

    workdir = OUT / "selftest-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(cli, (HANG, EXIT_2), workdir, seed=0, timeout=2.0)
        runner.iteration()
        check(runner.timed_out and "timed out" in runner.failures[0], f"hang not caught: {runner.failures}")
        check(runner.attempted == 1, "commands after a timeout were run")
        runner = Runner(cli, (EXIT_2,), workdir, seed=0)
        runner.iteration()
        check(runner.failures and "exit 2" in runner.failures[0], f"exit 2 not counted: {runner.failures}")
        print("ok  timeout and exit-code accounting")

        files = {"out": workdir / "broken.csv"}
        expect_check_failure(
            check_bounds, ("bounds", "--family", "exponential", "--i-total", "10", "--trials", "100"), files,
            "lower,upper,empirical_mean_cost,n_trials,standard_error,within_bounds\n"
            "10.0,12.0,14.0,100,0.3,false\n", "bounds check")
        expect_check_failure(
            check_approx, ("approx",), files,
            "epsilon,goal_count,p_goal,i_total_indicator_bits,i_total_search_bits\n"
            "0.0,3,0.3,0.88,1.7\n0.1,2,0.2,0.72,2.3\n", "approx check")
        print("ok  output checks reject broken outputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the `acp` command-line tool, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports ``acp`` from ``src/`` next to this directory (never an installed
copy), runs one warm-up iteration of the workload's commands, then repeats
the iteration for ``--seconds``. Every command's output is checked once for
its invariants; later iterations, and one extra iteration at
``--workers 2`` after the timed window, must reproduce the same bytes.
A command that exits non-zero, fails a check, changes its bytes or runs
past the per-command timeout counts as failed.

``--trace 0`` reports the end-to-end metrics with tracing off. A fixed
calibration loop (pure Python and numpy, no ``acp`` code) runs before and
after every iteration, and around each of the fresh-interpreter imports
that measure set-up time, so that host speed drift shows in the data.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of tracing.py; the spans are written to ``out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, every sample, every failure) goes to ``out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import COUNTS, Tracer
from workloads import WORKLOADS, CheckFailed, Command

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: A command running longer than this is stopped and counted as failed.
COMMAND_TIMEOUT_S = 60.0
#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 3
#: A tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

_IMPORT_TIMER = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import acp.cli
t1 = time.perf_counter()
print(repr(t1 - t0), acp.cli.__file__)
"""


class CommandTimeout(BaseException):
    """Raised by SIGALRM inside a command; a BaseException so that
    ``acp.cli.main``'s ``except Exception`` does not turn it into exit 1."""


def _on_alarm(signum, frame):
    raise CommandTimeout


def _exit_2(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_acp():
    """Import acp.cli from SRC, or exit 2 when this checkout has no source."""
    if not (SRC / "acp" / "cli.py").is_file():
        _exit_2(f"no acp source at {SRC}")
    sys.path.insert(0, str(SRC))
    import acp.cli

    if Path(acp.cli.__file__).resolve().parent != SRC / "acp":
        _exit_2(f"imported acp from {acp.cli.__file__}, not from {SRC}")
    return acp.cli


def calibrate() -> float:
    """Seconds taken by a fixed loop of pure Python and small-array numpy work."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    x = np.linspace(0.0, 1.0, 64)
    for i in range(6_000):
        acc += int(np.searchsorted(np.cumsum(np.log1p(x * (i % 7 + 1))), 10.0))
    return time.perf_counter() - t0


def measure_setup(repeats: int) -> list[dict]:
    """Time a fresh interpreter's import of acp.cli, with a calibration on each side."""
    samples = []
    cal_before = calibrate()
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
            capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True,
        )
        cal_after = calibrate()
        seconds, path = proc.stdout.strip().split(maxsplit=1)
        if Path(path).resolve().parent != SRC / "acp":
            raise RuntimeError(f"fresh interpreter imported acp from {path}")
        samples.append({"import_s": float(seconds), "cal_before_s": cal_before, "cal_after_s": cal_after})
        cal_before = cal_after
    return samples


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it.

    Below 2 * TAIL_BEYOND samples that percentile sits at or under the median,
    so the maximum is reported instead, with 0 samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n, TAIL_BEYOND


def _digest(files: dict[str, Path]) -> str:
    h = hashlib.sha256()
    for role in sorted(files):
        h.update(role.encode())
        h.update(files[role].read_bytes())
    return h.hexdigest()


class Runner:
    """Runs a workload's commands and keeps the failure and output accounting."""

    def __init__(self, cli, commands: tuple[Command, ...], workdir: Path, seed: int,
                 timeout: float = COMMAND_TIMEOUT_S) -> None:
        self.cli = cli
        self.commands = commands
        self.files = [cmd.files(workdir, i) for i, cmd in enumerate(commands)]
        self.seed = seed
        self.timeout = timeout
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: list[str | None] = [None] * len(commands)
        self.diagnostics: list[dict] = [{} for _ in commands]
        self.timed_out = False
        signal.signal(signal.SIGALRM, _on_alarm)

    def _run(self, argv: list[str]) -> tuple[int | None, str]:
        sink = io.StringIO()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.timeout)
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rc = self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CommandTimeout:
            return None, sink.getvalue()
        return rc, sink.getvalue()

    def iteration(self, workers: int = 1, tracer: Tracer | None = None) -> float:
        """Run every command once; return the wall time of the commands alone."""
        results = []
        t0 = time.perf_counter()
        for i, cmd in enumerate(self.commands):
            if tracer is not None:
                tracer.command += 1
            results.append(self._run(cmd.argv(self.files[i], self.seed, workers)))
            if results[-1][0] is None:
                break
        wall = time.perf_counter() - t0
        for i, (rc, output) in enumerate(results):
            self.attempted += 1
            label = f"{' '.join(self.commands[i].args)} (workers {workers})"
            if rc is None:
                self.timed_out = True
                self.failures.append(f"{label}: timed out after {self.timeout} s")
            elif rc != 0:
                self.failures.append(f"{label}: exit {rc}: {output.strip()[-500:]}")
            else:
                self._verify(i, label)
        return wall

    def _verify(self, i: int, label: str) -> None:
        try:
            digest = _digest(self.files[i])
            if self.reference[i] is None:
                self.diagnostics[i] = self.commands[i].check(self.files[i])
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            self.failures.append(f"{label}: check failed: {exc!r}")
            return
        if self.reference[i] is None:
            self.reference[i] = digest
        elif digest != self.reference[i]:
            self.failures.append(f"{label}: output bytes differ from the first iteration")


def _timed_window(runner: Runner, seconds: float) -> list[dict]:
    samples = []
    start = time.perf_counter()
    cal_before = calibrate()
    while time.perf_counter() - start < seconds and not runner.timed_out:
        wall = runner.iteration()
        cal_after = calibrate()
        samples.append({"wall_s": wall, "cal_before_s": cal_before, "cal_after_s": cal_after,
                        "rel": wall / ((cal_before + cal_after) / 2.0)})
        cal_before = cal_after
    return samples


def _traced_window(runner: Runner, seconds: float, tracer: Tracer) -> list[dict]:
    samples = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or not samples) and not runner.timed_out:
        untraced = runner.iteration()
        first, counts_before = len(tracer), dict(tracer.counts)
        with tracer:
            traced = runner.iteration(tracer=tracer)
        calls, own = tracer.self_times(first, len(tracer))
        samples.append({
            "untraced_s": untraced,
            "traced_s": traced,
            "calls": calls.tolist(),
            "self_s": own.tolist(),
            "counts": {k: tracer.counts[k] - counts_before[k] for k in COUNTS},
        })
    return samples


def end_to_end_metrics(samples: list[dict], setup: list[dict], ok: float) -> tuple[dict, dict]:
    """Gated metrics, and the tails and raw wall times recorded beside them.

    Raw wall time is not gated: on a shared 2-core host its run-to-run
    spread reached half its median, beyond any usable bound. Each
    iteration's wall time divided by the calibration time around it moves
    with the program but much less with the host. Tails are not gated
    either: a run holds 3 to 15 iterations, so a tail is the maximum of a
    few samples and its run-to-run spread reached 0.22.
    """
    walls = [s["wall_s"] for s in samples]
    rels = [s["rel"] for s in samples]
    rel_tail, pct, beyond = tail(rels)
    metrics = {
        "wall_rel_p50": (statistics.median(rels), "ratio"),
        "setup_s": (statistics.median(s["import_s"] for s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (ok, "ratio"),
    }
    recorded = {"wall_rel_tail": rel_tail, "wall_s_p50": statistics.median(walls), "wall_s_tail": tail(walls)[0],
                "tail_percentile": pct, "tail_beyond": beyond, "sample_count": len(samples),
                "failed_frac": 1.0 - ok}
    return metrics, recorded


def per_layer_metrics(samples: list[dict], names: list[str]) -> tuple[dict, dict]:
    med = statistics.median
    metrics = {}
    for j, name in enumerate(names):
        metrics[f"{name}.calls"] = (med(s["calls"][j] for s in samples), "count")
        metrics[f"{name}.self_s"] = (med(s["self_s"][j] for s in samples), "s")
    for key in ("cli.write_csv.rows", "cli.write_csv.bytes", "stopping.steps", "gp.information_gain.cells",
                "slope.agent_steps", "coloring.expansions", "approx.candidates"):
        metrics[key] = (med(s["counts"][key] for s in samples), COUNTS[key])
    total = {k: sum(s["counts"][k] for s in samples) for k in COUNTS}
    metrics["slope.completed_ratio"] = (total["slope.completed"] / max(total["slope.trials"], 1), "ratio")
    metrics["coloring.feasible_ratio"] = (total["coloring.kept"] / max(total["coloring.generated"], 1), "ratio")
    traced = med(s["traced_s"] for s in samples)
    untraced = med(s["untraced_s"] for s in samples)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.coverage"] = (med(sum(s["self_s"]) / s["traced_s"] for s in samples), "ratio")
    return metrics, {"traced_s": traced, "untraced_s": untraced}


def environment(seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def measure(cli, workload: str, commands: tuple[Command, ...], seed: int, seconds: float, trace: bool,
            timeout: float = COMMAND_TIMEOUT_S, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one benchmark measurement and return its full record."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    record = {"workload": workload, "seconds": seconds, "trace": int(trace), "env": environment(seed),
              "commands": [list(c.args) for c in commands]}
    try:
        runner = Runner(cli, commands, workdir, seed, timeout)
        setup = [] if trace else measure_setup(setup_repeats)
        warm_up = runner.iteration()
        if trace:
            tracer = Tracer()
            samples = _traced_window(runner, seconds, tracer)
        else:
            samples = _timed_window(runner, seconds)
        if not runner.timed_out:
            runner.iteration(workers=2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        tracer.write(OUT / f"spans-{workload}.npz")
        if not samples:  # the warm-up timed out: nothing was traced
            zeros = [0] * len(tracer.names)
            samples = [{"untraced_s": warm_up, "traced_s": warm_up, "calls": zeros, "self_s": zeros,
                        "counts": dict.fromkeys(COUNTS, 0)}]
        metrics, extra = per_layer_metrics(samples, tracer.names)
    else:
        if not samples:  # the warm-up timed out: report it as the only sample
            samples = [{"wall_s": warm_up, "cal_before_s": 0.0, "cal_after_s": 0.0, "rel": 0.0}]
        ok = 1.0 - len(runner.failures) / runner.attempted
        metrics, extra = end_to_end_metrics(samples, setup, ok)
    record.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures,
        diagnostics=runner.diagnostics,
        setup_samples=setup,
        warm_up_s=warm_up,
        samples=samples,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    cli = load_acp()
    record = measure(cli, args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"failed: {failure}")
    if not args.trace:
        print(f"wall_s_p50 {record['wall_s_p50']:.6f} s; tails at p{record['tail_percentile']:.0f} of "
              f"{record['sample_count']} samples ({record['tail_beyond']} beyond): "
              f"wall_s_tail {record['wall_s_tail']:.6f} s, wall_rel_tail {record['wall_rel_tail']:.4f} ratio; "
              f"failed_frac {record['failed_frac']:.6f} ratio")
    print("env " + json.dumps(record["env"]))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

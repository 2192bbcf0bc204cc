"""The benchmark's workloads: `acp` commands and the checks on their output.

Each workload is a fixed list of commands that one client runs back to back
with ``--workers 1``. The seed given to the benchmark is passed to every
command as ``--seed``. The checks test invariants that hold for every seed,
not pinned digests, so a change that legitimately alters seeded values
(a different random stream, a different estimator) still passes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class CheckFailed(Exception):
    """An output file breaks an invariant of its command."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _flags(args: tuple[str, ...]) -> dict[str, str]:
    return dict(zip(args[1::2], args[2::2]))


def check_bounds(args: tuple[str, ...], files: dict[str, Path]) -> dict:
    """The Monte Carlo mean sits inside the cost bounds; exponential gains hit E[N] exactly.

    The bracket allows four standard errors on both sides. The program's own
    ``within_bounds`` flag allows none below the lower bound, so it reads
    false on about half the seeds whenever E[N] lies within a standard error
    of that bound (exponential gains, ``--i-total 20000``: E[N] = 20001
    against a lower bound of 20000). The flag is returned as a diagnostic
    and recorded, not counted as a failure.
    """
    flags = _flags(args)
    rows = _read(files["out"])
    require(len(rows) == 1, f"bounds CSV has {len(rows)} data rows, expected 1")
    row = rows[0]
    lower, upper = float(row["lower"]), float(row["upper"])
    mean, se = float(row["empirical_mean_cost"]), float(row["standard_error"])
    trials = int(flags["--trials"])
    require(int(row["n_trials"]) == trials, f"n_trials {row['n_trials']} != {trials}")
    require(lower - 4.0 * se <= mean <= upper + 4.0 * se,
            f"mean cost {mean} outside [{lower}, {upper}] by more than 4 SE ({se})")
    if flags["--family"] == "exponential" and "--mu" not in flags:
        # N - 1 is a Poisson count of rate 1/mu over [0, T], so E[N] = T/mu + 1.
        exact = float(flags["--i-total"]) / float(flags.get("--mu-inf", "1")) + 1.0
        require(abs(mean - exact) <= 4.0 * se, f"exponential mean {mean} not within 4 SE of {exact}")
    if "dump" in files:
        with open(files["dump"], newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            require(next(reader) == ["trial_id", "n_steps", "s_n", "overshoot"], "bad trial-dump header")
            count = 0
            for i, (trial_id, n_steps, _, overshoot) in enumerate(reader):
                require(int(trial_id) == i and int(n_steps) >= 1 and float(overshoot) >= 0.0,
                        f"bad trial-dump row {i}")
                count += 1
        require(count == trials, f"trial dump has {count} rows, expected {trials}")
    return {"within_bounds": row["within_bounds"] == "true"}


def check_estimate(args: tuple[str, ...], files: dict[str, Path]) -> dict:
    """One row with positive information figures and a consistent step count."""
    rows = _read(files["out"])
    require(len(rows) == 1, f"estimate CSV has {len(rows)} data rows, expected 1")
    row = rows[0]
    total, step = float(row["i_total_bits"]), float(row["i_s_bits"])
    require(total > 0.0 and step > 0.0, f"non-positive bits: total {total}, step {step}")
    require(int(row["predicted_steps"]) >= 1, f"predicted_steps {row['predicted_steps']} < 1")
    return {}


def check_slope(args: tuple[str, ...], files: dict[str, Path]) -> dict:
    """Predicted steps lower-bound the measured mean, with 2 SE of slack, at every level."""
    levels = _read(files["summary"])
    require(len(levels) >= 2, f"slope summary has {len(levels)} levels")
    for lv in levels:
        predicted = int(lv["steps_predicted"])
        bound = float(lv["steps_actual_mean"]) + 2.0 * float(lv["steps_actual_se"])
        require(predicted <= bound, f"sigma {lv['sigma']}: predicted {predicted} > mean + 2 SE {bound}")
    return {}


def check_coloring(args: tuple[str, ...], files: dict[str, Path]) -> dict:
    """No acp run expands fewer nodes than its predicted cost."""
    summaries = _read(files["summary"])
    require(len(summaries) >= 1, "empty coloring summary")
    violations = sum(int(s["bound_violations"]) for s in summaries)
    require(violations == 0, f"{violations} bound violations")
    return {}


def check_approx(args: tuple[str, ...], files: dict[str, Path]) -> dict:
    """Goal sets grow and search bits shrink as epsilon is relaxed."""
    rows = _read(files["out"])
    require(len(rows) >= 2, f"approx CSV has {len(rows)} rows")
    counts = [int(r["goal_count"]) for r in rows]
    bits = [float(r["i_total_search_bits"]) for r in rows]
    require(counts[0] >= 1, "empty goal set at the smallest epsilon")
    require(all(a <= b for a, b in zip(counts, counts[1:])), f"goal counts not non-decreasing: {counts}")
    require(all(a >= b for a, b in zip(bits, bits[1:])), f"search bits not non-increasing: {bits}")
    return {}


_CHECKS: dict[str, Callable[[tuple[str, ...], dict[str, Path]], dict]] = {
    "bounds": check_bounds,
    "estimate": check_estimate,
    "slope": check_slope,
    "coloring": check_coloring,
    "approx": check_approx,
}

_WRITES_SUMMARY = ("slope", "coloring")


@dataclass(frozen=True)
class Command:
    """One `acp` invocation; --seed, --workers and the output paths are added per run."""

    args: tuple[str, ...]
    dump_trials: bool = False

    def files(self, workdir: Path, index: int) -> dict[str, Path]:
        files = {"out": workdir / f"c{index}.csv"}
        if self.args[0] in _WRITES_SUMMARY:
            files["summary"] = workdir / f"c{index}_summary.csv"
        if self.dump_trials:
            files["dump"] = workdir / f"c{index}_trials.csv"
        return files

    def argv(self, files: dict[str, Path], seed: int, workers: int) -> list[str]:
        argv = [*self.args, "--seed", str(seed), "--workers", str(workers), "--out", str(files["out"])]
        if self.dump_trials:
            argv += ["--dump-trials", str(files["dump"])]
        return argv

    def check(self, files: dict[str, Path]) -> dict:
        return _CHECKS[self.args[0]](self.args, files)


# Why each workload exists, and the share of a traced run each layer took on
# a 2-core host, is in README.md next to this file.
WORKLOADS: dict[str, tuple[Command, ...]] = {
    "mc-many-short": (
        Command(("bounds", "--family", "exponential", "--i-total", "10", "--trials", "100000"),
                dump_trials=True),
    ),
    "mc-few-long": (
        Command(("bounds", "--family", "exponential", "--i-total", "20000", "--trials", "2000")),
        Command(("bounds", "--family", "truncated-gaussian", "--mu", "2,1.5",
                 "--i-total", "20000", "--trials", "100")),
    ),
    "predict": (
        Command(("estimate", "--trials", "2048")),
        Command(("slope",)),
    ),
    "exact-search": (
        Command(("coloring", "--configs", "default")),
        Command(("approx", "--items", "20")),
    ),
}

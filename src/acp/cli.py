"""Command-line front end: seeded experiments in, plot-ready CSVs out.

Subcommands map one-to-one onto the library's experiment harnesses:

  bounds    stopping-time Monte Carlo against the two-sided cost bound
  slope     noise sweep of the slope-identification experiment
  coloring  random-graph coloring campaign with all three agents
  estimate  a-priori cost estimation for a linear identification task
  approx    goal-set geometry of a bundled knapsack across relaxations

Every run is a pure function of its flags and --seed: repeating a command
reproduces its CSV output byte for byte, regardless of --workers. Options
may also come from a key=value file via --config; explicit flags win.

Every command takes the same steps in the same order:
  1. parse the flags and the --config file; a bad one exits 2;
  2. check that every output CSV's directory exists and that no output path
     is itself a directory; if not, exit 1;
  3. check the option values (exit 2) and run the experiment;
  4. write every CSV, print the report and one line naming each file written.
A run refused before step 4 writes no file. ``bounds`` writes its
--dump-trials CSV while its trials run, and a run that fails once writing
has begun removes every file it wrote, so a failed run leaves no file.

Exit codes: 0 success, 1 runtime failure (a missing output directory, an
output path that is a directory, an unwritable file, an error inside the
run), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import os
import stat
import sys
from dataclasses import dataclass
from typing import Callable, Generator, Iterator

import numpy as np

from . import approx, coloring, gp, slope, stopping

PROG = "acp"


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected a non-empty comma-separated float list")
    return values


@dataclass(frozen=True)
class _Opt:
    flag: str
    conv: Callable[[str], object]
    default: object
    help: str
    choices: tuple | None = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_SHARED = (
    _Opt("--seed", int, 0, "master seed; all per-trial seeds derive from it"),
    _Opt("--out", str, None, "output CSV path"),
    _Opt("--workers", int, 1, "worker processes (does not affect results)"),
)

#: Each command's options, built when called: the bounds and slope options read their
#: library module's FAMILIES or DEFAULT_NOISE_LEVELS, which loads it.
_OPTIONS: dict[str, Callable[[], tuple[_Opt, ...]]] = {
    "bounds": lambda: _SHARED
    + (
        _Opt("--trials", int, 10000, "Monte Carlo trials"),
        _Opt("--family", str, "exponential", "gain distribution family", choices=stopping.FAMILIES),
        _Opt("--i-total", float, 10.0, "total information requirement in bits"),
        _Opt("--mu", _float_list, (), "leading per-step means, comma-separated (may be empty)"),
        _Opt("--mu-inf", float, 1.0, "tail per-step mean"),
        _Opt("--m", float, None, "truncated-gaussian support bound; none means 4 * mu_1"),
        _Opt("--scale", float, None, "truncated-gaussian base scale; none means 0.5"),
        _Opt("--cs", float, 1.0, "cost per step"),
        _Opt("--delta", float, 0.05, "failure probability for the high-probability step budget"),
        _Opt("--dump-trials", str, None, "optional CSV path for per-trial records"),
    ),
    "slope": lambda: _SHARED
    + (
        _Opt("--trials", int, 50, "trials per noise level"),
        _Opt("--noise", _float_list, slope.DEFAULT_NOISE_LEVELS, "noise levels, comma-separated"),
        _Opt("--resolution", float, 0.1, "credible-interval width that counts as identified"),
        _Opt("--step-cap", int, 200, "maximum agent steps per trial"),
    ),
    "coloring": lambda: _SHARED
    + (
        _Opt("--configs", str, "default", "named configuration set", choices=("default",)),
        _Opt("--n", int, None, "vertex count (overrides --configs, requires --p/--k/--instances)"),
        _Opt("--p", float, None, "edge probability"),
        _Opt("--k", int, None, "number of colors"),
        _Opt("--instances", int, None, "feasible instances per configuration (>= 50)"),
    ),
    "estimate": lambda: _SHARED
    + (
        _Opt("--trials", int, 64, "simulated outcomes per candidate action"),
        _Opt("--noise", float, 0.5, "observation noise sigma"),
        _Opt("--grid", int, 401, "hypothesis grid size"),
        _Opt("--resolution", float, 0.1, "identification resolution"),
        _Opt("--budget", float, 100.0, "resource budget to test against"),
    ),
    "approx": lambda: _SHARED
    + (
        _Opt("--items", int, 10, "knapsack item count (<= 20)"),
        _Opt("--eps", _float_list, (0.0, 0.05, 0.1, 0.2, 0.5), "relaxation levels, ascending"),
    ),
}


class _CommandParser(argparse.ArgumentParser):
    """One subcommand's parser, which adds the command's options when it first parses.

    Building the whole parser thus reads no library module, and a run, or
    its --help, builds only its own command's options.
    """

    def __init__(self, *, options: Callable[[], tuple[_Opt, ...]], **kwargs) -> None:
        super().__init__(**kwargs)
        self._options = options  # called at the first parse, then dropped

    def parse_known_args(self, args=None, namespace=None):
        if self._options is not None:
            self.add_argument("--config", type=str, default=None, help="key=value option file; flags win")
            for opt in self._options():
                default_note = "none" if opt.default is None else _plain(opt.default)
                kwargs = dict(type=opt.conv, default=None, help=f"{opt.help} (default: {default_note})")
                if opt.choices:
                    kwargs["choices"] = opt.choices
                self.add_argument(opt.flag, **kwargs)
            self._options = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=PROG, description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, options in _OPTIONS.items():
        sub.add_parser(command, options=options)
    return parser


def _plain(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_plain(v) for v in value)
    return str(value)


def _read_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge defaults, config-file entries, and explicit flags (flags win).

    ``slope`` and ``coloring`` also get ``summary``, the path of their summary
    CSV: ``--out`` with ``_summary`` before its extension.
    """
    table = {opt.dest: opt for opt in _OPTIONS[args.command]()}
    merged = {dest: opt.default for dest, opt in table.items()}
    if args.config is not None:
        for key, raw in _read_config_file(args.config).items():
            if key not in table:
                raise ValueError(f"unknown config key {key!r} for subcommand {args.command!r}")
            opt = table[key]
            try:
                value = opt.conv(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
            if opt.choices and value not in opt.choices:
                raise ValueError(f"config key {key!r}: {value!r} not in {opt.choices}")
            merged[key] = value
    for dest in table:
        given = getattr(args, dest)
        if given is not None:
            merged[dest] = given
    if merged.get("out") is None:
        merged["out"] = f"{args.command}.csv"
    if args.command in ("slope", "coloring"):
        base, ext = os.path.splitext(merged["out"])
        merged["summary"] = base + "_summary" + (ext or ".csv")
    return merged


def _format_cell(value) -> str:
    # exact-type checks first: plain floats and ints are nearly every cell
    kind = type(value)
    if kind is float:
        return f"{value:.6f}"
    if kind is int:
        return str(value)
    if value is None:  # a missing value is an empty cell
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6f}"
    return str(value)


#: Rows of a structured array formatted per chunk by write_csv.
_CHUNK_ROWS = 1 << 14
#: Below this, a non-negative float's round(x * 10**6) is computed exactly in 64-bit integers.
_FLOAT_LIMIT = 2.0**43


def _split_column(values: np.ndarray):
    """One chunk of a field as (whole, millionths), or None.

    ``whole`` is the integer part and ``millionths`` the six decimals of a
    float field (None for an integer field). A chunk holding a negative
    value (-0.0 included), a non-finite float or one of 2**43 or more gives
    None.

    A float rounds as '%.6f' does, half to even on the exact binary value:
    with x = xi + f, f * 10**6 = z * 15625 for z = 64 f, and z splits into
    zh (multiples of 2**-33) and zl, so A = zh * 15625 and B = zl * 15625
    are exact wherever B decides a tie. N = xi * 10**6 + floor(A), plus one
    when B exceeds 0.5 - frac(A) or equals it with floor(A) odd.
    """
    if values.dtype.kind != "f":
        if (values < 0).any():
            return None
        return values.astype(np.uint64), None
    x = values.astype(np.float64, copy=False)
    if np.signbit(x).any() or not (x < _FLOAT_LIMIT).all():  # nan compares false
        return None
    xi = np.floor(x)
    z = (x - xi) * 64.0
    zh = np.floor(z * 2.0**33) * 2.0**-33
    a = zh * 15625.0
    b = (z - zh) * 15625.0
    ai = np.floor(a)
    t = 0.5 - (a - ai)
    n = ai.astype(np.uint64)
    up = (b > t) | ((b == t) & (n & 1).astype(bool))
    n += xi.astype(np.uint64) * 10**6
    n += up
    whole = n // 10**6
    return whole, n - whole * 10**6


def _put_digits(out: np.ndarray, end: int, q: np.ndarray, width: int, pad: bool) -> None:
    """Decimal digits of ``q`` in the ``width`` columns before ``end``.

    With ``pad`` False the leading zeros stay NUL, and a value of 0 is one '0'.
    ``q`` is non-negative, so each digit is q - (q // 10) * 10: numpy's
    floor division by a scalar is several times faster than ``np.divmod``.
    """
    for col in range(end - 1, end - 1 - width, -1):
        nonzero = None if pad or col == end - 1 else q != 0
        d = q // 10
        r = q - d * 10
        q = d
        r += ord("0")
        if nonzero is not None:
            r *= nonzero
        out[:, col] = r


def _format_chunk(columns: list[np.ndarray]) -> str | None:
    """The CSV text of one chunk of rows, or None if _split_column refuses a field.

    Each field is right-aligned in a fixed-width slot of NUL bytes, followed
    by its ',' or '\\n' column; dropping the NULs, with ``bytes.translate``,
    leaves the text.
    """
    parts = [_split_column(values) for values in columns]
    if any(part is None for part in parts):
        return None
    digits = [len(str(int(whole.max()))) for whole, _ in parts]
    width = sum(digits) + sum(1 + 7 * (millionths is not None) for _, millionths in parts)
    out = np.zeros((len(columns[0]), width), dtype=np.uint8)
    end = 0
    for (whole, millionths), whole_digits in zip(parts, digits):
        end += whole_digits
        _put_digits(out, end, whole, whole_digits, pad=False)
        if millionths is not None:
            out[:, end] = ord(".")
            end += 7
            _put_digits(out, end, millionths, 6, pad=True)
        out[:, end] = ord(",")
        end += 1
    out[:, -1] = ord("\n")
    return out.tobytes().translate(None, b"\x00").decode("ascii")


@dataclass(frozen=True)
class _Stream:
    """``n_rows`` rows that arrive as structured-array chunks, one pass only; len() is the row count."""

    n_rows: int
    chunks: Iterator[np.ndarray]

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.chunks


def _write_records(fh, writer, records: np.ndarray) -> None:
    fields = records.dtype.names
    if any(records.dtype[name].kind not in "iuf" for name in fields):
        raise TypeError(f"structured rows need integer or float fields, got dtype {records.dtype}")
    for lo in range(0, len(records), _CHUNK_ROWS):
        columns = [records[name][lo:lo + _CHUNK_ROWS] for name in fields]
        text = _format_chunk(columns)
        if text is None:
            cells = zip(*(c.tolist() for c in columns))
            writer.writerows([_format_cell(v) for v in row] for row in cells)
        else:
            fh.write(text)


def write_csv(path: str, header: list[str], rows: list[list] | _Stream) -> None:
    """Deterministic CSV: LF newlines, '.' decimal point, 6-decimal reals.

    ``rows`` is a list of rows, each written through csv.writer and
    _format_cell, or a _Stream of numpy structured arrays whose fields are
    all integer or float kinds, each written as it arrives. A structured
    array is written _CHUNK_ROWS rows at a time, each chunk formatted by
    numpy into one ASCII string: integers as %d and floats as %.6f,
    correctly rounded half to even as Python rounds them, so the bytes are
    _format_cell's and never need quoting. A chunk holding a negative value
    (-0.0 included), a non-finite float or one of 2**43 or more goes through
    csv.writer and _format_cell row by row instead, with the same bytes. A
    field of any other kind raises TypeError. A write that fails once the
    file is open removes it (see _discard).
    """
    fh = open(path, "w", encoding="utf-8", newline="")
    try:
        with fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            if isinstance(rows, _Stream):
                for records in rows:
                    _write_records(fh, writer, records)
            else:
                writer.writerows([_format_cell(cell) for cell in row] for row in rows)
    except BaseException:
        _discard(path)
        raise


def _discard(path: str) -> None:
    """Remove ``path`` if it is a regular file; leave anything else, such as /dev/stdout, alone."""
    with contextlib.suppress(OSError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)


def _outputs(o: dict) -> list[str]:
    """Every CSV the run writes: --out, then --dump-trials or the summary."""
    return [path for path in (o["out"], o.get("dump_trials"), o.get("summary")) if path]


def _check_output_dirs(o: dict) -> None:
    """Fail on a missing directory for any CSV the run writes, or on a path that is a directory."""
    for path in _outputs(o):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise OSError(f"cannot write {path}: no directory {folder}")
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")


# -- subcommand runners ---------------------------------------------------
# Each is a generator: it checks what only the CLI checks, runs its library,
# yields its tables, the (path, header, rows) of every CSV, in the order they
# are to be written, and returns its report lines. It writes nothing: main
# writes each table as it is yielded, so rows that arrive as a _Stream are
# written while the run goes on.

#: Per-trial columns a bounds run keeps for its summary: those summarize_trials reads.
_KEPT_DTYPE = np.dtype([("n_steps", np.int64), ("overshoot", np.float64)])
#: One row of the --dump-trials CSV; its field names are the header.
_DUMP_DTYPE = np.dtype([("trial_id", np.int64), ("n_steps", np.int64), ("s_n", np.float64), ("overshoot", np.float64)])
#: Trial blocks per chunk of the --dump-trials stream: 2**13 rows. Formatting one takes
#: about 1.7 MiB at its peak, 3.2 MiB at 16 blocks; larger chunks alternate less often
#: between the engine and the writer, which costs cache misses, and run a little faster.
_DUMP_BLOCKS = 8


def _dump_chunks(blocks: Iterator[np.ndarray], kept: np.recarray) -> Iterator[np.ndarray]:
    """The --dump-trials records of ``blocks``, _DUMP_BLOCKS blocks to a chunk, each built as they arrive.

    Each trial's n_steps and overshoot are copied into ``kept`` on the way,
    so no block outlives its chunk.
    """
    lo = 0
    for first in blocks:
        trials = np.concatenate([first, *itertools.islice(blocks, _DUMP_BLOCKS - 1)])
        hi = lo + len(trials)
        kept.n_steps[lo:hi] = trials["n_steps"]
        kept.overshoot[lo:hi] = trials["overshoot"]
        records = np.empty(hi - lo, _DUMP_DTYPE)
        records["trial_id"] = np.arange(lo, hi)
        records["n_steps"] = trials["n_steps"]
        records["s_n"] = trials["accumulated"]
        records["overshoot"] = trials["overshoot"]
        yield records
        lo = hi


def run_bounds(o: dict) -> Generator[tuple, None, list[str]]:
    if not 0.0 < o["delta"] < 1.0:
        raise ValueError(f"--delta must lie strictly in (0, 1), got {o['delta']!r}")
    if not 0.0 < o["cs"] < math.inf:
        raise ValueError(f"--cs must be positive and finite, got {o['cs']!r}")
    spec = stopping.GainSequenceSpec(tuple(o["mu"]), o["mu_inf"], o["family"], o["m"], o["scale"])
    n_delta = None
    if spec.support_bound is not None:
        n_delta = stopping.high_prob_steps(o["i_total"], spec.mean_tail, spec.support_bound, o["delta"])
    if not np.isfinite(stopping.cost_bounds(spec, o["i_total"], o["cs"])[1]):
        raise ValueError(f"--cs {o['cs']!r} makes the upper cost bound overflow")
    trial_steps = stopping.cost_bounds(spec, o["i_total"], 1.0)[1]
    if not trial_steps <= stopping.STEP_CAP:
        raise ValueError(
            f"a trial expects up to {trial_steps:.3g} steps, over the step cap of {stopping.STEP_CAP:.0e}"
        )
    expected_steps = o["trials"] * trial_steps
    if not expected_steps <= stopping.MAX_TOTAL_STEPS:
        raise ValueError(
            f"{o['trials']} trials expect up to {expected_steps:.3g} steps in all, "
            f"over the limit of {stopping.MAX_TOTAL_STEPS:.0e}"
        )
    kept = np.recarray(o["trials"], _KEPT_DTYPE)
    blocks = stopping.run_trial_blocks(spec, o["i_total"], o["trials"], o["seed"], workers=o["workers"])
    with contextlib.closing(blocks):  # a failure while the dump is written stops the workers
        chunks = _dump_chunks(blocks, kept)
        if o["dump_trials"]:
            yield o["dump_trials"], list(_DUMP_DTYPE.names), _Stream(o["trials"], chunks)
        for _ in chunks:  # the trials no dump took: all of them without --dump-trials
            pass
    r = stopping.summarize_trials(spec, o["i_total"], o["cs"], kept)
    header = ["lower", "upper", "empirical_mean_cost", "n_trials", "standard_error", "within_bounds"]
    yield o["out"], header, [[r.lower, r.upper, r.empirical_mean_cost, r.n_trials, r.standard_error,
                              r.within_bounds]]
    lines = [
        f"{o['family']} gains, target {o['i_total']} bits, {r.n_trials} trials",
        f"  bounds      [{r.lower:.4f}, {r.upper:.4f}]",
        f"  mean cost   {r.empirical_mean_cost:.4f} +/- {r.standard_error:.4f} (se)",
        f"  overshoot   {r.mean_overshoot:.4f} mean",
        f"  within      {r.within_bounds}",
    ]
    if n_delta is not None:
        lines.append(f"  steps for completion w.p. {1 - o['delta']:.2%}: {n_delta}")
    return lines


def run_slope(o: dict) -> Generator[tuple, None, list[str]]:
    report = slope.run_noise_sweep(o["noise"], o["trials"], o["seed"], resolution=o["resolution"],
                                   step_cap=o["step_cap"], workers=o["workers"])
    summary = [[l.sigma, l.steps_predicted, l.steps_actual_mean, l.steps_actual_se, l.gap]
               for l in report.levels]
    yield o["out"], list(report.trials.dtype.names), report.trials.tolist()
    yield o["summary"], ["sigma", "steps_predicted", "steps_actual_mean", "steps_actual_se", "gap"], summary
    lines = [f"{'sigma':>8} {'predicted':>10} {'actual':>10} {'se':>8} {'gap':>8}"]
    for sigma, predicted, mean, se, gap in summary:
        # a level the estimator cannot price has no prediction and no gap: its cells are empty
        predicted, gap = ("-", "-") if gap is None else (predicted, f"{gap:.2f}")
        lines.append(f"{sigma:>8.2f} {predicted:>10} {mean:>10.2f} {se:>8.2f} {gap:>8}")
    return lines


def run_coloring(o: dict) -> Generator[tuple, None, list[str]]:
    explicit = [o["n"], o["p"], o["k"], o["instances"]]
    if any(v is not None for v in explicit):
        if any(v is None for v in explicit):
            raise ValueError("--n, --p, --k and --instances must be given together")
        configs = ((o["n"], o["p"], o["k"], o["instances"]),)
    else:
        configs = coloring.DEFAULT_CONFIGS
    report = coloring.run_campaign(configs, master_seed=o["seed"], workers=o["workers"])
    yield o["out"], list(report.records.dtype.names), report.records.tolist()
    yield (o["summary"],
           ["n", "p", "random_mean", "greedy_mean", "acp_mean", "acp_prediction", "bound_violations"],
           [[s.n, s.p, s.random_mean, s.greedy_mean, s.acp_mean, s.acp_prediction, s.bound_violations]
            for s in report.summaries])
    lines = [f"{'(n,p)':>12} {'random':>8} {'greedy':>8} {'acp':>8} {'prediction':>11} "
             f"{'violations':>11} {'discarded':>10}"]
    lines += [f"({s.n:>3},{s.p:.2f}) {s.random_mean:>8.2f} {s.greedy_mean:>8.2f} {s.acp_mean:>8.2f} "
              f"{s.acp_prediction:>11.2f} {s.bound_violations:>11d} {s.discarded:>10d}"
              for s in report.summaries]
    return lines


def run_estimate(o: dict) -> Generator[tuple, None, list[str]]:
    task = gp.EstimationTask(
        # float ** raises OverflowError; * gives inf, which the task refuses
        noise_variance=o["noise"] * o["noise"],
        resolution=o["resolution"],
        theta_grid_size=o["grid"],
        n_outcome_samples=o["trials"],
    )
    r = gp.a_priori_estimate(task, budget=o["budget"], seed=o["seed"])
    header = ["i_total_bits", "i_s_bits", "c_eff", "predicted_steps", "mc_error_bits", "margin", "solvable"]
    yield o["out"], header, [[r.total_bits, r.step_bits, r.cost_predicted, r.predicted_steps, r.mc_error_bits,
                              r.cost_margin, r.solvable]]
    lines = [
        f"total information   {r.total_bits:.4f} bits",
        f"per-step estimate   {r.step_bits:.4f} bits",
        f"predicted cost      {r.cost_predicted:.4f} (+ margin {r.cost_margin:.4f})",
        f"predicted steps     {r.predicted_steps}",
        f"solvable at budget {o['budget']}: {r.solvable}",
    ]
    return lines


def run_approx(o: dict) -> Generator[tuple, None, list[str]]:
    if not 1 <= o["items"] <= approx.MAX_ITEMS:
        raise ValueError(f"--items must be between 1 and {approx.MAX_ITEMS}, got {o['items']}")
    eps = o["eps"]
    if not all(0.0 <= e < math.inf for e in eps):
        raise ValueError(f"--eps must list finite, non-negative epsilons, got {_plain(eps)}")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"--eps must list strictly ascending epsilons, got {_plain(eps)}")
    spec = approx.default_knapsack(o["items"], o["seed"])
    reports = approx.information_vs_epsilon(spec, eps)
    header = ["epsilon", "goal_count", "p_goal", "i_total_indicator_bits", "i_total_search_bits"]
    yield o["out"], header, [[r.epsilon, r.goal_count, r.p_goal, r.i_total_indicator, r.i_total_search]
                             for r in reports]
    lines = [f"{o['items']}-item knapsack, capacity {spec.capacity}",
             f"{'epsilon':>8} {'goals':>8} {'p_goal':>10} {'search bits':>12}"]
    lines += [f"{r.epsilon:>8.3f} {r.goal_count:>8d} {r.p_goal:>10.6f} {r.i_total_search:>12.4f}"
              for r in reports]
    return lines


_RUNNERS = {"bounds": run_bounds, "slope": run_slope, "coloring": run_coloring, "estimate": run_estimate,
            "approx": run_approx}


def _write_tables(run: Generator[tuple, None, list[str]]) -> list[str]:
    """Write each table a runner yields, as it is yielded, and return the runner's report lines.

    On any failure, the runner is closed, which stops its worker processes,
    and the files it wrote are removed, as write_csv removes one it fails
    to finish: a failed run leaves no file.
    """
    written = []
    try:
        while True:
            try:
                path, header, rows = next(run)
            except StopIteration as done:
                return done.value
            write_csv(path, header, rows)
            written.append(path)
    except BaseException:
        run.close()
        for path in written:
            _discard(path)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        options = resolve_options(args)
    except (OSError, ValueError) as exc:
        print(f"{PROG}: config error: {exc}", file=sys.stderr)
        return 2
    try:
        _check_output_dirs(options)
        if options["seed"] < 0:
            raise ValueError("--seed must be non-negative")
        if options["workers"] < 1:
            raise ValueError("--workers must be at least 1")
        if not options["out"]:
            raise ValueError("--out must name a file")
        dump = options.get("dump_trials")
        if dump and os.path.abspath(dump) == os.path.abspath(options["out"]):
            raise ValueError(f"--dump-trials and --out name the same file, {options['out']}")
        lines = _write_tables(_RUNNERS[args.command](options))
        print("\n".join(lines))
        print("wrote " + " and ".join(_outputs(options)))
        return 0
    except ValueError as exc:
        print(f"{PROG}: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - map any runtime failure to exit 1
        print(f"{PROG}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

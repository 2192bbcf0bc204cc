"""What importing and running ``acp`` loads, checked in a fresh interpreter.

The other test modules import scipy themselves, and every ``acp`` module,
so ``sys.modules`` of the test process says nothing about what ``acp``
imports or runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import acp

SRC = Path(acp.__file__).resolve().parents[1]

SCRIPT = """\
import sys

def scipy_packages():
    return sorted({".".join(m.split(".")[:2]) for m in sys.modules if m.split(".")[0] == "scipy"})

import acp.cli
assert not scipy_packages(), scipy_packages()
out = sys.argv[1]
assert acp.cli.main(["bounds", "--family", "exponential", "--trials", "100", "--out", out]) == 0
assert not scipy_packages(), scipy_packages()
argv = ["bounds", "--family", "truncated-gaussian", "--mu", "2,1.5", "--trials", "100", "--out", out]
assert acp.cli.main(argv) == 0
assert not scipy_packages(), scipy_packages()
"""

# Every subcommand at a small size, with any import of scipy raising ImportError.
BLOCKED_SCRIPT = """\
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, BlockScipy())
import acp.cli

out = sys.argv[1]
commands = [
    ["bounds", "--family", family, "--mu", "2,1.5", "--i-total", "200", "--trials", "100"]
    for family in ("deterministic", "exponential", "uniform", "truncated-gaussian")
] + [
    ["estimate", "--trials", "64"],
    ["slope", "--noise", "0.3,3", "--trials", "20"],
    ["coloring", "--n", "8", "--p", "0.25", "--k", "3", "--instances", "50"],
    ["approx", "--items", "8"],
]
for argv in commands:
    assert acp.cli.main(argv + ["--out", out]) == 0, argv
"""


# Which library modules have run: a LazyLoader module stays a subclass of
# types.ModuleType until its first attribute read, and type() reads none.
EXECUTED_SCRIPT = """\
import sys, types

LIBRARY = ("info", "seeding", "stopping", "gp", "slope", "coloring", "approx")

def executed():
    return sorted(m for m in LIBRARY if type(sys.modules["acp." + m]) is types.ModuleType)

import acp.cli
assert {m for m in sys.modules if m.startswith("acp.")} == {"acp.cli", *("acp." + m for m in LIBRARY)}
assert executed() == [], executed()
assert "multiprocessing" not in sys.modules
argv = sys.argv[2:]
if argv:
    assert acp.cli.main(argv + ["--out", sys.argv[1]]) == 0, argv
print(" ".join(executed()))
"""

#: One small run of each subcommand, and the library modules it runs.
SUBCOMMAND_MODULES = {
    "bounds": (["bounds", "--trials", "100"], "seeding stopping"),
    "estimate": (["estimate", "--trials", "64"], "gp info"),
    "slope": (["slope", "--noise", "0.3,3", "--trials", "20"], "gp info seeding slope"),
    "coloring": (["coloring", "--n", "8", "--p", "0.25", "--k", "3", "--instances", "50"], "coloring info seeding"),
    "approx": (["approx", "--items", "8"], "approx gp info"),
}

PACKAGE_API_SCRIPT = """\
import acp

assert len(acp.__all__) == len(set(acp.__all__)) == 48, acp.__all__
for name in acp.__all__:
    namespace = {}
    exec(f"from acp import {name}", namespace)
    assert namespace[name] is getattr(acp, name), name
missing = set(acp.__all__) - set(dir(acp))
assert not missing, missing
try:
    acp.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("acp.no_such_name resolved")
"""

# Pool children started by spawn import acp afresh and unpickle each trial block's function through it.
SPAWN_SCRIPT = """\
import multiprocessing, sys

import acp.cli

multiprocessing.set_start_method("spawn")
dumps = []
for workers in ("1", "2"):
    dump = f"{sys.argv[1]}.{workers}"
    argv = ["bounds", "--trials", "3000", "--out", sys.argv[1], "--dump-trials", dump, "--workers", workers]
    assert acp.cli.main(argv) == 0, argv
    dumps.append(open(dump, "rb").read())
assert dumps[0] == dumps[1]
"""


def _run(script, tmp_path, *argv):
    return subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out.csv"), *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_runs_load_no_scipy(tmp_path):
    proc = _run(SCRIPT, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_subcommands_run_with_scipy_blocked(tmp_path):
    proc = _run(BLOCKED_SCRIPT, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_numpy_random_unloaded(tmp_path):
    # the coloring filter builds its numpy.random adapter on first use
    proc = _run("import acp.cli, sys\nassert 'numpy.random' not in sys.modules\n", tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_import_runs_no_library_code(tmp_path):
    proc = _run(EXECUTED_SCRIPT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [""]


@pytest.mark.parametrize("command", SUBCOMMAND_MODULES)
def test_subcommand_runs_only_its_modules(command, tmp_path):
    argv, modules = SUBCOMMAND_MODULES[command]
    proc = _run(EXECUTED_SCRIPT, tmp_path, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == modules  # after the run's report


def test_package_names_resolve_lazily(tmp_path):
    proc = _run(PACKAGE_API_SCRIPT, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_spawned_pool_writes_the_same_bytes(tmp_path):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("one CPU: --workers 2 starts no pool")
    proc = _run(SPAWN_SCRIPT, tmp_path)
    assert proc.returncode == 0, proc.stderr

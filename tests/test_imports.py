"""What importing and running ``acp`` loads, checked in a fresh interpreter.

The other test modules import scipy themselves, so ``sys.modules`` of the
test process says nothing about what ``acp`` imports.
"""

import os
import subprocess
import sys
from pathlib import Path

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


def _run(script, tmp_path):
    return subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out.csv")],
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

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
loaded = scipy_packages()
assert "scipy.special" in loaded and "scipy.stats" not in loaded and "scipy.optimize" not in loaded, loaded
"""


def test_scipy_loads_only_for_truncated_gaussian_draws(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "b.csv")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

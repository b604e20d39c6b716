"""Each narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SLOW = {"leibniz_betti"}  # about 20 s: the two-prime d_5 rank of h(2,2)


@pytest.mark.parametrize(
    "path",
    [
        pytest.param(p, id=p.stem, marks=[pytest.mark.slow] if p.stem in SLOW else [])
        for p in sorted(DEMOS.glob("*.py"))
    ],
)
def test_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(DEMOS.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr

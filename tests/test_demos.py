"""Each narrative script under demos/ runs to completion."""

from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(path, run_python):
    proc = run_python(str(path), timeout=600)
    assert proc.returncode == 0, proc.stderr

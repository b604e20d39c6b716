import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from leibniz_homology import LieAlgebra, Signature, build_affine


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture(params=[(2, 2), (3, 1), (1, 3)], ids=lambda pq: f"{pq[0]}_{pq[1]}")
def sig4(request):
    return Signature(*request.param)


@pytest.fixture
def sig22():
    return Signature(2, 2)


@pytest.fixture
def sig31():
    return Signature(3, 1)


@pytest.fixture
def h22(sig22):
    return build_affine(sig22)


@pytest.fixture
def h31(sig31):
    return build_affine(sig31)


def _full_route(alg):
    """A copy of ``alg`` built without its signature: the same complex with
    every grade block ranked (no sign-flip reduction, no prediction)."""
    return LieAlgebra(alg.labels, alg.structure, grades=alg.grades, name=alg.name)


@pytest.fixture
def full_route():
    return _full_route


ROOT = Path(__file__).resolve().parent.parent


def _run_python(*args, timeout=120):
    """``python *args`` in a subprocess with the package's ``src`` and the
    test modules on PYTHONPATH; the output is captured as text."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "tests"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def run_python():
    return _run_python

"""The package's public names: every export resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import leibniz_homology

PACKAGE = Path(leibniz_homology.__file__).resolve().parent


def test_exports_resolve(monkeypatch):
    # a name deleted from a module but left in its __all__ fails only on a
    # star import; the package re-exports only names its modules list
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"leibniz_homology.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{path.stem}.__all__ lists missing {name}"
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module(f"leibniz_homology.{node.module}")
            for alias in node.names:
                assert hasattr(leibniz_homology, alias.name)
                assert alias.name in source.__all__, f"{node.module} does not export {alias.name}"
    # the names the package loads from ``verify`` on their first lookup;
    # the value an earlier lookup cached is dropped, so that ``dir`` and
    # the lookup go through the lazy table
    verify = importlib.import_module("leibniz_homology.verify")
    for name in leibniz_homology._FROM_VERIFY:
        monkeypatch.delattr(leibniz_homology, name, raising=False)
        assert name in dir(leibniz_homology)
        assert getattr(leibniz_homology, name) is getattr(verify, name)
        assert name in verify.__all__, f"verify does not export {name}"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        leibniz_homology.no_such_name


def test_no_assert_or_debug_flag_in_the_package():
    # python -O strips assert statements and sets __debug__ to False; with
    # neither in the package, every check it makes runs the same under -O
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} uses assert"
            if isinstance(node, ast.Name):
                assert node.id != "__debug__", f"{path.name}:{node.lineno} reads __debug__"


def test_import_loads_neither_dataclasses_nor_inspect(run_python):
    # every CLI call pays the package import, and dataclasses, with the
    # inspect it loads, was about a third of it
    code = (
        "import sys\n"
        "import leibniz_homology\n"
        "from leibniz_homology import cli, split\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "if loaded:\n"
        "    sys.exit(f'loaded {loaded}')\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_the_engine_only(run_python):
    # ``verify`` and its structure validators run in no Betti table or
    # invariant claim; compiling them was about a sixth of the import
    code = (
        "import sys\n"
        "import leibniz_homology\n"
        "loaded = sorted(m.split('.')[1] for m in sys.modules if m.startswith('leibniz_homology.'))\n"
        "engine = ['_value', 'complexes', 'homology', 'invariants', 'liealg', 'linalg', 'repspace']\n"
        "if loaded != engine:\n"
        "    sys.exit(f'import loaded {loaded}')\n"
        "from leibniz_homology import cli\n"
        "cli.main(['homology', '--p', '2', '--q', '2', '--max-degree', '2'])\n"
        "if 'leibniz_homology.verify' in sys.modules:\n"
        "    sys.exit('homology loaded verify')\n"
        "from leibniz_homology import run_suite, VerifyReport, validate, build_abelian_extension\n"
        "from leibniz_homology import verify\n"
        "if (run_suite, VerifyReport, validate, build_abelian_extension) != (\n"
        "    verify.run_suite, verify.VerifyReport, verify.validate, verify.build_abelian_extension):\n"
        "    sys.exit('a lazy name differs from its verify original')\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr

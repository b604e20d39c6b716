"""The package's public names: every export resolves."""

import ast
import importlib
from pathlib import Path

import leibniz_homology

PACKAGE = Path(leibniz_homology.__file__).resolve().parent


def test_exports_resolve():
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

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

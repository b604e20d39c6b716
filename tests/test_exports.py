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

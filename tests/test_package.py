"""The package surface: every exported name resolves."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import relulab

MODULES = sorted(m.name for m in pkgutil.iter_modules(relulab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"relulab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"relulab.{name}.__all__ names undefined symbols: {missing}"


def test_every_package_root_import_resolves():
    tree = ast.parse(pathlib.Path(relulab.__file__).read_text())
    missing = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert not missing, f"relulab/__init__.py imports undefined names: {missing}"

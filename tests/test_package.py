"""The package surface: every exported name resolves, and importing the
package pulls in no more of scipy than the lab uses."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


def test_import_leaves_scipy_integrate_unloaded():
    # A fresh interpreter: this one has scipy.integrate loaded already (the
    # pytest warning filter names one of its classes).
    src = str(pathlib.Path(relulab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, relulab; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "False"

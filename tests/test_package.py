"""Structure of the package: every import sits at module top, and the module
graph runs one way, from ``numerics`` at the leaf up to ``cli``."""

import ast
from pathlib import Path

import pytest

import thermoprobe

PACKAGE = Path(thermoprobe.__file__).parent
# Each module imports only modules listed before it.
LAYERS = ["numerics", "spectra", "gaussian", "dynamics", "equilibrium", "cli"]


def parse(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_no_import_inside_a_function(module):
    functions = [n for n in ast.walk(parse(module)) if isinstance(n, (ast.FunctionDef, ast.Lambda))]
    nested = [node.lineno for fn in functions for node in ast.walk(fn)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_lower_layers(module):
    imported = {node.module for node in ast.walk(parse(module))
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imported <= set(LAYERS[:LAYERS.index(module)])

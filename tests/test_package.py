"""Structure of the package: every import sits at module top, the module
graph runs one way, from ``numerics`` at the leaf up to ``cli``, the
test-only oracles stay out of it, importing it keeps BLAS to one thread
unless the caller chose otherwise, and only the CLI run as the program freezes
the collector's start-up heap."""

import ast
import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermoprobe
from thermoprobe import cli

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


def test_oracles_are_not_in_the_package():
    oracles = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    defined = {node.name for node in oracles.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    modules = [thermoprobe] + [importlib.import_module(f"thermoprobe.{m}") for m in LAYERS]
    assert sorted(name for name in defined if any(hasattr(mod, name) for mod in modules)) == []


def fresh_interpreter(code, **env):
    """Run ``code`` in a new interpreter that imports this package, with
    OPENBLAS_NUM_THREADS unset unless given in ``env``; return its stdout."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    child_env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    child_env.update(env)
    done = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True,
                          timeout=60, check=True)
    return done.stdout.strip()


needs_proc_tasks = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")


@needs_proc_tasks
def test_import_leaves_one_thread():
    assert fresh_interpreter("import os, thermoprobe; print(len(os.listdir('/proc/self/task')))") == "1"


@needs_proc_tasks
def test_import_keeps_an_exported_thread_count():
    code = "import os, thermoprobe; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_interpreter(code, OPENBLAS_NUM_THREADS="2") == "2"


@needs_proc_tasks
def test_import_after_numpy_leaves_the_environment_alone():
    code = "import os, numpy, thermoprobe; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert fresh_interpreter(code) == "None"


def test_running_as_the_program_freezes_the_heap(tmp_path):
    out = tmp_path / "limits.csv"
    code = ("import gc, sys; from thermoprobe.cli import main; "
            f"sys.argv = ['thermoprobe', 'limits', '--out', {str(out)!r}]; "
            "status = main(); print(gc.get_freeze_count() > 0, status)")
    assert fresh_interpreter(code) == "True 0"
    assert out.read_text().startswith("N,x_tilde,rate\n")


def test_calling_main_leaves_the_collector_alone(tmp_path):
    frozen = gc.get_freeze_count()
    assert cli.main(["limits", "--out", str(tmp_path / "limits.csv")]) == 0
    assert gc.get_freeze_count() == frozen

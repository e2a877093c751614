"""Structure of the package: every import sits at module top, the module
graph runs one way, from ``numerics`` at the leaf up to ``cli``, no
module but ``dynamics`` and ``cli`` reads a ``DissipationModel`` field, the
test-only oracles stay out of it, every module parses as Python 3.10, the
oldest that pyproject.toml accepts, it defines no dataclass, the README's
quick start runs and its line count of ``src/`` holds, the modules from
outside the package that ``src/`` imports are a pinned set, the package's
public names are a pinned list, running every command loads neither numpy
nor dataclasses nor inspect, nor pathlib to read ``--config`` and write
``--out``, importing it starts no thread and leaves OPENBLAS_NUM_THREADS
alone, only the CLI run as the program freezes the collector's start-up
heap, the benchmark's copy of the CLI defaults stays equal to them, and the
``cli`` functions that the benchmark's tracer names are those of ``cli``."""

import ast
import gc
import importlib
import os
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import thermoprobe
from thermoprobe import cli
from thermoprobe.dynamics import DissipationModel

PACKAGE = Path(thermoprobe.__file__).parent
# Each module imports only modules listed before it.
LAYERS = ["numerics", "dynamics", "equilibrium", "cli"]


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


def test_imports_from_outside_the_package_are_pinned():
    # each of these loads on every call; a new one moves the start-up time, so it is added here on purpose
    imported = set()
    for module in LAYERS + ["__init__"]:
        for node in ast.walk(parse(module)):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported) == ["argparse", "decimal", "gc", "io", "itertools", "json", "math", "sys"]


def test_public_names_are_pinned():
    # the kernels, the model, the grid and the two exceptions; a new export is added here on purpose
    public = sorted(name for name, value in vars(thermoprobe).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == ["DissipationModel", "NoConvergence", "NonFiniteState", "geometric_grid", "hessian_certificate",
                      "optimal_gap", "optimal_interrogation_ratio", "qfi_effective_two_level",
                      "qfi_harmonic_equilibrium", "qfi_harmonic_transient", "qfi_transient", "qfi_transient_plus",
                      "ultimate_rate"]


@pytest.mark.parametrize("module", [m for m in LAYERS if m not in ("dynamics", "cli")])
def test_reads_no_dissipation_model_attribute(module):
    # DissipationModel lives in dynamics; a module that reads its fields without
    # importing it depends on dynamics in a way no import shows
    fields = set(vars(DissipationModel(1.0, 1.0, 1e-3)))
    read = {node.attr for node in ast.walk(parse(module)) if isinstance(node, ast.Attribute)}
    assert sorted(read & fields) == []


def test_oracles_are_not_in_the_package():
    oracles = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    defined = {node.name for node in oracles.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    modules = [thermoprobe] + [importlib.import_module(f"thermoprobe.{m}") for m in LAYERS]
    assert sorted(name for name in defined if any(hasattr(mod, name) for mod in modules)) == []


@pytest.mark.parametrize("module", LAYERS + ["__init__"])
def test_parses_as_the_oldest_supported_python(module):
    # requires-python = ">=3.10": syntax of later versions, such as except*, fails here
    ast.parse((PACKAGE / f"{module}.py").read_text(), feature_version=(3, 10))


def test_src_defines_no_dataclass():
    # Table and DissipationModel are plain classes; values are floats and lists
    defined = sorted(node.name for module in LAYERS + ["__init__"] for node in ast.walk(parse(module))
                     if isinstance(node, ast.ClassDef)
                     and any("dataclass" in ast.unparse(d) for d in node.decorator_list))
    assert defined == []


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(code, "README.md", "exec"), {})
    assert "[True, True, True" in capsys.readouterr().out  # the certificate's column


def test_readme_states_the_src_line_count():
    # counted as the benchmark's metadata counts src_lines
    root = Path(__file__).parents[1]
    (stated,) = re.findall(r"`src/` is (\d+) lines", (root / "README.md").read_text())
    assert int(stated) == sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def fresh_interpreter(code, *options, **env):
    """Run ``code`` in a new interpreter, started with ``options``, that
    imports this package, with OPENBLAS_NUM_THREADS unset unless given in
    ``env``; return its stdout."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    child_env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    child_env.update(env)
    done = subprocess.run([sys.executable, *options, "-c", code], env=child_env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.strip()


needs_proc_tasks = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")


def test_commands_load_no_numpy_dataclasses_or_inspect(tmp_path):
    # the start-up cost of a call is the modules it loads; these three are the costly ones
    code = ("import sys; from thermoprobe.cli import main; "
            f"codes = [main([c, '--out', {str(tmp_path)!r} + '/' + c]) for c in {sorted(cli._DEFAULTS)!r}]; "
            "print(codes, sorted(m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules))")
    assert fresh_interpreter(code) == "[0, 0, 0, 0, 0] []"


def test_files_are_read_and_written_without_pathlib(tmp_path):
    # under -S no site hook has loaded pathlib, so only the CLI could load it
    (tmp_path / "config.json").write_text("{}")
    code = ("import sys; from thermoprobe.cli import main; "
            f"codes = [main([c, '--config', {str(tmp_path / 'config.json')!r}, '--out', {str(tmp_path)!r} + '/' + c]) "
            f"for c in {sorted(cli._DEFAULTS)!r}]; print(codes, 'pathlib' in sys.modules)")
    assert fresh_interpreter(code, "-S") == "[0, 0, 0, 0, 0] False"
    assert all((tmp_path / command).read_text() for command in cli._DEFAULTS)


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


def test_benchmark_defaults_match_the_cli():
    # the benchmark's checks rebuild each call's parameters from its own copy of
    # the defaults; run_path reads the file without importing or compiling it to disk.
    # == ignores order, but --help lists the commands and each one's flags in key order
    workloads = runpy.run_path(str(Path(__file__).parents[1] / "benchmarks" / "workloads.py"))
    assert workloads["DEFAULTS"] == cli._DEFAULTS
    def order(defaults):
        return [(command, list(keys)) for command, keys in defaults.items()]
    assert order(workloads["DEFAULTS"]) == order(cli._DEFAULTS)


def test_benchmark_tracer_names_functions_of_the_cli():
    # the tracer wraps each named function of cli and, by identity, each runner in
    # _RUNNERS; a name it cannot find is skipped silently and its metrics read zero
    names = set(runpy.run_path(str(Path(__file__).parents[1] / "benchmarks" / "tracer.py"))["TARGETS"]["cli"])
    functions = {name for name, value in vars(cli).items()
                 if isinstance(value, types.FunctionType) and value.__module__ == cli.__name__}
    assert sorted(names - functions) == []
    assert sorted({runner.__name__ for runner in cli._RUNNERS.values()} - names) == []

"""Source-level rules for the package itself."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "charcorr"
TRIG = {"cos", "sin", "pi"}


def _package_nodes():
    """(file:line, node) for every AST node of every module in the package."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield f"{path.relative_to(SRC)}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one silently
    # stops running; every check must raise explicitly instead.
    found = [where for where, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert not found, found


def _is_float_use(node) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("float", "complex")
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, ast.ImportFrom):
        return any(alias.name in TRIG for alias in node.names)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id in ("math", "cmath") and node.attr in TRIG
    return False


def test_no_floating_point_in_the_package():
    # Every value the package computes is exact; a float anywhere would be
    # an approximation that no check can trust.
    found = [where for where, node in _package_nodes() if _is_float_use(node)]
    assert not found, found


def _private_imports(node) -> list[str]:
    """Underscore names a charcorr module imports from another charcorr module."""
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0 and (node.module or "").split(".")[0] != "charcorr":
        return []
    return [alias.name for alias in node.names if alias.name.startswith("_")]


def test_no_private_names_imported_across_modules():
    # A module's underscore names are its own; another module that needs one
    # gets a public name instead.
    found = [f"{where} {name}" for where, node in _package_nodes() for name in _private_imports(node)]
    assert not found, found


def _imports_in_function(node) -> list[int]:
    """Lines of the import statements in a function's body, nested functions included."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    return [n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]


def test_no_imports_inside_functions():
    # A module's dependencies all show in its import list at the top.
    found = {
        f"{where.partition(':')[0]}:{line}"
        for where, node in _package_nodes()
        for line in _imports_in_function(node)
    }
    assert not found, sorted(found)


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # Every check is a fresh CLI process, so what importing the package pulls
    # in is paid on every run; dataclasses alone brings inspect, ast, dis and
    # tokenize, and each dataclass costs about ten times a NamedTuple to create.
    code = (
        "import sys; before = set(sys.modules); import charcorr.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "charcorr.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)

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


def test_cli_import_leaves_dataclasses_and_inspect_unloaded(tmp_path):
    # Every check is a fresh CLI process, so what importing the package pulls
    # in is paid on every run; dataclasses alone brings inspect, ast, dis and
    # tokenize, and each dataclass costs about ten times a NamedTuple to create.
    # Parsing the command line must not load argparse either, nor the gettext
    # and locale modules that argparse's messages load.
    out = tmp_path / "out.txt"
    code = (
        "import sys; before = set(sys.modules); import charcorr.cli; "
        f"code = charcorr.cli.main(['verify', '--group', 's4', '-p', '2', '--out', {str(out)!r}]); "
        "print(code, ' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0" and out.read_text().endswith("verdict: TRUE\n")
    assert "charcorr.cli" in loaded
    unwanted = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    assert not unwanted & set(loaded), sorted(loaded)



CALLER_ROOTS = [SRC.parent.parent / folder for folder in ("src", "tests", "perfbench")]
# Callerless, but deleting it waits for the benchmark change that stops every
# sample recompiling src/: with that recompilation, deleting these four lines
# moved peak_rss_mb on all three workloads past its bound.
KNOWN_CALLERLESS = {"chartab.py ClassFunction.degree"}


def _definitions():
    """(label, name, is_member, path, first line, last line) of each non-dunder def and class.

    The label is the file and the name, qualified by its class for a method.
    """
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {
            id(node): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            owner = owners.get(id(node))
            label = f"{path.relative_to(SRC)} {owner + '.' if owner else ''}{node.name}"
            yield label, node.name, owner is not None, path, node.lineno, node.end_lineno


def _mentions(node, roots) -> list[tuple[str, str]]:
    """(kind, name) for each name a node mentions: "bare", "attr", or "path".

    A "path" is a part of a string holding a dotted path that starts at one
    of the roots, such as ``"charcorr.chartab._pairings"`` or
    ``"PermGroup.from_generators"``: the form that ``monkeypatch.setattr``
    and the benchmark's tracer take.
    """
    if isinstance(node, ast.Name):
        return [("bare", node.id)]
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return [("attr", node.attr)]
    if isinstance(node, ast.alias):
        return [("bare", part) for part in node.name.split(".")]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        if len(parts) > 1 and parts[0] in roots and all(part.isidentifier() for part in parts):
            return [("path", part) for part in parts]
    return []


def _names_used() -> dict[str, set]:
    """Per name, every place that mentions it: {name: {(kind, path, line)}}."""
    roots = {"charcorr"} | {path.stem for path in SRC.rglob("*.py")}
    roots |= {node.name for _, node in _package_nodes() if isinstance(node, ast.ClassDef)}
    used: dict[str, set] = {}
    for root in CALLER_ROOTS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                for kind, name in _mentions(node, roots):
                    used.setdefault(name, set()).add((kind, path, getattr(node, "lineno", 0)))
    return used


def test_every_package_definition_is_named_outside_itself():
    # Code that nothing names is code that nothing runs or tests: delete it.
    # A method or property is named by an attribute read or a dotted path.  A
    # read of a name that the package also stores as a plain attribute
    # (``self.degree = ...``) cannot be told apart from a read of that
    # attribute, so it does not count.  Dunder methods are exempt.
    used = _names_used()
    stored = {
        node.attr
        for _, node in _package_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }
    callerless = []
    for label, name, is_member, path, first, last in _definitions():
        kinds = {"attr", "path"} if is_member else {"bare", "attr", "path"}
        if is_member and name in stored:
            kinds.discard("attr")
        if not any(
            kind in kinds and not (where == path and first <= line <= last)
            for kind, where, line in used.get(name, ())
        ):
            callerless.append(label)
    assert set(callerless) == KNOWN_CALLERLESS, sorted(callerless)

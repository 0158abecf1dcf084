"""Source-level rules for the package itself."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest
from instances import GOLDEN

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


# The one exemption: in cli.py a command imports its engine inside the
# function that runs it, as ``from .mckay import ...`` or ``from .showcase
# import ...``, so that a process compiles and runs only the engine its
# command calls (a fresh ``table --group s4`` process, which now loads
# neither, takes about 10 % less CPU than when it loaded both).  Any other
# import inside a function, in cli.py or anywhere else, fails.
LAZY_ENGINE_IMPORTS = {"cli.py": {"mckay", "showcase"}}


def _function_imports(rel: str, tree) -> list[int]:
    """Lines of the imports in a file's function bodies (nested ones too), less its exemption."""
    allowed = LAZY_ENGINE_IMPORTS.get(rel, set())
    return sorted(
        {
            n.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for n in ast.walk(node)
            if isinstance(n, (ast.Import, ast.ImportFrom))
            and not (isinstance(n, ast.ImportFrom) and n.level == 1 and n.module in allowed)
        }
    )


def test_no_imports_inside_functions():
    # A module's dependencies all show in its import list at the top, but for
    # the commands' engines in cli.py (LAZY_ENGINE_IMPORTS).
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in _function_imports(
            path.relative_to(SRC).as_posix(), ast.parse(path.read_text(encoding="utf-8"))
        )
    ]
    assert not found, found
    # the exemption is that narrow
    engine = "def run():\n    from .showcase import remark_report\n"
    assert _function_imports("cli.py", ast.parse(engine)) == []
    assert _function_imports("chartab.py", ast.parse(engine)) == [2]
    others = ("from .chartab import x", "from . import mckay", "from charcorr.mckay import x")
    for other in others + ("import json", "from ..mckay import x"):
        assert _function_imports("cli.py", ast.parse(f"def run():\n    {other}\n")) == [2]


ENGINES = ("charcorr.mckay", "charcorr.showcase")


@pytest.mark.parametrize(
    "argv, golden, loaded",
    [
        (["remark648", "--format", "structured"], "remark648.json", {"charcorr.showcase"}),
        (["verify", "--group", "s4", "-p", "2"], None, {"charcorr.mckay"}),
        (["verify", "--all", "--format", "structured"], "verify_all.json", {"charcorr.mckay"}),
        (["table", "--group", "corpus/s4", "--format", "text"], "s4_table.txt", set()),
    ],
    ids=["remark648", "verify", "verify_all", "table"],
)
def test_each_command_loads_only_its_engine(tmp_path, argv, golden, loaded):
    # A fresh process compiles every module it imports, so a command must not
    # load the engine of another: remark648 never calls mckay, verify never
    # calls showcase, and table calls neither.  One -S child per command.
    out = tmp_path / "out"
    code = (
        "import sys, charcorr.cli; "
        f"code = charcorr.cli.main({[*argv, '--out', str(out)]!r}); "
        f"print(code, *[m for m in {ENGINES!r} if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    exit_code, *engines = proc.stdout.split()
    assert exit_code == "0"
    if golden is None:
        assert out.read_text().endswith("verdict: TRUE\n")
    else:
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    assert set(engines) == loaded


def test_cli_import_leaves_dataclasses_and_inspect_unloaded(tmp_path):
    # Every check is a fresh CLI process, so what importing the package pulls
    # in is paid on every run; dataclasses alone brings inspect, ast, dis and
    # tokenize, and each dataclass costs about ten times a NamedTuple to create.
    # Parsing the command line must not load argparse either, nor the gettext
    # and locale modules that argparse's messages load.  No command may load
    # fractions, nor the decimal and numbers modules it imports: every value
    # is exact on ints (cyclotomic.Cyc), and the three cost about 2 ms and
    # 0.5 MB per process.  The corpus is found beside the package, so no
    # command loads importlib.resources either, nor the zipfile, tempfile,
    # pathlib and shutil modules behind it.  The child runs under -S: a .pth
    # file that ``site`` runs may preload any of these, and would hide a
    # package import of them.  The three commands run one after another in
    # one process, so a module that any of them loads shows.
    runs = [
        (["verify", "--group", "s4", "-p", "2"], None),
        (["verify", "--all", "--format", "structured"], "verify_all.json"),
        (["remark648", "--format", "structured"], "remark648.json"),
    ]
    outs = [tmp_path / f"out{i}" for i in range(len(runs))]
    argvs = [[*argv, "--out", str(out)] for (argv, _), out in zip(runs, outs)]
    code = (
        "import sys; before = set(sys.modules); import charcorr.cli; "
        f"codes = [charcorr.cli.main(argv) for argv in {argvs!r}]; "
        "print(*codes, ' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    words = proc.stdout.split()
    codes, loaded = words[: len(runs)], words[len(runs) :]
    assert codes == ["0"] * len(runs)
    assert outs[0].read_text().endswith("verdict: TRUE\n")
    for out, (_, golden) in zip(outs[1:], runs[1:]):
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()
    assert "charcorr.cli" in loaded
    unwanted = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    unwanted |= {"fractions", "decimal", "numbers"}
    unwanted |= {"importlib.resources", "zipfile", "tempfile", "pathlib", "shutil"}
    assert not unwanted & set(loaded), sorted(loaded)


NUMERIC_TOWER = {"fractions", "decimal", "numbers"}


def _numeric_tower_imports(node) -> list[str]:
    """The modules of the numeric tower that an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    else:
        return []
    return [name for name in names if name.split(".")[0] in NUMERIC_TOWER]


def test_no_package_module_imports_fractions():
    # Cyc holds cyclotomic integers on int coordinates, so nothing in the
    # package needs a Fraction, and importing fractions would load decimal
    # and numbers in every CLI process.
    found = [
        f"{where} {name}"
        for where, node in _package_nodes()
        for name in _numeric_tower_imports(node)
    ]
    assert not found, found



# Besides the package itself, only the benchmark keeps a definition named: a
# function that only the tests call belongs beside them, not in every CLI
# process's compile.
CALLER_ROOTS = [SRC.parent.parent / "perfbench"]


def _sources(roots) -> list[str]:
    """Sources of the Python files below the given folders."""
    return [
        path.read_text(encoding="utf-8") for root in roots for path in sorted(root.rglob("*.py"))
    ]


def _join(*parts) -> str:
    """Dotted name of the non-empty parts: "" is the package itself."""
    return ".".join(part for part in parts if part)


def _definitions(trees):
    """(label, name, is_member, file, first line, last line) of each non-dunder def and class.

    ``trees`` maps each package file, by its path below the package, to its
    syntax tree.  The label is the file and the name, qualified by its class
    for a method.
    """
    for rel, tree in trees.items():
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
            label = f"{rel} {owner + '.' if owner else ''}{node.name}"
            yield label, node.name, owner is not None, rel, node.lineno, node.end_lineno


def _path_parts(node, roots) -> list[str]:
    """The parts of a string holding a dotted path that starts at one of the roots.

    Such as ``"PermGroup.from_generators"``: the form that
    ``monkeypatch.setattr`` and the benchmark's tracer take.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".")
        if len(parts) > 1 and parts[0] in roots and all(part.isidentifier() for part in parts):
            return parts
    return []


def _bindings(tree, package, modules):
    """What a file's imports of the package bind: {local: module}, {local: (module, name)}.

    Modules are dotted names below the package ("kernels.pure"; "" is the
    package).  ``package`` is the importing file's own package as such a list
    of parts, or None for a file outside the package.
    """
    module_names, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "charcorr" and alias.asname:
                    module_names[alias.asname] = _join(*parts[1:])
                elif parts[0] == "charcorr":
                    module_names["charcorr"] = ""
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0 and parts[0] == "charcorr":
            source = _join(*parts[1:])
        elif node.level and package is not None:
            source = _join(*package[: len(package) - node.level + 1], node.module)
        else:
            continue
        for alias in node.names:
            local, full = alias.asname or alias.name, _join(source, alias.name)
            if full in modules:
                module_names[local] = full
            else:
                imported[local] = (source, alias.name)
    return module_names, imported


def _modules_read(tree, package, modules, resolve) -> set[str]:
    """The package modules a file imports, or imports a name from (also through a re-export)."""
    module_names, imported = _bindings(tree, package, modules)
    found = set(module_names.values())
    for target in imported.values():
        found |= {target[0], resolve(target)[0]}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {
                _join(*alias.name.split(".")[1:])
                for alias in node.names
                if alias.name.split(".")[0] == "charcorr"
            }
    return found


def _reaching_mentions(tree, module, package, modules):
    """(module, name, line) for each mention in a file that can reach that name of that module.

    That is an attribute read off a module, such as ``pm.compose`` or
    ``charcorr.perm.compose``; an import of the name, or a bare use of it
    where it is imported; a bare name in its own module (``module``, which
    is None for a file outside the package); or a dotted path string such as
    ``"charcorr.chartab._pairings"``.
    """
    module_names, imported = _bindings(tree, package, modules)

    def module_of(node):
        if isinstance(node, ast.Name):
            return module_names.get(node.id)
        if isinstance(node, ast.Attribute):
            base = module_of(node.value)
            if base is not None and _join(base, node.attr) in modules:
                return _join(base, node.attr)
        return None

    out = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = module_of(node.value)
            if base is not None:
                out.append((base, node.attr, line))
        elif isinstance(node, ast.Name):
            if node.id in imported:
                out.append((*imported[node.id], line))
            elif module is not None:
                out.append((module, node.id, line))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                target = imported.get(alias.asname or alias.name)
                if target is not None and target[1] == alias.name:
                    out.append((*target, line))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if parts[0] == "charcorr" and len(parts) > 2 and _join(*parts[1:-1]) in modules:
                out.append((_join(*parts[1:-1]), parts[-1], line))
    return out


def _callerless(package: dict[str, str], others) -> list[str]:
    """Sorted labels of the package definitions that nothing names outside themselves.

    ``package`` maps each package file, by its path below the package
    (``"kernels/pure.py"``), to its source; ``others`` are the sources of
    files outside it.  A method or property is named by a dotted path
    anywhere, or by an attribute read in a file that defines it or imports
    from its module: ``G.conj`` in a file that imports nothing from
    cyclotomic cannot read ``Cyc.conj``.  A read of a name that the package
    also stores as a plain attribute (``self.degree = ...``) cannot be told
    apart from a read of that attribute, so it does not count.  A
    module-level definition is named only by a mention that can reach it
    (``_reaching_mentions``): a same-named attribute of some other object, or
    a same-named local of a module that neither defines nor imports it, does
    not count.  A name read off a package module that imports it resolves to
    where it is defined.  Dunder methods are exempt.
    """
    files = []  # (file, tree, module, package parts); module None outside the package
    for rel, source in package.items():
        path = pathlib.PurePosixPath(rel)
        module = _join(*path.parent.parts, "" if path.stem == "__init__" else path.stem)
        files.append((rel, ast.parse(source), module, list(path.parent.parts)))
    trees = {rel: tree for rel, tree, _, _ in files}
    module_of_file = {rel: module for rel, _, module, _ in files}
    modules = set(module_of_file.values())
    reexports = {}  # (module, local) -> (module, name) for each name a package module imports
    for _, tree, module, parts in files:
        for local, target in _bindings(tree, parts, modules)[1].items():
            reexports[module, local] = target
    files += [(f"<file {i}>", ast.parse(source), None, None) for i, source in enumerate(others)]

    def resolve(target):
        seen = set()
        while target in reexports and target not in seen:
            seen.add(target)
            target = reexports[target]
        return target

    roots = {"charcorr"} | {pathlib.PurePosixPath(rel).stem for rel in trees}
    roots |= {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    stored = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }
    paths: dict[str, set] = {}
    reads: dict[str, set] = {}
    reaching: dict[tuple[str, str], set] = {}
    importers: dict[str, set] = {}
    for where, tree, module, parts in files:
        for node in ast.walk(tree):
            line = getattr(node, "lineno", 0)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add((where, line))
            for name in _path_parts(node, roots):
                paths.setdefault(name, set()).add((where, line))
        for base, name, line in _reaching_mentions(tree, module, parts, modules):
            reaching.setdefault(resolve((base, name)), set()).add((where, line))
        for read in _modules_read(tree, parts, modules, resolve):
            importers.setdefault(read, set()).add(where)
    callerless = []
    for label, name, is_member, rel, first, last in _definitions(trees):
        if is_member:
            readers = {rel} | importers.get(module_of_file[rel], set())
            uses = {use for use in reads.get(name, ()) if use[0] in readers}
            uses = set() if name in stored else uses | paths.get(name, set())
        else:
            uses = reaching.get((module_of_file[rel], name), set())
        if not any(not (where == rel and first <= line <= last) for where, line in uses):
            callerless.append(label)
    return sorted(callerless)


def test_every_package_definition_is_named_outside_itself():
    # Code that nothing names is code that nothing runs or tests: delete it.
    package = {
        path.relative_to(SRC).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }
    assert _callerless(package, _sources(CALLER_ROOTS)) == []


def test_a_same_named_attribute_or_local_does_not_name_a_module_function(tmp_path):
    # G.order and the parameter ``conjugate`` spell the names of perm.order and
    # perm.conjugate, which a match on names alone counted as mentions; neither
    # can reach them.  pm.cycles, an attribute read off the module, does.
    package = {
        "perm.py": "def order(a):\n    return 1\n\n\ndef conjugate(h, g):\n    return h\n\n\n"
        "def cycles(a):\n    return []\n",
        "chartab.py": "from . import perm as pm\n\n\n"
        "def width(G, conjugate):\n    return G.order, conjugate, pm.cycles(G)\n",
    }
    assert _callerless(package, []) == ["chartab.py width", "perm.py conjugate", "perm.py order"]
    # an import, a bare use where imported, and an attribute path off the package
    callers = [
        "from charcorr.chartab import width\n",
        "from charcorr.perm import order as o\n\no(1)\n",
        "import charcorr.perm\n\ncharcorr.perm.conjugate(1, 2)\n",
    ]
    assert _callerless(package, callers) == []
    # a mention from a file outside the caller roots keeps nothing
    for folder, source in (("perfbench", callers[0] + callers[2]), ("tests", callers[1])):
        (tmp_path / folder).mkdir()
        (tmp_path / folder / "calls.py").write_text(source, encoding="utf-8")
    assert _callerless(package, _sources([tmp_path / "perfbench"])) == ["perm.py order"]
    # a bare name counts in the module that defines it, outside the definition
    package["perm.py"] += "\n\nIDENTITY = order(())\n"
    assert _callerless(package, callers[:1]) == ["perm.py conjugate"]
    # a method is read only where its module is defined or imported from:
    # G.conj in a file that imports groups alone reaches PermGroup.conj, not
    # Cyc.conj; a dotted path names a method from any file
    package = {
        "cyclotomic.py": "class Cyc:\n    def conj(self):\n        return self\n\n\nONE = Cyc()\n",
        "groups.py": "class PermGroup:\n    def conj(self, i, j):\n        return i\n",
        "mckay.py": "from .groups import PermGroup\n\n\n"
        "def run(G: PermGroup):\n    return G.conj(0, 1)\n",
        "cli.py": "from .mckay import run\n\nrun(None)\n",
    }
    assert _callerless(package, []) == ["cyclotomic.py Cyc.conj"]
    assert _callerless(package, ["from charcorr.cyclotomic import Cyc\n\nCyc().conj()\n"]) == []
    assert _callerless(package, ['PATH = "Cyc.conj"\n']) == []

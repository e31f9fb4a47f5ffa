"""Every module of the package uses what it imports and defines what it exports,
and importing a module loads only the modules it rests on.

The first checks read the sources with the standard ``ast`` module only,
so they need no linter: an import left behind by a deletion, or an
``__all__`` entry whose definition is gone, fails here.  The last one
imports each module in a fresh interpreter and lists what got loaded.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "affgeo"
MODULES = sorted(PACKAGE.glob("*.py"))


def tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported(module):
    """The names an ``import`` statement anywhere in the module binds."""
    names = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported(module):
    """The entries of the module's ``__all__``, or ``None`` if it has none."""
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return None


def defined(module):
    """The names the module's top level binds."""
    names = set(imported(module))
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def used(module):
    """The names the module reads, its ``__all__`` entries included."""
    names = {n.id for n in ast.walk(module)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return names | set(exported(module) or ())


def test_the_package_modules_are_found():
    assert {"__init__.py", "phase.py", "symexpr.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    module = tree(path)
    unused = {name: line for name, line in imported(module).items()
              if name not in used(module)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_all_entry_is_defined(path):
    module = tree(path)
    missing = sorted(set(exported(module) or ()) - defined(module))
    assert not missing, f"{path.name} exports names it does not define: {missing}"


def imported_modules(module):
    """The top-level names of the absolute modules the module imports from."""
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    # a dataclass generates the code of its methods when its module is imported
    assert "dataclasses" not in imported_modules(tree(path))


BASE = {"_immutable", "reporting", "symexpr"}
LOADS = {
    "symexpr": {"_immutable", "symexpr"},
    "reporting": {"_immutable", "reporting"},
    "affine": {"_immutable", "affine"},
    "duality": {"_immutable", "affine", "duality", "symexpr"},
    "brackets": BASE | {"affine", "duality", "brackets"},
    "phase": BASE | {"phase"},
    "mechanics": BASE | {"phase", "mechanics"},
    "cli": BASE | {"affine", "duality", "brackets", "phase", "mechanics", "cli"},
}


@pytest.mark.parametrize("name", sorted(LOADS))
def test_importing_a_module_loads_only_its_stack(name):
    # the geometry stack (affine, duality, brackets) and the mechanics stack
    # (phase, mechanics) share only the base; the package re-exports nothing
    code = (f"import sys, affgeo.{name}; "
            "print(*(m for m in sys.modules if m.startswith('affgeo.')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert set(done.stdout.split()) == {f"affgeo.{m}" for m in LOADS[name]}


def test_importing_the_cli_loads_no_configparser():
    # cli.read_ini reads scenario files; configparser is the tests' reference only
    code = "import sys, affgeo.cli; print(*sorted(m for m in sys.modules if 'configparser' in m))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []

#!/usr/bin/env python3
"""List the functions of ``src/affgeo`` that no bundled scenario runs.

Runs every bundled scenario through ``affgeo.cli.main`` in this one
process under ``sys.settrace``, and prints each function or method of
the package that was never called: its file, first line, qualified name
and length in lines, then the total.  Tracing starts after the package
is imported, so code that runs only at import counts as unreached too.
The list gates nothing; it shows which code only the tests reach, or
nothing at all.

    PYTHONPATH=src python scripts/unreached.py
"""

import ast
import contextlib
import io
import sys
import tempfile
from importlib import resources
from pathlib import Path

from affgeo import cli

SRC = Path(cli.__file__).resolve().parent


def functions(path: Path):
    """(first line, qualified name, lines) of each function defined in ``path``;
    the first line is that of the first decorator, as in ``co_firstlineno``."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((first, prefix + child.name, child.end_lineno - first + 1))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def main() -> int:
    names = sorted(p.stem for p in (resources.files("affgeo") / "scenarios").iterdir()
                   if p.name.endswith(".ini"))
    called = set()  # (file, first line) of each code object called

    def trace(frame, event, arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory() as out:
        for name in names:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                sys.settrace(trace)
                try:
                    cli.main(["run", name, "--out", out])
                finally:
                    sys.settrace(None)
    total = lines = 0
    for path in sorted(SRC.glob("*.py")):
        for first, name, length in functions(path):
            if (str(path), first) not in called:
                print(f"{path.relative_to(SRC.parents[1])}:{first} {name} ({length} lines)")
                total, lines = total + 1, lines + length
    print(f"{total} functions ({lines} lines) that no bundled scenario runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

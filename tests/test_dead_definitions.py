"""Every module-level function and class of the package is used or exported.

The scan reads the package source with ``ast``: a definition counts as used
when a name or attribute of its name is read in any top-level statement of
the package other than the definition itself, so a recursive function is
not its own user and an import alone uses nothing.
"""

import ast
from pathlib import Path

import flowgrad

SRC = Path(flowgrad.__file__).parent

# the benchmark's tracer wraps these kernels by name, to time the backward
# passes of the element kernels; one the package calls again leaves the list
ALLOWED = ["kernels.advection_bwd", "kernels.coefmass_bwd"]


def _read_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_definition_is_used_or_exported():
    definitions, users = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            users.append((stmt, _read_names(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt))
    unused = [f"{module}.{stmt.name}" for module, stmt in definitions
              if stmt.name not in flowgrad.__all__
              and not any(stmt.name in names for user, names in users
                          if user is not stmt)]
    assert sorted(unused) == ALLOWED

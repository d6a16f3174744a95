"""Every module-level function, class and assigned name of the package is
used or exported.

The scan reads the package source with ``ast``: a definition counts as used
when a name or attribute of its name is read in any top-level statement of
the package other than the definition itself, so a recursive function is
not its own user and an import alone uses nothing.  A top-level assignment
defines each plain name it binds; dunder names such as ``__all__`` are
left out.
"""

import ast
from pathlib import Path

import flowgrad

SRC = Path(flowgrad.__file__).parent

# the benchmark's tracer wraps these kernels by name, to time the backward
# passes of the element kernels; one the package calls again leaves the
# list.  The benchmark harness records accel.USE_NUMBA in its result files.
ALLOWED = ["accel.USE_NUMBA", "kernels.advection_bwd", "kernels.coefmass_bwd"]


def _read_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
            and not sub.id.startswith("__")]


def test_every_definition_is_used_or_exported():
    definitions, users = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            users.append((stmt, _read_names(stmt)))
            definitions += [(path.stem, name, stmt)
                            for name in _defined_names(stmt)]
    unused = [f"{module}.{name}" for module, name, stmt in definitions
              if name not in flowgrad.__all__
              and not any(name in names for user, names in users
                          if user is not stmt)]
    assert sorted(unused) == ALLOWED

"""Every module-level function, class and assigned name of the package is
used, or on the allow-list with its reason, and so is every method and
property of its classes.

The scan reads the package source with ``ast``: a definition counts as used
when a name or attribute of its name is read in any top-level statement of
the package other than the definition itself, so a recursive function is
not its own user and an import alone uses nothing: a re-export in
``flowgrad/__init__.py`` is no use.  A top-level assignment defines each
plain name it binds; dunder names such as ``__all__`` are left out.  A
method or property counts as used when its name is read anywhere in the
package outside its own body; dunder methods, which Python calls, are left
out.
"""

import ast
from collections import Counter
from pathlib import Path

import flowgrad

SRC = Path(flowgrad.__file__).parent

# The benchmark's tracer wraps the two kernels by name, to time the backward
# passes of the element kernels, and its harness records accel.USE_NUMBA in
# its result files.  read_field_csv reads back an exported field and
# ns_residual gives the flow residual F(x): public entry points that no
# package code calls.  A definition the package reads again leaves the list.
ALLOWED = ["accel.USE_NUMBA", "grid.read_field_csv", "kernels.advection_bwd",
           "kernels.coefmass_bwd", "solver.ns_residual"]


def _reads(node):
    """Each name and attribute name read in ``node``, once per read."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _read_names(node):
    return set(_reads(node))


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
              if not any(name in names for user, names in users
                         if user is not stmt)]
    assert sorted(unused) == ALLOWED


def test_every_method_is_used():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    unused = [f"{module}.{cls.name}.{method.name}"
              for module, tree in trees.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for method in cls.body
              if isinstance(method, ast.FunctionDef)
              and not (method.name.startswith("__")
                       and method.name.endswith("__"))
              and reads[method.name] == Counter(_reads(method))[method.name]]
    assert unused == []

"""Layer spans for flowgrad, recorded from outside the package.

A :class:`Tracer` keeps spans in memory: a name, a start and end time, the
index of the enclosing span and the id of the objective evaluation that was
running.  :func:`instrumented` swaps the public entry points of each module
for timing wrappers and puts every original back when it exits:

* functions, wherever a ``flowgrad`` module binds them as an attribute, so a
  call through ``from .solver import newton_solve`` is caught as well;
* ``Tape``, ``LuFactors``, ``StructuredGrid`` and ``GridOperators`` methods;
* every ``OpDef`` in the operator registry, grouped by the module that
  defines its forward rule (``ops``, ``sparse`` or ``assembly``);
* ``scipy.sparse.linalg.splu``, the one call into SuperLU.

With ``full=False`` only the run boundary is wrapped (``build_problem``,
``lbfgs_optimize`` and the objective it receives), which is all the
end-to-end metrics need.
"""

import itertools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np
import scipy.sparse.linalg

from flowgrad import assembly, experiments, kernels, models, optimize, solver
from flowgrad import sparse, tape
from flowgrad.assembly import GridOperators
from flowgrad.grid import StructuredGrid
from flowgrad.sparse import LuFactors
from flowgrad.tape import OpDef, Tape

perf = time.perf_counter

NO_EVAL = -1


class Tracer:
    """In-memory span recorder.

    Spans live in parallel lists indexed by span id.  ``excluded[i]`` is the
    time the tracer spent on its own notes while span ``i`` was open; it is
    left out of the span's duration.
    """

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.evals = array("q")
        self.excluded = array("d")
        self.notes = {}
        self.eval_id = NO_EVAL
        self.n_evals = 0
        self._stack = []
        self._note_s = 0.0

    def __len__(self):
        return len(self.names)

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.evals.append(self.eval_id)
        self.excluded.append(self._note_s)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf())
        return i

    def close(self, i):
        self.ends[i] = perf()
        self.excluded[i] = self._note_s - self.excluded[i]
        self._stack.pop()

    def note(self, i, compute):
        """Attach ``compute()`` to span ``i``; its cost is kept out of spans."""
        t0 = perf()
        self.notes[i] = compute()
        self._note_s += perf() - t0

    def wrap(self, name, fn, note=None):
        """``fn`` recorded as span ``name``; ``note(args, result)`` on success."""

        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if note is not None:
                self.note(i, lambda: note(args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def objective(self, problem):
        """Wrap an objective: one evaluation id per call, finite loss noted.

        A call that raises keeps no note, so it counts as failed.
        """

        def evaluate(theta):
            self.eval_id = self.n_evals
            self.n_evals += 1
            i = self.open("experiments.objective")
            try:
                out = problem(theta)
            finally:
                self.close(i)
                self.eval_id = NO_EVAL
            self.notes[i] = bool(np.isfinite(out[0]))
            return out

        return evaluate

    def arrays(self):
        """(names, starts, ends, parents, evals, excluded) as numpy arrays."""
        return (np.array(self.names, dtype=object), np.array(self.starts),
                np.array(self.ends), np.array(self.parents, dtype=np.intp),
                np.array(self.evals, dtype=np.intp), np.array(self.excluded))

    def write_tsv(self, fh):
        """One line per span: name, start, end, parent, eval id, excluded."""
        fh.write("name\tstart\tend\tparent\teval\texcluded\n")
        for name, *rest in zip(self.names, self.starts, self.ends,
                               self.parents, self.evals, self.excluded):
            fh.write(name + "\t" + "\t".join(map(repr, rest)) + "\n")


def self_times(durations, parents):
    """Each span's duration minus the durations of its direct children."""
    durations = np.asarray(durations, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.intp)
    child = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], durations[has_parent])
    return durations - child


# ---------------------------------------------------------------------------
# instrumentation

def _flowgrad_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "flowgrad" or name.startswith("flowgrad.")]


def _public_functions(module):
    """Functions listed in ``module.__all__`` and defined in that module."""
    out = []
    for name in module.__all__:
        fn = getattr(module, name)
        if callable(fn) and not isinstance(fn, type) \
                and getattr(fn, "__module__", None) == module.__name__:
            out.append(fn)
    return out


def _kernel_note(args, out):
    """Computed (not counted) work of one element kernel.

    Each kernel maps (n_elems, 4) quadrature fields to (n_elems, 4, 4)
    element matrices or back, through a (4, 16) reference tensor: 2*4*16
    flops per element and field.  Bytes are the leading field and element
    arrays read plus the arrays written, in float64.
    """
    lead = list(itertools.takewhile(lambda a: np.ndim(a) >= 2, args))
    outs = out if isinstance(out, tuple) else (out,)
    arrays = lead + list(outs)
    fields = sum(a.size for a in arrays if a.ndim == 2)
    return 32 * fields, 8 * sum(a.size for a in arrays)


def _splu_note(args, lu):
    return lu.L.nnz + lu.U.nnz


def _newton_note(args, state):
    return state.newton_iterations_used


def _backward_note(args, out):
    return len(args[0].nodes)


def _lbfgs_note(args, result):
    return result.n_steps, result.rejections


@contextmanager
def instrumented(tracer, full=True):
    """Route flowgrad's entry points through ``tracer`` for the block."""
    functions = []   # (original, wrapper)
    attributes = []  # (owner, name, wrapper)

    def function(layer, fn, note=None):
        functions.append((fn, tracer.wrap(f"{layer}.{fn.__name__}", fn, note)))

    def attribute(owner, name, span, note=None):
        original = owner.__dict__[name]
        attributes.append((owner, name, tracer.wrap(span, original, note)))

    function("experiments", experiments.build_problem)
    lbfgs = tracer.wrap("optimize.lbfgs", optimize.lbfgs_optimize, _lbfgs_note)

    def lbfgs_optimize(problem, *args, **kwargs):
        return lbfgs(tracer.objective(problem), *args, **kwargs)

    functions.append((optimize.lbfgs_optimize, lbfgs_optimize))

    registry = {}
    if full:
        notes = {solver.newton_solve: _newton_note}
        for module in (models, solver, assembly, sparse):
            layer = module.__name__.rsplit(".", 1)[-1]
            for fn in _public_functions(module):
                # operators_for builds the grid's patterns and constant blocks
                function("grid" if fn is assembly.operators_for else layer, fn,
                         notes.get(fn))
        for name in ("diffusion_fwd", "diffusion_bwd", "advection_fwd",
                     "advection_bwd", "coefmass_fwd", "coefmass_bwd"):
            attribute(kernels, name, f"kernels.{name}", _kernel_note)
        attribute(Tape, "apply", "tape.apply")
        attribute(Tape, "backward", "tape.backward", _backward_note)
        attribute(LuFactors, "solve", "sparse.LuFactors.solve")
        attribute(LuFactors, "solve_transpose",
                  "sparse.LuFactors.solve_transpose")
        attribute(StructuredGrid, "__init__", "grid.StructuredGrid")
        attribute(GridOperators, "system_layout", "grid.system_layout")
        attribute(scipy.sparse.linalg, "splu", "sparse.splu", _splu_note)
        for name, opdef in tape._REGISTRY.items():
            layer = opdef.forward.__module__.rsplit(".", 1)[-1]
            registry[name] = OpDef(
                tracer.wrap(f"{layer}.op.{name}.fwd", opdef.forward),
                None if opdef.backward is None else
                tracer.wrap(f"{layer}.op.{name}.bwd", opdef.backward))

    undo = []
    try:
        wrappers = {id(fn): wrapper for fn, wrapper in functions}
        for module in _flowgrad_modules():
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    undo.append((module, name, value))
                    setattr(module, name, wrapper)
        for owner, name, wrapper in attributes:
            undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, wrapper)
        for name, opdef in registry.items():
            undo.append((tape._REGISTRY, name, tape._REGISTRY[name]))
            tape._REGISTRY[name] = opdef
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            if owner is tape._REGISTRY:
                owner[name] = original
            else:
                setattr(owner, name, original)


# ---------------------------------------------------------------------------
# per-layer metrics

_SELF_GROUPS = {
    "sparse.splu": "sparse.lu_factor_s",
    "sparse.LuFactors.solve": "sparse.lu_solve_s",
    "sparse.LuFactors.solve_transpose": "sparse.lu_solve_s",
    "tape.apply": "tape.apply_self_s",
    "tape.backward": "tape.backward_self_s",
    "experiments.objective": "experiments.objective_self_s",
    "optimize.lbfgs": "optimize.self_s",
}


def self_time_group(name):
    """The self-time bucket of a span name, named like the metric it feeds."""
    if name in _SELF_GROUPS:
        return _SELF_GROUPS[name]
    if name.startswith("sparse."):
        return ("sparse.solve_self_s" if "sparse_solve" in name
                else "sparse.spmv_self_s")
    return f"{name.split('.', 1)[0]}.self_s"


def layer_metrics(tracer, runs):
    """Per-layer metrics per run, from the spans of ``runs`` traced calls.

    Seconds and counts are totals divided by ``runs``, except the per-
    evaluation counts (``sparse.lu_count``, ``tape.nodes``), the means
    (``solver.newton_iters``, ``sparse.lu_fill_nnz``) and the ratio
    ``optimize.evals_per_step``.  Also returns self time per bucket.
    """
    names, starts, ends, parents, evals, excluded = tracer.arrays()
    dur = ends - starts - excluded
    own = self_times(dur, parents)
    notes = tracer.notes
    # a few dozen distinct names over up to a few 100k spans
    distinct, which = np.unique(names.astype(str), return_inverse=True)

    def select(pred):
        return np.isin(which, [k for k, n in enumerate(distinct) if pred(n)])

    def exact(name):
        return names == name

    def total(mask, values=dur):
        return float(values[mask].sum()) / runs

    def outermost(mask):
        parent_in = np.zeros_like(mask)
        has_parent = parents >= 0
        parent_in[has_parent] = mask[parents[has_parent]]
        return mask & ~parent_in

    def note_values(mask):
        return [notes[i] for i in np.flatnonzero(mask) if i in notes]

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    objective = exact("experiments.objective")
    n_evals = int(objective.sum())
    lbfgs = exact("optimize.lbfgs")
    lbfgs_notes = note_values(lbfgs)
    steps = sum(n for n, _ in lbfgs_notes)
    report_s = 0.0
    for i in np.flatnonzero(lbfgs):
        run = parents[i]
        if run >= 0 and names[run] == "experiments.run":
            report_s += ends[run] - ends[i]

    solver_span = select(lambda n: n.startswith("solver."))
    newton = exact("solver.newton_solve")
    heat = exact("solver.heat_solve")
    splu = exact("sparse.splu")
    in_eval = evals >= 0
    backward = exact("tape.backward")
    assembly_fwd = select(lambda n: n.startswith("assembly.op.")
                          and n.endswith(".fwd"))
    assembly_bwd = select(lambda n: n.startswith("assembly.op.")
                          and n.endswith(".bwd"))
    ops_fwd = select(lambda n: n.startswith("ops.op.") and n.endswith(".fwd"))
    ops_bwd = select(lambda n: n.startswith("ops.op.") and n.endswith(".bwd"))
    kernel = select(lambda n: n.startswith("kernels."))
    kernel_notes = note_values(kernel)
    grid = select(lambda n: n.startswith("grid."))

    metrics = {
        "optimize.evals": n_evals / runs,
        "optimize.evals_per_step": n_evals / steps if steps else 0.0,
        "optimize.rejected": sum(r for _, r in lbfgs_notes) / runs,
        "optimize.self_s": total(lbfgs, own),
        "experiments.objective_self_s": total(objective, own),
        "experiments.report_s": report_s / runs,
        "models.calls": float(exact("models.eval_field_on_grid").sum()) / runs,
        "models.eval_s": total(exact("models.eval_field_on_grid")),
        "solver.s": total(outermost(solver_span)),
        "solver.self_s": total(solver_span, own),
        "solver.newton_s": total(newton),
        "solver.newton_self_s": total(newton, own),
        "solver.newton_iters": mean(note_values(newton)),
        "solver.heat_s": total(heat),
        "solver.heat_self_s": total(heat, own),
        "solver.transport_s": total(exact("solver.transport_integrate")),
        "sparse.lu_count": (float((splu & in_eval).sum()) / n_evals
                            if n_evals else 0.0),
        "sparse.lu_factor_s": total(splu),
        "sparse.lu_fill_nnz": mean(note_values(splu)),
        "sparse.lu_solve_s": total(select(
            lambda n: n.startswith("sparse.LuFactors."))),
        "sparse.solve_self_s": total(select(
            lambda n: n.startswith("sparse.") and "sparse_solve" in n), own),
        "sparse.spmv_s": total(select(lambda n: n.startswith("sparse.op.spmv"))),
        "assembly.calls": float(assembly_fwd.sum()) / runs,
        "assembly.fwd_s": total(assembly_fwd),
        "assembly.bwd_s": total(assembly_bwd),
        "assembly.self_s": total(select(lambda n: n.startswith("assembly.")),
                                 own),
        "kernels.calls": float(kernel.sum()) / runs,
        "kernels.s": total(kernel),
        "kernels.flops": sum(f for f, _ in kernel_notes) / runs,
        "kernels.bytes": sum(b for _, b in kernel_notes) / runs,
        "tape.nodes": mean(note_values(backward & in_eval)),
        "tape.apply_self_s": total(exact("tape.apply"), own),
        "tape.backward_self_s": total(backward, own),
        "ops.calls": float(ops_fwd.sum()) / runs,
        "ops.fwd_s": total(ops_fwd),
        "ops.bwd_s": total(ops_bwd),
        "grid.setup_s": total(outermost(grid)),
    }

    groups = {}
    for name, value in zip(distinct, np.bincount(which, weights=own)):
        key = self_time_group(name)
        groups[key] = groups.get(key, 0.0) + float(value)
    self_by_group = {k: v / runs for k, v in
                     sorted(groups.items(), key=lambda kv: -kv[1])}
    return metrics, self_by_group

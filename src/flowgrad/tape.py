"""Tape-based reverse-mode automatic differentiation over dense float64 arrays.

The forward simulation is recorded as an append-only list of nodes.  Each node
holds the output of one operator plus whatever context its backward rule needs.
Nodes are referenced by integer position, so the graph is a DAG in topological
order by construction.  ``backward`` walks the list in reverse, accumulating
adjoints additively when a node fans out to several consumers.

Operators are registered globally ahead of time (see :mod:`flowgrad.ops`,
:mod:`flowgrad.models`, :mod:`flowgrad.sparse` and :mod:`flowgrad.solver`);
coarse-grained custom operators such as the network, the Newton flow solve
or the heat solve are ordinary registry entries.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, GraphError, NumericError

__all__ = [
    "Tape",
    "TapeNode",
    "OpDef",
    "register_op",
    "finite_difference_check",
]


@dataclass
class OpDef:
    """Forward/backward pair for one operator.

    ``forward(values, ctx)`` maps the input arrays to the output array.
    ``backward(grad, ctx)`` maps the downstream gradient to a tuple with one
    entry per input: an array with that input's shape, or ``None`` for inputs
    the operator does not differentiate.
    """

    forward: callable
    backward: callable


_REGISTRY: dict[str, OpDef] = {}


def register_op(name, forward, backward):
    if name in _REGISTRY:
        raise ContractError(f"operator {name!r} is already registered")
    _REGISTRY[name] = OpDef(forward, backward)


@dataclass
class TapeNode:
    op: str
    inputs: tuple
    value: np.ndarray
    ctx: dict = field(default_factory=dict)


def _as_array(value):
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


class Tape:
    """Append-only computational graph with reverse-mode differentiation."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.variable_ids: list[int] = []

    def __len__(self):
        return len(self.nodes)

    def constant(self, value):
        """Record a leaf that gradients flow into but are not reported for."""
        return self.record("const", (), _as_array(value))

    def variable(self, value):
        """Record a trainable leaf; ``backward`` reports its gradient."""
        ref = self.record("var", (), _as_array(value))
        self.variable_ids.append(ref)
        return ref

    def value(self, ref):
        return self.nodes[ref].value

    def record(self, op, inputs, value, ctx=None):
        """Append a node and return its reference.

        ``inputs`` must reference earlier nodes; anything else is a graph
        construction error.
        """
        n = len(self.nodes)
        inputs = tuple(inputs)
        for ref in inputs:
            if not 0 <= ref < n:
                raise GraphError(
                    f"op {op!r}: input reference {ref} is not on the tape "
                    f"(size {n})"
                )
        self.nodes.append(TapeNode(op, inputs, _as_array(value), ctx or {}))
        return n

    def apply(self, op, inputs, ctx=None):
        """Run a registered operator's forward pass and record the result."""
        opdef = _REGISTRY.get(op)
        if opdef is None:
            raise GraphError(f"unknown operator {op!r}")
        ctx = ctx or {}
        values = [self.value(ref) for ref in inputs]
        out = opdef.forward(values, ctx)
        return self.record(op, inputs, out, ctx)

    def backward(self, loss_ref):
        """Accumulate d(loss)/d(node) in reverse topological order.

        Returns a dict mapping every variable reference to its gradient array
        (zeros when the loss does not depend on it).  Adjoints of non-variable
        nodes are dropped after the traversal.
        """
        if not 0 <= loss_ref < len(self.nodes):
            raise GraphError(f"loss reference {loss_ref} is not on the tape")
        loss = self.nodes[loss_ref]
        if loss.value.shape != (1,):
            raise ContractError(
                f"loss must be scalar (shape (1,)), got {loss.value.shape}"
            )

        grads: dict[int, np.ndarray] = {loss_ref: np.ones(1)}
        for ref in range(loss_ref, -1, -1):
            gout = grads.pop(ref, None)
            if gout is None:
                continue
            node = self.nodes[ref]
            if not node.inputs:
                if node.op == "var":
                    grads[ref] = gout
                continue
            opdef = _REGISTRY.get(node.op)
            if opdef is None or opdef.backward is None:
                raise GraphError(f"operator {node.op!r} has no backward rule")
            gins = opdef.backward(gout, node.ctx)
            if len(gins) != len(node.inputs):
                raise ContractError(
                    f"operator {node.op!r} returned {len(gins)} gradients for "
                    f"{len(node.inputs)} inputs"
                )
            for in_ref, gin in zip(node.inputs, gins):
                if gin is None:
                    continue
                if not np.all(np.isfinite(gin)):
                    raise NumericError(
                        f"non-finite gradient produced by operator {node.op!r}"
                    )
                if gin.shape != self.nodes[in_ref].value.shape:
                    raise ContractError(
                        f"operator {node.op!r}: gradient shape {gin.shape} does "
                        f"not match input shape {self.nodes[in_ref].value.shape}"
                    )
                acc = grads.get(in_ref)
                if acc is None:
                    grads[in_ref] = gin.copy()
                else:
                    acc += gin

        return {
            ref: grads.get(ref, np.zeros_like(self.nodes[ref].value))
            for ref in self.variable_ids
            if ref <= loss_ref
        } | {
            ref: np.zeros_like(self.nodes[ref].value)
            for ref in self.variable_ids
            if ref > loss_ref
        }


def finite_difference_check(f, theta0, h=1e-5, indices=None):
    """Compare a reverse-mode gradient with central finite differences.

    ``f(theta) -> (loss, gradient)`` must evaluate the scalar objective and its
    reverse-mode gradient.  Only the loss value is used at the perturbed
    points.  Returns ``max_i |g_ad[i] - g_fd[i]| / (|g_fd[i]| + 1e-12)`` over
    the checked ``indices`` (all coordinates when omitted).
    """
    theta0 = np.asarray(theta0, dtype=np.float64)
    _, grad = f(theta0)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta0.shape:
        raise ContractError(
            f"gradient shape {grad.shape} does not match parameter shape "
            f"{theta0.shape}"
        )
    if indices is None:
        indices = range(theta0.size)

    worst = 0.0
    flat = theta0.ravel()
    for i in indices:
        step = np.zeros_like(flat)
        step[i] = h
        try:
            lp = float(f((flat + step).reshape(theta0.shape))[0])
            lm = float(f((flat - step).reshape(theta0.shape))[0])
        except Exception as exc:
            raise NumericError(
                f"forward evaluation failed at perturbed index {i}: {exc}"
            ) from exc
        g_fd = (lp - lm) / (2.0 * h)
        err = abs(grad.ravel()[i] - g_fd) / (abs(g_fd) + 1e-12)
        worst = max(worst, err)
    return worst

"""Tape and operator-library unit tests.

Analytic gradients for the small composites used here:
  * loss = sum(x)            -> dloss/dx = ones
  * loss = 0.5 * dot(x, x)   -> dloss/dx = x
  * loss = sum(A @ x)        -> dloss/dx = column sums of A
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import flowgrad
from flowgrad import ops, tape
from flowgrad.errors import ContractError, GraphError, NumericError
from flowgrad.models import MlpLayout, mlp_eval
from flowgrad.tape import Tape, finite_difference_check, register_op
from tape_oracle import concat1d, div, dot, set_at


def test_sum_gradient_is_ones():
    t = Tape()
    x = t.variable([1.0, -2.0, 3.5])
    loss = ops.vsum(t, x)
    grads = t.backward(loss)
    np.testing.assert_allclose(grads[x], np.ones(3))


def test_half_dot_gradient_is_x():
    x0 = np.array([0.3, -1.2, 2.0, 0.7])
    t = Tape()
    x = t.variable(x0)
    loss = ops.scale(t, dot(t, x, x), 0.5)
    grads = t.backward(loss)
    np.testing.assert_allclose(grads[x], x0, rtol=0, atol=1e-15)


def test_fanout_accumulates_additively():
    # loss = dot(x, x) + sum(x): gradient 2x + 1.
    x0 = np.array([0.5, -0.25, 1.5])
    t = Tape()
    x = t.variable(x0)
    loss = ops.add(t, dot(t, x, x), ops.vsum(t, x))
    grads = t.backward(loss)
    np.testing.assert_allclose(grads[x], 2 * x0 + 1, rtol=1e-14)


def test_backward_is_repeatable():
    t = Tape()
    x = t.variable([1.0, 2.0])
    loss = dot(t, x, x)
    g1 = t.backward(loss)[x].copy()
    g2 = t.backward(loss)[x]
    np.testing.assert_array_equal(g1, g2)


def test_unused_variable_gets_zero_gradient():
    t = Tape()
    x = t.variable([1.0, 2.0])
    y = t.variable([3.0])
    loss = dot(t, x, x)
    grads = t.backward(loss)
    np.testing.assert_array_equal(grads[y], np.zeros(1))


def test_non_scalar_loss_rejected():
    t = Tape()
    x = t.variable([1.0, 2.0])
    with pytest.raises(ContractError):
        t.backward(x)


def test_unknown_operator_rejected():
    t = Tape()
    x = t.variable([1.0])
    with pytest.raises(GraphError):
        t.apply("no_such_op", (x,))


def test_forward_reference_rejected():
    t = Tape()
    with pytest.raises(GraphError):
        t.record("add", (0, 1), np.zeros(1))


def test_duplicate_registration_rejected():
    with pytest.raises(ContractError):
        register_op("add", lambda v, c: v[0], lambda g, c: (g,))


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_nan_gradient_names_producing_op():
    t = Tape()
    x = t.variable([1.0])
    y = div(t, t.constant([1.0]), ops.add_scalar(t, x, -1.0))
    # 1/(x-1) at x=1 is inf; its backward produces non-finite gradients.
    loss = ops.vsum(t, y)
    with pytest.raises(NumericError, match="div"):
        t.backward(loss)


def test_scalar_broadcast_forward_and_backward():
    # the oracle's division broadcasts with the package's shape rules
    t = Tape()
    x = t.variable([1.0, 2.0, 3.0])
    c = t.variable([2.0])
    loss = ops.vsum(t, div(t, x, c))
    grads = t.backward(loss)
    # d/dc sum(x / c) = -sum(x) / c^2, d/dx = 1 / c
    np.testing.assert_allclose(grads[c], [-1.5])
    np.testing.assert_allclose(grads[x], [0.5, 0.5, 0.5])


def test_square_clamp_slice_concat_chain_matches_fd():
    def f(theta):
        t = Tape()
        x = t.variable(theta)
        a = ops.slice1d(t, x, 0, 3)
        b = ops.slice1d(t, x, 3, 6)
        y = concat1d(t, [ops.square(t, a), ops.clamp_min(t, b, 0.1)])
        loss = dot(t, y, y)
        return t.value(loss)[0], t.backward(loss)[x]

    theta = np.array([0.4, -0.8, 1.2, 0.5, 0.3, -0.6])
    # clamp kink sits at 0.1; keep sample points away from it
    assert finite_difference_check(f, theta) < 1e-6


def test_clamp_min_counts_clamped_entries():
    t = Tape()
    x = t.variable([-1.0, 0.05, 0.2])
    ref = ops.clamp_min(t, x, 0.1)
    assert t.nodes[ref].ctx["clamped"] == 2
    np.testing.assert_allclose(t.value(ref), [0.1, 0.1, 0.2])


def test_set_at_overwrites_and_blocks_gradient():
    def f(theta):
        t = Tape()
        x = t.variable(theta)
        vals = t.constant([5.0, 6.0])
        y = set_at(t, x, np.array([1, 3]), vals)
        loss = dot(t, y, y)
        return t.value(loss)[0], t.backward(loss)[x]

    theta = np.array([1.0, 2.0, 3.0, 4.0])
    loss, grad = f(theta)
    assert loss == pytest.approx(1 + 25 + 9 + 36)
    np.testing.assert_allclose(grad, [2.0, 0.0, 6.0, 0.0])
    assert finite_difference_check(f, theta) < 1e-6


def test_set_at_duplicate_indices_rejected():
    t = Tape()
    x = t.variable([1.0, 2.0, 3.0])
    vals = t.constant([0.0, 0.0])
    with pytest.raises(ContractError):
        set_at(t, x, np.array([1, 1]), vals)


def test_gather_scatter_adds_duplicates():
    def f(theta):
        t = Tape()
        x = t.variable(theta)
        y = ops.gather(t, x, np.array([0, 0, 2]))
        loss = ops.vsum(t, y)
        return t.value(loss)[0], t.backward(loss)[x]

    _, grad = f(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(grad, [2.0, 0.0, 1.0])


def test_one_layer_mlp_operator_matches_fd():
    # one tanh layer of 3 over 7 points of (x, y), then a linear output
    rng = np.random.default_rng(2)
    x_in = rng.normal(size=(7, 2))
    layout = MlpLayout((2, 3, 1))

    def f(theta):
        t = Tape()
        th = t.variable(theta)
        out = mlp_eval(t, layout, th, x_in)
        loss = dot(t, out, out)
        return t.value(loss)[0], t.backward(loss)[th]

    assert finite_difference_check(
        f, rng.normal(size=layout.n_params) * 0.5) < 1e-6


def test_fd_check_reports_gradient_shape_mismatch():
    def f(theta):
        return float(theta.sum()), np.ones(theta.size + 1)

    with pytest.raises(ContractError):
        finite_difference_check(f, np.zeros(3))


def test_div_square_add_scalar_chain_matches_fd():
    def f(theta):
        t = Tape()
        x = t.variable(theta)
        y = div(t, ops.square(t, x), ops.add_scalar(t, x, 3.0))
        loss = ops.vsum(t, ops.scale(t, y, -1.0))
        return t.value(loss)[0], t.backward(loss)[x]

    assert finite_difference_check(f, np.array([0.5, 1.5, -1.0])) < 1e-6


class _AppliedNames(ast.NodeVisitor):
    """Strings and called names of a module that can apply an operator.

    Left out: ``__all__``, ``register_op`` calls, and the name of the
    function being defined, so an ``ops`` helper that only wraps
    ``tape.apply("name", ...)`` counts only where it is called.
    """

    def __init__(self):
        self.function, self.names = None, set()

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Assign(self, node):
        if not any(getattr(t, "id", None) == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name):
            called = func.id
        elif isinstance(func, ast.Attribute) and \
                getattr(func.value, "id", None) == "ops":
            called = func.attr
        else:
            called = None
        if called == "register_op":
            return
        if called is not None and called != self.function:
            self.names.add(called)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value != self.function:
            self.names.add(node.value)


def test_every_registered_operator_is_applied_in_the_package():
    visitor = _AppliedNames()
    for path in sorted(Path(flowgrad.__file__).parent.glob("*.py")):
        visitor.visit(ast.parse(path.read_text()))
    unused = sorted(name for name, opdef in tape._REGISTRY.items()
                    if opdef.forward.__module__.startswith("flowgrad.")
                    and name not in visitor.names)
    assert unused == []

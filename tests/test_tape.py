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
from flowgrad.models import MlpLayout
from flowgrad.tape import Tape, finite_difference_check, register_op
from tape_oracle import add, concat1d, div, dot, scale, set_at, slice1d


def _clamp(t, x, floor):
    """``x`` floored at ``floor``: a ``field`` node with no network."""
    return t.apply("field", (x,), {"layout": None, "floor": floor})


def test_sum_gradient_is_ones():
    t = Tape()
    x = t.variable([1.0, -2.0, 3.5])
    loss = dot(t, x, t.constant(np.ones(3)))
    grads = t.backward(loss)
    np.testing.assert_allclose(grads[x], np.ones(3))


def test_half_dot_gradient_is_x():
    x0 = np.array([0.3, -1.2, 2.0, 0.7])
    t = Tape()
    x = t.variable(x0)
    loss = scale(t, dot(t, x, x), 0.5)
    grads = t.backward(loss)
    np.testing.assert_allclose(grads[x], x0, rtol=0, atol=1e-15)


def test_fanout_accumulates_additively():
    # loss = dot(x, x) + sum(x): gradient 2x + 1.
    x0 = np.array([0.5, -0.25, 1.5])
    t = Tape()
    x = t.variable(x0)
    loss = add(t, dot(t, x, x), dot(t, x, t.constant(np.ones(3))))
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
        t.record("misfit", (0, 1), np.zeros(1))


def test_duplicate_registration_rejected():
    with pytest.raises(ContractError):
        register_op("misfit", lambda v, c: v[0], lambda g, c: (g,))


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_nan_gradient_names_producing_op():
    t = Tape()
    x = t.variable([1.0])
    y = div(t, t.constant([1.0]), add(t, x, t.constant([-1.0])))
    # 1/(x-1) at x=1 is inf; its backward produces non-finite gradients.
    loss = scale(t, y, 2.0)
    with pytest.raises(NumericError, match="div"):
        t.backward(loss)


def test_scalar_broadcast_forward_and_backward():
    # the oracle's division broadcasts with the package's shape rules
    t = Tape()
    x = t.variable([1.0, 2.0, 3.0])
    c = t.variable([2.0])
    loss = dot(t, div(t, x, c), t.constant(np.ones(3)))
    grads = t.backward(loss)
    # d/dc sum(x / c) = -sum(x) / c^2, d/dx = 1 / c
    np.testing.assert_allclose(grads[c], [-1.5])
    np.testing.assert_allclose(grads[x], [0.5, 0.5, 0.5])


def test_square_clamp_slice_concat_chain_matches_fd():
    def f(theta):
        t = Tape()
        x = t.variable(theta)
        a = slice1d(t, x, 0, 3)
        b = slice1d(t, x, 3, 6)
        y = concat1d(t, [scale(t, a, -2.0), _clamp(t, b, 0.1)])
        loss = dot(t, y, y)
        return t.value(loss)[0], t.backward(loss)[x]

    theta = np.array([0.4, -0.8, 1.2, 0.5, 0.3, -0.6])
    # clamp kink sits at 0.1; keep sample points away from it
    assert finite_difference_check(f, theta) < 1e-6


def test_field_counts_clamped_entries():
    t = Tape()
    x = t.variable([-1.0, 0.05, 0.2])
    ref = _clamp(t, x, 0.1)
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


def test_misfit_scatter_adds_duplicates():
    # (x0 - 0)^2 twice and (x2 - 0)^2: the gradient 2 r adds at a repeat
    t = Tape()
    x = t.variable([1.0, 2.0, 3.0])
    loss = ops.misfit(t, [(x, 0)], 3, np.array([0, 0, 2]), [np.zeros(3)])
    assert t.value(loss)[0] == 11.0
    np.testing.assert_array_equal(t.backward(loss)[x], [4.0, 0.0, 6.0])


def test_misfit_sums_fields_in_order():
    t = Tape()
    u = t.variable([1.0, 2.0, 3.0, 4.0])
    w = t.variable([10.0, 20.0, 30.0, 40.0])
    loss = ops.misfit(t, [(u, 0), (w, 0)], 4, [3, 1],
                      ([0.5, 0.5], [1.0, 2.0]))
    # residuals [3.5, 1.5] and [39, 18], each field's squares summed first
    assert t.value(loss)[0] == (3.5 ** 2 + 1.5 ** 2) + (39.0 ** 2 + 18.0 ** 2)
    grads = t.backward(loss)
    np.testing.assert_array_equal(grads[u], [0.0, 3.0, 0.0, 7.0])
    np.testing.assert_array_equal(grads[w], [0.0, 36.0, 0.0, 78.0])


def test_misfit_reads_windows_of_one_node_in_place():
    # u and w as the two halves of one node: one input, the same loss and
    # the same gradient as two nodes
    t = Tape()
    x = t.variable([1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0])
    loss = ops.misfit(t, [(x, 0), (x, 4)], 4, [3, 1],
                      ([0.5, 0.5], [1.0, 2.0]))
    assert t.nodes[loss].inputs == (x,)
    assert t.value(loss)[0] == (3.5 ** 2 + 1.5 ** 2) + (39.0 ** 2 + 18.0 ** 2)
    np.testing.assert_array_equal(t.backward(loss)[x],
                                  [0.0, 3.0, 0.0, 7.0, 0.0, 36.0, 0.0, 78.0])


@pytest.mark.parametrize("locations", [[0, 3], [-1, 0]])
def test_misfit_rejects_locations_outside_the_window(locations):
    # the window [0, 3) of a node of 6: location 3 would read the next
    # field, as a u location would read v in the flow state
    t = Tape()
    x = t.variable([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    with pytest.raises(ContractError, match="outside length 3"):
        ops.misfit(t, [(x, 0)], 3, locations, (np.zeros(2),))


@pytest.mark.parametrize("start", [-1, 4])
def test_misfit_rejects_a_window_past_its_node(start):
    t = Tape()
    x = t.variable(np.zeros(6))
    with pytest.raises(ContractError, match="window"):
        ops.misfit(t, [(x, start)], 3, [0, 2], (np.zeros(2),))


@pytest.mark.parametrize("data", [(), (np.zeros(2), np.zeros(2)),
                                  (np.zeros(3),)])
def test_misfit_rejects_data_that_do_not_match(data):
    t = Tape()
    x = t.variable(np.zeros(6))
    with pytest.raises(ContractError, match="op 'misfit'"):
        ops.misfit(t, [(x, 0)] if data else [], 3, [0, 2], data)


def test_misfit_chain_matches_fd():
    data = (np.array([0.3, -0.1, 0.2]), np.array([1.0, 0.5, -0.5]))

    def f(theta):
        t = Tape()
        x = t.variable(theta)
        b = scale(t, slice1d(t, x, 4, 8), 3.0)
        loss = ops.misfit(t, [(x, 0), (b, 0)], 4, [2, 0, 3], data)
        return t.value(loss)[0], t.backward(loss)[x]

    theta = np.random.default_rng(8).normal(size=8)
    assert finite_difference_check(f, theta) < 1e-6


def test_package_registers_only_what_an_objective_records():
    names = {name: opdef.forward.__module__
             for name, opdef in tape._REGISTRY.items()
             if opdef.forward.__module__.startswith("flowgrad.")}
    assert names == {
        "misfit": "flowgrad.ops", "field": "flowgrad.models",
        "steady_flow": "flowgrad.solver", "heat_solve": "flowgrad.solver"}


def test_one_layer_mlp_operator_matches_fd():
    # one tanh layer of 3 over 7 points of (x, y), then a linear output: a
    # field node with no offset and no floor
    rng = np.random.default_rng(2)
    x_in = rng.normal(size=(7, 2))
    layout = MlpLayout((2, 3, 1))

    def f(theta):
        t = Tape()
        th = t.variable(theta)
        out = t.apply("field", (th,), {"layout": layout, "points": x_in,
                                       "offset": 0.0, "floor": -np.inf})
        loss = dot(t, out, out)
        return t.value(loss)[0], t.backward(loss)[th]

    assert finite_difference_check(
        f, rng.normal(size=layout.n_params) * 0.5) < 1e-6


def test_fd_check_reports_gradient_shape_mismatch():
    def f(theta):
        return float(theta.sum()), np.ones(theta.size + 1)

    with pytest.raises(ContractError):
        finite_difference_check(f, np.zeros(3))


def test_fd_check_blames_the_caller_for_a_failure_at_the_start():
    # the caller chose theta0; a failure at a perturbed point is numeric
    def failing_at(bad):
        def f(theta):
            if np.array_equal(theta, bad):
                raise NumericError("non-finite residual")
            return float(theta @ theta), 2.0 * theta
        return f

    theta0 = np.zeros(2)
    with pytest.raises(ContractError, match="starting point: non-finite"):
        finite_difference_check(failing_at(theta0), theta0)
    with pytest.raises(NumericError, match="perturbed index 1"):
        finite_difference_check(failing_at(np.array([0.0, 1e-5])), theta0)


def test_fd_check_fails_a_nan_gradient():
    # max(0.0, nan) is 0.0, so a plain running max passes a NaN gradient
    def f(theta):
        return float(theta @ theta), np.full(theta.size, np.nan)

    assert np.isnan(finite_difference_check(f, np.ones(3)))


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_fd_check_keeps_a_nan_error_past_later_indices(bad):
    # a NaN loss at a perturbed point of ``bad``, and a NaN gradient there
    def nan_loss(theta):
        loss = np.nan if theta[bad] != 1.0 else float(theta @ theta)
        return loss, 2.0 * theta

    def nan_gradient(theta):
        grad = 2.0 * theta
        grad[bad] = np.nan
        return float(theta @ theta), grad

    for f in (nan_loss, nan_gradient):
        assert np.isnan(finite_difference_check(f, np.ones(3)))


def test_div_square_add_scalar_chain_matches_fd():
    def f(theta):
        t = Tape()
        x = t.variable(theta)
        y = div(t, add(t, x, t.constant([0.5])), add(t, x, t.constant([3.0])))
        z = scale(t, y, -1.0)
        loss = dot(t, z, z)
        return t.value(loss)[0], t.backward(loss)[x]

    assert finite_difference_check(f, np.array([0.5, 1.5, -1.0])) < 1e-6


class _AppliedNames(ast.NodeVisitor):
    """The operator names a module can apply.

    Two things count as a use: a string that is the first argument of an
    ``.apply(...)`` call, and a call of a named function (bare or as
    ``ops.name``) from outside its own definition.  So an ``ops`` helper
    that only wraps ``tape.apply("name", ...)`` counts only where it is
    called, and a name that only appears in a message counts not at all.
    """

    def __init__(self):
        self.function, self.names = None, set()

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name):
            called = func.id
        elif isinstance(func, ast.Attribute) and \
                getattr(func.value, "id", None) == "ops":
            called = func.attr
        else:
            called = None
        if (isinstance(func, ast.Attribute) and func.attr == "apply"
                and node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            called = node.args[0].value
        if called is not None and called != self.function:
            self.names.add(called)
        self.generic_visit(node)


def _unapplied_operators(package_dir):
    visitor = _AppliedNames()
    for path in sorted(Path(package_dir).glob("*.py")):
        visitor.visit(ast.parse(path.read_text()))
    return sorted(name for name, opdef in tape._REGISTRY.items()
                  if opdef.forward.__module__.startswith("flowgrad.")
                  and name not in visitor.names)


def test_every_registered_operator_is_applied_in_the_package():
    assert _unapplied_operators(Path(flowgrad.__file__).parent) == []


def test_operator_named_only_in_a_message_is_not_applied(tmp_path):
    # a copy of the package whose loss passes the misfit's name to a
    # check as a plain string instead of recording the operator
    for path in Path(flowgrad.__file__).parent.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    experiments = tmp_path / "experiments.py"
    text = experiments.read_text()
    assert text.count("ops.misfit(tape,") == 1
    experiments.write_text(text.replace("ops.misfit(tape,",
                                        '_check("misfit", tape,'))
    assert _unapplied_operators(tmp_path) == ["misfit"]

"""Field-model tests: layouts, initialization, the ``field`` operator."""

import numpy as np
import pytest

from flowgrad.errors import (
    ContractError,
    DivergedParameterizationError,
    NumericError,
)
from flowgrad.grid import StructuredGrid
from flowgrad.models import VARIANTS, MlpLayout, eval_field_on_grid, init_params
from flowgrad.tape import Tape, finite_difference_check
from tape_oracle import dot
from tape_oracle import mlp as oracle_mlp


def _network(tape, layout, theta, points):
    """The network output alone: a ``field`` node with no offset and no
    floor."""
    return tape.apply("field", (theta,), {"layout": layout, "points": points,
                                          "offset": 0.0, "floor": -np.inf})


def test_layout_parameter_count():
    layout = MlpLayout((2, 20, 20, 20, 1))
    assert layout.n_params == 2 * 20 + 20 + 20 * 20 + 20 + 20 * 20 + 20 + 20 + 1


def test_flatten_unflatten_roundtrip():
    layout = MlpLayout((2, 20, 20, 20, 1))
    rng = np.random.default_rng(0)
    theta = rng.normal(size=layout.n_params)
    layers = [(theta[w0:w1].reshape(fi, fo), theta[w1:b1])
              for w0, w1, b1, fi, fo in layout.slices()]
    np.testing.assert_array_equal(layout.flatten(layers), theta)


def test_init_deterministic_and_seed_sensitive():
    _, a = init_params("dnn2d", seed=5)
    _, b = init_params("dnn2d", seed=5)
    _, c = init_params("dnn2d", seed=6)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_init_xavier_bounds_and_zero_biases():
    model, theta = init_params("dnn2d", seed=1)
    slices = list(model.layout.slices())
    for w0, w1, b1, fi, fo in slices:
        bound = np.sqrt(6.0 / (fi + fo))
        assert np.max(np.abs(theta[w0:w1])) <= bound
        np.testing.assert_array_equal(theta[w1:b1], np.zeros(fo))
    # the 20 -> 20 bound from the definition
    w0, w1, _, _, _ = slices[1]
    assert np.max(np.abs(theta[w0:w1])) <= np.sqrt(6.0 / 40.0)


def test_zero_params_give_zero_raw_output():
    model, _ = init_params("dnn2d", seed=0)
    t = Tape()
    theta = t.variable(np.zeros(model.n_params))
    out = _network(t, model.layout, theta, np.array([[0.3, 0.4], [0.9, 0.1]]))
    np.testing.assert_array_equal(t.value(out), [0.0, 0.0])


def test_final_bias_passthrough_gives_constant_field():
    model, _ = init_params("dnn2d", seed=0)
    theta0 = np.zeros(model.n_params)
    *_, (w0, w1, b1, fi, fo) = model.layout.slices()
    theta0[w1:b1] = 2.5
    t = Tape()
    theta = t.variable(theta0)
    out = _network(t, model.layout, theta, np.array([[0.1, 0.2], [0.7, 0.8]]))
    np.testing.assert_array_equal(t.value(out), [2.5, 2.5])


def test_mlp_gradient_matches_fd():
    model, theta0 = init_params("dnn2d", seed=2)
    pts = np.random.default_rng(3).uniform(0, 1, size=(9, 2))

    def f(theta):
        t = Tape()
        th = t.variable(theta)
        out = _network(t, model.layout, th, pts)
        loss = dot(t, out, t.constant(np.ones(len(pts))))
        return t.value(loss)[0], t.backward(loss)[th]

    idx = np.random.default_rng(4).choice(theta0.size, size=25, replace=False)
    assert finite_difference_check(f, theta0, indices=idx) < 1e-6


def test_layered_variant_constant_along_y():
    g = StructuredGrid(6)
    model, theta0 = init_params("dnn_layered", seed=7, offset=0.01)
    t = Tape()
    theta = t.variable(theta0)
    vals = t.value(eval_field_on_grid(t, model, theta, g))
    grid_vals = vals.reshape(g.ny, g.nx)
    for iy in range(1, g.ny):
        np.testing.assert_array_equal(grid_vals[iy], grid_vals[0])


def test_pointwise_identity_above_floor():
    g = StructuredGrid(4)
    model, theta0 = init_params("pointwise", seed=0, n_nodes=g.n_nodes)
    np.testing.assert_array_equal(theta0, np.ones(g.n_nodes))
    t = Tape()
    theta = t.variable(theta0 * 3.0)
    vals = t.value(eval_field_on_grid(t, model, theta, g))
    np.testing.assert_array_equal(vals, theta0 * 3.0)


def test_dnn2d_zero_params_offset_is_constant_field():
    g = StructuredGrid(21)
    model, _ = init_params("dnn2d", seed=0, offset=1.0)
    t = Tape()
    theta = t.variable(np.zeros(model.n_params))
    vals = t.value(eval_field_on_grid(t, model, theta, g))
    assert vals.shape == (441,)
    np.testing.assert_array_equal(vals, np.ones(441))


def test_clamp_streak_raises_diverged_error():
    g = StructuredGrid(4)
    model, _ = init_params("dnn2d", seed=0, offset=-5.0)
    theta0 = np.zeros(model.n_params)
    with pytest.raises(DivergedParameterizationError):
        for _ in range(10):
            t = Tape()
            eval_field_on_grid(t, model, t.variable(theta0), g)


def test_clamp_streak_resets_on_clean_evaluation():
    g = StructuredGrid(4)
    bad_model, _ = init_params("dnn2d", seed=0, offset=-5.0)
    theta0 = np.zeros(bad_model.n_params)
    for _ in range(9):
        t = Tape()
        eval_field_on_grid(t, bad_model, t.variable(theta0), g)
    assert bad_model.clamp_streak == 9
    bad_model.offset = 1.0
    t = Tape()
    eval_field_on_grid(t, bad_model, t.variable(theta0), g)
    assert bad_model.clamp_streak == 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_parameter_rejected(variant):
    # checked for every variant: the clamp would floor a pointwise NaN
    g = StructuredGrid(4)
    model, theta0 = init_params(variant, seed=0, n_nodes=g.n_nodes)
    theta0[3] = np.nan
    t = Tape()
    with pytest.raises(NumericError, match="non-finite model parameter"):
        eval_field_on_grid(t, model, t.variable(theta0), g)


def test_bad_variant_and_missing_node_count():
    with pytest.raises(ContractError):
        init_params("cnn", seed=0)
    with pytest.raises(ContractError):
        init_params("pointwise", seed=0)


def test_tanh_bound_is_enforced():
    # guard against backend miscomputation: bound = sum|W4| + |b4|
    model, theta0 = init_params("dnn2d", seed=8)
    t = Tape()
    out = _network(t, model.layout, t.variable(theta0),
                   np.array([[0.2, 0.9], [0.5, 0.5]]))
    *_, (w0, w1, b1, _, _) = model.layout.slices()
    bound = np.abs(theta0[w0:b1]).sum()
    assert np.max(np.abs(t.value(out))) <= bound + 1e-12


# --- the field tape operator


def _plain_mlp(layout, theta, points):
    h = points
    *inner, last = layout.slices()
    for w0, w1, b1, fi, fo in inner:
        h = np.tanh(h @ theta[w0:w1].reshape(fi, fo) + theta[w1:b1])
    w0, w1, b1, fi, fo = last
    return (h @ theta[w0:w1].reshape(fi, fo) + theta[w1:b1]).reshape(-1)


@pytest.mark.parametrize("variant", ["dnn2d", "dnn_layered"])
def test_mlp_forward_matches_plain_numpy_loop(variant):
    g = StructuredGrid(9)
    model, theta0 = init_params(variant, seed=3, init_scale=2.0)
    pts = g.coords if variant == "dnn2d" else g.coords[:, :1]
    t = Tape()
    out = _network(t, model.layout, t.variable(theta0), pts)
    np.testing.assert_array_equal(t.value(out),
                                  _plain_mlp(model.layout, theta0, pts))


def test_layered_mlp_gradient_matches_fd():
    # test_mlp_gradient_matches_fd covers dnn2d
    model, theta0 = init_params("dnn_layered", seed=5, init_scale=1.5)
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 1, size=(13, model.layout.sizes[0]))
    weights = rng.normal(size=13)

    def f(theta):
        t = Tape()
        th = t.variable(theta)
        out = _network(t, model.layout, th, pts)
        loss = dot(t, out, t.constant(weights))
        return t.value(loss)[0], t.backward(loss)[th]

    # a few coordinates of every layer's weights and biases
    idx = [i for w0, w1, b1, _, _ in model.layout.slices()
           for i in (w0, (w0 + w1) // 2, w1 - 1, w1, b1 - 1)]
    assert finite_difference_check(f, theta0, indices=idx) < 1e-6


@pytest.mark.parametrize("variant", VARIANTS)
def test_field_evaluation_records_one_node(variant):
    # the network, its offset and the floor clamp are one node; here some
    # nodes clamp, and the gradient through them is exactly 0
    g = StructuredGrid(7)
    model, theta0 = init_params(variant, seed=1, init_scale=2.0, offset=0.5,
                                clamp_floor=0.6, n_nodes=g.n_nodes)
    rng = np.random.default_rng(3)
    if variant == "pointwise":
        theta0 = rng.uniform(0.0, 1.2, size=g.n_nodes)
        raw = theta0
    else:
        pts = g.coords[:, :model.layout.sizes[0]]
        raw = _plain_mlp(model.layout, theta0, pts) + model.offset
    clamped = raw < model.clamp_floor
    assert 0 < clamped.sum() < g.n_nodes
    # no node so near the floor that a finite-difference step crosses it
    assert np.min(np.abs(raw - model.clamp_floor)) > 1e-3
    weights = rng.normal(size=g.n_nodes)

    t = Tape()
    ref = eval_field_on_grid(t, model, t.variable(theta0), g)
    assert len(t) == 2 and t.nodes[ref].op == "field"
    assert t.nodes[ref].ctx["clamped"] == clamped.sum()
    np.testing.assert_array_equal(
        t.value(ref), np.where(clamped, model.clamp_floor, raw))

    def f(theta, weights=weights):
        # many heavily clamped evaluations in a row would stop the check
        model.reset_diagnostics()
        t = Tape()
        th = t.variable(theta)
        loss = dot(t, eval_field_on_grid(t, model, th, g), t.constant(weights))
        return t.value(loss)[0], t.backward(loss)[th]

    grad = f(theta0)[1]
    # the weights of the clamped nodes do not reach the gradient
    shifted = np.where(clamped, weights + 1.0, weights)
    assert f(theta0, shifted)[1].tobytes() == grad.tobytes()
    if variant == "pointwise":
        np.testing.assert_array_equal(grad[clamped], 0.0)
    idx = rng.choice(theta0.size, size=min(theta0.size, 30), replace=False)
    assert finite_difference_check(f, theta0, indices=idx) < 1e-6


@pytest.mark.parametrize("variant", ["dnn2d", "dnn_layered"])
def test_mlp_node_keeps_no_activations(variant):
    # the node keeps the parameters, the grid's own points and the clamp
    # mask; its backward recomputes the three (n, 20) tanh outputs
    g = StructuredGrid(11)
    model, theta0 = init_params(variant, seed=1)
    t = Tape()
    theta = t.variable(theta0)
    eval_field_on_grid(t, model, theta, g)
    ctx = next(node.ctx for node in t.nodes if node.op == "field")
    arrays = [a for a in ctx.values() if isinstance(a, np.ndarray)]
    assert not any(isinstance(v, (list, tuple, dict)) for v in ctx.values())
    owned = [a for a in arrays if not np.shares_memory(a, g.coords)]
    # the parameters and the clamp mask, one byte per node
    assert sum(a.nbytes for a in owned) == theta0.nbytes + g.n_nodes


@pytest.mark.parametrize("grid_n", [6, 41])
@pytest.mark.parametrize("variant", ["dnn2d", "dnn_layered"])
def test_mlp_recomputed_gradient_matches_kept_activations(grid_n, variant):
    # the backward's recomputed tanh outputs are the forward's bit for bit,
    # so the theta-gradient is that of an operator that keeps them
    g = StructuredGrid(grid_n)
    model, theta0 = init_params(variant, seed=4)
    pts = g.coords if variant == "dnn2d" else g.coords[:, :1]
    weights = np.random.default_rng(5).normal(size=g.n_nodes)
    grads, outputs = [], []
    for record in (lambda t, th: _network(t, model.layout, th, pts),
                   lambda t, th: oracle_mlp(t, model.layout, th, pts)):
        t = Tape()
        th = t.variable(theta0)
        raw = record(t, th)
        outputs.append(t.value(raw).tobytes())
        grads.append(t.backward(dot(t, t.constant(weights), raw))[th].tobytes())
    assert outputs[0] == outputs[1]
    assert grads[0] == grads[1]

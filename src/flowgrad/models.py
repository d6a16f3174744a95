"""Coefficient-field parameterizations.

Three variants share one interface: ``dnn2d`` (small MLP over (x, y)),
``dnn_layered`` (MLP over x only, so the field is constant along y), and
``pointwise`` (one free value per grid node, the unregularized baseline).
The MLP is 3 tanh hidden layers of 20 neurons and a linear output; the
scalar output transform adds a constant offset so the initial field sits
near the expected coefficient scale, and a hard floor clamp keeps assembled
coefficients positive.

Every variant evaluates to nodal values on the grid, so assembly sees one
uniform representation.

The MLP is recorded as one ``mlp`` tape operator from the flat parameter
vector to the raw nodal output.  Its node keeps only the parameters and
the points: the backward recomputes the three hidden tanh outputs with the
forward's own expressions, so they match bit for bit, and then runs plain
backpropagation through the layers.  Recomputing instead of keeping them
(checkpointing; Griewank & Walther, *Algorithm 799: revolve*, ACM TOMS
2000) costs one more forward pass per backward, under 2% of a 41x41 cavity
evaluation, and frees three (n, 20) arrays for n points while the flow is
solved.  A field evaluation thus records three nodes: the network, the
offset and the floor clamp.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ContractError, DivergedParameterizationError, NumericError
from .tape import register_op

__all__ = [
    "MlpLayout",
    "FieldModel",
    "init_params",
    "mlp_eval",
    "eval_field_on_grid",
]

HIDDEN = (20, 20, 20)
VARIANTS = ("dnn2d", "dnn_layered", "pointwise")

# clamp diagnostics: fraction of clamped nodes and consecutive-evaluation
# streak that together signal a diverged parameterization
_CLAMP_FRACTION = 0.10
_CLAMP_STREAK = 10


@dataclass(frozen=True)
class MlpLayout:
    """Index map of a flat parameter vector into per-layer weights/biases."""

    sizes: tuple

    @property
    def n_params(self):
        return sum(fi * fo + fo for fi, fo in zip(self.sizes, self.sizes[1:]))

    def slices(self):
        """Yields (w_start, w_stop, b_stop, fan_in, fan_out) per layer."""
        at = 0
        for fi, fo in zip(self.sizes, self.sizes[1:]):
            w_stop = at + fi * fo
            yield at, w_stop, w_stop + fo, fi, fo
            at = w_stop + fo

    def flatten(self, layers):
        parts = []
        for w, b in layers:
            parts.append(np.asarray(w, dtype=np.float64).ravel())
            parts.append(np.asarray(b, dtype=np.float64))
        theta = np.concatenate(parts)
        if theta.shape != (self.n_params,):
            raise ContractError("layer shapes do not match layout")
        return theta


@dataclass
class FieldModel:
    variant: str
    n_params: int
    offset: float
    clamp_floor: float
    layout: MlpLayout = None
    clamp_streak: int = field(default=0, compare=False)

    def reset_diagnostics(self):
        self.clamp_streak = 0

    def note_clamp(self, clamped, total):
        """Track consecutive evaluations with heavy clamping.

        Exceeding the clamp fraction for many evaluations in a row means the
        parameterization has wandered into non-physical territory.
        """
        if clamped > _CLAMP_FRACTION * total:
            self.clamp_streak += 1
        else:
            self.clamp_streak = 0
        if self.clamp_streak >= _CLAMP_STREAK:
            raise DivergedParameterizationError(
                f"coefficient clamped at {clamped}/{total} nodes for "
                f"{self.clamp_streak} consecutive evaluations")


def init_params(variant, seed, init_scale=1.0, offset=1.0, clamp_floor=1e-6,
                n_nodes=0):
    """Build a FieldModel plus its initial flat parameter vector.

    MLP weights are Xavier-uniform (bound sqrt(6/(fan_in+fan_out)), scaled by
    ``init_scale``) with zero biases; the pointwise variant starts at the
    transform offset.
    """
    if variant not in VARIANTS:
        raise ContractError(f"unknown field-model variant {variant!r}")
    rng = np.random.default_rng(seed)
    if variant == "pointwise":
        if n_nodes <= 0:
            raise ContractError("pointwise variant needs the node count")
        model = FieldModel(variant, n_nodes, offset, clamp_floor)
        return model, np.full(n_nodes, float(offset))

    d_in = 2 if variant == "dnn2d" else 1
    layout = MlpLayout((d_in,) + HIDDEN + (1,))
    layers = []
    for fi, fo in zip(layout.sizes, layout.sizes[1:]):
        bound = np.sqrt(6.0 / (fi + fo)) * init_scale
        layers.append((rng.uniform(-bound, bound, size=(fi, fo)), np.zeros(fo)))
    model = FieldModel(variant, layout.n_params, offset, clamp_floor,
                       layout=layout)
    return model, layout.flatten(layers)


def _affine(h, theta, w0, w1, b1, fi, fo):
    """h @ W + b for one layer whose W and b are slices of ``theta``."""
    z = h @ theta[w0:w1].reshape(fi, fo)
    z += theta[w1:b1]
    return z


def _layer_inputs(theta, layout, points):
    """Yield the input of each layer in turn: the points, then the tanh
    output of each hidden layer."""
    *inner, _ = layout.slices()
    h = points
    yield h
    for layer in inner:
        z = _affine(h, theta, *layer)
        h = np.tanh(z, out=z)
        yield h


def _mlp_fwd(v, ctx):
    theta = ctx["theta"] = v[0]
    layout = ctx["layout"]
    # only the last hidden output is kept alive
    for h in _layer_inputs(theta, layout, ctx["points"]):
        pass
    *_, last = layout.slices()
    return _affine(h, theta, *last).reshape(-1)


def _mlp_bwd(g, ctx):
    """Backpropagation through the layers, whose tanh outputs it recomputes
    with the forward's own expressions, so they match the forward's bit for
    bit."""
    theta, layout, points = ctx["theta"], ctx["layout"], ctx["points"]
    inputs = list(_layer_inputs(theta, layout, points))
    out = np.zeros(theta.shape)
    g = g.reshape(-1, 1)
    for l, (w0, w1, b1, fi, fo) in reversed(list(enumerate(layout.slices()))):
        h = inputs[l]
        out[w1:b1] += g.sum(axis=0)
        out[w0:w1] += (h.T @ g).ravel()
        if l:
            g = g @ theta[w0:w1].reshape(fi, fo).T
            g = g * (1.0 - h * h)
    return (out,)


register_op("mlp", _mlp_fwd, _mlp_bwd)


def mlp_eval(tape, layout, theta_ref, points):
    """Record the MLP forward pass as one ``mlp`` node; one raw output per
    point.

    The node keeps only the parameters and the points; its backward rule
    recomputes the hidden tanh outputs.  The linear-output magnitude is
    sanity-checked against its tanh bound (sum of absolute final-layer
    weights plus bias).
    """
    theta = tape.value(theta_ref)
    if not np.all(np.isfinite(theta)):
        raise NumericError("non-finite MLP parameter")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != layout.sizes[0]:
        raise ContractError(
            f"points shape {points.shape} incompatible with input size "
            f"{layout.sizes[0]}")

    raw = tape.apply("mlp", (theta_ref,), {"layout": layout, "points": points})
    *_, (w0, w1, b1, _, _) = layout.slices()
    bound = np.abs(theta[w0:w1]).sum() + np.abs(theta[w1:b1]).sum()
    if np.max(np.abs(tape.value(raw))) > bound + 1e-12:
        raise NumericError("MLP output exceeds its tanh bound")
    return raw


def eval_field_on_grid(tape, model, theta_ref, grid):
    """Nodal coefficient values for any variant, clamped from below.

    The clamp count feeds the model's divergence diagnostics.
    """
    if model.variant == "pointwise":
        if tape.value(theta_ref).shape != (grid.n_nodes,):
            raise ContractError("pointwise parameter count != node count")
        raw = theta_ref
    else:
        pts = grid.coords if model.variant == "dnn2d" else grid.coords[:, :1]
        raw = mlp_eval(tape, model.layout, theta_ref, pts)
        raw = ops.add_scalar(tape, raw, model.offset)
    clamped_ref = ops.clamp_min(tape, raw, model.clamp_floor)
    model.note_clamp(tape.nodes[clamped_ref].ctx["clamped"], grid.n_nodes)
    return clamped_ref


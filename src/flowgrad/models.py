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

A field evaluation is recorded as one ``field`` tape operator from the
flat parameter vector to the clamped nodal values: the network output plus
its offset (for ``pointwise``, the parameters themselves), floored.  Its
node keeps only the parameters, the points and the clamp mask: the
backward recomputes the three hidden tanh outputs with the forward's own
expressions, so they match bit for bit, and then runs plain
backpropagation through the layers.  Recomputing instead of keeping them
(checkpointing; Griewank & Walther, *Algorithm 799: revolve*, ACM TOMS
2000) costs one more forward pass per backward, under 2% of a 41x41 cavity
evaluation, and frees three (n, 20) arrays for n points while the flow is
solved.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DivergedParameterizationError, NumericError
from .tape import register_op

__all__ = [
    "MlpLayout",
    "FieldModel",
    "init_params",
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

    @property
    def lower_bound(self):
        """The optimizer's bound on every parameter: a pointwise value
        stays above the floor, where the clamp stops acting."""
        return self.clamp_floor if self.variant == "pointwise" else -math.inf

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


def _field_fwd(v, ctx):
    theta = ctx["theta"] = v[0]
    layout = ctx["layout"]
    if layout is None:
        raw = theta
    else:
        # only the last hidden output is kept alive
        for h in _layer_inputs(theta, layout, ctx["points"]):
            pass
        *_, last = layout.slices()
        raw = _affine(h, theta, *last).reshape(-1)
        # the linear output is bounded by its final layer's weights and
        # bias, since every tanh lies in [-1, 1]
        w0, w1, b1, _, _ = last
        bound = np.abs(theta[w0:w1]).sum() + np.abs(theta[w1:b1]).sum()
        if np.max(np.abs(raw)) > bound + 1e-12:
            raise NumericError("MLP output exceeds its tanh bound")
        raw = raw + ctx["offset"]
    floor = ctx["floor"]
    mask = ctx["mask"] = raw >= floor
    ctx["clamped"] = int(raw.size - mask.sum())
    return np.where(mask, raw, floor)


def _field_bwd(g, ctx):
    """Zero at the clamped nodes, then, for a network, backpropagation
    through the layers, whose tanh outputs it recomputes with the forward's
    own expressions, so they match the forward's bit for bit."""
    g = np.where(ctx["mask"], g, 0.0)
    theta, layout = ctx["theta"], ctx["layout"]
    if layout is None:
        return (g,)
    inputs = list(_layer_inputs(theta, layout, ctx["points"]))
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


register_op("field", _field_fwd, _field_bwd)


def eval_field_on_grid(tape, model, theta_ref, grid):
    """Nodal coefficient values for any variant, clamped from below, as one
    ``field`` node.

    The clamp count feeds the model's divergence diagnostics.
    """
    theta = tape.value(theta_ref)
    if model.variant == "pointwise":
        if theta.shape != (grid.n_nodes,):
            raise ContractError("pointwise parameter count != node count")
        ctx = {"layout": None}
    else:
        ctx = {"layout": model.layout,
               "points": grid.coords[:, :model.layout.sizes[0]],
               "offset": float(model.offset)}
    if not np.all(np.isfinite(theta)):
        raise NumericError("non-finite model parameter")
    ctx["floor"] = float(model.clamp_floor)
    ref = tape.apply("field", (theta_ref,), ctx)
    model.note_clamp(ctx["clamped"], grid.n_nodes)
    return ref

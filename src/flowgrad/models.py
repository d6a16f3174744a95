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
"""

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ContractError, DivergedParameterizationError, NumericError

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
    seed: int
    layout: MlpLayout = None
    n_nodes: int = 0
    init_scale: float = 1.0
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
                n_nodes=0, init_value=None):
    """Build a FieldModel plus its initial flat parameter vector.

    MLP weights are Xavier-uniform (bound sqrt(6/(fan_in+fan_out)), scaled by
    ``init_scale``) with zero biases; the pointwise variant starts at the
    constant ``init_value`` (default: the transform offset).
    """
    if variant not in VARIANTS:
        raise ContractError(f"unknown field-model variant {variant!r}")
    rng = np.random.default_rng(seed)
    if variant == "pointwise":
        if n_nodes <= 0:
            raise ContractError("pointwise variant needs the node count")
        value = float(offset if init_value is None else init_value)
        model = FieldModel(variant, n_nodes, offset, clamp_floor, seed,
                           layout=None, n_nodes=n_nodes, init_scale=init_scale)
        return model, np.full(n_nodes, value)

    d_in = 2 if variant == "dnn2d" else 1
    layout = MlpLayout((d_in,) + HIDDEN + (1,))
    layers = []
    for fi, fo in zip(layout.sizes, layout.sizes[1:]):
        bound = np.sqrt(6.0 / (fi + fo)) * init_scale
        layers.append((rng.uniform(-bound, bound, size=(fi, fo)), np.zeros(fo)))
    model = FieldModel(variant, layout.n_params, offset, clamp_floor, seed,
                       layout=layout, n_nodes=n_nodes, init_scale=init_scale)
    return model, layout.flatten(layers)


def mlp_eval(tape, layout, theta_ref, points):
    """Record the MLP forward pass; returns one raw output per point.

    The linear-output magnitude is sanity-checked against its tanh bound
    (sum of absolute final-layer weights plus bias).
    """
    theta = tape.value(theta_ref)
    if not np.all(np.isfinite(theta)):
        raise NumericError("non-finite MLP parameter")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != layout.sizes[0]:
        raise ContractError(
            f"points shape {points.shape} incompatible with input size "
            f"{layout.sizes[0]}")

    h = tape.constant(points)
    last = len(layout.sizes) - 2
    for l, (w0, w1, b1, fi, fo) in enumerate(layout.slices()):
        w = ops.reshape(tape, ops.slice1d(tape, theta_ref, w0, w1), (fi, fo))
        b = ops.slice1d(tape, theta_ref, w1, b1)
        z = ops.add_rowvec(tape, ops.matmul(tape, h, w), b)
        h = z if l == last else ops.tanh(tape, z)
        if l == last:
            bound = np.abs(theta[w0:w1]).sum() + np.abs(theta[w1:b1]).sum()
            if np.max(np.abs(tape.value(z))) > bound + 1e-12:
                raise NumericError("MLP output exceeds its tanh bound")
    return ops.reshape(tape, h, (points.shape[0],))


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


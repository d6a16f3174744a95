"""Inverse-problem drivers: the experiment table, observations, loss, protocol.

Each experiment is one :class:`ExperimentSpec` in ``SPECS``, and all follow
one protocol.  The spec's forward chain maps a nodal coefficient field to
predicted nodal fields, each a window of a tape node: u, v and p are
three windows of the one flow state.  Run at the spec's reference
coefficient it synthesizes the data, which :func:`make_observations`
samples, perturbs and checks in one pass into one :class:`ObservationSet`;
recorded on the tape at a coefficient model's output it is the objective
that L-BFGS fits.  An evaluation records the parameters, the field, the
solve and the misfit, plus the frozen flow as one constant for heat.
Adding an experiment means adding one spec.

  cavity_viscosity   unknown viscosity nu(x, y); lid-driven cavity velocities
                     observed (both components).
  conjugate_heat     unknown conductivity k(x, y); the flow is computed once
                     with constant viscosity 1 and frozen, u, v, T observed
                     at sampled nodes.
  passive_transport  unknown layered viscosity nu(x); velocities (u, v)
                     observed at 22 sampled nodes.

Observation synthesis uses the same grid and discretization as the
inversion, so data are exactly reproducible by the model class (the usual
inverse-crime caveat applies; errors quoted against the reference field).
A :class:`ForwardChain` (the grid and its flow setup, or a frozen flow
and its heat setup) solves itself once at the reference coefficient and
keeps the reference coefficient, the synthesis and the Newton trace of that
solve.
All of it depends only on the physics fields of a config, so problems that
differ only in their observations, noise or model, and the ``forward``
command, share one chain, read-only (:func:`forward_chain`, the one place
a reference is solved).  What one problem changes, its linear-solve
counts, it holds itself and hands to the chain on every call.
"""

import json
import math
import numbers
import time
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from types import MappingProxyType

import numpy as np

from . import ops
from .errors import ContractError, NumericError
from .grid import StructuredGrid, uniform_boundary_bc
from .models import VARIANTS, check_init_scale, eval_field_on_grid, init_params
from .optimize import OptimizerConfig, lbfgs_optimize
from .solver import (
    FlowSetup,
    HeatSetup,
    NewtonConfig,
    NSState,
    PhysicsConstants,
    heat_solve,
    newton_solve,
    ns_jacobian,
)
from .sparse import LinearSolveCounts
from .tape import Tape

__all__ = [
    "EXPERIMENTS",
    "SPECS",
    "ExperimentSpec",
    "ForwardChain",
    "ObservationSet",
    "ExperimentConfig",
    "InverseProblem",
    "RunReport",
    "blame_settings",
    "build_problem",
    "forward_chain",
    "reference_field",
    "make_observations",
    "compute_loss",
    "relative_mse",
    "shape_error",
    "run_experiment",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that sets one experiment apart from the others.

    ``forward(tape, chain, coef, counts)`` records, from the nodal
    coefficient ``coef``, every predicted nodal field and returns them by
    name, each as a window ``(ref, start)`` of a tape node (the grid's
    nodes from ``start`` on), with the :class:`NSState` of the flow used
    (``chain`` is a :class:`ForwardChain`); its linear solves add to
    ``counts``.
    ``predicts`` names the fields ``forward`` returns, which a config may
    observe.  ``variant`` to ``init_seed`` default the config fields of
    those names, but for ``n_points``, which :func:`build_problem` reads;
    ``n_points = None`` observes every node.  ``report_fields`` are
    predicted at the final estimate.  A ``frozen_viscosity`` means the flow
    does not involve the coefficient: it is solved once at that viscosity.
    """

    reference: object
    coef_name: str
    forward: object
    predicts: tuple
    variant: str
    components: tuple
    n_points: int
    offset: float
    init_scale: float
    init_seed: int
    report_fields: tuple = ()
    frozen_viscosity: float = None


def _flow_windows(chain, flow):
    """u, v and p as windows of the flow's state [u; v; p]."""
    n = chain.grid.n_nodes
    return {name: (flow.state, k * n) for k, name in enumerate("uvp")}


def _coefficient_fields(spec, components):
    """The ``components`` that involve the coefficient: all but the fields
    of a frozen flow."""
    return tuple(comp for comp in components if spec.frozen_viscosity is None
                 or comp not in ("u", "v", "p"))


def _flow_forward(tape, chain, nu, counts):
    flow = chain.solve_flow(tape, nu, counts)
    return _flow_windows(chain, flow), flow


def _heat_forward(tape, chain, k, counts):
    flow = chain.frozen_flow(tape)
    temp = heat_solve(tape, chain.heat_setup, k, counts)
    return dict(_flow_windows(chain, flow), T=(temp, 0)), flow


# Recovery quality of the cavity inversion varies strongly across weight
# draws (velocities at lid speed 1 barely see the scale of the viscosity):
# the default cavity config reaches 1.45% coefficient error at init seed 21
# and 23.7-46.2% at init seeds 1-5.  The transport coefficient
# sits near 0.01, so its initial network output must stay well under the
# offset to keep the clamp inactive at the start.
SPECS = {
    "cavity_viscosity": ExperimentSpec(
        reference=lambda x, y: 1.0 + 6.0 * x ** 2 + x / (1.0 + 2.0 * y ** 2),
        coef_name="nu", forward=_flow_forward, predicts=("u", "v", "p"),
        variant="dnn2d", components=("u", "v"), n_points=None, offset=1.0,
        init_scale=1.0, init_seed=21, report_fields=("u", "v", "p")),
    "conjugate_heat": ExperimentSpec(
        reference=lambda x, y: 1.0 + x ** 2 + x / (1.0 + y ** 2),
        coef_name="k", forward=_heat_forward, predicts=("u", "v", "p", "T"),
        variant="dnn2d", components=("u", "v", "T"), n_points=40, offset=1.0,
        init_scale=1.0, init_seed=3, frozen_viscosity=1.0),
    "passive_transport": ExperimentSpec(
        reference=lambda x, y: 0.01 + 0.01 / (1.0 + x ** 2),
        coef_name="nu", forward=_flow_forward, predicts=("u", "v", "p"),
        variant="dnn_layered", components=("u", "v"), n_points=22,
        offset=0.01, init_scale=0.1, init_seed=3),
}
EXPERIMENTS = tuple(SPECS)


def _spec(experiment):
    if experiment not in SPECS:
        raise ContractError(f"unknown experiment {experiment!r}; "
                            f"expected one of {EXPERIMENTS}")
    return SPECS[experiment]


def reference_field(experiment, coords):
    """The hard-coded ground-truth coefficient field of each experiment."""
    return _spec(experiment).reference(coords[:, 0], coords[:, 1])


@dataclass(frozen=True)
class ObservationSet:
    """Sampled node indices, a 1-d array of distinct nonnegative integers,
    with finite observed values for each component."""

    locations: np.ndarray
    components: tuple
    values: dict
    noise_epsilon: float = 0.0

    def __post_init__(self):
        try:
            locations = np.asarray(self.locations)
        except ValueError:  # a ragged list, rejected as not 1-d below
            locations = np.asarray(None)
        if locations.ndim != 1 or (locations.size
                                   and locations.dtype.kind not in "iu"):
            raise ContractError(
                f"observation locations must be a 1-d array of node "
                f"indices, got {locations.dtype} of shape {locations.shape}")
        locations = np.asarray(locations, dtype=np.intp)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "components", tuple(self.components))
        # the grid's node index, and any increasing set, needs no sort
        increasing = np.all(locations[1:] > locations[:-1])
        ordered = locations if increasing else np.sort(locations)
        if ordered.size and ordered[0] < 0:
            raise ContractError(f"observation locations must be nonnegative, "
                                f"got {ordered[0]}")
        if not increasing and np.any(ordered[1:] == ordered[:-1]):
            raise ContractError("observation locations must be distinct")
        for comp in self.components:
            if comp not in self.values:
                raise ContractError(f"no observed values for component "
                                    f"{comp!r}")
            try:
                vals = np.asarray(self.values[comp], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ContractError(f"observed values of component {comp!r} "
                                    f"must be numbers: {exc}") from None
            if vals.shape != locations.shape:
                raise ContractError(
                    f"component {comp!r} has {vals.shape} values for "
                    f"{locations.shape} locations")
            if not np.all(np.isfinite(vals)):
                raise ContractError(f"non-finite observation in {comp!r}")

    @property
    def n_points(self):
        return self.locations.size


def _check_noise_range(epsilon):
    """numpy draws eta ~ Uniform[-epsilon, epsilon] only over a finite
    width, 2 epsilon."""
    if not math.isfinite(2.0 * float(epsilon)):
        raise ContractError(
            f"noise_epsilon {epsilon:g} gives eta the draw range "
            f"[-{epsilon:g}, {epsilon:g}], whose width is beyond the "
            f"floating-point range")


def make_observations(grid, reference_solution, n_points, components, seed,
                      epsilon=0.0):
    """Observe ``components`` of ``reference_solution`` at ``n_points``
    distinct nodes, with multiplicative noise: value * (1 + eta),
    eta ~ Uniform[-epsilon, epsilon].

    ``default_rng(seed)`` draws the nodes, unless every node is observed,
    in node order (the grid's ``nodes``); ``default_rng(seed + 1)`` draws
    eta, one component after another.  The set is checked as any other,
    and so is the sum of the squares of its values, which bounds the size
    of a loss against them.
    """
    for name, value in (("n_points", n_points), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ContractError(f"{name} must be an integer, got {value!r}")
    n = grid.n_nodes
    if n_points > n:
        raise ContractError(f"cannot sample {n_points} of {n} nodes")
    if n_points < 1:
        raise ContractError("need at least one observation point")
    # numpy seeds its generators from nonnegative integers only
    if seed < 0:
        raise ContractError(f"seed must be nonnegative, got {seed}")
    if not epsilon >= 0:
        raise ContractError(f"noise level must be nonnegative, got {epsilon}")
    _check_noise_range(epsilon)
    if n_points == n:
        locations = grid.nodes
    else:
        rng = np.random.default_rng(seed)
        locations = rng.choice(n, size=n_points, replace=False)
    # at noise level 0 every factor 1 + eta is exactly 1
    noise = np.random.default_rng(seed + 1) if epsilon else None
    components = tuple(components)
    values = {}
    for comp in components:
        if comp not in reference_solution:
            raise ContractError(f"reference solution lacks component {comp!r}")
        values[comp] = np.asarray(reference_solution[comp])[locations]
        if noise is not None:
            factor = noise.uniform(-epsilon, epsilon, size=n_points)
            factor += 1.0
            factor *= values[comp]
            values[comp] = factor
    obs = ObservationSet(locations, components, values, float(epsilon))
    with np.errstate(over="ignore"):
        squares = sum(float(x @ x) for x in values.values())
    if not math.isfinite(squares):
        raise ContractError(
            f"observations at noise level {epsilon:g} have a sum of squares "
            f"beyond the floating-point range")
    return obs


def compute_loss(tape, predicted, obs, size):
    """Sum of squared mismatches over every observed component and point,
    recorded as one ``misfit`` node that reads each predicted field, a
    window ``(ref, start)`` of ``size`` entries, in place: the squares of
    each component are summed on their own and the sums added in component
    order."""
    for comp in obs.components:
        if comp not in predicted:
            raise ContractError(f"prediction lacks observed component {comp!r}")
    return ops.misfit(tape, [predicted[comp] for comp in obs.components],
                      size, obs.locations,
                      [obs.values[comp] for comp in obs.components])


def relative_mse(estimate, reference):
    """100 * sum((est - ref)^2) / sum(ref^2), in percent."""
    estimate = np.asarray(estimate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if estimate.shape != reference.shape:
        raise ContractError(
            f"estimate shape {estimate.shape} != reference {reference.shape}")
    denom = float(reference @ reference)
    if denom == 0.0:
        raise ContractError("reference field is identically zero")
    diff = estimate - reference
    return 100.0 * float(diff @ diff) / denom


def shape_error(estimate, reference):
    """``(c, relative_mse(c * estimate, reference))`` at the scale
    c = (est . ref) / (est . est) that fits ``estimate`` to ``reference``
    best in least squares: the error left once a wrong scale is forgiven.
    A zero estimate has scale 0 and error 100%."""
    estimate = np.asarray(estimate, dtype=np.float64)
    norm = float(estimate @ estimate)
    scale = float(estimate @ reference) / norm if norm > 0.0 else 0.0
    return scale, relative_mse(scale * estimate, reference)


# The flow system of an n x n grid has 9 (3n - 2)^2 entries, which the
# assembly's int32 maps address; the largest n that fits is 5149.
_MAX_GRID_N = (math.isqrt(np.iinfo(np.int32).max // 9) + 2) // 3


def _check_n_points(n_points, grid_n):
    n_nodes = grid_n ** 2
    if not 1 <= n_points <= n_nodes:
        raise ContractError(
            f"n_points must be between 1 and the {n_nodes} nodes of the "
            f"grid, got {n_points}")


def _setting(ini, default=None, data=False, spec=False):
    """The one declaration of a setting, as an :class:`ExperimentConfig`
    field: ``ini`` is its INI ``"section key"`` (None for no key), ``data``
    marks a field that never reaches the forward chain, and ``spec`` one
    whose ``None`` takes the value of the spec field of that name."""
    return field(default=default,
                 metadata={"ini": ini, "data": data, "spec": spec})


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, every setting checked when it is built.

    Each field declares its setting (:func:`_setting`), and a ``None`` in
    a ``spec`` field takes the spec field of that name.  ``n_points``
    stays ``None`` unless it is set, and :func:`build_problem` then takes
    the spec's count: it keeps only the checks that ``forward`` skips, so
    ``n_points`` is checked against the grid here only when it is set.
    """

    experiment: str = _setting("experiment name", "cavity_viscosity")
    variant: str = _setting("model variant", data=True, spec=True)
    grid_n: int = _setting("grid n", 21)
    n_points: int = _setting("observations n_points", data=True)
    components: tuple = _setting(None, data=True, spec=True)
    noise_epsilon: float = _setting("observations noise_epsilon", 0.0,
                                    data=True)
    obs_seed: int = _setting("observations seed", 7, data=True)
    init_seed: int = _setting("model init_seed", data=True, spec=True)
    init_scale: float = _setting("model init_scale", data=True, spec=True)
    offset: float = _setting("model offset", data=True, spec=True)
    clamp_floor: float = _setting("model clamp_floor", 1e-6, data=True)
    max_steps: int = _setting("optimizer max_steps", 100, data=True)
    memory: int = _setting("optimizer memory", 50, data=True)
    newton_tol: float = _setting("solver newton_tol", 1e-8)
    newton_max_iter: int = _setting("solver newton_max_iter", 10)
    beta: float = _setting("solver beta", 0.01)
    rho: float = _setting("physics rho", 1.0)
    cp: float = _setting("physics cp", 1.0)
    heat_source: float = _setting("physics heat_source", 1.0)
    heat_bc_value: float = _setting("physics heat_bc_value", 0.0)
    lid_speed: float = _setting("physics lid_speed", 1.0)

    def __post_init__(self):
        spec = _spec(self.experiment)
        for name in _SPEC_DEFAULTS:
            if getattr(self, name) is None:
                object.__setattr__(self, name, getattr(spec, name))
        if self.variant not in VARIANTS:
            raise ContractError(f"unknown variant {self.variant!r}; "
                                f"expected one of {VARIANTS}")
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None or f.type not in (int, float):
                continue
            kind, noun = ((numbers.Integral, "an integer") if f.type is int
                          else (numbers.Real, "a real number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ContractError(f"{f.name} must be {noun}, got {value!r}")
            if f.type is float and not math.isfinite(value):
                raise ContractError(f"{f.name} must be finite, got {value}")
            # a numpy number, or an int for a float, would key a second
            # chain of the same physics, and a numpy number would stop the
            # report's JSON
            object.__setattr__(self, f.name, f.type(value))
        # the loss sums one term per component named
        comps = self.components
        if not isinstance(comps, str) and isinstance(comps, Iterable):
            comps = tuple(comps)
            object.__setattr__(self, "components", comps)
        if (not isinstance(comps, tuple) or not comps
                or not all(isinstance(name, str) for name in comps)
                or len(set(comps)) < len(comps)):
            raise ContractError(
                f"components must name one or more distinct fields, got "
                f"{comps!r}")
        unknown = [name for name in comps if name not in spec.predicts]
        if unknown:
            raise ContractError(
                f"{self.experiment} predicts no component {unknown[0]!r}; "
                f"expected some of {spec.predicts}")
        if not _coefficient_fields(spec, comps):
            raise ContractError(
                f"{self.experiment} observes only {', '.join(comps)} of its "
                f"frozen flow, which does not involve the {spec.coef_name}, "
                f"so no data can determine it; also observe "
                f"{' or '.join(_coefficient_fields(spec, spec.predicts))}")
        # a zero stabilization weight leaves the pressure oscillating
        if not self.beta > 0.0:
            raise ContractError(f"beta must be positive, got {self.beta}")
        # a floor below zero would let the clamped coefficient go negative;
        # numpy seeds its generators from nonnegative integers only, and a
        # negative scale or noise level would give a uniform draw an empty
        # range
        for name in ("clamp_floor", "obs_seed", "init_seed", "init_scale",
                     "noise_epsilon"):
            if not getattr(self, name) >= 0:
                raise ContractError(
                    f"{name} must be nonnegative, got {getattr(self, name)}")
        # nor can it draw over a range wider than the largest double
        _check_noise_range(self.noise_epsilon)
        if self.variant != "pointwise":
            check_init_scale(self.init_scale)
        # checked here as well as in OptimizerConfig, so a run stops before
        # the synthesis solve
        for name in ("max_steps", "memory"):
            if getattr(self, name) < 1:
                raise ContractError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        if self.grid_n < 2:
            raise ContractError(
                f"grid_n must be at least 2 nodes per side, got {self.grid_n}")
        if self.grid_n > _MAX_GRID_N:
            raise ContractError(
                f"grid_n must be at most {_MAX_GRID_N} nodes per side, the "
                f"most whose flow system the int32 index maps can address, "
                f"got {self.grid_n}")
        if self.n_points is not None:
            _check_n_points(self.n_points, self.grid_n)
        # the pointwise fit bounds every nodal value below at the clamp
        # floor, where the clamp stops acting; the bound keeps the
        # coefficient positive
        if self.variant == "pointwise" and not self.clamp_floor > 0.0:
            raise ContractError(
                f"the pointwise variant needs a positive clamp_floor, got "
                f"{self.clamp_floor}")
        # the starting field lies around the offset; at or below the floor
        # the clamp can cut it at every node, and the gradient is then 0
        if not self.offset > self.clamp_floor:
            raise ContractError(
                f"offset {self.offset} must lie above clamp_floor "
                f"{self.clamp_floor}")
        self.physics()
        self.newton()

    def physics(self):
        return PhysicsConstants(rho=self.rho, cp=self.cp,
                                heat_source_q=self.heat_source)

    def newton(self):
        return NewtonConfig(self.newton_tol, self.newton_max_iter)


_SPEC_DEFAULTS = tuple(f.name for f in fields(ExperimentConfig)
                       if f.metadata["spec"])
# Config fields that never reach the forward chain at the reference
# coefficient; every other field keys the shared chains.
_DATA_FIELDS = frozenset(f.name for f in fields(ExperimentConfig)
                         if f.metadata["data"])
_PHYSICS_FIELDS = tuple(f.name for f in fields(ExperimentConfig)
                        if f.name not in _DATA_FIELDS)


# RunReport fields written to files of their own, not to report.json.
_ARRAY_FIELDS = ("theta", "estimate_nodal", "reference_nodal", "observations",
                 "predicted_nodal")


@dataclass
class RunReport:
    experiment: str
    variant: str
    loss_history: list
    initial_loss: float
    final_loss: float
    relative_mse_percent: float
    coefficient_scale: float
    shape_error_percent: float
    newton_iters: list
    wall_clock_seconds: float
    config_echo: dict
    converged: bool
    stop_reason: str
    n_steps: int
    n_evals: int
    rejections: int
    line_search: dict
    linear_solves: dict
    prediction_mse_percent: dict = None
    presolve_newton_iters: int = None
    theta: np.ndarray = None
    estimate_nodal: np.ndarray = None
    reference_nodal: np.ndarray = None
    observations: ObservationSet = None
    predicted_nodal: dict = None  # the spec's report fields at the estimate

    def to_json(self):
        """The report as JSON: every field but the arrays of
        ``_ARRAY_FIELDS``, an optional field left out while it is None."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in _ARRAY_FIELDS
                   and not (f.default is None and getattr(self, f.name) is None)}
        return json.dumps(payload, indent=2, sort_keys=True)


class ForwardChain:
    """An experiment's forward chain on one grid and physics, solved once at
    the reference coefficient.

    ``chain(tape, coef, counts)`` runs the spec's ``forward`` and returns
    ``(fields, flow)``; every linear solve it makes adds to ``counts``, a
    :class:`LinearSolveCounts` of the caller's.  The chain builds its grid
    (``grid``) and the flow setup (``flow_setup``, a :class:`FlowSetup`)
    once.  A spec with a ``frozen_viscosity`` has its flow presolved once,
    with a flow setup it does not keep (``flow_setup`` is None): ``frozen``
    is its state [u; v; p] as a read-only array, and ``heat_setup`` is the
    :class:`HeatSetup` of that flow.

    The chain then runs itself at the reference coefficient
    (``reference_nodal``), uncounted: ``synthetic`` maps every predicted
    field to its read-only values there, and ``trace`` is the Newton trace
    of that flow as a tuple (of the frozen flow, for a frozen viscosity).
    The chain reads only the physics fields of ``cfg`` and changes nothing
    after it is built, so every problem of the same physics can share it
    (see :func:`forward_chain`).
    """

    def __init__(self, cfg):
        self.spec = SPECS[cfg.experiment]
        self.cfg = cfg
        self.grid = grid = StructuredGrid(cfg.grid_n)
        self.constants = cfg.physics()
        self.newton = cfg.newton()
        self.flow_setup = self._flow_setup()
        self.frozen_nu = self.frozen = self.heat_setup = None
        if self.spec.frozen_viscosity is not None:
            self.frozen_nu = _read_only(
                np.full(grid.n_nodes, self.spec.frozen_viscosity))
            t = Tape()
            flow = self.solve_flow(t, t.constant(self.frozen_nu),
                                   LinearSolveCounts())
            # the presolve is the only solve of a frozen flow
            self.flow_setup = None
            self.frozen = _read_only(t.value(flow.state))
            self.trace = tuple(flow.trace)
            n = grid.n_nodes
            self.heat_setup = HeatSetup(
                grid, self.frozen[:n], self.frozen[n:2 * n], self.constants,
                uniform_boundary_bc(grid, cfg.heat_bc_value))
        self.reference_nodal = _read_only(
            reference_field(cfg.experiment, grid.coords))
        t = Tape()
        predicted, flow = self(t, t.constant(self.reference_nodal),
                               LinearSolveCounts())
        self.synthetic = MappingProxyType(
            {name: _read_only(values)
             for name, values in self._read(t, predicted).items()})
        self.trace = tuple(flow.trace)

    def __call__(self, tape, coef, counts):
        return self.spec.forward(tape, self, coef, counts)

    def _flow_setup(self):
        return FlowSetup(self.grid, self.cfg.lid_speed, self.constants,
                         self.cfg.beta)

    def solve_flow(self, tape, nu, counts):
        """Newton solve of the lid-driven flow at nodal viscosity ``nu``."""
        return newton_solve(tape, self.flow_setup, nu, self.newton,
                            counts=counts)

    def frozen_flow(self, tape):
        """The presolved flow as constants of ``tape``.

        It spends no Newton iterations of its own and carries the trace of
        the presolve.
        """
        return NSState(tape.constant(self.frozen), 0, self.trace)

    def jacobian(self):
        """Constrained Newton matrix of the flow at the reference solution,
        as a scipy CSR matrix; a chain without a flow setup builds one for
        it."""
        nu = self.reference_nodal if self.frozen_nu is None else self.frozen_nu
        x = np.concatenate([self.synthetic[name] for name in ("u", "v", "p")])
        return ns_jacobian(self.flow_setup or self._flow_setup(), x, nu)

    def values(self, coef_nodal, counts):
        """Every predicted field at a fixed coefficient, as nodal arrays."""
        t = Tape()
        predicted, _ = self(t, t.constant(coef_nodal), counts)
        return self._read(t, predicted)

    def _read(self, tape, predicted):
        """The nodal values of predicted windows, as views of ``tape``."""
        n = self.grid.n_nodes
        return {name: tape.value(ref)[start:start + n]
                for name, (ref, start) in predicted.items()}


def _read_only(values):
    """An owned, read-only copy of ``values``."""
    values = np.array(values, dtype=np.float64)
    values.flags.writeable = False
    return values


# Most forward chains kept for reuse at once.
_SHARED_REFERENCES = 4
_REFERENCES = {}  # value key of the physics -> ForwardChain, least recently used first


def _changed_settings(cfg, names=_PHYSICS_FIELDS):
    """The settings ``names`` of a config (by default the physics) that
    differ from the experiment's defaults, as "name = value" text."""
    default = ExperimentConfig(cfg.experiment)
    changed = [f"{name} = {getattr(cfg, name)!r}" for name in names
               if name != "experiment"
               and getattr(cfg, name) != getattr(default, name)]
    return ", ".join(changed) or "the default settings"


@contextmanager
def blame_settings(cfg):
    """Raise a :class:`ContractError` of the block again as the config's
    fault, naming every setting that differs from the defaults.

    Wraps an objective's first evaluation: the starting parameters, the
    bound and the physics all come from the config, so an objective that
    fails there is the config's fault, whichever setting chose it.
    """
    try:
        yield
    except ContractError as exc:
        raise ContractError(
            f"{cfg.experiment} cannot be fitted with "
            f"{_changed_settings(cfg, [f.name for f in fields(cfg)])}: "
            f"{exc}") from exc


def forward_chain(cfg):
    """The shared :class:`ForwardChain` of a config, built and
    solved at the reference coefficient on first use; no problem counts its
    solves.

    This is the one place a reference is solved.  Keyed by the exact values
    of the physics fields (``repr`` tells 0.0 from -0.0), so a sweep over
    noise levels and observation draws, and a ``forward`` command after a
    run, build and solve the chain once; the last ``_SHARED_REFERENCES``
    are kept.  No model or observation takes part in the reference solve,
    so when it fails numerically (Newton diverges, a matrix leaves the
    single-precision range) the physics settings are at fault: the
    :class:`NumericError` is raised again as a :class:`ContractError` that
    names the settings that differ from their defaults; so is a
    :class:`MemoryError` (a grid too large).
    """
    key = tuple((name, repr(getattr(cfg, name))) for name in _PHYSICS_FIELDS)
    chain = _REFERENCES.pop(key, None)
    if chain is None:
        try:
            chain = ForwardChain(cfg)
        except (NumericError, MemoryError) as exc:
            raise ContractError(
                f"{cfg.experiment} cannot be solved at its reference "
                f"coefficient with {_changed_settings(cfg)}: {exc}") from exc
    _REFERENCES[key] = chain
    if len(_REFERENCES) > _SHARED_REFERENCES:
        del _REFERENCES[next(iter(_REFERENCES))]
    return chain


@dataclass
class InverseProblem:
    """The optimizable core of one experiment.

    ``objective(theta) -> (loss, gradient)`` rebuilds the tape-recorded
    forward chain on every call; ``newton_per_eval`` gains one entry per
    call, the Newton iteration count of the evaluation, or None when it
    failed.  ``linear_solves`` totals the linear solves of the inversion:
    every objective evaluation and its adjoint, and the final prediction.  ``forward``, the chain the
    objective runs, holds the grid, the reference coefficient and the
    synthetic data; it is shared among problems of the same physics and
    read-only, and its reference solves are data synthesis, not counted.
    ``linear_solves`` is the problem's own.
    """

    config: ExperimentConfig
    forward: ForwardChain
    objective: callable
    theta0: np.ndarray
    model: object
    observations: ObservationSet
    newton_per_eval: list
    linear_solves: LinearSolveCounts


def build_problem(config):
    """Synthesize observations and close over the experiment objective.

    The synthetic data are every field of the forward chain at the
    reference coefficient; the objective runs the same chain at the
    model's coefficient.  The chain, which holds the reference coefficient
    and the synthetic data, is shared, bit for bit and read-only, with
    recent problems of the same physics (see :func:`forward_chain`), so a
    sweep over noise levels and observation draws builds and solves it
    once.  A warm build only draws and checks the noisy observations, in
    one pass (:func:`make_observations`), and initialises the model.
    """
    # the checks that the forward command, which observes nothing, skips:
    # a spec default count of points must fit the grid, and data determine
    # no coefficient of a flow at rest (lid speed 0) or, for a frozen flow,
    # of a temperature at its wall value (no heat source)
    spec = SPECS[config.experiment]
    n_points = config.n_points or spec.n_points or config.grid_n ** 2
    _check_n_points(n_points, config.grid_n)
    setting, fault = "lid_speed", "flow at rest"
    if spec.frozen_viscosity is not None:
        setting, fault = "heat_source", "temperature at its wall value"
    if getattr(config, setting) == 0.0:
        raise ContractError(
            f"{setting} 0 leaves the {config.experiment} {fault} whatever "
            f"its {spec.coef_name}, so no data can determine it")
    chain = forward_chain(config)
    grid = chain.grid
    counts = LinearSolveCounts()

    obs = make_observations(grid, chain.synthetic, n_points,
                            config.components, config.obs_seed,
                            config.noise_epsilon)
    # the data that involve the coefficient.  Every predicted field is
    # prescribed on the walls, but the pressure, which is pinned at node 0
    seen = _coefficient_fields(spec, obs.components)
    sees = ~grid.wall_mask[obs.locations]
    if "p" in seen:
        sees |= obs.locations != 0
    if not sees.any():
        raise ContractError(
            f"the {obs.n_points} observation point(s) drawn with seed "
            f"{config.obs_seed} all lie where {', '.join(seen)} "
            f"are prescribed whatever the {spec.coef_name} (on the walls, "
            f"and p at node 0), so no data can determine it")
    values = [obs.values[comp] for comp in seen]
    if (sum(float(x @ x) for x in values) == 0.0
            and any(x.any() for x in values)):
        raise ContractError(
            f"the observed {', '.join(seen)} underflow with "
            f"{_changed_settings(config)}: their squares sum to 0, so the "
            f"loss cannot see the {spec.coef_name}")

    # --- coefficient model and the objective
    model, theta0 = init_params(config.variant, config.init_seed,
                                init_scale=config.init_scale,
                                offset=config.offset,
                                clamp_floor=config.clamp_floor,
                                n_nodes=grid.n_nodes)
    newton = []

    def objective(theta):
        newton.append(None)
        t = Tape()
        th = t.variable(theta)
        coef = eval_field_on_grid(t, model, th, grid)
        predicted, flow = chain(t, coef, counts)
        loss = compute_loss(t, predicted, obs, grid.n_nodes)
        grads = t.backward(loss)
        newton[-1] = flow.newton_iterations_used
        return float(t.value(loss)[0]), grads[th]

    return InverseProblem(
        config=config, forward=chain, objective=objective, theta0=theta0,
        model=model, observations=obs, newton_per_eval=newton,
        linear_solves=counts)


def run_experiment(config, progress=None):
    """Full protocol: synthesize, observe, fit, and report.

    ``progress(step, loss)`` is invoked after each accepted optimizer step.
    """
    started = time.perf_counter()
    problem = build_problem(config)
    cfg = problem.config
    chain = problem.forward
    report_fields = chain.spec.report_fields
    # the prediction error of a field is relative to the field (see
    # relative_mse), so a field that is zero at the reference fails the
    # report; say so before the fit instead of after it
    for name in report_fields:
        values = chain.synthetic[name]
        if values @ values == 0.0:
            raise ContractError(
                f"{cfg.experiment} has the reference field {name} "
                f"identically zero with {_changed_settings(cfg)}, so its "
                f"prediction error is undefined")
    def on_step(step, theta, loss, grad):
        if progress is not None:
            progress(step, loss)

    opt_cfg = OptimizerConfig(max_steps=cfg.max_steps, memory=cfg.memory,
                              lower_bound=problem.model.lower_bound)
    with blame_settings(cfg):
        result = lbfgs_optimize(problem.objective, problem.theta0, opt_cfg,
                                callback=on_step)

    # --- final estimate and error metrics
    problem.model.reset_diagnostics()
    t = Tape()
    est_ref = eval_field_on_grid(t, problem.model, t.variable(result.theta),
                                 chain.grid)
    estimate = t.value(est_ref).copy()
    mse = relative_mse(estimate, chain.reference_nodal)
    scale, shape_mse = shape_error(estimate, chain.reference_nodal)

    predicted = (chain.values(estimate, problem.linear_solves)
                 if report_fields else {})
    predicted = {name: predicted[name] for name in report_fields}
    prediction_mse = {name: relative_mse(values, chain.synthetic[name])
                      for name, values in predicted.items()} or None

    echo = asdict(cfg)
    echo["components"] = list(cfg.components)
    echo["n_points"] = problem.observations.n_points
    return RunReport(
        experiment=cfg.experiment, variant=cfg.variant,
        loss_history=list(result.loss_history),
        initial_loss=result.initial_loss, final_loss=result.loss,
        relative_mse_percent=mse, coefficient_scale=scale,
        shape_error_percent=shape_mse,
        # each step takes the Newton count of the evaluation it accepted
        newton_iters=[problem.newton_per_eval[k - 1]
                      for k in result.accepted_evals],
        wall_clock_seconds=time.perf_counter() - started,
        config_echo=echo, converged=result.converged,
        stop_reason=result.stop_reason, n_steps=result.n_steps,
        n_evals=result.n_evals, rejections=result.rejections,
        line_search={
            "evals_per_step": list(result.evals_per_step),
            "rejected_trials": [
                {"step": step, "alpha": alpha, "reason": reason}
                for step, alpha, reason in result.rejected_trials]},
        linear_solves=asdict(problem.linear_solves),
        prediction_mse_percent=prediction_mse,
        presolve_newton_iters=(None if chain.frozen is None
                               else len(chain.trace)),
        theta=result.theta, estimate_nodal=estimate,
        reference_nodal=chain.reference_nodal,
        observations=problem.observations, predicted_nodal=predicted)

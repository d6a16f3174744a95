"""Inverse-problem drivers: the experiment table, observations, loss, protocol.

Each experiment is one :class:`ExperimentSpec` in ``SPECS``, and all follow
one protocol.  The spec's forward chain maps a nodal coefficient field to
predicted nodal fields.  Run at the spec's reference coefficient it
synthesizes the data, which are sampled and optionally perturbed; recorded
on the tape at a coefficient model's output it is the objective that L-BFGS
fits.  Adding an experiment means adding one spec.

  cavity_viscosity   unknown viscosity nu(x, y); lid-driven cavity velocities
                     observed (both components).
  conjugate_heat     unknown conductivity k(x, y); the flow is computed once
                     with constant viscosity 1 and frozen, u, v, T observed
                     at sampled nodes.
  passive_transport  unknown layered viscosity nu(x); final-step particle
                     velocities (w1, w2) observed at sampled nodes.

Observation synthesis uses the same grid and discretization as the
inversion, so data are exactly reproducible by the model class (the usual
inverse-crime caveat applies; errors quoted against the reference field).
A :class:`ForwardChain` (the grid, the flow and heat setups and a frozen
flow) solves itself once at the reference coefficient and keeps the
reference coefficient, the synthesis and the Newton trace of that solve.
All of it depends only on the physics fields of a config, so problems that
differ only in their observations, noise or model, and the ``forward``
command, share one chain, read-only (:func:`forward_chain`, the one place
a reference is solved).  What one problem changes, its linear-solve
counts, it holds itself and hands to the chain on every call.
"""

import copy
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from types import MappingProxyType

import numpy as np

from . import ops
from .errors import ContractError, NumericError
from .grid import StructuredGrid, uniform_boundary_bc
from .models import eval_field_on_grid, init_params
from .optimize import OptimizerConfig, lbfgs_optimize
from .solver import (
    FlowSetup,
    HeatSetup,
    NewtonConfig,
    NSState,
    PhysicsConstants,
    default_cavity_bcs,
    heat_solve,
    newton_solve,
    ns_jacobian,
    transport_integrate,
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
    "build_problem",
    "forward_chain",
    "reference_field",
    "make_observations",
    "add_noise",
    "compute_loss",
    "relative_mse",
    "run_experiment",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that sets one experiment apart from the others.

    ``forward(tape, chain, coef, counts)`` records, from the nodal
    coefficient ``coef``, every predicted nodal field and returns them by
    name with the :class:`NSState` of the flow used (``chain`` is a
    :class:`ForwardChain`); its linear solves add to ``counts``.
    ``variant`` to ``init_seed`` default the config fields of those names;
    ``n_points = None`` observes every node.  ``report_fields`` are
    predicted at the final estimate.  A ``frozen_viscosity`` means the flow
    does not involve the coefficient: it is solved once at that viscosity.
    """

    reference: object
    coef_name: str
    forward: object
    variant: str
    components: tuple
    n_points: int
    offset: float
    init_scale: float
    init_seed: int
    report_fields: tuple = ()
    frozen_viscosity: float = None


def _flow_fields(flow):
    return {"u": flow.u, "v": flow.v, "p": flow.p}


def _cavity_forward(tape, chain, nu, counts):
    flow = chain.solve_flow(tape, nu, counts)
    return _flow_fields(flow), flow


def _heat_forward(tape, chain, k, counts):
    flow = chain.frozen_flow(tape)
    temp = heat_solve(tape, chain.heat_setup, k, counts)
    return dict(_flow_fields(flow), T=temp), flow


def _transport_forward(tape, chain, nu, counts):
    flow = chain.solve_flow(tape, nu, counts)
    pt = transport_integrate(tape, flow, chain.constants, dt=chain.cfg.dt,
                             n_steps=chain.cfg.transport_steps)
    return dict(_flow_fields(flow), w1=pt.w1, w2=pt.w2), flow


# Recovery quality of the cavity inversion varies strongly across weight
# draws (velocities at lid speed 1 barely see the scale of the viscosity):
# the default cavity config reaches 1.45% coefficient error at init seed 21
# and 23.7-46.2% at init seeds 1-5.  The transport coefficient
# sits near 0.01, so its initial network output must stay well under the
# offset to keep the clamp inactive at the start.
SPECS = {
    "cavity_viscosity": ExperimentSpec(
        reference=lambda x, y: 1.0 + 6.0 * x ** 2 + x / (1.0 + 2.0 * y ** 2),
        coef_name="nu", forward=_cavity_forward, variant="dnn2d",
        components=("u", "v"), n_points=None, offset=1.0, init_scale=1.0,
        init_seed=21, report_fields=("u", "v", "p")),
    "conjugate_heat": ExperimentSpec(
        reference=lambda x, y: 1.0 + x ** 2 + x / (1.0 + y ** 2),
        coef_name="k", forward=_heat_forward, variant="dnn2d",
        components=("u", "v", "T"), n_points=40, offset=1.0, init_scale=1.0,
        init_seed=3, frozen_viscosity=1.0),
    "passive_transport": ExperimentSpec(
        reference=lambda x, y: 0.01 + 0.01 / (1.0 + x ** 2),
        coef_name="nu", forward=_transport_forward, variant="dnn_layered",
        components=("w1", "w2"), n_points=22, offset=0.01, init_scale=0.1,
        init_seed=3),
}
EXPERIMENTS = tuple(SPECS)

# config fields whose ``None`` takes the value of the spec field of that name
_SPEC_DEFAULTS = ("variant", "components", "n_points", "offset",
                  "init_scale", "init_seed")


def _spec(experiment):
    if experiment not in SPECS:
        raise ContractError(f"unknown experiment {experiment!r}; "
                            f"expected one of {EXPERIMENTS}")
    return SPECS[experiment]


def reference_field(experiment, coords):
    """The hard-coded ground-truth coefficient field of each experiment."""
    return _spec(experiment).reference(coords[:, 0], coords[:, 1])


def _check_finite(values, components):
    for comp in components:
        if not np.all(np.isfinite(values[comp])):
            raise ContractError(f"non-finite observation in {comp!r}")


@dataclass(frozen=True)
class ObservationSet:
    """Sampled node indices with observed values per component."""

    locations: np.ndarray
    components: tuple
    values: dict
    noise_epsilon: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        locations = np.asarray(self.locations, dtype=np.intp)
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "components", tuple(self.components))
        ordered = np.sort(locations, axis=None)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ContractError("observation locations must be distinct")
        for comp in self.components:
            vals = np.asarray(self.values[comp], dtype=np.float64)
            if vals.shape != locations.shape:
                raise ContractError(
                    f"component {comp!r} has {vals.shape} values for "
                    f"{locations.shape} locations")
        _check_finite(self.values, self.components)

    @property
    def n_points(self):
        return self.locations.size


def make_observations(grid, reference_solution, n_points, components, seed):
    """Sample distinct node indices; the full node count keeps node order."""
    n = grid.n_nodes
    if n_points > n:
        raise ContractError(f"cannot sample {n_points} of {n} nodes")
    if n_points < 1:
        raise ContractError("need at least one observation point")
    if n_points == n:
        locations = np.arange(n)
    else:
        rng = np.random.default_rng(seed)
        locations = rng.choice(n, size=n_points, replace=False)
    values = {}
    for comp in components:
        if comp not in reference_solution:
            raise ContractError(f"reference solution lacks component {comp!r}")
        values[comp] = np.asarray(reference_solution[comp])[locations]
    return ObservationSet(locations, tuple(components), values, 0.0, seed)


def add_noise(obs, epsilon, seed):
    """Multiplicative noise: value * (1 + eta), eta ~ Uniform[-eps, eps].

    The copy keeps the locations ``obs`` validated; only its values, which
    can overflow, are checked again, and so is the sum of their squares,
    which bounds the size of a loss against them.
    """
    if epsilon < 0:
        raise ContractError("noise level must be nonnegative")
    rng = np.random.default_rng(seed)
    values = {}
    for comp in obs.components:
        eta = rng.uniform(-epsilon, epsilon, size=obs.n_points)
        values[comp] = obs.values[comp] * (1.0 + eta)
    _check_finite(values, obs.components)
    with np.errstate(over="ignore"):
        squares = sum(float(values[comp] @ values[comp])
                      for comp in obs.components)
    if not np.isfinite(squares):
        raise ContractError(
            f"noisy observations at noise level {epsilon:g} have a sum of "
            f"squares beyond the floating-point range")
    noisy = copy.copy(obs)
    object.__setattr__(noisy, "values", values)
    object.__setattr__(noisy, "noise_epsilon", float(epsilon))
    return noisy


def compute_loss(tape, predicted, obs):
    """Sum of squared mismatches over every observed component and point."""
    total = None
    for comp in obs.components:
        if comp not in predicted:
            raise ContractError(f"prediction lacks observed component {comp!r}")
        at_pts = ops.gather(tape, predicted[comp], obs.locations)
        diff = ops.sub(tape, at_pts, tape.constant(obs.values[comp]))
        term = ops.vsum(tape, ops.square(tape, diff))
        total = term if total is None else ops.add(tape, total, term)
    return total


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


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; ``None`` fields take experiment defaults."""

    experiment: str = "cavity_viscosity"
    variant: str = None
    grid_n: int = 21
    n_points: int = None
    components: tuple = None
    noise_epsilon: float = 0.0
    obs_seed: int = 7
    init_seed: int = None
    init_scale: float = None
    offset: float = None
    clamp_floor: float = 1e-6
    max_steps: int = 100
    memory: int = 50
    newton_tol: float = 1e-8
    newton_max_iter: int = 10
    beta: float = 0.01
    dt: float = 0.1
    transport_steps: int = 50
    rho: float = 1.0
    cp: float = 1.0
    heat_source: float = 1.0
    heat_bc_value: float = 0.0
    kappa1: float = 1.0
    kappa2: float = 1.0
    lid_speed: float = 1.0
    debug_fd_check: bool = False

    def __post_init__(self):
        _spec(self.experiment)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and value is not None and not math.isfinite(value):
                raise ContractError(f"{f.name} must be finite, got {value}")
        # a zero stabilization weight leaves the pressure oscillating, and
        # the particle transport's implicit-Euler steps go forward in time
        for name in ("beta", "dt"):
            if not getattr(self, name) > 0.0:
                raise ContractError(
                    f"{name} must be positive, got {getattr(self, name)}")
        # a floor below zero would let the clamped coefficient go negative;
        # numpy seeds its generators from nonnegative integers only, and a
        # negative scale would give the weight draw an empty range
        for name in ("clamp_floor", "obs_seed", "init_seed", "init_scale"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ContractError(
                    f"{name} must be nonnegative, got {value}")
        # checked here as well as in OptimizerConfig, so a run stops before
        # the synthesis solve
        for name in ("max_steps", "memory"):
            if getattr(self, name) < 1:
                raise ContractError(
                    f"{name} must be at least 1, got {getattr(self, name)}")

    def resolved(self):
        """A copy with every ``None`` replaced by its experiment default."""
        spec = SPECS[self.experiment]
        fills = {name: getattr(spec, name) for name in _SPEC_DEFAULTS
                 if getattr(self, name) is None}
        if "n_points" in fills and fills["n_points"] is None:
            fills["n_points"] = self.grid_n ** 2
        cfg = replace(self, **fills) if fills else self
        # the pointwise fit bounds every nodal value below at the clamp
        # floor, where the clamp stops acting; the bound keeps the
        # coefficient positive
        if cfg.variant == "pointwise" and not cfg.clamp_floor > 0.0:
            raise ContractError(
                f"the pointwise variant needs a positive clamp_floor, got "
                f"{cfg.clamp_floor}")
        if cfg.transport_steps < 1:
            raise ContractError(
                f"transport_steps must be at least 1, got "
                f"{cfg.transport_steps}")
        return cfg

    def check_n_points(self):
        """Raise unless ``n_points`` is unset or fits the grid's nodes.

        ``build_problem`` checks the resolved count; the ``forward``
        command, which observes nothing, checks only a count that was set.
        """
        n_nodes = self.grid_n ** 2
        if self.n_points is not None and not 1 <= self.n_points <= n_nodes:
            raise ContractError(
                f"n_points must be between 1 and the {n_nodes} nodes of "
                f"the grid, got {self.n_points}")

    def physics(self):
        return PhysicsConstants(rho=self.rho, cp=self.cp,
                                heat_source_q=self.heat_source,
                                kappa1=self.kappa1, kappa2=self.kappa2)

    def newton(self):
        return NewtonConfig(self.newton_tol, self.newton_max_iter)


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
    once.  A spec with a ``frozen_viscosity`` has its flow presolved once:
    ``frozen`` maps its ``u``, ``v`` and ``p`` to read-only arrays, and
    ``heat_setup`` is the :class:`HeatSetup` of that flow.

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
        self.flow_setup = FlowSetup(
            grid, default_cavity_bcs(grid, cfg.lid_speed), self.constants,
            cfg.beta)
        self.frozen_nu = self.frozen = self.heat_setup = None
        if self.spec.frozen_viscosity is not None:
            self.frozen_nu = _read_only(
                np.full(grid.n_nodes, self.spec.frozen_viscosity))
            t = Tape()
            flow = self.solve_flow(t, t.constant(self.frozen_nu),
                                   LinearSolveCounts())
            self.frozen = MappingProxyType(
                {name: _read_only(t.value(ref))
                 for name, ref in _flow_fields(flow).items()})
            self.trace = tuple(flow.trace)
            self.heat_setup = HeatSetup(
                grid, self.frozen["u"], self.frozen["v"], self.constants,
                uniform_boundary_bc(grid, cfg.heat_bc_value))
        self.reference_nodal = _read_only(
            reference_field(cfg.experiment, grid.coords))
        t = Tape()
        predicted, flow = self(t, t.constant(self.reference_nodal),
                               LinearSolveCounts())
        self.synthetic = MappingProxyType(
            {name: _read_only(t.value(ref))
             for name, ref in predicted.items()})
        self.trace = tuple(flow.trace)

    def __call__(self, tape, coef, counts):
        return self.spec.forward(tape, self, coef, counts)

    def solve_flow(self, tape, nu, counts):
        """Newton solve of the lid-driven flow at nodal viscosity ``nu``."""
        return newton_solve(tape, self.flow_setup, nu, self.newton,
                            counts=counts)

    def frozen_flow(self, tape):
        """The presolved flow as constants of ``tape``.

        It spends no Newton iterations of its own and carries the trace of
        the presolve.
        """
        u, v, p = (tape.constant(self.frozen[name]) for name in ("u", "v", "p"))
        return NSState(u, v, p, 0, self.trace)

    def jacobian(self):
        """Constrained Newton matrix of the flow at the reference solution,
        as a scipy CSR matrix."""
        nu = self.reference_nodal if self.frozen_nu is None else self.frozen_nu
        x = np.concatenate([self.synthetic[name] for name in ("u", "v", "p")])
        return ns_jacobian(self.flow_setup, x, nu)

    def values(self, coef_nodal, counts):
        """Every predicted field at a fixed coefficient, as nodal arrays."""
        t = Tape()
        predicted, _ = self(t, t.constant(coef_nodal), counts)
        return {name: t.value(ref) for name, ref in predicted.items()}


def _read_only(values):
    """An owned, read-only copy of ``values``."""
    values = np.array(values, dtype=np.float64)
    values.flags.writeable = False
    return values


# Config fields that never reach the forward chain at the reference
# coefficient; every other field, one added later included, keys the
# shared chains.
_DATA_FIELDS = frozenset((
    "variant", "n_points", "components", "noise_epsilon", "obs_seed",
    "init_seed", "init_scale", "offset", "clamp_floor", "max_steps",
    "memory", "debug_fd_check"))
# Most forward chains kept for reuse at once.
_SHARED_REFERENCES = 4
_REFERENCES = {}  # value key of the physics -> ForwardChain, least recently used first


def _changed_physics(cfg):
    """The physics settings of a resolved config that differ from the
    experiment's defaults, as "name = value" text."""
    default = ExperimentConfig(cfg.experiment)
    changed = [f"{f.name} = {getattr(cfg, f.name)!r}" for f in fields(cfg)
               if f.name != "experiment" and f.name not in _DATA_FIELDS
               and getattr(cfg, f.name) != getattr(default, f.name)]
    return ", ".join(changed) or "the default settings"


def forward_chain(cfg):
    """The shared :class:`ForwardChain` of a resolved config, built and
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
    names the settings that differ from their defaults.
    """
    key = tuple((f.name, repr(getattr(cfg, f.name))) for f in fields(cfg)
                if f.name not in _DATA_FIELDS)
    chain = _REFERENCES.pop(key, None)
    if chain is None:
        try:
            chain = ForwardChain(cfg)
        except NumericError as exc:
            raise ContractError(
                f"{cfg.experiment} cannot be solved at its reference "
                f"coefficient with {_changed_physics(cfg)}: {exc}") from exc
    _REFERENCES[key] = chain
    if len(_REFERENCES) > _SHARED_REFERENCES:
        del _REFERENCES[next(iter(_REFERENCES))]
    return chain


@dataclass
class InverseProblem:
    """The optimizable core of one experiment.

    ``objective(theta) -> (loss, gradient)`` rebuilds the tape-recorded
    forward chain on every call; ``eval_note["newton"]`` holds the Newton
    iteration count of the most recent evaluation.  ``linear_solves`` totals
    the linear solves of the inversion: every objective evaluation and its
    adjoint, and the final prediction.  ``forward``, the chain the
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
    eval_note: dict
    linear_solves: LinearSolveCounts


def build_problem(config):
    """Synthesize observations and close over the experiment objective.

    The synthetic data are every field of the forward chain at the
    reference coefficient; the objective runs the same chain at the
    model's coefficient.  The chain, which holds the reference coefficient
    and the synthetic data, is shared, bit for bit and read-only, with
    recent problems of the same physics (see :func:`forward_chain`), so a
    sweep over noise levels and observation draws builds and solves it
    once.  A warm build only draws the observations, adds their noise and
    initialises the model.
    """
    cfg = config.resolved()
    cfg.check_n_points()
    # at lid speed 0 the flow is at rest whatever its viscosity, so data
    # cannot determine it; a frozen flow at rest still carries heat
    if cfg.lid_speed == 0.0 and SPECS[cfg.experiment].frozen_viscosity is None:
        raise ContractError(
            f"lid_speed 0 leaves the {cfg.experiment} flow at rest whatever "
            f"its {SPECS[cfg.experiment].coef_name}, so no data can "
            f"determine it")
    chain = forward_chain(cfg)
    grid = chain.grid
    counts = LinearSolveCounts()

    obs = make_observations(grid, chain.synthetic, cfg.n_points,
                            cfg.components, cfg.obs_seed)
    obs = add_noise(obs, cfg.noise_epsilon, cfg.obs_seed + 1)

    # --- coefficient model and the objective
    model, theta0 = init_params(cfg.variant, cfg.init_seed,
                                init_scale=cfg.init_scale, offset=cfg.offset,
                                clamp_floor=cfg.clamp_floor,
                                n_nodes=grid.n_nodes)
    eval_note = {"newton": 0}

    def objective(theta):
        t = Tape()
        th = t.variable(theta)
        coef = eval_field_on_grid(t, model, th, grid)
        predicted, flow = chain(t, coef, counts)
        eval_note["newton"] = flow.newton_iterations_used
        loss = compute_loss(t, predicted, obs)
        grads = t.backward(loss)
        return float(t.value(loss)[0]), grads[th]

    return InverseProblem(
        config=cfg, forward=chain, objective=objective, theta0=theta0,
        model=model, observations=obs, eval_note=eval_note,
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
                f"identically zero with {_changed_physics(cfg)}, so its "
                f"prediction error is undefined")
    newton_per_step = []

    def on_step(step, theta, loss, grad):
        newton_per_step.append(problem.eval_note["newton"])
        if progress is not None:
            progress(step, loss)

    bound = cfg.clamp_floor if cfg.variant == "pointwise" else -math.inf
    opt_cfg = OptimizerConfig(max_steps=cfg.max_steps, memory=cfg.memory,
                              lower_bound=bound,
                              debug_fd_check=cfg.debug_fd_check,
                              fd_seed=cfg.obs_seed)
    # the starting parameters, the bound and the physics all come from the
    # config, so an objective that fails at the start is the config's fault
    try:
        result = lbfgs_optimize(problem.objective, problem.theta0, opt_cfg,
                                callback=on_step)
    except ContractError as exc:
        raise ContractError(
            f"{cfg.experiment} cannot be fitted with "
            f"{_changed_physics(cfg)}: {exc}") from exc

    # --- final estimate and error metrics
    problem.model.reset_diagnostics()
    t = Tape()
    est_ref = eval_field_on_grid(t, problem.model, t.variable(result.theta),
                                 chain.grid)
    estimate = t.value(est_ref).copy()
    mse = relative_mse(estimate, chain.reference_nodal)

    predicted = (chain.values(estimate, problem.linear_solves)
                 if report_fields else {})
    predicted = {name: predicted[name] for name in report_fields}
    prediction_mse = {name: relative_mse(values, chain.synthetic[name])
                      for name, values in predicted.items()} or None

    echo = asdict(cfg)
    echo["components"] = list(cfg.components)
    return RunReport(
        experiment=cfg.experiment, variant=cfg.variant,
        loss_history=list(result.loss_history),
        initial_loss=result.initial_loss, final_loss=result.loss,
        relative_mse_percent=mse, newton_iters=newton_per_step,
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

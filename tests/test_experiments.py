"""Observation synthesis, loss plumbing, and the experiment protocol."""

import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg

from flowgrad import experiments, ops, solver
from flowgrad.assembly import GridOperators, operators_for
from flowgrad.errors import ContractError, NewtonDivergedError, NumericError
from flowgrad.experiments import (
    EXPERIMENTS,
    SPECS,
    ExperimentConfig,
    ObservationSet,
    build_problem,
    compute_loss,
    make_observations,
    reference_field,
    relative_mse,
    run_experiment,
    shape_error,
)
from flowgrad.grid import DirichletSpec, StructuredGrid
from flowgrad.models import eval_field_on_grid, init_params
from flowgrad.sparse import LinearSolveCounts, LuFactors
from flowgrad.tape import Tape


def _fake_solution(grid, seed=0):
    rng = np.random.default_rng(seed)
    return {"u": rng.normal(size=grid.n_nodes), "v": rng.normal(size=grid.n_nodes)}


# --- make_observations


def test_full_grid_observation_keeps_node_order():
    grid = StructuredGrid(5)
    sol = _fake_solution(grid)
    obs = make_observations(grid, sol, grid.n_nodes, ("u", "v"), seed=1)
    assert np.array_equal(obs.locations, np.arange(grid.n_nodes))
    assert np.array_equal(obs.values["u"], sol["u"])


def test_subsample_is_distinct_and_in_range():
    grid = StructuredGrid(21)
    obs = make_observations(grid, _fake_solution(grid), 40, ("u",), seed=3)
    assert obs.n_points == 40
    assert np.unique(obs.locations).size == 40
    assert obs.locations.min() >= 0 and obs.locations.max() < 441


def test_duplicate_location_rejected():
    values = {"u": np.zeros(4)}
    ObservationSet(np.array([3, 1, 7, 0]), ("u",), values)
    with pytest.raises(ContractError, match="distinct"):
        ObservationSet(np.array([3, 1, 7, 3]), ("u",), values)
    with pytest.raises(ContractError, match="distinct"):
        ObservationSet(np.array([5, 5]), ("u",), {"u": np.zeros(2)})


@pytest.mark.parametrize("locations", [[5, -1], [[0, 1]], [0.0, 1.0],
                                       [True, False]])
def test_observation_locations_must_be_node_indices(locations):
    # a negative index would read a node from the end of a field
    with pytest.raises(ContractError, match="observation locations must be"):
        ObservationSet(locations, ("u",), {"u": np.ones(2)})


def test_observed_component_without_values_rejected():
    with pytest.raises(ContractError,
                       match="no observed values for component 'v'"):
        ObservationSet([0, 1], ("u", "v"), {"u": np.ones(2)})


def test_same_seed_same_locations():
    grid = StructuredGrid(9)
    a = make_observations(grid, _fake_solution(grid), 12, ("u",), seed=5)
    b = make_observations(grid, _fake_solution(grid), 12, ("u",), seed=5)
    c = make_observations(grid, _fake_solution(grid), 12, ("u",), seed=6)
    assert np.array_equal(a.locations, b.locations)
    assert not np.array_equal(a.locations, c.locations)


def test_too_many_points_rejected():
    grid = StructuredGrid(4)
    with pytest.raises(ContractError):
        make_observations(grid, _fake_solution(grid), 17, ("u",), seed=0)


def test_observed_values_match_solution_at_locations():
    grid = StructuredGrid(7)
    sol = _fake_solution(grid, seed=2)
    obs = make_observations(grid, sol, 10, ("u", "v"), seed=9)
    for comp in ("u", "v"):
        assert np.array_equal(obs.values[comp], sol[comp][obs.locations])


# --- noise, drawn by make_observations


def test_zero_noise_is_identity():
    grid = StructuredGrid(6)
    sol = _fake_solution(grid)
    obs = make_observations(grid, sol, 8, ("u",), seed=0, epsilon=0.0)
    assert np.array_equal(obs.values["u"], sol["u"][obs.locations])
    assert obs.noise_epsilon == 0.0


def test_noise_is_bounded_multiplicative():
    # the noise has its own stream, so the same seed draws the same nodes
    grid = StructuredGrid(8)
    sol = _fake_solution(grid)
    clean = make_observations(grid, sol, 20, ("u", "v"), seed=1)
    noisy = make_observations(grid, sol, 20, ("u", "v"), seed=1, epsilon=0.05)
    assert np.array_equal(noisy.locations, clean.locations)
    for comp in ("u", "v"):
        ratio = noisy.values[comp] / clean.values[comp]
        assert np.all(np.abs(ratio - 1.0) <= 0.05)
    assert noisy.noise_epsilon == 0.05


def _constant_solution(value):
    """A 2 x 4 grid whose ``u`` is ``value`` at each of its 8 nodes."""
    grid = StructuredGrid(2, 4)
    return grid, {"u": np.full(grid.n_nodes, value)}


def test_noise_overflow_rejected():
    # 1.7e308 (1 + eta) with |eta| <= 0.5 overflows the largest double
    # (1.8e308) for this draw
    grid, sol = _constant_solution(1.7e308)
    with np.errstate(over="ignore"), pytest.raises(
            ContractError, match="non-finite observation"):
        make_observations(grid, sol, 8, ("u",), seed=0, epsilon=0.5)


def test_noise_whose_squares_overflow_rejected():
    # every noisy value is finite, but the sum of their squares, and with it
    # any loss against them, is not: 1e308 (1 + eta) with |eta| <= 0.5, or
    # 1 + eta with |eta| <= 1e300
    for value, epsilon in ((1e308, 0.5), (1.0, 1e300)):
        grid, sol = _constant_solution(value)
        with pytest.raises(ContractError, match="sum of squares"):
            make_observations(grid, sol, 8, ("u",), seed=0, epsilon=epsilon)
    grid, sol = _constant_solution(1e150)
    obs = make_observations(grid, sol, 8, ("u",), seed=0, epsilon=0.5)
    assert np.isfinite(obs.values["u"]).all()


@pytest.mark.parametrize("epsilon", [9e307, 1e308, np.finfo(float).max])
def test_noise_whose_draw_range_overflows_rejected(epsilon):
    # numpy cannot draw eta over [-eps, eps] once 2 eps leaves the doubles
    grid, sol = _constant_solution(1.0)
    with pytest.raises(ContractError, match="draw range"):
        make_observations(grid, sol, 8, ("u",), seed=0, epsilon=epsilon)


def test_noise_deterministic_per_seed():
    # every node is observed, so only the noise depends on the seed
    grid = StructuredGrid(6)
    sol = _fake_solution(grid)
    a, b, c = (make_observations(grid, sol, 36, ("u",), seed=seed,
                                 epsilon=0.01) for seed in (7, 7, 8))
    assert np.array_equal(a.values["u"], b.values["u"])
    assert not np.array_equal(a.values["u"], c.values["u"])


def test_negative_noise_rejected():
    grid = StructuredGrid(4)
    with pytest.raises(ContractError, match="nonnegative"):
        make_observations(grid, _fake_solution(grid), 4, ("u",), seed=0,
                          epsilon=-0.01)


# Literal draws, so that a change to the code that draws cannot change the
# data or the starting point of a fit unseen: identical configs give
# bit-identical reports across versions.  The solution is 1 at every node,
# so each value is its noise factor 1 + eta.
@pytest.mark.parametrize("n,n_points,seed,epsilon,locations,u,v", [
    (5, 6, 1, 0.05, [16, 10, 21, 9, 3, 0],
     [0.9761612134249317, 0.9798491143414123], 0.9687901073366604),
    (21, 22, 7, 0.01, [128, 379, 396, 263, 376, 288],
     [0.9965394455321113, 1.0097455368667585], 0.9974277425688479),
    (21, 40, 3, 0.05, [376, 307, 16, 198, 95, 190],
     [1.0443056105572368, 1.0011327552814362], 1.019255204471056),
    (6, 36, 2, 0.5, [0, 1, 2, 3, 4, 5],
     [0.5856491671436244, 0.7368105065960997], 0.7981630906574247),
])
def test_observation_draws_are_pinned(n, n_points, seed, epsilon, locations,
                                      u, v):
    grid = StructuredGrid(n)
    ones = {"u": np.ones(grid.n_nodes), "v": np.ones(grid.n_nodes)}
    obs = make_observations(grid, ones, n_points, ("u", "v"), seed, epsilon)
    assert obs.locations[:6].tolist() == locations
    assert obs.values["u"][:2].tolist() == u
    assert obs.values["v"][0] == v


@pytest.mark.parametrize("variant,seed,init_scale,first,output", [
    ("dnn2d", 21, 1.0,
     [0.29361774545557817, 0.11055361678552533, 0.2191301966580821],
     -0.42883666788282837),
    ("dnn_layered", 3, 0.1,
     [-0.04429596727065694, -0.028136140346171293, 0.03220759509102525],
     0.014944239198655243),
    ("dnn2d", 0, 2.0,
     [0.2861036338158718, -0.4808998708541229, -0.9588750356974977],
     -0.04409661588674196),
])
def test_initial_parameters_are_pinned(variant, seed, init_scale, first,
                                       output):
    # the first weights of the input layer, the first weight of the output
    # layer (its 20 weights and 1 bias close the vector) and its zero bias
    _, theta0 = init_params(variant, seed, init_scale=init_scale)
    assert theta0[:3].tolist() == first
    assert theta0[-21] == output and theta0[-1] == 0.0


@pytest.mark.parametrize("call", [
    pytest.param(lambda grid, sol: make_observations(grid, sol, 4, ("u",),
                                                     seed=-1),
                 id="negative_seed"),
    pytest.param(lambda grid, sol: make_observations(grid, sol, 2.5, ("u",),
                                                     seed=0),
                 id="fractional_n_points"),
    pytest.param(lambda grid, sol: make_observations(
        grid, sol, 4, ("u",), seed=0, epsilon=float("nan")), id="nan_noise"),
    pytest.param(lambda grid, sol: ObservationSet([0, 1], ("u",),
                                                  {"u": ["a", "b"]}),
                 id="text_values"),
    pytest.param(lambda grid, sol: ObservationSet([[0, 1], [2]], ("u",),
                                                  {"u": [1.0]}),
                 id="ragged_locations"),
])
def test_bad_python_argument_is_a_contract_error(call):
    # each of these raised numpy's own ValueError, TypeError or
    # OverflowError
    grid = StructuredGrid(4)
    with pytest.raises(ContractError):
        call(grid, _fake_solution(grid))


# --- compute_loss


def test_loss_zero_when_prediction_matches():
    grid = StructuredGrid(5)
    sol = _fake_solution(grid)
    obs = make_observations(grid, sol, 6, ("u", "v"), seed=2)
    t = Tape()
    predicted = {c: (t.constant(sol[c]), 0) for c in ("u", "v")}
    loss = compute_loss(t, predicted, obs, grid.n_nodes)
    assert t.value(loss)[0] == 0.0


def test_loss_single_point_difference_two_gives_four():
    grid = StructuredGrid(2)
    obs = make_observations(grid, {"u": np.zeros(4)}, 1, ("u",), seed=0)
    t = Tape()
    pred = np.zeros(4)
    pred[obs.locations[0]] = 2.0
    loss = compute_loss(t, {"u": (t.constant(pred), 0)}, obs, 4)
    assert t.value(loss)[0] == 4.0


def test_loss_gradient_is_two_times_residual():
    grid = StructuredGrid(4)
    sol = _fake_solution(grid, seed=3)
    obs = make_observations(grid, sol, 9, ("u",), seed=1)
    t = Tape()
    pred = t.variable(sol["u"] + 0.1)
    loss = compute_loss(t, {"u": (pred, 0)}, obs, grid.n_nodes)
    grad = t.backward(loss)[pred]
    expected = np.zeros(grid.n_nodes)
    expected[obs.locations] = 2 * (sol["u"][obs.locations] + 0.1 - sol["u"][obs.locations])
    np.testing.assert_allclose(grad, expected, atol=1e-14)


def test_loss_sums_each_component_then_adds_in_order():
    # each component's squares are summed on their own and the sums added
    # in component order, so the loss is the one of a per-component sum
    grid = StructuredGrid(12)
    sol = _fake_solution(grid, seed=5)
    obs = make_observations(grid, sol, 140, ("u", "v"), seed=3)
    t = Tape()
    pred = {c: sol[c] * 1.37 + 0.1 for c in ("u", "v")}
    expected = None
    for c in ("u", "v"):
        diff = pred[c][obs.locations] - obs.values[c]
        term = (diff * diff).sum()
        expected = term if expected is None else expected + term
    # as two nodes, and as two windows of one node
    n = grid.n_nodes
    both = t.constant(np.concatenate([pred["u"], pred["v"]]))
    for windows in ({c: (t.constant(pred[c]), 0) for c in ("u", "v")},
                    {"u": (both, 0), "v": (both, n)}):
        assert t.value(compute_loss(t, windows, obs, n))[0] == expected


def test_loss_missing_component_rejected():
    grid = StructuredGrid(3)
    obs = make_observations(grid, _fake_solution(grid), 3, ("u", "v"), seed=0)
    t = Tape()
    with pytest.raises(ContractError):
        compute_loss(t, {"u": (t.constant(np.zeros(9)), 0)}, obs, 9)


# --- relative_mse


def test_relative_mse_exact_match_is_zero():
    ref = np.linspace(1, 2, 30)
    assert relative_mse(ref, ref) == 0.0


def test_relative_mse_zero_estimate_is_hundred():
    ref = np.linspace(1, 2, 30)
    assert relative_mse(np.zeros(30), ref) == pytest.approx(100.0)


def test_relative_mse_ten_percent_overshoot_is_one_percent():
    ref = np.linspace(1, 2, 30)
    assert relative_mse(1.1 * ref, ref) == pytest.approx(1.0)


def test_relative_mse_zero_reference_rejected():
    with pytest.raises(ContractError):
        relative_mse(np.ones(4), np.zeros(4))


def test_relative_mse_shape_mismatch_rejected():
    with pytest.raises(ContractError):
        relative_mse(np.ones(4), np.ones(5))


def test_shape_error_forgives_a_wrong_scale():
    ref = np.linspace(1, 2, 30)
    assert shape_error(2.0 * ref, ref) == (0.5, 0.0)


def test_shape_error_of_zero_estimate_is_hundred():
    ref = np.linspace(1, 2, 30)
    assert shape_error(np.zeros(30), ref) == (0.0, 100.0)


# --- config resolution


def test_experiment_defaults_resolve():
    # the spec's count of points is resolved by build_problem
    cfg = ExperimentConfig(experiment="conjugate_heat")
    assert cfg.variant == "dnn2d"
    assert cfg.n_points is None
    assert cfg.components == ("u", "v", "T")
    assert cfg.offset == 1.0
    cfg3 = ExperimentConfig(experiment="passive_transport")
    assert cfg3.variant == "dnn_layered"
    assert cfg3.n_points is None
    assert cfg3.offset == 0.01


def test_copy_of_a_config_keeps_the_spec_count_unresolved(monkeypatch):
    # a copy of an accepted config is accepted: the heat default of 40
    # points is no count set on 36 nodes; the problem resolves it and
    # rejects it before solving, and on 49 nodes observes 40 of them
    cfg = dataclasses.replace(ExperimentConfig("conjugate_heat", grid_n=6),
                              max_steps=3)
    assert cfg.n_points is None and cfg.max_steps == 3
    calls = _count_splu(monkeypatch)
    with pytest.raises(ContractError,
                       match="n_points must be between 1 and the 36 nodes"):
        build_problem(cfg)
    assert calls == []
    seven = build_problem(dataclasses.replace(cfg, grid_n=7))
    assert seven.observations.n_points == 40


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_spec_predicts_what_its_forward_returns(experiment):
    chain = experiments.forward_chain(ExperimentConfig(
        experiment, grid_n=6, n_points=12))
    assert tuple(chain.synthetic) == SPECS[experiment].predicts
    assert set(SPECS[experiment].components) <= set(chain.synthetic)


@pytest.mark.parametrize("make", [
    lambda: ExperimentConfig("cavity_viscosity", grid_n=6, components=("T",)),
    lambda: dataclasses.replace(
        ExperimentConfig("conjugate_heat", grid_n=6, n_points=12),
        experiment="cavity_viscosity"),
    lambda: ExperimentConfig("passive_transport", grid_n=6, n_points=12,
                             components=("u", "T"))],
    ids=["cavity_T", "heat_copied_to_cavity", "transport_T"])
def test_component_the_experiment_does_not_predict_rejected_before_solving(
        monkeypatch, make):
    # no shared chain hides the reference solve that would come first
    monkeypatch.setattr(experiments, "_REFERENCES", {})
    built = []
    init = LuFactors.__init__

    def counting_init(self, matrix, counts):
        built.append(1)
        init(self, matrix, counts)

    monkeypatch.setattr(LuFactors, "__init__", counting_init)
    with pytest.raises(ContractError, match="predicts no component"):
        build_problem(make())
    assert built == []


@pytest.mark.parametrize("components", [("u", "v"), ("p",)])
def test_heat_observing_only_its_frozen_flow_rejected(components):
    # the flow is solved at a fixed viscosity, so only T involves k
    with pytest.raises(ContractError, match="of its frozen flow"):
        ExperimentConfig("conjugate_heat", grid_n=6, n_points=12,
                         components=components)
    ExperimentConfig("conjugate_heat", grid_n=6, n_points=12,
                     components=("p", "T"))


def test_unknown_experiment_rejected():
    with pytest.raises(ContractError):
        ExperimentConfig(experiment="magnetohydrodynamics")


def test_unknown_variant_rejected_naming_the_choices():
    with pytest.raises(ContractError, match="dnn3d.*dnn2d.*pointwise"):
        ExperimentConfig(variant="dnn3d")


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)
                 if f.type is float]


@pytest.mark.parametrize("name", _FLOAT_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_float_field_rejected(name, value):
    with pytest.raises(ContractError, match=name):
        ExperimentConfig(**{name: value})


_INT_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)
               if f.type is int]


def test_integer_fields_are_the_counts_and_seeds():
    assert _INT_FIELDS == ["grid_n", "n_points", "obs_seed", "init_seed",
                           "max_steps", "memory", "newton_max_iter"]


@pytest.mark.parametrize("name", _INT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 6.0, "6", True])
def test_non_integer_int_field_rejected(name, value):
    # a float would fail later in numpy's seeding, in range() or in the
    # observation count, or run as if it were a count; a numpy integer is
    # taken as the int it holds
    assert type(getattr(ExperimentConfig(**{name: np.int64(6)}), name)) is int
    with pytest.raises(ContractError, match=f"{name} must be an integer"):
        ExperimentConfig(**{name: value})


@pytest.mark.parametrize("name", _FLOAT_FIELDS)
@pytest.mark.parametrize("value", [True, "2"])
def test_non_real_float_field_rejected(name, value):
    # a bool would run as 1.0 and a string would fail in the finiteness
    # check with a bare TypeError
    with pytest.raises(ContractError, match=f"{name} must be a real number"):
        ExperimentConfig(**{name: value})


@pytest.mark.parametrize("name, value", [("lid_speed", 1),
                                         ("beta", np.float64(0.01))])
def test_physics_value_of_another_type_shares_the_default_chain(
        monkeypatch, name, value):
    # the chain key is the repr of each physics value, so the value is
    # taken as the float it holds; no second reference solve is factorized
    cfg = ExperimentConfig("cavity_viscosity", grid_n=6)
    first = build_problem(cfg)
    calls = _count_splu(monkeypatch)
    second = build_problem(dataclasses.replace(cfg, **{name: value}))
    assert calls == []
    assert second.forward is first.forward
    assert type(getattr(second.config, name)) is float


@pytest.mark.parametrize("name, value", [("noise_epsilon", 0.01),
                                         ("heat_source", 1.0)])
def test_float32_setting_gives_a_json_report(name, value):
    cfg = ExperimentConfig("conjugate_heat", grid_n=6, n_points=12,
                           max_steps=2, **{name: np.float32(value)})
    payload = json.loads(run_experiment(cfg).to_json())
    assert payload["config_echo"][name] == float(np.float32(value))


def test_components_list_is_kept_as_a_hashable_tuple():
    cfg = ExperimentConfig("conjugate_heat", grid_n=6, n_points=12,
                           components=["T"])
    assert cfg.components == ("T",)
    assert hash(cfg) == hash(dataclasses.replace(cfg, components=("T",)))


@pytest.mark.parametrize("components", [(), [], ("u", "u"), ("u", "v", "u"),
                                        "uv", "u", [["u"]], 5])
def test_components_must_name_distinct_fields(components):
    # the loss sums one term per component named: none fails in the
    # backward pass, and a repeated one counts twice
    with pytest.raises(ContractError, match="components"):
        ExperimentConfig(components=components)


@pytest.mark.parametrize("value", [0.0, -0.1])
def test_non_positive_beta_rejected(value):
    with pytest.raises(ContractError, match="beta must be positive"):
        ExperimentConfig(beta=value)


def test_negative_clamp_floor_rejected():
    assert ExperimentConfig(clamp_floor=0.0).clamp_floor == 0.0
    with pytest.raises(ContractError, match="clamp_floor must be nonnegative"):
        ExperimentConfig(clamp_floor=-1.0)


@pytest.mark.parametrize("name", ["obs_seed", "init_seed", "init_scale"])
def test_negative_seed_or_init_scale_rejected(name):
    assert getattr(ExperimentConfig(**{name: 0}), name) == 0
    with pytest.raises(ContractError, match=f"{name} must be nonnegative"):
        ExperimentConfig(**{name: -1})


@pytest.mark.parametrize("name", ["max_steps", "memory"])
def test_max_steps_or_memory_below_one_rejected(name):
    assert getattr(ExperimentConfig(**{name: 1}), name) == 1
    with pytest.raises(ContractError, match=f"{name} must be at least 1"):
        ExperimentConfig(**{name: 0})


@pytest.mark.parametrize("experiment,grid_n,n_points", [
    ("cavity_viscosity", 6, 0), ("cavity_viscosity", 6, 37),
    ("passive_transport", 2, None), ("conjugate_heat", 6, None)])
def test_observation_count_outside_grid_rejected_before_solving(
        monkeypatch, experiment, grid_n, n_points):
    # the defaults of 22 and 40 points do not fit on 4 or 36 nodes either
    # a count the caller sets stops the config itself
    calls = _count_splu(monkeypatch)
    with pytest.raises(ContractError, match="n_points must be between 1"):
        build_problem(ExperimentConfig(experiment, grid_n=grid_n,
                                       n_points=n_points))
    assert calls == []


def test_grid_limit_is_the_flow_systems_int32_maps():
    # the flow system of an n x n grid has 9 (3n - 2)^2 entries
    limit = np.iinfo(np.int32).max
    assert 9 * (3 * 5149 - 2) ** 2 <= limit < 9 * (3 * 5150 - 2) ** 2
    assert ExperimentConfig(grid_n=5149).grid_n == 5149
    with pytest.raises(ContractError, match="at most 5149 nodes per side"):
        ExperimentConfig(grid_n=5150)


_REJECTED_AT_CONSTRUCTION = {
    "noise_epsilon": ("cavity_viscosity", {"noise_epsilon": -0.1},
                      "noise_epsilon must be nonnegative, got -0.1"),
    "rho": ("cavity_viscosity", {"rho": 0.0}, "rho and cp must be positive"),
    "newton_tol": ("cavity_viscosity", {"newton_tol": 0.0},
                   "Newton tolerance must be finite and positive"),
    "grid_n": ("cavity_viscosity", {"grid_n": 1},
               "grid_n must be at least 2 nodes per side, got 1"),
    "pointwise_clamp_floor": ("cavity_viscosity",
                              {"variant": "pointwise", "clamp_floor": 0.0},
                              "pointwise variant needs a positive "
                              "clamp_floor"),
    "n_points": ("cavity_viscosity", {"n_points": 0},
                 "n_points must be between 1 and the 36 nodes"),
    "heat_offset": ("conjugate_heat", {"offset": -1.0, "clamp_floor": 0.0},
                    "offset -1.0 must lie above clamp_floor 0.0"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED_AT_CONSTRUCTION))
def test_bad_setting_rejected_when_the_config_is_built(monkeypatch, case):
    # every check that needs no solve runs in the config itself, so the
    # Python API stops where the INI front end does
    experiment, settings, message = _REJECTED_AT_CONSTRUCTION[case]
    calls = _count_splu(monkeypatch)
    with pytest.raises(ContractError, match=message):
        ExperimentConfig(experiment, **{"grid_n": 6, **settings})
    assert calls == []


@pytest.mark.parametrize("experiment,variant,offset", [
    ("passive_transport", "dnn_layered", 0.0),
    ("passive_transport", "pointwise", 0.0),
    ("cavity_viscosity", "dnn2d", -1.0)])
def test_offset_at_clamp_floor_would_start_with_zero_gradient(
        experiment, variant, offset):
    # the starting field of such a config lies below the floor at every
    # node, so the clamp cuts every path to the parameters
    cfg = ExperimentConfig(experiment, grid_n=8, variant=variant)
    model, theta0 = init_params(variant, cfg.init_seed,
                                init_scale=cfg.init_scale, offset=offset,
                                clamp_floor=cfg.clamp_floor, n_nodes=64)
    t = Tape()
    th = t.variable(theta0)
    coef = eval_field_on_grid(t, model, th, StructuredGrid(8))
    assert np.all(t.value(coef) == cfg.clamp_floor)
    loss = ops.misfit(t, [(coef, 0)], 64, np.arange(64), [np.zeros(64)])
    assert not np.any(t.backward(loss)[th])
    message = f"offset {offset} must lie above clamp_floor 1e-06"
    with pytest.raises(ContractError, match=message):
        ExperimentConfig(experiment, variant=variant, offset=offset)
    # just above the floor the config is accepted
    assert ExperimentConfig(experiment, offset=2e-6).offset == 2e-6


@pytest.mark.parametrize("bc_value", [0.0, 1.0])
def test_zero_heat_source_fit_rejected_before_solving(monkeypatch, bc_value):
    # without a source the temperature is the wall value whatever the
    # conductivity, so no data determine it; the forward chain still runs
    calls = _count_splu(monkeypatch)
    cfg = ExperimentConfig("conjugate_heat", grid_n=6, n_points=12,
                           heat_source=0.0, heat_bc_value=bc_value)
    with pytest.raises(ContractError, match="heat_source 0 leaves"):
        build_problem(cfg)
    assert calls == []
    chain = experiments.forward_chain(cfg)
    counts = LinearSolveCounts()
    for k in (chain.reference_nodal, 3.0 * chain.reference_nodal):
        np.testing.assert_allclose(chain.values(k, counts)["T"], bc_value,
                                   rtol=0, atol=1e-12)
    # the flow experiments carry no heat
    build_problem(ExperimentConfig("cavity_viscosity", grid_n=6,
                                   heat_source=0.0))


@pytest.mark.parametrize("seed, builds", [(27, False), (1, True)])
def test_observed_pressure_sees_the_viscosity_off_node_0(seed, builds):
    # seed 27 draws node 0 of the 6x6 grid, where the pressure is pinned,
    # and seed 1 node 17, a wall node where it is not
    cfg = ExperimentConfig("cavity_viscosity", grid_n=6, n_points=1,
                           obs_seed=seed, components=("u", "p"))
    if builds:
        assert build_problem(cfg).observations.locations.tolist() == [17]
    else:
        with pytest.raises(ContractError, match="p at node 0"):
            build_problem(cfg)


def test_one_underflowing_component_leaves_the_data_visible(monkeypatch):
    # the chain's v scaled down until its squares underflow, but u still
    # carries the data: the underflow check pools the observed components
    cfg = ExperimentConfig("passive_transport", grid_n=6)
    chain = experiments.forward_chain(cfg)
    tiny = dict(chain.synthetic, v=chain.synthetic["v"] * 1e-300)
    monkeypatch.setattr(chain, "synthetic", tiny)
    values = build_problem(cfg).observations.values
    assert values["v"] @ values["v"] == 0.0 and values["v"].any()
    assert values["u"] @ values["u"] > 0.0


def test_full_grid_default_tracks_grid_size():
    cfg = ExperimentConfig(experiment="cavity_viscosity", grid_n=6)
    assert cfg.n_points is None
    assert build_problem(cfg).observations.n_points == 36
    seven = build_problem(dataclasses.replace(cfg, grid_n=7))
    assert seven.observations.n_points == 49


# --- run_experiment protocol

# Short fits at the shipped defaults but for a 6x6 grid, 5 steps and, for
# heat, 12 observed points (its default 40 exceed 36 nodes): the initial
# loss and the loss after each step, the evaluations and the linear solves,
# recorded before the loss became one misfit node.  A change that claims
# bit-identical fits keeps them.
_PINNED_FITS = {
    "cavity_viscosity": (
        {}, 7, {"factorizations": 8, "recycled_solves": 15, "stalls": 0,
                "sweeps": 66},
        [0.0059233108783405194, 0.0042993862423147886,
         0.0022590226806810856, 0.0017530576385365356,
         0.0009505827480630269, 0.0004997356471337513]),
    "conjugate_heat": (
        {"n_points": 12}, 6, {"factorizations": 6, "recycled_solves": 0,
                              "stalls": 0, "sweeps": 24},
        [0.0012717469498215264, 0.00103034079981423, 0.0003908717944420099,
         0.00020942022089213936, 0.0001299394515177497,
         0.00010930876132313374]),
    "passive_transport": (
        {}, 6, {"factorizations": 12, "recycled_solves": 12, "stalls": 6,
                "sweeps": 84},
        [0.0011280880572817455, 0.00011414215296126661,
         9.040301439042437e-05, 7.579574272336288e-05,
         7.518455520862599e-05, 7.517150172947539e-05]),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_short_fit_reproduces_its_pinned_history(experiment):
    settings, n_evals, linear_solves, losses = _PINNED_FITS[experiment]
    rep = run_experiment(ExperimentConfig(experiment, grid_n=6, max_steps=5,
                                          **settings))
    assert (rep.n_evals, rep.linear_solves) == (n_evals, linear_solves)
    np.testing.assert_allclose([rep.initial_loss, *rep.loss_history], losses,
                               rtol=1e-12, atol=0.0)



@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_reference_field_as_estimate_reproduces_observations(experiment):
    # identical deterministic solves make the loss exactly zero
    problem = build_problem(ExperimentConfig(experiment, grid_n=7))
    chain = problem.forward
    nu = reference_field(experiment, chain.grid.coords)
    assert np.array_equal(nu, chain.reference_nodal)
    t = Tape()
    predicted, _ = chain(t, t.constant(nu), problem.linear_solves)
    assert set(predicted) == set(chain.synthetic)
    n = chain.grid.n_nodes
    for name, (ref, start) in predicted.items():
        np.testing.assert_array_equal(t.value(ref)[start:start + n],
                                      chain.synthetic[name])
    loss = compute_loss(t, predicted, problem.observations, n)
    assert t.value(loss)[0] == 0.0
    assert relative_mse(nu, nu) == 0.0


def test_small_cavity_run_decreases_loss():
    cfg = ExperimentConfig(experiment="cavity_viscosity", grid_n=6, max_steps=8)
    rep = run_experiment(cfg)
    assert rep.final_loss < rep.initial_loss
    assert len(rep.loss_history) == rep.n_steps
    assert all(b <= a + 1e-300 for a, b in zip(rep.loss_history, rep.loss_history[1:]))
    assert len(rep.newton_iters) == rep.n_steps


def test_transport_steps_take_one_evaluation_each():
    # the first trial, at the bound 2 f / |phi'(0)|, is accepted on every
    # step
    cfg = ExperimentConfig(experiment="passive_transport", grid_n=11,
                           max_steps=5)
    rep = run_experiment(cfg)
    assert rep.line_search["evals_per_step"] == [1] * 5
    assert rep.n_evals == 6 and rep.rejections == 0


def test_transport_extrapolation_stays_short_of_the_failing_flow():
    # on observation seed 4 an uncapped extrapolation at step 15 reached
    # alpha = 11.1, where the flow solve fails (31 evaluations); capped at
    # the Gauss-Newton bound the step takes trials 1, 4, 5.83 and 5.19
    cfg = ExperimentConfig(experiment="passive_transport", max_steps=20,
                           obs_seed=4)
    rep = run_experiment(cfg)
    assert rep.line_search["rejected_trials"] == []
    assert rep.line_search["evals_per_step"][14] == 4
    assert rep.n_evals < 31


def test_pointwise_interpolation_capacity_small_grid():
    # full observations, zero noise: one value per node can drive the
    # mismatch to numerical zero
    cfg = ExperimentConfig(experiment="cavity_viscosity", variant="pointwise",
                           grid_n=6, max_steps=600)
    rep = run_experiment(cfg)
    assert rep.final_loss < 1e-8


def test_runs_are_deterministic():
    cfg = ExperimentConfig(experiment="cavity_viscosity", grid_n=6, max_steps=6)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.loss_history == b.loss_history
    assert np.array_equal(a.theta, b.theta)
    assert a.relative_mse_percent == b.relative_mse_percent
    # the first run solved the reference, the second shared it: their
    # report.json agrees but for the wall clock
    reports = [json.loads(rep.to_json()) for rep in (a, b)]
    for payload in reports:
        del payload["wall_clock_seconds"]
    assert reports[0] == reports[1]


_REPORT_KEYS = {
    "coefficient_scale", "config_echo", "converged", "experiment",
    "final_loss", "initial_loss", "line_search", "linear_solves",
    "loss_history", "n_evals", "n_steps", "newton_iters", "rejections",
    "relative_mse_percent", "shape_error_percent", "stop_reason", "variant",
    "wall_clock_seconds"}


def test_report_json_contract():
    # the arrays go to files of their own; the cavity reports its field
    # predictions, the heat fit its frozen flow's Newton iterations
    extra = {"cavity_viscosity": {"prediction_mse_percent"},
             "conjugate_heat": {"presolve_newton_iters"},
             "passive_transport": set()}
    assert set(extra) == set(EXPERIMENTS)
    for experiment in EXPERIMENTS:
        cfg = ExperimentConfig(experiment=experiment, grid_n=6, max_steps=4,
                               n_points=8)
        rep = run_experiment(cfg)
        payload = json.loads(rep.to_json())
        assert set(payload) == _REPORT_KEYS | extra[experiment]
        assert (payload["config_echo"]["init_seed"]
                == SPECS[experiment].init_seed)
        assert payload["config_echo"]["obs_seed"] == 7
        assert len(payload["loss_history"]) == rep.n_steps


def test_report_records_line_search(monkeypatch):
    # the first trial step of the first line search fails like a diverged
    # Newton solve, inside the objective; the report names it and the
    # search recovers
    real_loss = experiments.compute_loss
    calls = []

    def flaky(*args):
        calls.append(1)
        if len(calls) == 2:
            raise NewtonDivergedError("forced", last_residual=1.0,
                                      iterations=10)
        return real_loss(*args)

    monkeypatch.setattr(experiments, "compute_loss", flaky)
    cfg = ExperimentConfig(experiment="cavity_viscosity", grid_n=6, max_steps=4)
    rep = run_experiment(cfg)
    block = json.loads(rep.to_json())["line_search"]
    assert block == rep.line_search
    assert rep.rejections == 1
    [trial] = block["rejected_trials"]
    assert trial["step"] == 1 and trial["alpha"] > 0.0
    assert trial["reason"] == "NewtonDivergedError"
    assert len(block["evals_per_step"]) == rep.n_steps
    assert 1 + sum(block["evals_per_step"]) == rep.n_evals
    assert block["evals_per_step"][0] >= 2


@pytest.mark.parametrize("experiment", ["cavity_viscosity",
                                        "passive_transport"])
def test_report_counts_linear_solves(monkeypatch, experiment):
    calls = _count_splu(monkeypatch)
    solves = _count_newton_solves(monkeypatch)
    cfg = ExperimentConfig(experiment, grid_n=6, n_points=12, max_steps=3)
    cold = run_experiment(cfg)
    cold_calls, cold_solves = len(calls), len(solves)
    del calls[:], solves[:]
    # the second run shares the reference solves, so every solve it makes
    # is the inversion's
    rep = run_experiment(cfg)
    block = json.loads(rep.to_json())["linear_solves"]
    assert block == rep.linear_solves == cold.linear_solves
    assert rep.n_evals == cold.n_evals
    assert set(block) == {"factorizations", "recycled_solves", "stalls",
                          "sweeps"}
    # every factorization is followed by a solve with it, and every solve
    # takes at least one refinement sweep
    assert block["sweeps"] >= block["factorizations"] + block["recycled_solves"]
    # every factorization of the run is one of a flow solve or its adjoint
    assert block["factorizations"] == len(calls)
    # each flow solve factorizes once, and once more at each stall, whose
    # factors it keeps; the adjoint refines against them
    assert block["factorizations"] == len(solves) + block["stalls"]
    assert block["recycled_solves"] > 0
    # the cold run also solved the reference flow, which is not counted
    assert cold_solves == len(solves) + 1
    assert cold_calls > len(calls)
    if experiment == "cavity_viscosity":
        # no stall: each evaluation and the final prediction solve
        # factorize once, and so does the synthesis
        assert block["stalls"] == 0
        assert len(solves) == 1 + rep.n_evals
        assert cold_calls == len(calls) + 1
    else:
        # viscosities near 0.01 make refinement stall at Newton step 2; no
        # field is predicted after the fit
        assert block["stalls"] > 0
        assert len(solves) == rep.n_evals


def test_conjugate_heat_reports_presolve():
    cfg = ExperimentConfig(experiment="conjugate_heat", grid_n=6,
                           max_steps=4, n_points=10)
    rep = run_experiment(cfg)
    assert rep.presolve_newton_iters >= 1
    # frozen flow means no Newton iterations inside the optimization loop
    assert all(n == 0 for n in rep.newton_iters)


def test_cavity_run_reports_prediction_errors():
    cfg = ExperimentConfig(experiment="cavity_viscosity", grid_n=6, max_steps=4)
    rep = run_experiment(cfg)
    assert set(rep.prediction_mse_percent) == {"u", "v", "p"}
    assert all(v >= 0.0 for v in rep.prediction_mse_percent.values())


def test_observation_noise_recorded_in_report():
    cfg = ExperimentConfig(experiment="cavity_viscosity", grid_n=6,
                           max_steps=3, noise_epsilon=0.01)
    rep = run_experiment(cfg)
    assert rep.observations.noise_epsilon == 0.01
    assert rep.config_echo["noise_epsilon"] == 0.01


# --- reference solves shared among problems of the same physics


def _count_newton_solves(monkeypatch):
    solves = []
    newton_solve = experiments.newton_solve

    def counting_newton_solve(*args, **kwargs):
        solves.append(1)
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "newton_solve", counting_newton_solve)
    return solves


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_warm_build_reproduces_cold_build(monkeypatch, experiment):
    cfg = ExperimentConfig(experiment, grid_n=6, n_points=12,
                           noise_epsilon=0.01)
    cold = build_problem(cfg)
    solves = _count_newton_solves(monkeypatch)
    warm = build_problem(cfg)
    assert solves == []
    assert warm.forward is cold.forward
    obs_cold, obs_warm = cold.observations, warm.observations
    np.testing.assert_array_equal(obs_warm.locations, obs_cold.locations)
    for comp in obs_cold.components:
        assert (obs_warm.values[comp].tobytes()
                == obs_cold.values[comp].tobytes())
    assert (cold.forward.frozen is None) == (experiment != "conjugate_heat")
    loss_cold, grad_cold = cold.objective(cold.theta0)
    loss_warm, grad_warm = warm.objective(warm.theta0)
    assert loss_warm.hex() == loss_cold.hex()
    assert grad_warm.tobytes() == grad_cold.tobytes()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_shared_reference_is_read_only_and_owned(experiment):
    problem = build_problem(ExperimentConfig(experiment, grid_n=6,
                                             n_points=12))
    chain = problem.forward
    assert list(experiments._REFERENCES.values()) == [chain]
    with pytest.raises(ValueError):
        chain.synthetic["u"][0] = 1.0
    with pytest.raises(TypeError):
        chain.synthetic["u"] = np.zeros(chain.grid.n_nodes)
    with pytest.raises(ValueError):
        chain.grid.coords[0, 0] = 0.5
    with pytest.raises(ValueError):
        chain.reference_nodal[0] = 0.0
    assert np.any(chain.synthetic["u"] != 0.0)
    assert isinstance(chain.trace, tuple) and len(chain.trace) >= 1
    arrays = [chain.reference_nodal, *chain.synthetic.values()]
    if chain.frozen is not None:
        with pytest.raises(ValueError):
            chain.frozen[0] = 1.0
        arrays += [chain.frozen_nu, chain.frozen]
    # owned copies, not views into a tape
    assert all(a.base is None and not a.flags.writeable for a in arrays)


def _count_grids_and_dirichlet_specs(monkeypatch):
    made = {"grids": 0, "dirichlet_specs": 0}
    grid_init = StructuredGrid.__init__
    spec_post_init = DirichletSpec.__post_init__

    def counting_grid_init(self, *args, **kwargs):
        made["grids"] += 1
        grid_init(self, *args, **kwargs)

    def counting_spec_post_init(self):
        made["dirichlet_specs"] += 1
        spec_post_init(self)

    monkeypatch.setattr(StructuredGrid, "__init__", counting_grid_init)
    monkeypatch.setattr(DirichletSpec, "__post_init__",
                        counting_spec_post_init)
    return made


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_warm_build_makes_no_grid_or_boundary_data(monkeypatch, experiment):
    made = _count_grids_and_dirichlet_specs(monkeypatch)
    cfg = ExperimentConfig(experiment, grid_n=6, n_points=12)
    build_problem(cfg)
    # the grid, the u and v walls of the flow and, for the heat experiment
    # alone, the heat wall
    cold = {"grids": 1,
            "dirichlet_specs": 2 + (experiment == "conjugate_heat")}
    assert made == cold
    build_problem(dataclasses.replace(cfg, obs_seed=8, noise_epsilon=0.01))
    assert made == cold


@pytest.mark.parametrize("experiment, name, value", [
    ("cavity_viscosity", "grid_n", 7),
    ("cavity_viscosity", "lid_speed", 0.5),
    ("cavity_viscosity", "beta", 0.02),
    ("cavity_viscosity", "newton_tol", 1e-9),
    ("cavity_viscosity", "newton_max_iter", 12),
    ("conjugate_heat", "rho", 2.0),
    ("conjugate_heat", "cp", 2.0),
    ("conjugate_heat", "heat_source", 2.0),
    ("conjugate_heat", "heat_bc_value", 0.5),
    ("conjugate_heat", "heat_bc_value", -0.0),
])
def test_physics_change_solves_the_reference_again(monkeypatch, experiment,
                                                   name, value):
    cfg = ExperimentConfig(experiment, grid_n=6, n_points=12)
    first = build_problem(cfg)
    solves = _count_newton_solves(monkeypatch)
    second = build_problem(dataclasses.replace(cfg, **{name: value}))
    assert solves == [1]
    assert len(experiments._REFERENCES) == 2
    assert second.forward.grid is not first.forward.grid


def test_every_physics_field_is_checked():
    # each config field outside the data fields keys the reference solves
    # and has a case in the test above
    checked = {"experiment", "grid_n", "lid_speed", "beta", "newton_tol",
               "newton_max_iter", "rho", "cp", "heat_source", "heat_bc_value"}
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert names - experiments._DATA_FIELDS == checked


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("name, value", [
    ("obs_seed", 8), ("noise_epsilon", 0.05), ("n_points", 10),
    ("init_seed", 5)])
def test_data_change_shares_the_reference(monkeypatch, experiment, name,
                                          value):
    cfg = ExperimentConfig(experiment, grid_n=6, n_points=12)
    first = build_problem(cfg)
    solves = _count_newton_solves(monkeypatch)
    calls = _count_splu(monkeypatch)
    second = build_problem(dataclasses.replace(cfg, **{name: value}))
    assert solves == [] and calls == []
    assert len(experiments._REFERENCES) == 1
    assert second.forward is first.forward
    assert second.linear_solves is not first.linear_solves


def test_at_most_four_references_kept(monkeypatch):
    solves = _count_newton_solves(monkeypatch)

    def solved(n):
        before = len(solves)
        build_problem(ExperimentConfig("cavity_viscosity", grid_n=n,
                                       n_points=9))
        return len(solves) - before

    assert [solved(n) for n in (6, 7, 8, 9)] == [1, 1, 1, 1]
    assert len(experiments._REFERENCES) == 4
    # a hit makes 6 the most recently used, so 10 drops 7
    assert solved(6) == 0
    assert solved(10) == 1
    assert len(experiments._REFERENCES) == 4
    assert [solved(n) for n in (6, 8, 9, 10, 7)] == [0, 0, 0, 0, 1]
    assert len(experiments._REFERENCES) == 4


def _count_inits(monkeypatch, *classes):
    """Instances built of each class, by class name."""
    built = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        def counting_init(self, *args, _cls=cls, _init=cls.__init__):
            built[_cls.__name__] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting_init)
    return built


def test_problems_of_one_physics_share_one_chain(monkeypatch):
    # the chain, its flow setup and its heat setup are built once per
    # physics: a warm build makes none of them, an evaluation no setup, and
    # a physics change a new chain with new setups
    built = _count_inits(monkeypatch, experiments.ForwardChain,
                         solver.FlowSetup, solver.HeatSetup)
    cfg = ExperimentConfig("conjugate_heat", grid_n=6, n_points=12)
    first = build_problem(cfg)
    once = {"ForwardChain": 1, "FlowSetup": 1, "HeatSetup": 1}
    assert built == once
    second = build_problem(dataclasses.replace(cfg, obs_seed=8,
                                               noise_epsilon=0.01))
    first.objective(first.theta0)
    second.objective(second.theta0)
    assert built == once
    chain = first.forward
    assert second.forward is chain
    assert isinstance(chain.heat_setup, solver.HeatSetup)
    other = build_problem(dataclasses.replace(cfg, heat_source=2.0))
    assert built == {name: 2 for name in once}
    assert other.forward is not chain
    assert other.forward.heat_setup is not chain.heat_setup
    # a spec without a frozen flow keeps its flow setup and has no heat setup
    cavity = build_problem(ExperimentConfig("cavity_viscosity", grid_n=6))
    cavity.objective(cavity.theta0)
    assert isinstance(cavity.forward.flow_setup, solver.FlowSetup)
    assert cavity.forward.heat_setup is None
    assert built == {"ForwardChain": 3, "FlowSetup": 3, "HeatSetup": 2}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_evaluation_counts_only_its_own_problem(experiment):
    cfg = ExperimentConfig(experiment, grid_n=6, n_points=12)
    a = build_problem(cfg)
    b = build_problem(dataclasses.replace(cfg, obs_seed=8))
    assert a.forward is b.forward
    a.objective(a.theta0)
    assert a.linear_solves.factorizations >= 1
    assert b.linear_solves == solver.LinearSolveCounts()
    b.objective(b.theta0)
    assert b.linear_solves.factorizations >= 1
    assert a.linear_solves.factorizations == b.linear_solves.factorizations


# --- factorizations per objective evaluation


def _count_splu(monkeypatch):
    calls = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return calls


@pytest.mark.parametrize("experiment", ["cavity_viscosity",
                                        "conjugate_heat"])
def test_every_factorization_is_in_the_grid_order(monkeypatch, experiment):
    # each system reaches SuperLU in the grid's node order and is not
    # ordered again: the reference solves, and one evaluation with its
    # adjoint
    specs = []
    splu = scipy.sparse.linalg.splu

    def recording_splu(*args, **kwargs):
        specs.append(kwargs.get("permc_spec"))
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    problem = build_problem(ExperimentConfig(experiment, grid_n=6,
                                             n_points=12))
    problem.objective(problem.theta0)
    assert problem.linear_solves.factorizations >= 1
    assert len(specs) > problem.linear_solves.factorizations
    assert set(specs) == {"NATURAL"}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_flow_setup_built_once(monkeypatch, experiment):
    # every flow solve of a problem, and of a second problem that differs
    # only in its noise, reuses the setup of the first solve
    built = []
    init = solver.FlowSetup.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(experiments, "_REFERENCES", {})
    monkeypatch.setattr(solver.FlowSetup, "__init__", counting_init)
    cfg = ExperimentConfig(experiment, grid_n=6, n_points=12)
    problem = build_problem(cfg)
    problem.objective(problem.theta0)
    problem.objective(problem.theta0)
    again = build_problem(dataclasses.replace(cfg, noise_epsilon=0.01))
    again.objective(again.theta0)
    assert built == [1]
    if experiment == "conjugate_heat":
        # its only flow solve is the presolve of the first build, which the
        # second problem shares
        assert again.forward.frozen is problem.forward.frozen


def test_heat_chain_keeps_no_flow_setup(monkeypatch):
    # the flow setup of the presolve, and the one the Jacobian of the
    # frozen flow is built with, die as soon as they are used, without the
    # cyclic collector; that Jacobian is the one of a setup kept
    setups = []
    init = solver.FlowSetup.__init__

    def recording_init(self, *args):
        setups.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(experiments, "_REFERENCES", {})
    monkeypatch.setattr(solver.FlowSetup, "__init__", recording_init)
    cfg = ExperimentConfig("conjugate_heat", grid_n=6, n_points=12)
    gc.disable()
    try:
        chain = build_problem(cfg).forward
        assert chain.flow_setup is None
        assert len(setups) == 1 and setups[0]() is None
        jac = chain.jacobian()
        assert len(setups) == 2 and setups[1]() is None
    finally:
        gc.enable()
    grid = chain.grid
    setup = solver.FlowSetup(grid, cfg.lid_speed, chain.constants, cfg.beta)
    x = np.concatenate([chain.synthetic[name] for name in ("u", "v", "p")])
    kept = solver.ns_jacobian(setup, x, chain.frozen_nu)
    assert jac.indptr.tobytes() == kept.indptr.tobytes()
    assert jac.indices.tobytes() == kept.indices.tobytes()
    assert jac.data.tobytes() == kept.data.tobytes()


def test_objective_notes_the_newton_count_of_each_evaluation(monkeypatch):
    # one entry per call, None for a call that fails after its flow solve
    problem = build_problem(ExperimentConfig("cavity_viscosity", grid_n=6))
    problem.objective(problem.theta0)

    def failing(*args):
        raise NumericError("forced")

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "compute_loss", failing)
        with pytest.raises(NumericError):
            problem.objective(problem.theta0)
    problem.objective(problem.theta0)
    first, failed, last = problem.newton_per_eval
    assert failed is None and first == last > 1


def test_cavity_objective_factorizes_once(monkeypatch):
    # Newton steps 2.. and the adjoint refine against the step-1 factors
    problem = build_problem(ExperimentConfig("cavity_viscosity", grid_n=6))
    calls = _count_splu(monkeypatch)
    problem.objective(problem.theta0)
    assert problem.newton_per_eval[-1] > 1
    assert len(calls) == 1


@pytest.mark.parametrize("experiment", ["cavity_viscosity",
                                        "passive_transport"])
def test_objective_keeps_no_state_across_evaluations(monkeypatch, experiment):
    tapes = []

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    problem = build_problem(ExperimentConfig(experiment, grid_n=6,
                                             n_points=12))
    monkeypatch.setattr(experiments, "Tape", RecordingTape)
    theta = problem.theta0
    other = theta + 0.05 * np.random.default_rng(3).normal(size=theta.size)
    first, _, third = (problem.objective(th) for th in (theta, other, theta))
    assert first[0] == third[0]
    np.testing.assert_array_equal(first[1], third[1])
    flows = [node for t in tapes for node in t.nodes
             if node.op == "steady_flow"]
    assert len(flows) == 3
    assert not any(isinstance(v, LuFactors)
                   for node in flows for v in node.ctx.values())


def test_transport_adjoint_recycles_re_anchored_factors(monkeypatch):
    # at viscosities near 0.01 Newton stalls on 6x6 and factorizes the
    # Jacobian of the stalled step; the adjoint refines against those
    # factors and pops them from the context
    problem = build_problem(ExperimentConfig("passive_transport", grid_n=6,
                                             n_points=12))
    counts = problem.linear_solves
    calls = _count_splu(monkeypatch)
    t = Tape()
    coef = eval_field_on_grid(t, problem.model, t.variable(problem.theta0),
                              problem.forward.grid)
    before = dataclasses.replace(counts)
    predicted, flow = problem.forward(t, coef, counts)
    stalls = counts.stalls - before.stalls
    assert stalls >= 1
    assert len(calls) == counts.factorizations - before.factorizations
    assert len(calls) == 1 + stalls
    assert (counts.recycled_solves - before.recycled_solves
            == flow.newton_iterations_used - 1 - stalls)

    forward = dataclasses.replace(counts)
    t.backward(compute_loss(t, predicted, problem.observations,
                            problem.forward.grid.n_nodes))
    assert counts.sweeps > forward.sweeps
    assert counts == dataclasses.replace(
        forward, recycled_solves=forward.recycled_solves + 1,
        sweeps=counts.sweeps)
    [node] = [n for n in t.nodes if n.op == "steady_flow"]
    assert not any(isinstance(v, LuFactors) for v in node.ctx.values())


_FLOW_CHAIN = ("var", "field", "steady_flow", "misfit")


@pytest.mark.parametrize("experiment,ops_recorded", [
    ("cavity_viscosity", _FLOW_CHAIN),
    ("conjugate_heat", ("var", "field", "const", "heat_solve", "misfit")),
    ("passive_transport", _FLOW_CHAIN)], ids=EXPERIMENTS)
def test_one_evaluation_records_a_short_chain(monkeypatch, experiment,
                                              ops_recorded):
    # at the shipped defaults: the parameters, the clamped field, the solve
    # (after the frozen flow, one constant, for heat) and the misfit, which
    # reads the observed fields in place
    tapes = []

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    problem = build_problem(ExperimentConfig(experiment))
    monkeypatch.setattr(experiments, "Tape", RecordingTape)
    problem.objective(problem.theta0)
    [t] = tapes
    assert tuple(node.op for node in t.nodes) == ops_recorded
    misfit = t.nodes[-1]
    assert misfit.inputs == tuple(range(2, len(t) - 1))
    assert len(misfit.ctx["windows"]) == len(problem.config.components)


def test_pointwise_objective_rejects_a_non_finite_parameter():
    # the clamp would floor the NaN: a finite loss, and a gradient of
    # exactly 0 at that node
    problem = build_problem(ExperimentConfig(
        "conjugate_heat", grid_n=6, variant="pointwise", n_points=12))
    theta = problem.theta0.copy()
    theta[7] = np.nan
    with pytest.raises(NumericError, match="non-finite model parameter"):
        problem.objective(theta)


def test_heat_objective_factorizes_once(monkeypatch):
    # and counts it; the adjoint solves with the forward's factors
    problem = build_problem(ExperimentConfig("conjugate_heat", grid_n=6,
                                             n_points=12))
    calls = _count_splu(monkeypatch)
    problem.objective(problem.theta0)
    assert len(calls) == 1
    counts = problem.linear_solves
    assert (counts.factorizations, counts.recycled_solves, counts.stalls) \
        == (1, 0, 0)
    assert counts.sweeps >= 2


def test_heat_evaluation_assembles_only_the_conductivity_block(monkeypatch):
    # the wall plan, rho Cp C(u, v) of the frozen flow and the load M Q are
    # built once, with the reference solves: a warm build makes none of
    # them and an evaluation only K(k)
    cfg = ExperimentConfig("conjugate_heat", grid_n=6, n_points=12)
    build_problem(cfg)
    calls = []
    for owner, name in ((solver, "constraint_plan"),
                        (GridOperators, "convection"),
                        (GridOperators, "diffusion")):
        def counting(*args, _name=name, _original=getattr(owner, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, name, counting)
    problem = build_problem(dataclasses.replace(cfg, obs_seed=2))
    assert calls == []
    loss, grad = problem.objective(problem.theta0)
    assert calls == ["diffusion"]
    # built anew, they give the same bits
    monkeypatch.undo()
    monkeypatch.setattr(experiments, "_REFERENCES", {})
    again = build_problem(dataclasses.replace(cfg, obs_seed=2))
    rebuilt = again.objective(again.theta0)
    assert rebuilt[0] == loss and rebuilt[1].tobytes() == grad.tobytes()


# --- memory: problems are freed by reference counting


@pytest.mark.parametrize("experiment", ["cavity_viscosity", "conjugate_heat",
                                        "passive_transport"])
def test_run_leaves_no_cyclic_garbage(experiment):
    cfg = ExperimentConfig(experiment, grid_n=6, n_points=12, max_steps=2)
    gc.collect()
    gc.disable()
    try:
        problem = build_problem(cfg)
        problem.objective(problem.theta0)
        del problem
        run_experiment(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_grid_with_operators_freed_without_collector():
    gc.disable()
    try:
        grid = StructuredGrid(5)
        operators_for(grid)
        ref = weakref.ref(grid)
        del grid
        assert ref() is None
    finally:
        gc.enable()


def test_cavity_evaluation_heap_peak():
    # The traced heap peak of one warm 21x21 cavity evaluation at theta0 is
    # 0.62 MB (numpy arrays included, SuperLU's own memory not).  It read
    # 1.05 MB with J assembled in the natural order and gathered into the
    # factorization order, the factors holding the matrix they factorized,
    # each linearization keeping its blocks past J and the network node
    # keeping its tanh outputs; 1.26 MB with each Newton iterate's residual
    # recorded on a tape of its own as well.  The bound sits below both.
    problem = build_problem(ExperimentConfig(experiment="cavity_viscosity",
                                             grid_n=21))
    problem.objective(problem.theta0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        problem.objective(problem.theta0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8e6


def test_warm_cavity_evaluation_builds_one_tape(monkeypatch):
    # the objective's own tape; Newton iterates and the adjoint are
    # linearized on plain arrays
    problem = build_problem(ExperimentConfig("cavity_viscosity", grid_n=6))
    problem.objective(problem.theta0)
    built = []
    init = Tape.__init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(Tape, "__init__", counting_init)
    problem.objective(problem.theta0)
    assert problem.newton_per_eval[-1] > 1
    assert len(built) == 1

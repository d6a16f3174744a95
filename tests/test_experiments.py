"""Observation synthesis, loss plumbing, and the experiment protocol."""

import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg

from flowgrad import experiments, solver
from flowgrad.assembly import GridOperators, operators_for
from flowgrad.errors import ContractError, NewtonDivergedError
from flowgrad.experiments import (
    EXPERIMENTS,
    SPECS,
    ExperimentConfig,
    ObservationSet,
    add_noise,
    build_problem,
    compute_loss,
    make_observations,
    reference_field,
    relative_mse,
    run_experiment,
)
from flowgrad.grid import DirichletSpec, StructuredGrid
from flowgrad.models import eval_field_on_grid
from flowgrad.sparse import LuFactors
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


# --- add_noise


def test_zero_noise_is_identity():
    grid = StructuredGrid(6)
    obs = make_observations(grid, _fake_solution(grid), 8, ("u",), seed=0)
    noisy = add_noise(obs, 0.0, seed=11)
    assert np.array_equal(noisy.values["u"], obs.values["u"])


def test_noise_is_bounded_multiplicative():
    grid = StructuredGrid(8)
    obs = make_observations(grid, _fake_solution(grid), 20, ("u", "v"), seed=1)
    noisy = add_noise(obs, 0.05, seed=4)
    for comp in ("u", "v"):
        ratio = noisy.values[comp] / obs.values[comp]
        assert np.all(np.abs(ratio - 1.0) <= 0.05)
    assert noisy.noise_epsilon == 0.05


def test_noise_overflow_rejected():
    # 1.7e308 (1 + eta) with |eta| <= 0.5 overflows the largest double
    # (1.8e308) for this draw
    big = ObservationSet(np.arange(8), ("u",), {"u": np.full(8, 1.7e308)})
    with np.errstate(over="ignore"), pytest.raises(
            ContractError, match="non-finite observation"):
        add_noise(big, 0.5, seed=0)


def test_noise_whose_squares_overflow_rejected():
    # every noisy value is finite, but the sum of their squares, and with it
    # any loss against them, is not: 1e308 (1 + eta) with |eta| <= 0.5, or
    # 1 + eta with |eta| <= 1e300
    for value, epsilon in ((1e308, 0.5), (1.0, 1e300)):
        obs = ObservationSet(np.arange(8), ("u",), {"u": np.full(8, value)})
        with pytest.raises(ContractError, match="sum of squares"):
            add_noise(obs, epsilon, seed=0)
    obs = ObservationSet(np.arange(8), ("u",), {"u": np.full(8, 1e150)})
    assert np.isfinite(add_noise(obs, 0.5, seed=0).values["u"]).all()


def test_noise_deterministic_per_seed():
    grid = StructuredGrid(6)
    obs = make_observations(grid, _fake_solution(grid), 8, ("u",), seed=0)
    a = add_noise(obs, 0.01, seed=7)
    b = add_noise(obs, 0.01, seed=7)
    c = add_noise(obs, 0.01, seed=8)
    assert np.array_equal(a.values["u"], b.values["u"])
    assert not np.array_equal(a.values["u"], c.values["u"])


def test_negative_noise_rejected():
    grid = StructuredGrid(4)
    obs = make_observations(grid, _fake_solution(grid), 4, ("u",), seed=0)
    with pytest.raises(ContractError):
        add_noise(obs, -0.01, seed=0)


# --- compute_loss


def test_loss_zero_when_prediction_matches():
    grid = StructuredGrid(5)
    sol = _fake_solution(grid)
    obs = make_observations(grid, sol, 6, ("u", "v"), seed=2)
    t = Tape()
    predicted = {c: t.constant(sol[c]) for c in ("u", "v")}
    loss = compute_loss(t, predicted, obs)
    assert t.value(loss)[0] == 0.0


def test_loss_single_point_difference_two_gives_four():
    grid = StructuredGrid(2)
    obs = make_observations(grid, {"u": np.zeros(4)}, 1, ("u",), seed=0)
    t = Tape()
    pred = np.zeros(4)
    pred[obs.locations[0]] = 2.0
    loss = compute_loss(t, {"u": t.constant(pred)}, obs)
    assert t.value(loss)[0] == 4.0


def test_loss_gradient_is_two_times_residual():
    grid = StructuredGrid(4)
    sol = _fake_solution(grid, seed=3)
    obs = make_observations(grid, sol, 9, ("u",), seed=1)
    t = Tape()
    pred = t.variable(sol["u"] + 0.1)
    loss = compute_loss(t, {"u": pred}, obs)
    grad = t.backward(loss)[pred]
    expected = np.zeros(grid.n_nodes)
    expected[obs.locations] = 2 * (sol["u"][obs.locations] + 0.1 - sol["u"][obs.locations])
    np.testing.assert_allclose(grad, expected, atol=1e-14)


def test_loss_missing_component_rejected():
    grid = StructuredGrid(3)
    obs = make_observations(grid, _fake_solution(grid), 3, ("u", "v"), seed=0)
    t = Tape()
    with pytest.raises(ContractError):
        compute_loss(t, {"u": t.constant(np.zeros(9))}, obs)


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


# --- config resolution


def test_experiment_defaults_resolve():
    cfg = ExperimentConfig(experiment="conjugate_heat").resolved()
    assert cfg.variant == "dnn2d"
    assert cfg.n_points == 40
    assert cfg.components == ("u", "v", "T")
    assert cfg.offset == 1.0
    cfg3 = ExperimentConfig(experiment="passive_transport").resolved()
    assert cfg3.variant == "dnn_layered"
    assert cfg3.n_points == 22
    assert cfg3.offset == 0.01


def test_unknown_experiment_rejected():
    with pytest.raises(ContractError):
        ExperimentConfig(experiment="magnetohydrodynamics")


_FLOAT_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)
                 if f.type is float]


@pytest.mark.parametrize("name", _FLOAT_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_float_field_rejected(name, value):
    with pytest.raises(ContractError, match=name):
        ExperimentConfig(**{name: value})


@pytest.mark.parametrize("name", ["beta", "dt"])
@pytest.mark.parametrize("value", [0.0, -0.1])
def test_non_positive_beta_and_dt_rejected(name, value):
    with pytest.raises(ContractError, match=f"{name} must be positive"):
        ExperimentConfig(**{name: value})


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


@pytest.mark.parametrize("steps", [0, -3])
def test_transport_steps_below_one_rejected(steps):
    cfg = ExperimentConfig(experiment="passive_transport",
                           transport_steps=steps)
    with pytest.raises(ContractError, match="transport_steps"):
        cfg.resolved()


@pytest.mark.parametrize("experiment,grid_n,n_points", [
    ("cavity_viscosity", 6, 0), ("cavity_viscosity", 6, 37),
    ("passive_transport", 2, None), ("conjugate_heat", 6, None)])
def test_observation_count_outside_grid_rejected_before_solving(
        monkeypatch, experiment, grid_n, n_points):
    # the defaults of 22 and 40 points do not fit on 4 or 36 nodes either
    calls = _count_splu(monkeypatch)
    cfg = ExperimentConfig(experiment, grid_n=grid_n, n_points=n_points)
    with pytest.raises(ContractError, match="n_points must be between 1"):
        build_problem(cfg)
    assert calls == []


def test_full_grid_default_tracks_grid_size():
    cfg = ExperimentConfig(experiment="cavity_viscosity", grid_n=6).resolved()
    assert cfg.n_points == 36


# --- run_experiment protocol


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
    for name, ref in predicted.items():
        np.testing.assert_array_equal(t.value(ref), chain.synthetic[name])
    loss = compute_loss(t, predicted, problem.observations)
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
    "config_echo", "converged", "experiment", "final_loss", "initial_loss",
    "line_search", "linear_solves", "loss_history", "n_evals", "n_steps",
    "newton_iters", "rejections", "relative_mse_percent", "stop_reason",
    "variant", "wall_clock_seconds"}


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
    # Newton solve; the report names it and the search recovers
    real_build = experiments.build_problem

    def build_with_one_failure(config):
        problem = real_build(config)
        objective = problem.objective
        calls = [0]

        def flaky(theta):
            calls[0] += 1
            if calls[0] == 2:
                raise NewtonDivergedError("forced", last_residual=1.0,
                                          iterations=10)
            return objective(theta)

        problem.objective = flaky
        return problem

    monkeypatch.setattr(experiments, "build_problem", build_with_one_failure)
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
        with pytest.raises(TypeError):
            chain.frozen["u"] = np.zeros(chain.grid.n_nodes)
        arrays += [chain.frozen_nu, *chain.frozen.values()]
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
    ("passive_transport", "dt", 0.2),
    ("passive_transport", "transport_steps", 10),
    ("passive_transport", "kappa1", 2.0),
    ("passive_transport", "kappa2", 2.0),
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
               "newton_max_iter", "rho", "cp", "heat_source", "heat_bc_value",
               "dt", "transport_steps", "kappa1", "kappa2"}
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
    assert isinstance(chain.flow_setup, solver.FlowSetup)
    assert isinstance(chain.heat_setup, solver.HeatSetup)
    other = build_problem(dataclasses.replace(cfg, heat_source=2.0))
    assert built == {name: 2 for name in once}
    assert other.forward is not chain
    assert other.forward.flow_setup is not chain.flow_setup
    assert other.forward.heat_setup is not chain.heat_setup
    # a spec without a frozen flow has no heat setup
    cavity = build_problem(ExperimentConfig("cavity_viscosity", grid_n=6))
    cavity.objective(cavity.theta0)
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


def test_cavity_objective_factorizes_once(monkeypatch):
    # Newton steps 2.. and the adjoint refine against the step-1 factors
    problem = build_problem(ExperimentConfig("cavity_viscosity", grid_n=6))
    calls = _count_splu(monkeypatch)
    problem.objective(problem.theta0)
    assert problem.eval_note["newton"] > 1
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
    t.backward(compute_loss(t, predicted, problem.observations))
    assert counts.sweeps > forward.sweeps
    assert counts == dataclasses.replace(
        forward, recycled_solves=forward.recycled_solves + 1,
        sweeps=counts.sweeps)
    [node] = [n for n in t.nodes if n.op == "steady_flow"]
    assert not any(isinstance(v, LuFactors) for v in node.ctx.values())


def test_transport_tape_does_not_grow_with_steps(monkeypatch):
    # the particle transport is in closed form, so an absurd step count
    # costs nothing; after very many steps the particles move with the flow
    tapes = []

    class RecordingTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(experiments, "Tape", RecordingTape)
    lengths = []
    for steps in (1, 50, 10 ** 9):
        problem = build_problem(ExperimentConfig(
            "passive_transport", grid_n=6, n_points=12, transport_steps=steps))
        problem.objective(problem.theta0)
        lengths.append(len(tapes[-1].nodes))
    assert lengths[0] == lengths[1] == lengths[2]
    synth = problem.forward.synthetic
    np.testing.assert_array_equal(synth["w1"], synth["u"])
    np.testing.assert_array_equal(synth["w2"], synth["v"])


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
    assert problem.eval_note["newton"] > 1
    assert len(built) == 1

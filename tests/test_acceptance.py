"""Acceptance gate: one test per shipped claim, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Thresholds are stated inline; tests assert exactly what they print.
"""

import json
import time

import numpy as np

from flowgrad.assembly import operators_for
from flowgrad.experiments import (
    ExperimentConfig,
    build_problem,
    reference_field,
    run_experiment,
)
from flowgrad.grid import DirichletSpec, StructuredGrid
from flowgrad.optimize import OptimizerConfig, lbfgs_optimize
from flowgrad.solver import (
    FlowSetup,
    HeatSetup,
    NewtonConfig,
    PhysicsConstants,
    heat_solve,
    newton_solve,
)
from flowgrad.tape import Tape, finite_difference_check
from tape_oracle import dot


def _verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_full_chain_gradients():
    # 6x6 grid, >=5 random parameters per chain, central FD h=1e-5,
    # relative error < 1e-5, < 60 s per chain. The Newton tolerance is
    # tightened so solver truncation does not pollute the differences.
    failures = []
    details = []
    for experiment in ("cavity_viscosity", "conjugate_heat", "passive_transport"):
        # the 40-point default of the heat experiment does not fit 36 nodes
        points = 12 if experiment == "conjugate_heat" else None
        cfg = ExperimentConfig(experiment=experiment, grid_n=6,
                               n_points=points,
                               newton_tol=1e-11, newton_max_iter=14)
        problem = build_problem(cfg)
        rng = np.random.default_rng(0)
        indices = sorted(int(i) for i in rng.choice(problem.theta0.size,
                                                    size=5, replace=False))
        start = time.perf_counter()
        err = finite_difference_check(problem.objective, problem.theta0,
                                      h=1e-5, indices=indices)
        elapsed = time.perf_counter() - start
        details.append(f"{experiment}: rel err {err:.2e} in {elapsed:.1f}s")
        if err >= 1e-5 or elapsed >= 60.0:
            failures.append(experiment)
    _verdict(1, not failures, "; ".join(details))


def test_criterion_2_forward_solver():
    # 21x21 cavity with the reference viscosity: residual < 1e-8 in
    # <= 10 Newton iterations, < 10 s
    grid = StructuredGrid(21)
    nu = reference_field("cavity_viscosity", grid.coords)
    t = Tape()
    start = time.perf_counter()
    setup = FlowSetup(grid, 1.0, PhysicsConstants(), 0.01)
    state = newton_solve(t, setup, t.constant(nu), NewtonConfig())
    elapsed = time.perf_counter() - start
    residual = state.trace[-1][1]
    ok = (residual < 1e-8
          and state.newton_iterations_used <= 10 and elapsed < 10.0)
    _verdict(2, ok,
             f"residual {residual:.2e} in "
             f"{state.newton_iterations_used} iterations, {elapsed:.2f}s")


def _exp1_reports():
    if not hasattr(_exp1_reports, "cache"):
        start = time.perf_counter()
        dnn = run_experiment(ExperimentConfig(experiment="cavity_viscosity",
                                              variant="dnn2d"))
        pw = run_experiment(ExperimentConfig(experiment="cavity_viscosity",
                                             variant="pointwise"))
        _exp1_reports.cache = (dnn, pw, time.perf_counter() - start)
    return _exp1_reports.cache


def test_criterion_3_regularization_result():
    # DNN coefficient MSE <= 5%, pointwise >= 30% with strictly smaller
    # final loss, both within 100 steps, < 10 min total
    dnn, pw, elapsed = _exp1_reports()
    ok = (dnn.relative_mse_percent <= 5.0
          and pw.relative_mse_percent >= 30.0
          and pw.final_loss < dnn.final_loss
          and dnn.n_steps <= 100 and pw.n_steps <= 100
          and elapsed < 600.0)
    _verdict(3, ok,
             f"dnn MSE {dnn.relative_mse_percent:.2f}% (loss "
             f"{dnn.final_loss:.3e}), pointwise MSE "
             f"{pw.relative_mse_percent:.2f}% (loss {pw.final_loss:.3e}), "
             f"{elapsed:.0f}s total")


def test_criterion_4_held_out_pressure():
    # pressure is never observed; the regularized variant must still
    # recover it better
    dnn, pw, _ = _exp1_reports()
    assert "p" not in dnn.config_echo["components"]
    ok = (dnn.prediction_mse_percent["p"] < pw.prediction_mse_percent["p"])
    _verdict(4, ok,
             f"pressure MSE dnn {dnn.prediction_mse_percent['p']:.2f}% < "
             f"pointwise {pw.prediction_mse_percent['p']:.2f}%")


def test_criterion_5_conductivity_and_noise():
    # 40 points, eps=0: conductivity MSE <= 10% within the 100-step budget;
    # then error averaged over 3 observation seeds is nondecreasing in the
    # noise level
    base = run_experiment(ExperimentConfig(experiment="conjugate_heat"))
    means = {}
    for eps in (0.0, 0.01, 0.05):
        errs = []
        for obs_seed in (7, 8, 9):
            rep = run_experiment(ExperimentConfig(
                experiment="conjugate_heat", noise_epsilon=eps,
                obs_seed=obs_seed))
            errs.append(rep.relative_mse_percent)
        means[eps] = float(np.mean(errs))
    ok = (base.relative_mse_percent <= 10.0
          and means[0.05] >= means[0.01] >= means[0.0])
    _verdict(5, ok,
             f"eps=0 MSE {base.relative_mse_percent:.3f}%; seed-averaged "
             f"{means[0.0]:.3f}% <= {means[0.01]:.3f}% <= {means[0.05]:.3f}%")


def test_criterion_6_layered_transport():
    # layered viscosity from 22 velocity observation points
    rep = run_experiment(ExperimentConfig(experiment="passive_transport"))
    ok = rep.relative_mse_percent <= 10.0
    _verdict(6, ok, f"viscosity MSE {rep.relative_mse_percent:.3f}% "
                    f"from {rep.observations.n_points} points")


def _heat_adjoint_gap(n, seed):
    """heat_solve's conductivity gradient of c . T versus the dense closed
    form -sum_ij lam_i (dA_ij/dk_m) T_j with lam = A^-T c.

    A is the system with its wall rows replaced by identity rows and the
    wall values as their load, so only A depends on k; on the free rows
    dA/dk_m is the stiffness of the m-th unit coefficient.
    """
    rng = np.random.default_rng(seed)
    grid = StructuredGrid(n)
    gops = operators_for(grid)
    nodes, walls = grid.n_nodes, grid.all_boundary
    k = rng.uniform(0.5, 2.0, nodes)
    u, v = rng.normal(size=(2, nodes))
    bc_t = DirichletSpec(walls, rng.normal(size=walls.size))
    c = rng.normal(size=nodes)
    constants = PhysicsConstants()

    t = Tape()
    k_ref = t.variable(k)
    temp = heat_solve(t, HeatSetup(grid, u, v, constants, bc_t), k_ref)
    grad = t.backward(dot(t, t.constant(c), temp))[k_ref]

    def free_rows(data):
        dense = gops.pattern.to_scipy(data).toarray()
        dense[walls] = 0.0
        return dense

    a = free_rows(constants.rho * constants.cp * gops.convection(u, v)
                  + gops.diffusion(k))
    a[walls, walls] = 1.0
    b = gops.pattern.to_scipy(gops.mass()) @ np.full(
        nodes, constants.heat_source_q)
    b[walls] = bc_t.vals
    temp_dense = np.linalg.solve(a, b)
    lam = np.linalg.solve(a.T, c)
    expected = np.array([-lam @ free_rows(gops.diffusion(unit)) @ temp_dense
                         for unit in np.eye(nodes)])
    return float(np.max(np.abs(grad - expected)))


def test_criterion_7_oracle_suites():
    # (a) heat-solve adjoint vs the dense closed form on 3x3 to 6x6 grids
    # (9 to 36 unknowns), random conductivity, flow and wall values
    worst = 0.0
    for size in (3, 4, 5, 6):
        worst = max(worst, _heat_adjoint_gap(size, seed=size))
    ok_adjoint = worst < 1e-10

    # (b) FEM patch test: harmonic linear profile reproduced exactly
    grid = StructuredGrid(6)
    t = Tape()
    walls = grid.all_boundary
    bc_t = DirichletSpec(walls, grid.coords[walls, 0])
    zeros = np.zeros(grid.n_nodes)
    heat = HeatSetup(grid, zeros, zeros, PhysicsConstants(heat_source_q=0.0),
                     bc_t)
    temp = heat_solve(t, heat, t.constant(np.ones(grid.n_nodes)))
    patch_gap = float(np.max(np.abs(t.value(temp) - grid.coords[:, 0])))
    ok_patch = patch_gap < 1e-12

    # (c) Rosenbrock to f < 1e-8
    def rosenbrock(theta):
        x, y = theta
        f = (1 - x) ** 2 + 100.0 * (y - x * x) ** 2
        g = np.array([-2 * (1 - x) - 400.0 * x * (y - x * x),
                      200.0 * (y - x * x)])
        return float(f), g

    result = lbfgs_optimize(rosenbrock, np.array([-1.2, 1.0]),
                            OptimizerConfig(max_steps=200))
    ok_rosen = result.loss < 1e-8

    # (d) determinism: identical seeded runs, identical loss histories
    cfg = ExperimentConfig(experiment="cavity_viscosity", grid_n=6,
                           max_steps=10)
    rep_a = json.loads(run_experiment(cfg).to_json())
    rep_b = json.loads(run_experiment(cfg).to_json())
    for rep in (rep_a, rep_b):
        rep.pop("wall_clock_seconds")
    ok_det = rep_a == rep_b

    ok = ok_adjoint and ok_patch and ok_rosen and ok_det
    _verdict(7, ok,
             f"adjoint gap {worst:.2e}; patch gap {patch_gap:.2e}; "
             f"rosenbrock f {result.loss:.2e}; deterministic reports "
             f"{'identical' if ok_det else 'DIFFER'}")

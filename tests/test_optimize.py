import numpy as np
import pytest

from flowgrad import optimize
from flowgrad.errors import (
    ContractError,
    LineSearchError,
    NewtonDivergedError,
    NumericError,
)
from flowgrad.optimize import (
    OptimizerConfig,
    _cubic_min,
    _wolfe_search,
    lbfgs_optimize,
)


def quadratic(center):
    def f(x):
        d = x - center
        return float(d @ d), 2.0 * d
    return f


def rosenbrock(x):
    a, b = x
    f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    g = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                  200.0 * (b - a * a)])
    return f, g


def test_quadratic_converges_quickly():
    center = np.array([1.0, -2.0, 3.0, 0.5])
    res = lbfgs_optimize(quadratic(center), np.zeros(4))
    assert res.converged
    assert res.n_steps <= 25
    assert res.projected_grad_norm < 1e-10
    assert np.allclose(res.theta, center, atol=1e-9)


def test_rosenbrock_standard_start():
    res = lbfgs_optimize(rosenbrock, np.array([-1.2, 1.0]))
    assert res.loss < 1e-8
    assert np.allclose(res.theta, [1.0, 1.0], atol=1e-3)


def test_loss_history_monotone_and_sized():
    res = lbfgs_optimize(rosenbrock, np.array([-1.2, 1.0]))
    hist = res.loss_history
    assert len(hist) == res.n_steps
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert hist[0] <= res.initial_loss


def test_bound_constraint_projects_to_boundary():
    # unconstrained minimum of (x+1)^2 sits at -1, outside x >= 0
    def f(x):
        return float((x[0] + 1.0) ** 2), np.array([2.0 * (x[0] + 1.0)])

    res = lbfgs_optimize(f, np.array([5.0]),
                         OptimizerConfig(lower_bound=0.0))
    assert res.converged
    assert abs(res.theta[0]) < 1e-12


def test_start_at_optimum_returns_zero_steps():
    center = np.array([2.0, 2.0])
    res = lbfgs_optimize(quadratic(center), center.copy())
    assert res.converged and res.n_steps == 0
    assert res.loss_history == []


@pytest.mark.parametrize("scale, x0, center",
                         [(3.0, 2.0, 0.5), (0.8, -40.0, 7.0)])
def test_first_trial_is_the_zero_residual_minimizer(scale, x0, center):
    # residual r = scale (x - center): the bound 2 f / |phi'(0)| along the
    # steepest descent direction is the exact minimizer 1 / (2 scale^2),
    # below the unit step for these scales, so the first trial is accepted
    # and lands on the center
    def f(x):
        r = scale * (x[0] - center)
        return r * r, np.array([2.0 * scale * r])

    res = lbfgs_optimize(f, np.array([x0]))
    assert res.converged
    assert res.evals_per_step == [1]
    assert res.theta[0] == pytest.approx(center, abs=1e-12)
    assert res.rejections == 0


def test_zero_loss_after_a_step_stops_converged():
    # scale 1 of the landscape above: the first trial lands on 0 exactly
    res = lbfgs_optimize(quadratic(np.array([1.0])), np.array([3.0]))
    assert (res.n_steps, res.n_evals, res.evals_per_step) == (1, 2, [1])
    assert res.loss == 0.0 and res.theta[0] == 1.0
    assert res.converged and res.stop_reason == "zero loss"


def test_zero_loss_start_stops_converged():
    # a sum of squares at 0 cannot go lower, whatever its gradient says
    def f(x):
        return 0.0, np.ones_like(x)

    res = lbfgs_optimize(f, np.zeros(3))
    assert res.converged and res.stop_reason == "zero loss"
    assert (res.n_steps, res.n_evals) == (0, 1)


@pytest.mark.parametrize("x0", [0.0, 3.0])
def test_negative_loss_raises_contract_error(x0):
    # (x - 1)^2 - 0.5 is negative at the start 0, and at the first trial
    # 1.25 from the start 3
    def f(x):
        d = x[0] - 1.0
        return d * d - 0.5, np.array([2.0 * d])

    with pytest.raises(ContractError, match="never negative"):
        lbfgs_optimize(f, np.array([x0]))


def test_solver_failures_are_rejected_then_recovered():
    # the solver "diverges" below 0.05; the first trial from 1.0 lands there,
    # gets rejected, and the halved step recovers toward the minimum at 0.1.
    # The offset 1 keeps the first trial at 1 (its bound 2 f / |phi'(0)| is
    # 1.12): without it the bound would step to 0.1 exactly.
    calls = {"failed": 0}

    def f(x):
        if x[0] < 0.05:
            calls["failed"] += 1
            raise NewtonDivergedError("diverged", last_residual=1.0, iterations=10)
        d = x[0] - 0.1
        return float(d * d) + 1.0, np.array([2.0 * d])

    res = lbfgs_optimize(f, np.array([1.0]))
    assert res.converged
    assert abs(res.theta[0] - 0.1) < 1e-9
    assert calls["failed"] >= 1
    assert res.rejections == calls["failed"]


def test_twenty_rejections_raise_line_search_error():
    # only the starting point is evaluable, so every trial is rejected
    def f(x):
        if x[0] == 0.0:
            return 1.0, np.array([1.0])
        raise NewtonDivergedError("diverged")

    with pytest.raises(LineSearchError) as err:
        lbfgs_optimize(f, np.array([0.0]))
    assert err.value.diagnostics["rejections"] == 20


@pytest.mark.parametrize("failure", ["raise", "nan"])
def test_rejected_trials_and_evals_per_step_recorded(failure):
    # the landscape of test_solver_failures_are_rejected_then_recovered,
    # offset included, failing either by a solver error or by a NaN
    failed = []

    def f(x):
        if x[0] < 0.05:
            failed.append(x[0])
            if failure == "raise":
                raise NewtonDivergedError("diverged")
            return np.nan, np.array([np.nan])
        d = x[0] - 0.1
        return float(d * d) + 1.0, np.array([2.0 * d])

    res = lbfgs_optimize(f, np.array([1.0]))
    assert len(res.evals_per_step) == res.n_steps
    assert 1 + sum(res.evals_per_step) == res.n_evals
    assert failed
    assert res.rejections == len(res.rejected_trials) == len(failed)
    reason = "NewtonDivergedError" if failure == "raise" else "non-finite"
    for step, alpha, why in res.rejected_trials:
        assert 1 <= step <= res.n_steps
        assert alpha > 0.0
        assert why == reason


def test_cubic_min_recovers_cubic_minimizer():
    # p(a) = a^3 - 3a has its local minimum at a = 1
    def p(a):
        return a ** 3 - 3.0 * a, 3.0 * a * a - 3.0

    for lo, hi in [(0.0, 2.0), (2.0, 0.0), (-0.5, 3.0), (0.9, 1.2)]:
        alpha = _cubic_min(lo, *p(lo), hi, *p(hi))
        assert alpha == pytest.approx(1.0, abs=1e-12)


def test_cubic_min_none_without_minimizer():
    # p(a) = a^3 + a is increasing everywhere: negative discriminant
    def p(a):
        return a ** 3 + a, 3.0 * a * a + 1.0

    assert _cubic_min(0.0, *p(0.0), 1.0, *p(1.0)) is None
    assert _cubic_min(1.0, *p(1.0), 1.0, *p(1.0)) is None


def _search_quadratic(alpha0):
    """Line search along d = 1 from x = 0 on (x - 1)^2, minimum at alpha 1."""
    calls = []

    def evaluate(theta):
        calls.append(float(theta[0]))
        d = theta - 1.0
        return float(d @ d), 2.0 * d

    x = np.zeros(1)
    d = np.ones(1)
    f0, g0 = 1.0, np.array([-2.0])
    alpha, f, g, _ = _wolfe_search(evaluate, x, d, f0, g0, float(g0 @ d),
                                alpha0, np.inf, -np.inf, 1, [])
    return alpha, calls


def test_search_interpolates_back_from_overlong_trial():
    # bisection from 100x the minimizer needed 7 evaluations
    alpha, calls = _search_quadratic(100.0)
    assert len(calls) == 3
    assert alpha == pytest.approx(1.0)


def test_search_extrapolates_from_short_trial():
    # doubling from 1/64 of the minimizer needed 4 evaluations
    alpha, calls = _search_quadratic(1.0 / 64.0)
    assert calls == [1.0 / 64.0, 4.0 / 64.0, 16.0 / 64.0]
    assert alpha == 0.25


def test_search_keeps_descent_when_bracketing_budget_runs_out(monkeypatch):
    # phi(alpha) = (1 - 1e-10 (alpha + alpha^2))^2: every trial passes
    # sufficient decrease and lowers the loss, and the slope only grows more
    # negative, so no bracket forms within 5 evaluations (trials 1, 4, 16,
    # 64, 256; the Gauss-Newton bound lies near 1e10 / (1 + 2 alpha)); the
    # last trial is returned instead of an error
    monkeypatch.setattr(optimize, "_MAX_SEARCH_EVALS", 5)
    calls = []

    def residual(a):
        return 1.0 - 1e-10 * (a + a * a)

    def slope(a):
        return -2e-10 * residual(a) * (1.0 + 2.0 * a)

    def evaluate(theta):
        calls.append(float(theta[0]))
        return residual(theta[0]) ** 2, np.array([slope(theta[0])])

    g0 = np.array([slope(0.0)])
    alpha, f, g, _ = _wolfe_search(evaluate, np.zeros(1), np.ones(1), 1.0, g0,
                                slope(0.0), 1.0, np.inf, -np.inf, 1, [])
    assert len(calls) == optimize._MAX_SEARCH_EVALS
    assert alpha == calls[-1] == max(calls)
    assert f == residual(alpha) ** 2 and g[0] == slope(alpha)
    assert all(b > a for a, b in zip(calls, calls[1:]))


def test_zoom_keeps_sufficient_decrease_when_the_budget_runs_out(
        monkeypatch):
    # phi falls with slope -0.01 up to alpha = 10 and rises steeply beyond:
    # bracketing tries 1, 4 and 16, the zoom 8 and 8.8, each below the one
    # before with the slope still -0.01, and then the budget of 5 is spent;
    # the zoom's low end 8.8 is returned instead of an error
    monkeypatch.setattr(optimize, "_MAX_SEARCH_EVALS", 5)
    calls = []

    def evaluate(theta):
        a = float(theta[0])
        calls.append(a)
        if a < 10.0:
            return 1.0 - 0.01 * a, np.array([-0.01])
        return 0.9 + 100.0 * (a - 10.0) ** 2, np.array([200.0 * (a - 10.0)])

    alpha, f, g, _ = _wolfe_search(evaluate, np.zeros(1), np.ones(1), 1.0,
                                np.array([-0.01]), -0.01, 1.0, np.inf,
                                -np.inf, 1, [])
    assert calls == pytest.approx([1.0, 4.0, 16.0, 8.0, 8.8], abs=1e-3)
    assert alpha == calls[-1]
    assert f == pytest.approx(0.912, abs=1e-5) and g[0] == -0.01


def test_accepted_evals_name_the_fallback_trial(monkeypatch):
    # f falls with slope -1 up to x = 10 and rises steeply beyond: the
    # first search tries 1, 4 and 16, 16 brackets a zoom that has no
    # evaluation left, and the zoom falls back on its low end 4, the
    # second of the three trials; every step names the evaluation whose
    # point it took
    monkeypatch.setattr(optimize, "_MAX_SEARCH_EVALS", 3)
    calls = []

    def kinked(x):
        calls.append(x.copy())
        a = float(x[0])
        if a < 10.0:
            return 20.0 - a, np.array([-1.0])
        return 10.0 + 100.0 * (a - 10.0) ** 2, np.array([200.0 * (a - 10.0)])

    seen = []
    res = lbfgs_optimize(kinked, np.zeros(1), OptimizerConfig(max_steps=3),
                         callback=lambda k, x, f, g: seen.append(x.copy()))
    assert [float(x[0]) for x in calls[:4]] == [0.0, 1.0, 4.0, 16.0]
    assert res.evals_per_step[0] == 3 and res.accepted_evals[0] == 3
    assert len(res.accepted_evals) == len(seen) == res.n_steps
    for k, x in zip(res.accepted_evals, seen):
        assert np.array_equal(calls[k - 1], x)


def _steepening_squares(barrier=np.inf):
    """phi(alpha) = r^2 with r = 10 - alpha - alpha^2, evaluated along d = 1
    from x = 0: the slope steepens from -20 at 0 to -48 at the first trial
    alpha = 1, and r has its root at 2.70.  Trials beyond ``barrier`` raise
    NumericError.  Returns the search's ``(alpha, f, g)``, every evaluated
    ``(alpha, f, phi')`` (f and phi' None for a failed trial) and the
    rejected trials."""
    calls, rejected = [], []

    def evaluate(theta):
        a = float(theta[0])
        if a > barrier:
            calls.append((a, None, None))
            raise NumericError("beyond the barrier")
        r = 10.0 - a - a * a
        dphi = -2.0 * r * (1.0 + 2.0 * a)
        calls.append((a, r * r, dphi))
        return r * r, np.array([dphi])

    out = _wolfe_search(evaluate, np.zeros(1), np.ones(1), 100.0,
                        np.array([-20.0]), -20.0, 1.0, np.inf, -np.inf, 1,
                        rejected)[:3]
    return out, calls, rejected


def test_extrapolated_trials_stay_within_the_gauss_newton_bound():
    # from alpha = 1 the cubic extrapolates to 3.77, past the bound
    # 1 + 2 * 64 / 48 = 3.67 where the Gauss-Newton model has its minimizer
    (alpha, f, _), calls, _ = _steepening_squares()
    assert calls[1][0] == 1.0 + 2.0 * 64.0 / 48.0
    for (a, f_a, dphi_a), (b, _, _) in zip(calls, calls[1:]):
        if b > a:  # an extrapolated trial
            assert b <= a - 2.0 * f_a / dphi_a
    assert alpha == pytest.approx(2.7, abs=0.03)
    assert f < 0.1


def test_gauss_newton_bound_keeps_extrapolation_off_a_failure_barrier():
    # trials beyond 3.7 fail; the uncapped extrapolation to 3.77 landed
    # there, the capped trial stops at 3.67
    (alpha, _, _), calls, rejected = _steepening_squares(barrier=3.7)
    assert rejected == []
    assert all(f_a is not None for _, f_a, _ in calls)
    assert max(a for a, _, _ in calls) < 3.7
    assert alpha == pytest.approx(2.7, abs=0.03)


def test_search_ends_within_budget_when_the_bound_binds_on_every_trial():
    # the slope stays at -2 while the loss falls to exp(-10) by alpha = 1:
    # every extrapolated trial is the Gauss-Newton bound, a step of about
    # 1e-4, so no bracket forms and the budget runs out
    calls = []

    def evaluate(theta):
        a = float(theta[0])
        f = float(np.exp(-10.0 * a))
        calls.append((a, f))
        return f, np.array([-2.0])

    alpha, f, _, _ = _wolfe_search(evaluate, np.zeros(1), np.ones(1), 1.0,
                                np.array([-2.0]), -2.0, 1.0, np.inf, -np.inf,
                                1, [])
    assert len(calls) == optimize._MAX_SEARCH_EVALS
    for (a, f_a), (b, _) in zip(calls, calls[1:]):
        assert b == a + f_a
    assert (alpha, f) == calls[-1]


def test_accepted_steps_satisfy_strong_wolfe():
    x0 = np.array([-1.2, 1.0])
    seen = [(x0, *rosenbrock(x0))]
    res = lbfgs_optimize(rosenbrock, x0,
                         callback=lambda k, x, f, g: seen.append((x, f, g)))
    assert res.n_steps > 10
    for (x_a, f_a, g_a), (x_b, f_b, g_b) in zip(seen, seen[1:]):
        s = x_b - x_a  # alpha * d
        slope0 = float(g_a @ s)
        assert slope0 < 0.0
        assert f_b <= f_a + optimize._C1 * slope0
        assert abs(float(g_b @ s)) <= optimize._C2 * abs(slope0)


def test_non_finite_start_rejected():
    def f(x):
        return np.nan, np.zeros(1)

    with pytest.raises(ContractError):
        lbfgs_optimize(f, np.zeros(1))


@pytest.mark.parametrize("failure", ["raise", "inf"])
def test_failing_start_raises_contract_error(failure):
    # the starting point is the caller's, so a failure there is the
    # caller's input at fault, not a numerical failure of the fit
    def f(x):
        if failure == "raise":
            raise NewtonDivergedError("diverged")
        return np.inf, np.zeros(1)

    with pytest.raises(ContractError, match="starting point"):
        lbfgs_optimize(f, np.zeros(1))


def test_config_validation():
    with pytest.raises(ContractError):
        OptimizerConfig(max_steps=0)
    for bound in (np.inf, np.nan):
        with pytest.raises(ContractError, match="lower bound"):
            OptimizerConfig(lower_bound=bound)


def test_gradient_shape_mismatch_rejected():
    def f(x):
        return float(x @ x), np.zeros(x.size + 1)

    with pytest.raises(ContractError):
        lbfgs_optimize(f, np.zeros(3))


def test_callback_sees_every_accepted_step():
    seen = []
    res = lbfgs_optimize(rosenbrock, np.array([-1.2, 1.0]),
                         callback=lambda k, x, f, g: seen.append((k, f)))
    assert [k for k, _ in seen] == list(range(1, res.n_steps + 1))
    assert [f for _, f in seen] == res.loss_history


@pytest.mark.parametrize("fail_call", [None, 2])
def test_objective_called_exactly_n_evals_times(fail_call):
    # a failed trial is an evaluation too
    calls = []

    def f(x):
        calls.append(1)
        if len(calls) == fail_call:
            raise NumericError("failed trial")
        return rosenbrock(x)

    res = lbfgs_optimize(f, np.array([-1.2, 1.0]))
    assert len(calls) == res.n_evals == 1 + sum(res.evals_per_step)
    assert res.rejections == (fail_call is not None)
    assert res.n_steps > 10


def test_max_steps_respected():
    res = lbfgs_optimize(rosenbrock, np.array([-1.2, 1.0]),
                         OptimizerConfig(max_steps=3))
    assert res.n_steps == 3
    assert not res.converged


def test_deterministic_trajectory():
    a = lbfgs_optimize(rosenbrock, np.array([-1.2, 1.0]))
    b = lbfgs_optimize(rosenbrock, np.array([-1.2, 1.0]))
    assert a.loss_history == b.loss_history
    assert np.array_equal(a.theta, b.theta)

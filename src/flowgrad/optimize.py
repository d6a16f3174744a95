"""Limited-memory BFGS with a strong Wolfe line search and a lower bound.

The direction comes from the standard two-loop recursion over the last ``m``
curvature pairs.  One lower bound, the same for every parameter, is handled
by gradient projection: variables sitting on the bound with an
outward-pointing gradient are frozen for the step, trial steps are capped
where a free variable would cross it, and convergence is judged on the
projected gradient.

The objective is a sum of squares, so its loss f is never negative: a
negative loss is a ContractError, and a loss of exactly 0 ends the run as
converged.  At a point alpha along a descent direction d, with loss f and
slope phi'(alpha) < 0, the Gauss-Newton model
q(t) = f + t phi'(alpha) + t^2 |J_r d|^2 of the loss at alpha + t stays
nonnegative, so its minimizer lies at t <= -2 f / phi'(alpha) (Nocedal &
Wright, *Numerical Optimization*, section 3.5 and ch. 10); a trial beyond
alpha - 2 f / phi'(alpha) overshoots the model.  This bound caps every
trial that lengthens the step: the first trial of every line search is
``min(1, alpha_max, -2 f / phi'(0))``, ``alpha_max`` being the bound cap,
and every extrapolated trial stays at or below the bound of the trial it
extrapolates from.

The step length comes from a strong Wolfe line search that interpolates
instead of doubling and bisecting: every trial returns its loss and its slope
along the direction, and the next trial is the minimizer of the cubic through
two known points (Nocedal & Wright, *Numerical Optimization*, Alg. 3.5/3.6
with the interpolation of section 3.5).  Safeguards keep the search
convergent: an extrapolated step grows by a factor between 1.1 and 4 unless
the Gauss-Newton bound, a lower bound or a rejected trial stops it sooner, a
zoom trial stays inside the middle 80% of its bracket, and the zoom bisects
when the cubic has no minimizer or one end of the bracket is a rejected
trial.  Bracketing and zoom share one budget of 40 evaluations per line
search, and each keeps its sufficient-decrease fallback when the budget
runs out: bracketing takes its last trial, which still lowers the loss with
a negative slope, and the zoom takes the low end of its bracket when that
is a trial below the starting loss.

A trial evaluation that raises a solver error (Newton nonconvergence,
singular Jacobian, non-finite values) is treated as infinite loss: the trial
is rejected and the step shrunk toward the current iterate.  Twenty rejected
trials within one line search abort the run with diagnostics.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, LineSearchError, NumericError

__all__ = ["OptimizerConfig", "OptimizeResult", "lbfgs_optimize"]

_MAX_REJECTIONS = 20
_MAX_SEARCH_EVALS = 40
# sufficient-decrease and curvature constants of the strong Wolfe conditions
_C1 = 1e-4
_C2 = 0.9
# stopping tests: max-norm of the projected gradient, and the loss change of
# a step relative to max(1, |f|)
_TOL_PROJECTED_GRAD = 1e-10
_TOL_REL_LOSS = 1e-12
_CURVATURE_FLOOR = 1e-10
_ACTIVE_EPS = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """``lower_bound`` bounds every parameter from below; ``-inf`` leaves
    them free."""

    max_steps: int = 100
    memory: int = 10
    lower_bound: float = -math.inf

    def __post_init__(self):
        if self.max_steps < 1 or self.memory < 1:
            raise ContractError("max_steps and memory must be at least 1")
        if not self.lower_bound < math.inf:  # also rejects NaN
            raise ContractError(
                f"lower bound must be below inf, got {self.lower_bound}")


@dataclass
class OptimizeResult:
    """Outcome of one optimization.

    ``evals_per_step`` holds the objective evaluations of each accepted step's
    line search, so ``1 + sum(evals_per_step) == n_evals`` (the 1 is the
    starting point).  ``accepted_evals`` numbers, for each accepted step,
    the evaluation whose point it took, the starting point being
    evaluation 1: a line search can fall back on an earlier trial than its
    last.  ``rejected_trials`` lists every rejected trial as
    ``(step, alpha, reason)``, the reason being the solver exception's class
    name or ``"non-finite"``.
    """

    theta: np.ndarray
    loss: float
    loss_history: list
    initial_loss: float
    n_steps: int
    converged: bool
    stop_reason: str
    projected_grad_norm: float
    n_evals: int
    evals_per_step: list
    accepted_evals: list
    rejected_trials: list

    @property
    def rejections(self):
        return len(self.rejected_trials)


def _two_loop(g, pairs, free):
    q = np.where(free, g, 0.0)
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        alphas.append(a)
        q = q - a * y
    s, y, _ = pairs[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(y @ q)
        q = q + (a - b) * s
    return np.where(free, -q, 0.0)


def _gauss_newton_bound(alpha, f, dphi):
    """The longest step worth trying from the point ``alpha`` of a line,
    where the loss is ``f`` and its slope ``dphi < 0``: the minimizer of the
    Gauss-Newton model of a sum of squares there (module docstring)."""
    return alpha - 2.0 * f / dphi


def _stop_reason(f, pg_norm):
    """Why the iterate at loss ``f`` is optimal, or None."""
    if f == 0.0:
        return "zero loss"
    if pg_norm < _TOL_PROJECTED_GRAD:
        return "projected gradient below tolerance"
    return None


def lbfgs_optimize(problem, theta0, config=None, callback=None):
    """Minimize ``problem(theta) -> (loss, gradient)`` from ``theta0``.

    The loss must be a sum of squares: a negative loss raises ContractError,
    and a loss of 0 stops the run as converged ("zero loss").  Each line
    search starts at ``min(1, alpha_max, -2 loss / phi'(0))``, the
    Gauss-Newton bound on the minimizer along the direction (see the module
    docstring), capped by the unit step and by the lower bounds.  The
    starting point comes from the caller, so an objective that fails or is
    non-finite there raises ContractError.

    Every call of ``problem`` counts in the result's ``n_evals``.
    ``callback(step, theta, loss, grad)`` runs after every accepted step.
    The returned loss history holds the loss after each accepted step and is
    nonincreasing.
    """
    config = config or OptimizerConfig()
    x = np.asarray(theta0, dtype=np.float64).copy()
    lb = config.lower_bound
    x = np.maximum(x, lb)

    evals = [0]

    def evaluate(theta):
        evals[0] += 1
        f, g = problem(theta)
        f = float(f)
        if f < 0.0:
            raise ContractError(f"objective returned loss {f!r}; a sum of "
                                f"squares is never negative")
        g = np.asarray(g, dtype=np.float64)
        if g.shape != theta.shape:
            raise ContractError(
                f"gradient shape {g.shape} != parameter shape {theta.shape}")
        return f, g

    try:
        f, g = evaluate(x)
    except NumericError as exc:
        raise ContractError(
            f"objective fails at the starting point: {exc}") from exc
    if not np.isfinite(f):
        raise ContractError(f"objective is {f} at the starting point")

    initial_loss = f
    history = []
    pairs = []
    evals_per_step = []
    accepted_evals = []
    rejected_trials = []

    def projected_grad(xc, gc):
        return xc - np.maximum(xc - gc, lb)

    pg_norm = float(np.max(np.abs(projected_grad(x, g)))) if x.size else 0.0
    reason = _stop_reason(f, pg_norm)
    if reason is not None:
        return OptimizeResult(x, f, history, initial_loss, 0, True, reason,
                              pg_norm, evals[0], evals_per_step,
                              accepted_evals, rejected_trials)

    stop_reason = "step limit reached"
    converged = False
    steps = 0
    for step in range(1, config.max_steps + 1):
        active = (x <= lb + _ACTIVE_EPS) & (g > 0.0)
        free = ~active
        if pairs:
            d = _two_loop(g, pairs, free)
        else:
            d = np.where(free, -g, 0.0)
        dphi0 = float(g @ d)
        if dphi0 >= 0.0:
            d = np.where(free, -g, 0.0)
            dphi0 = float(g @ d)
        if dphi0 >= 0.0:
            stop_reason = "no descent direction"
            converged = pg_norm < 1e-8
            break

        # cap the step where a free variable would leave the feasible set
        limiting = d < 0.0
        if math.isfinite(lb) and np.any(limiting):
            alpha_max = float(np.min((lb - x[limiting]) / d[limiting]))
            alpha_max = max(alpha_max, 1e-16)
        else:
            alpha_max = np.inf

        alpha0 = min(1.0, alpha_max, _gauss_newton_bound(0.0, f, dphi0))

        evals_before = evals[0]
        alpha, f_new, g_new, k = _wolfe_search(
            evaluate, x, d, f, g, dphi0, alpha0, alpha_max, lb, step,
            rejected_trials)
        evals_per_step.append(evals[0] - evals_before)
        accepted_evals.append(evals_before + k)
        x_new = np.maximum(x + alpha * d, lb)

        s = x_new - x
        yv = g_new - g
        sy = float(s @ yv)
        if sy > _CURVATURE_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            pairs.append((s, yv, 1.0 / sy))
            if len(pairs) > config.memory:
                pairs.pop(0)

        rel_change = abs(f - f_new) / max(1.0, abs(f))
        x, f, g = x_new, f_new, g_new
        history.append(f)
        steps = step
        if callback is not None:
            callback(step, x, f, g)

        pg_norm = float(np.max(np.abs(projected_grad(x, g))))
        reason = _stop_reason(f, pg_norm)
        if reason is not None:
            stop_reason = reason
            converged = True
            break
        if rel_change < _TOL_REL_LOSS:
            stop_reason = "relative loss change below tolerance"
            converged = True
            break

    return OptimizeResult(x, f, history, initial_loss, steps, converged,
                          stop_reason, pg_norm, evals[0], evals_per_step,
                          accepted_evals, rejected_trials)


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic through ``(a, fa)`` and ``(b, fb)`` with slopes
    ``da`` and ``db`` (Nocedal & Wright, *Numerical Optimization*, eq. 3.59).

    Returns None when the cubic has no local minimizer (negative
    discriminant) or the formula breaks down (coincident points, zero or
    non-finite denominator, non-finite result).
    """
    if a == b:
        return None
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if not disc >= 0.0:  # also rejects NaN
        return None
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = db - da + 2.0 * d2
    if denom == 0.0:
        return None
    alpha = b - (b - a) * (db + d2 - d1) / denom
    return float(alpha) if math.isfinite(alpha) else None


def _wolfe_search(evaluate, x, d, f0, g0, dphi0, alpha0, alpha_max, lb,
                  step, rejected):
    """Strong Wolfe search with cubic interpolation and the rejection
    protocol folded in.

    Every trial keeps its loss f and slope phi' = g.d.  While a trial alpha
    passes the sufficient-decrease test but is still too short (phi' < 0),
    the next trial is the minimizer of the cubic through the previous and
    current (f, phi'), clamped to [1.1, 4] times the current step; a cubic
    without a minimizer extrapolates by the full factor 4.  The trial is
    then kept at or below the cap ``min(alpha_max, 0.999 * ceil,
    alpha - 2 f / phi')``, ``ceil`` being the shortest rejected step and
    the last term the Gauss-Newton bound from alpha (module docstring); a
    trial already at its cap is accepted on sufficient decrease alone.  Once
    a bracket holds an acceptable step, the zoom trial is the cubic
    minimizer through both ends, clamped into the middle 80% of the bracket
    so the interval shrinks by at least a tenth each time.  It bisects when
    that minimizer is undefined or when the far end is a rejected trial,
    which has no f or g.

    Bracketing and zoom run while one budget of ``_MAX_SEARCH_EVALS``
    evaluations lasts, and each phase keeps its sufficient-decrease
    fallback when it runs out.  Bracketing returns its last trial: while
    no bracket forms, every trial passed sufficient decrease and lies below
    the one before.  The zoom returns the low end of its bracket when that
    is a trial (alpha > 0) below ``f0``.  Each rejected trial is appended
    to ``rejected`` as ``(step, alpha, reason)``.  Returns ``(alpha, f,
    g, k)``, the accepted point being the search's ``k``-th evaluation
    (a fallback need not be the last).  Raises LineSearchError when the
    budget runs out with no such fallback, or after 20 rejected (failed or
    non-finite) trials.
    """
    rejections = [0]
    budget = [_MAX_SEARCH_EVALS]

    def fail(reason):
        raise LineSearchError(
            f"line search failed at step {step}: {reason}",
            diagnostics={"step": step, "f0": f0, "dphi0": dphi0,
                         "rejections": rejections[0],
                         "evals_left": budget[0]})

    # smallest step length that produced a rejected trial; later trials stay
    # below it, treating the failure like a bound on the step
    ceil = [np.inf]

    def phi(alpha):
        """A point ``(alpha, f, g, k, phi')`` of the search's ``k``-th
        evaluation, or None for a rejected trial (solver failure or
        non-finite loss)."""
        budget[0] -= 1
        try:
            f_a, g_a = evaluate(np.maximum(x + alpha * d, lb))
        except NumericError as exc:
            f_a, g_a, reason = np.inf, None, type(exc).__name__
        else:
            reason = "non-finite"
        if not np.isfinite(f_a):
            rejections[0] += 1
            rejected.append((step, float(alpha), reason))
            ceil[0] = min(ceil[0], alpha)
            if rejections[0] >= _MAX_REJECTIONS:
                fail(f"{_MAX_REJECTIONS} rejected trial steps")
            return None
        return alpha, f_a, g_a, _MAX_SEARCH_EVALS - budget[0], float(g_a @ d)

    def armijo(alpha, f_a):
        return f_a <= f0 + _C1 * alpha * dphi0

    def zoom_trial(lo, hi):
        trial = None
        if hi[1] is not None:  # a rejected trial has no f or g
            trial = _cubic_min(lo[0], lo[1], lo[4], hi[0], hi[1], hi[4])
        if trial is None:
            return 0.5 * (lo[0] + hi[0])
        margin = 0.1 * (hi[0] - lo[0])
        inner, outer = sorted((lo[0] + margin, hi[0] - margin))
        return min(max(trial, inner), outer)

    def zoom(lo, hi):
        # invariant: lo satisfies the sufficient-decrease condition (or is 0)
        while budget[0] > 0:
            if abs(hi[0] - lo[0]) < 1e-14 * max(1.0, abs(lo[0])):
                break
            alpha = zoom_trial(lo, hi)
            point = phi(alpha)
            if point is None:
                hi = (alpha, None, None, None, None)  # shrink toward lo
                continue
            _, f_a, _, _, dphi_a = point
            if not armijo(alpha, f_a) or f_a >= lo[1]:
                hi = point
            else:
                if abs(dphi_a) <= -_C2 * dphi0:
                    return point[:4]
                if dphi_a * (hi[0] - lo[0]) >= 0.0:
                    hi = lo
                lo = point
        if lo[0] > 0.0 and lo[1] < f0:
            return lo[:4]
        fail("zoom could not find an acceptable point")

    prev = (0.0, f0, g0, 0, dphi0)
    alpha = alpha0
    first = True
    while budget[0] > 0:
        point = phi(alpha)
        if point is None:
            alpha = 0.5 * (prev[0] + alpha)  # halve toward the last good point
            continue
        _, f_a, _, _, dphi_a = point
        if not armijo(alpha, f_a) or (f_a >= prev[1] and not first):
            return zoom(prev, point)
        if abs(dphi_a) <= -_C2 * dphi0:
            return point[:4]
        if dphi_a >= 0.0:
            return zoom(point, prev)
        cap = min(alpha_max, 0.999 * ceil[0],
                  _gauss_newton_bound(alpha, f_a, dphi_a))
        if alpha >= cap:
            # pressed against a bound, a failure barrier or a zero loss:
            # sufficient decrease is all we can ask
            return point[:4]
        trial = _cubic_min(prev[0], prev[1], prev[4], alpha, f_a, dphi_a)
        if trial is None:
            trial = 4.0 * alpha
        alpha = min(max(trial, 1.1 * alpha), 4.0 * alpha, cap)
        prev = point
        first = False
    if prev[0] > 0.0:
        # still descending when the budget ran out
        return prev[:4]
    fail("evaluation budget exhausted")

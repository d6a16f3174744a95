"""Workloads, the measurement loop, output checks and the environment record.

Every workload is a closed loop in one process: each ``run_experiment``
call starts when the previous one returns.  Call ``k`` of a run uses the
workload's configs for observation seed ``seed + k * seeds_per_unit``, so a
run covers several seeds and does not hang on one seed's optimizer path.
"""

import hashlib
import json
import os
import platform
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import flowgrad
from flowgrad import accel, experiments
from flowgrad.errors import (
    DivergedParameterizationError,
    LineSearchError,
    NumericError,
)
from flowgrad.experiments import EXPERIMENTS, ExperimentConfig
from flowgrad.tape import finite_difference_check

from tracing import Tracer, instrumented, layer_metrics, perf

RESULTS = Path(__file__).resolve().parent / "results"
ROOT = Path(__file__).resolve().parent.parent

GATE_TOL = 1e-5
SETUP_SAMPLES = 5
P90_MIN_SAMPLES = 100

# what a failed inversion raises; anything else is a harness or API bug
RUN_ERRORS = (LineSearchError, DivergedParameterizationError, NumericError)


class GateError(Exception):
    """A correctness check that must pass before anything is timed."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mse_ceiling_pct: float
    seeds_per_unit: int
    configs: object  # base observation seed -> list of ExperimentConfig


def _cavity(seed):
    return [ExperimentConfig("cavity_viscosity", grid_n=41, max_steps=20,
                             noise_epsilon=0.01, obs_seed=seed)]


def _heat_sweep(seed):
    return [ExperimentConfig("conjugate_heat", grid_n=21, noise_epsilon=eps,
                             obs_seed=seed + k)
            for eps in (0.0, 0.01, 0.05) for k in range(3)]


def _transport(seed):
    return [ExperimentConfig("passive_transport", grid_n=21, max_steps=20,
                             obs_seed=seed)]


# The coefficient ceilings catch a fit that went wrong, not a small loss of
# quality.  The heat and transport fits must at least halve the ~20% error
# of their initial guess (seen: at most 2.3% and 2.0%).  The cavity fit
# recovers viscosity poorly from velocities alone (65-86%, above the 53% of
# its initial guess), so its ceiling only bounds a blow-up.
WORKLOADS = {w.name: w for w in (
    Workload("cavity-41",
             "LU-bound: 5,043-unknown Newton systems, ~85% of time in SuperLU, "
             "failed Newton trials; coef_rel_mse_pct ceiling 150",
             150.0, 1, _cavity),
    Workload("heat-sweep-21",
             "noise sweep, 9 inversions of one linear solve each: per-call "
             "overhead of models, ops, tape, optimizer; coef_rel_mse_pct "
             "ceiling 10",
             10.0, 3, _heat_sweep),
    Workload("transport-21",
             "largest tape (~810 nodes/eval, 50-step recursion) over a small "
             "Newton: tape and ops per-node cost; coef_rel_mse_pct ceiling 10",
             10.0, 1, _transport),
)}


@dataclass
class Call:
    """One ``run_experiment`` call and the span range it recorded."""

    config: ExperimentConfig
    first: int
    last: int
    report: object
    error: Exception = None


def run_call(tracer, config):
    first = len(tracer)
    i = tracer.open("experiments.run")
    report, error = None, None
    try:
        report = experiments.run_experiment(config)
    except RUN_ERRORS as exc:
        error = exc
    finally:
        tracer.close(i)
    return Call(config, first, len(tracer), report, error)


def gradient_gate():
    """Worst relative gradient error per experiment on a 6x6 grid.

    Five coordinates drawn with seed 0, central differences with h = 1e-5
    and a Newton tolerance of 1e-11, as in acceptance criterion 1.
    """
    worst = {}
    for experiment in EXPERIMENTS:
        points = 12 if experiment == "conjugate_heat" else None
        cfg = ExperimentConfig(experiment=experiment, grid_n=6,
                               n_points=points, newton_tol=1e-11,
                               newton_max_iter=14)
        problem = experiments.build_problem(cfg)
        rng = np.random.default_rng(0)
        indices = sorted(int(i) for i in rng.choice(problem.theta0.size,
                                                    size=5, replace=False))
        worst[experiment] = finite_difference_check(
            problem.objective, problem.theta0, h=1e-5, indices=indices)
    return worst


def history_digest(report):
    """Exact fingerprint of a run's initial loss and accepted-step losses."""
    losses = [report.initial_loss] + list(report.loss_history)
    return hashlib.sha256(",".join(float(x).hex() for x in losses)
                          .encode()).hexdigest()


def check_report(report, ceiling):
    """Problems with one finished run's outputs (empty when it is correct)."""
    losses = np.array([report.initial_loss] + list(report.loss_history))
    problems = []
    if not np.all(np.isfinite(losses)):
        problems.append("non-finite loss")
    elif report.final_loss > report.initial_loss:
        problems.append(f"final loss {report.final_loss!r} above initial "
                        f"{report.initial_loss!r}")
    if not report.relative_mse_percent < ceiling:
        problems.append(f"coef_rel_mse_pct {report.relative_mse_percent!r} "
                        f"not under the ceiling {ceiling}")
    return problems


def eval_quantiles(durations):
    """Mean and p50 of all samples; p90 only with at least 100 samples."""
    out = {"eval_s_mean": float(np.mean(durations)),
           "eval_s_p50": float(np.median(durations)),
           "eval_samples": len(durations)}
    if len(durations) >= P90_MIN_SAMPLES:
        out["eval_s_p90"] = float(np.percentile(durations, 90))
    return out


def source_digest():
    """sha256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flowgrad").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the enclosing git checkout, or None outside of one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: v for k, v in os.environ.items()
                         if k.endswith("_NUM_THREADS")
                         or k == "VECLIB_MAXIMUM_THREADS"},
        "flowgrad_env": {k: v for k, v in os.environ.items()
                         if k.startswith("FLOWGRAD_")},
        "use_numba": accel.USE_NUMBA,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "flowgrad_file": flowgrad.__file__,
        "seed": seed,
    }


class Histories:
    """Loss-history digests per code version and config, kept across runs.

    The same seed must reproduce the same history bit for bit, in this run
    and in every earlier run of the same sources in this checkout.
    """

    def __init__(self, path, source):
        self.path = path
        self.source = source
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, workload, config, digest):
        key = hashlib.sha256(
            f"{self.source}|{workload}|{config!r}".encode()).hexdigest()
        seen = self.known.setdefault(key, digest)
        if seen != digest:
            return [f"loss history of {config.experiment} obs_seed "
                    f"{config.obs_seed} eps {config.noise_epsilon} differs "
                    f"from an earlier run with the same seed"]
        return []

    def save(self):
        self.path.parent.mkdir(exist_ok=True)
        self.path.write_text(json.dumps(self.known, indent=0, sort_keys=True))


def _spans(tracer, call, name):
    """Durations and span ids of spans named ``name`` inside ``call``."""
    ids = [i for i in range(call.first, call.last) if tracer.names[i] == name]
    return [tracer.ends[i] - tracer.starts[i] for i in ids], ids


def summarize(tracer, calls):
    """End-to-end numbers of the untraced calls of one run."""
    run_s, evals, failed_evals, aborted = [], [], 0, 0
    for call in calls:
        if call.report is not None:
            run_s.append(tracer.ends[call.first] - tracer.starts[call.first])
        elif isinstance(call.error, LineSearchError):
            aborted += 1
        durations, ids = _spans(tracer, call, "experiments.objective")
        evals += durations
        failed_evals += sum(1 for i in ids if tracer.notes.get(i) is not True)
    setup = [tracer.ends[i] - tracer.starts[i]
             for i, name in enumerate(tracer.names)
             if name == "experiments.build_problem"]
    out = {
        "run_s": statistics.fmean(run_s) if run_s else None,
        "run_samples": len(run_s),
        "setup_s": statistics.median(setup),
        "setup_samples": len(setup),
        "evals": len(evals),
        "evals_per_call": len(evals) / len(calls),
        "eval_fail_frac": (failed_evals + aborted) / len(evals)
        if evals else None,
    }
    if evals:
        out.update(eval_quantiles(evals))
    mse = [c.report.relative_mse_percent for c in calls if c.report]
    if mse:
        out["coef_rel_mse_pct"] = statistics.median(mse)
        out["coef_rel_mse_pct_max"] = max(mse)
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    problems: list
    attempted: int
    failed: int
    metrics: dict  # metric name -> value
    detail: dict
    tracer: Tracer = None


def measure(workload, seed, seconds, trace):
    """Run ``workload`` for about ``seconds`` seconds.

    Without ``trace`` the metrics are the end-to-end ones.  With ``trace``
    every unit of calls runs twice, untraced and then traced, and the
    metrics are the per-layer ones.
    """
    gate = gradient_gate()
    if not all(err < GATE_TOL for err in gate.values()):
        raise GateError(f"gradient check failed: {gate}")

    plain, traced = Tracer(), Tracer()
    if not trace:
        configs = workload.configs(seed)
        with instrumented(plain, full=False):
            for k in range(SETUP_SAMPLES):
                experiments.build_problem(configs[k % len(configs)])

    calls, traced_calls, unit_s = [], [], []
    started = perf()
    while True:
        configs = workload.configs(seed + len(unit_s) * workload.seeds_per_unit)
        t0 = perf()
        with instrumented(plain, full=False):
            calls += [run_call(plain, cfg) for cfg in configs]
        if trace:
            with instrumented(traced, full=True):
                traced_calls += [run_call(traced, cfg) for cfg in configs]
        unit_s.append(perf() - t0)
        if perf() - started + statistics.median(unit_s) > seconds:
            break

    problems = []
    histories = Histories(RESULTS / "histories.json", source_digest())
    for call in calls:
        if call.report is not None:
            problems += check_report(call.report, workload.mse_ceiling_pct)
            problems += histories.check(workload.name, call.config,
                                        history_digest(call.report))
    histories.save()

    everything = calls + traced_calls
    summary = summarize(plain, calls)
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "units": len(unit_s),
              "gradient_gate": gate, "environment": environment(seed),
              "errors": [f"{type(c.error).__name__}: {c.error}"
                         for c in everything if c.error],
              **summary, "peak_rss_mb": peak_rss_mb()}
    result = Result(problems, len(everything),
                    sum(1 for c in everything if c.error), {}, detail)
    if not trace:
        result.metrics = {k: detail[k] for k in
                          ("setup_s", "evals_per_call", "peak_rss_mb")}
        return result

    for plain_call, traced_call in zip(calls, traced_calls):
        if (plain_call.report is None) != (traced_call.report is None) or (
                plain_call.report is not None
                and history_digest(plain_call.report)
                != history_digest(traced_call.report)):
            problems.append(f"traced loss history of {plain_call.config!r} "
                            f"differs from the untraced one")
    layers, self_by_group = layer_metrics(traced, len(traced_calls))
    traced_summary = summarize(traced, traced_calls)
    names = traced.names
    detail.update({
        "traced_run_s": traced_summary["run_s"],
        "trace_overhead_s": (traced_summary["run_s"] - summary["run_s"]
                             if traced_summary["run_s"] and summary["run_s"]
                             else None),
        "traced_eval_s_mean": traced_summary.get("eval_s_mean"),
        "spans": len(traced),
        "layers": layers,
        "self_s_by_group": self_by_group,
        "largest_self": next(iter(self_by_group)),
        "lu_factorizations": names.count("sparse.splu"),
        "sparse_solve_fwd_bwd_calls": sum(
            1 for n in names if n.startswith("sparse.op.sparse_solve.")),
    })
    result.metrics = layers
    result.tracer = traced
    return result

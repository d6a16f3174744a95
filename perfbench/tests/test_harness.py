"""Tests of the benchmark harness itself: span arithmetic, sampling rules,
instrumentation hygiene, failure accounting and trace fidelity."""

import json
import re
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

import harness
import tracing
from flowgrad import experiments, tape
from flowgrad.assembly import GridOperators
from flowgrad.errors import DivergedParameterizationError
from flowgrad.experiments import ExperimentConfig
from flowgrad.grid import StructuredGrid
from flowgrad.sparse import LuFactors
from flowgrad.tape import Tape

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def _small(seed):
    return [ExperimentConfig("cavity_viscosity", grid_n=6, max_steps=4,
                             obs_seed=seed),
            ExperimentConfig("conjugate_heat", grid_n=6, n_points=12,
                             max_steps=4, noise_epsilon=0.01, obs_seed=seed),
            ExperimentConfig("passive_transport", grid_n=6, max_steps=4,
                             obs_seed=seed)]


SMALL = harness.Workload("small-6", "three 6x6 inversions", 100.0, 1, _small)


def test_self_time_subtracts_direct_children_only():
    #  0 [0, 10]
    #  +- 1 [1, 4]
    #  |  +- 2 [2, 3]
    #  +- 3 [5, 6]
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 6.0])
    own = tracing.self_times(ends - starts, [-1, 0, 1, 0])
    assert own.tolist() == [6.0, 2.0, 1.0, 1.0]
    assert own.sum() == 10.0


def test_wrapped_spans_nest_and_exclude_note_time(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(tracing, "perf", lambda: float(next(clock)))
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None, note=lambda args, out: "n")
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    names, starts, ends, parents, _, excluded = tracer.arrays()
    assert names.tolist() == ["outer", "inner"]
    assert parents.tolist() == [-1, 0]
    assert tracer.notes == {1: "n"}
    # the note took one tick while "outer" was still open
    assert excluded.tolist() == [1.0, 0.0]
    own = tracing.self_times(ends - starts - excluded, parents)
    assert own.tolist() == [(ends[0] - starts[0] - 1.0) - 1.0, 1.0]


def test_p90_needs_100_samples():
    assert "eval_s_p90" not in harness.eval_quantiles([0.1] * 99)
    q = harness.eval_quantiles(list(np.linspace(0.0, 1.0, 101)))
    assert q["eval_samples"] == 101
    assert q["eval_s_p50"] == 0.5
    assert q["eval_s_mean"] == pytest.approx(0.5)
    assert q["eval_s_p90"] == pytest.approx(0.9)


def _entry_points():
    """Identity snapshot of everything ``instrumented`` may replace."""
    owners = [m for name, m in sys.modules.items()
              if name == "flowgrad" or name.startswith("flowgrad.")]
    owners += [Tape, LuFactors, StructuredGrid, GridOperators,
               scipy.sparse.linalg]
    snap = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    snap.update({("registry", k): v for k, v in tape._REGISTRY.items()})
    return snap


def _same(before, after):
    return before.keys() == after.keys() and all(
        after[k] is v for k, v in before.items())


def test_instrumentation_restores_every_entry_point():
    before = _entry_points()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracing.Tracer(), full=True):
            during = _entry_points()
            assert not _same(before, during)
            assert Tape.apply is not before[(id(Tape), "apply")]
            assert experiments.newton_solve.__wrapped__ \
                is before[(id(experiments), "newton_solve")]
            raise RuntimeError("leave the block early")
    assert _same(before, _entry_points())


def test_failed_run_is_counted_not_raised(monkeypatch):
    calls = []
    original = experiments.eval_field_on_grid

    def diverge_on_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise DivergedParameterizationError("clamped everywhere")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "eval_field_on_grid", diverge_on_third)
    tracer = tracing.Tracer()
    config = _small(1)[0]
    with tracing.instrumented(tracer, full=False):
        call = harness.run_call(tracer, config)
    assert isinstance(call.error, DivergedParameterizationError)
    summary = harness.summarize(tracer, [call])
    assert summary["run_s"] is None
    assert summary["evals"] == 3
    assert summary["eval_fail_frac"] == pytest.approx(1 / 3)


def test_traced_run_reproduces_untraced_history(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "RESULTS", tmp_path)
    result = harness.measure(SMALL, seed=3, seconds=0.01, trace=True)
    assert result.problems == []
    assert result.failed == 0 and result.attempted == 6
    for entry in SPEC["per_layer"]:
        assert np.isfinite(result.metrics[entry["name"]]), entry["name"]
    detail = result.detail
    assert detail["lu_factorizations"] == detail["sparse_solve_fwd_bwd_calls"]
    assert detail["layers"]["solver.heat_s"] > 0
    assert detail["layers"]["solver.transport_s"] > 0


def test_benchmark_json_matches_the_harness(monkeypatch, tmp_path):
    specs = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert specs == {n: w.why for n, w in harness.WORKLOADS.items()}
    for workload in harness.WORKLOADS.values():
        ceiling = re.search(r"coef_rel_mse_pct ceiling ([0-9.]+)",
                            workload.why)
        assert float(ceiling.group(1)) == workload.mse_ceiling_pct
    monkeypatch.setattr(harness, "RESULTS", tmp_path)
    result = harness.measure(SMALL, seed=3, seconds=0.01, trace=False)
    assert result.problems == []
    assert {e["name"] for e in SPEC["end_to_end"]} == set(result.metrics)

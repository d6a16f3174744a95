"""Subcommand behavior, output files, and the exit-code contract."""

import json

import numpy as np
import pytest
import scipy.io
import scipy.sparse.linalg

from flowgrad import config, experiments
from flowgrad.cli import main
from flowgrad.config import _SCHEMA, load_config
from flowgrad.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ForwardChain,
    build_problem,
    reference_field,
)
from flowgrad.grid import StructuredGrid, read_field_csv
from flowgrad.solver import LinearSolveCounts, ns_jacobian
from flowgrad.tape import Tape

SMALL = """
[experiment]
name = cavity_viscosity

[grid]
n = 6

[optimizer]
max_steps = 4
"""


def _config(tmp_path, text=SMALL, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _small(experiment):
    """SMALL for any experiment; the heat default of 40 points needs more
    than 6x6 nodes."""
    text = SMALL.replace("cavity_viscosity", experiment)
    if experiment == "conjugate_heat":
        text += "\n[observations]\nn_points = 12\n"
    return text


def _count_splu(monkeypatch):
    calls = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return calls


# --- run


def test_run_writes_report_and_fields(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", _config(tmp_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "cavity_viscosity"
    assert len(report["loss_history"]) == report["n_steps"]
    for name in ("nu_reference.csv", "nu_estimate.csv", "nu_difference.csv",
                 "theta.csv", "u_prediction.csv", "v_prediction.csv",
                 "p_prediction.csv"):
        assert (out / name).exists()


@pytest.mark.parametrize("experiment", ["cavity_viscosity", "conjugate_heat",
                                        "passive_transport"])
def test_run_reports_every_factorization(tmp_path, monkeypatch, experiment):
    # the prediction CSVs come from the solve the report already counts;
    # the reference solves are data synthesis, shared by later runs of the
    # same physics in the process, and not counted; a heat run counts the
    # factorization of every heat solve, and a transport run on 6x6 stalls,
    # so the factorizations after a stall are counted too
    calls = _count_splu(monkeypatch)
    path = _config(tmp_path, _small(experiment))
    reports = []
    for run in ("cold", "warm"):
        del calls[:]
        out = tmp_path / run
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text()))
        reports[-1]["splu"] = len(calls)
    cold, warm = reports
    assert warm["splu"] == warm["linear_solves"]["factorizations"]
    assert warm["linear_solves"] == cold["linear_solves"]
    # the reference solves alone, in a cold build
    experiments._REFERENCES.clear()
    del calls[:]
    build_problem(load_config(path).configs[0])
    assert len(calls) >= 1
    assert cold["splu"] == cold["linear_solves"]["factorizations"] + len(calls)
    if experiment == "conjugate_heat":
        assert warm["linear_solves"]["factorizations"] == warm["n_evals"]
    if experiment == "passive_transport":
        assert warm["linear_solves"]["stalls"] > 0


def test_field_csv_round_trips_reference_exactly(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", _config(tmp_path), "--out", str(out)]) == 0
    coords, values = read_field_csv(out / "nu_reference.csv")
    grid = StructuredGrid(6)
    assert np.array_equal(coords, grid.coords)
    assert np.array_equal(values, reference_field("cavity_viscosity", grid.coords))


def test_run_sweep_creates_subdirectories(tmp_path):
    cfg = _config(tmp_path, """
[experiment]
name = conjugate_heat

[grid]
n = 6

[observations]
n_points = 10
noise_epsilon = 0.0, 0.05

[optimizer]
max_steps = 3
""")
    out = tmp_path / "sweep"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    entries = json.loads((out / "sweep.json").read_text())
    assert [e["noise_epsilon"] for e in entries] == [0.0, 0.05]
    for entry in entries:
        sub = out / entry["directory"]
        assert (sub / "report.json").exists()
        assert (sub / "k_estimate.csv").exists()


@pytest.mark.parametrize("levels", ["0.0100001, 0.01000011", "0.01, 0.01"])
def test_sweep_levels_sharing_a_directory_exit_2_before_solving(
        tmp_path, monkeypatch, levels):
    # both levels print as eps_0.0100001 (eps_0.01): the second run would
    # overwrite the first
    calls = _count_splu(monkeypatch)
    cfg = _config(tmp_path,
                  SMALL + f"\n[observations]\nnoise_epsilon = {levels}\n")
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()


def test_grid_beyond_memory_exits_2(tmp_path, monkeypatch, capsys):
    # a grid too large to allocate stops at the config boundary; the build
    # is replaced, so no test allocates a huge grid
    def unallocatable(n):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(config, "StructuredGrid", unallocatable)
    cfg = _config(tmp_path, SMALL.replace("n = 6", "n = 100000"))
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration: Unable to allocate" in err
    assert not out.exists()


def test_warm_runs_build_only_the_validation_grid(tmp_path, monkeypatch):
    # the reports write their CSVs on the shared chain's grid, and
    # load_config builds one grid per file to check its size, not one per
    # noise level
    cfg = _config(tmp_path,
                  SMALL + "\n[observations]\nnoise_epsilon = 0.0, 0.05\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "cold")]) == 0
    built = []
    init = StructuredGrid.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StructuredGrid, "__init__", counting_init)
    for name in ("warm_a", "warm_b"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    assert built == [(6,), (6,)]


def test_run_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2


def test_run_invalid_grid_exits_2_without_files(tmp_path):
    cfg = _config(tmp_path, "[grid]\nn = 0\n")
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_run_noise_overflowing_the_loss_exits_2_without_files(tmp_path):
    # each noisy value is finite, but their squares overflow: the starting
    # loss would be non-finite, so the run stops at the contract boundary
    cfg = _config(tmp_path, SMALL + "\n[observations]\nnoise_epsilon = 1e300\n")
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


# --- forward


def test_forward_writes_state_and_trace(tmp_path):
    out = tmp_path / "fwd"
    code = main(["forward", "--config", _config(tmp_path), "--out", str(out)])
    assert code == 0
    for name in ("u.csv", "v.csv", "p.csv", "newton_trace.jsonl"):
        assert (out / name).exists()
    lines = [json.loads(line) for line in
             (out / "newton_trace.jsonl").read_text().splitlines()]
    assert lines[-1]["residual_norm"] < 1e-8
    assert [entry["iteration"] for entry in lines] == list(range(1, len(lines) + 1))


def test_forward_zero_lid_gives_zero_velocities(tmp_path):
    cfg = _config(tmp_path, SMALL + "\n[physics]\nlid_speed = 0.0\n")
    out = tmp_path / "rest"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
    for comp in ("u", "v"):
        _, values = read_field_csv(out / f"{comp}.csv")
        assert np.all(values == 0.0)


def test_forward_dump_matrix_is_loadable(tmp_path):
    out = tmp_path / "fwd"
    assert main(["forward", "--config", _config(tmp_path), "--out", str(out),
                 "--dump-matrix"]) == 0
    matrix = scipy.io.mmread(out / "system_matrix.mtx").tocsr()
    # three unknowns per node on a 6x6 grid
    assert matrix.shape == (108, 108)
    assert np.all(np.isfinite(matrix.data))
    # exactly the Jacobian at the synthetic state of the same physics
    cfg = load_config(_config(tmp_path)).configs[0].resolved()
    chain = experiments.forward_chain(cfg)
    x = np.concatenate([chain.synthetic[comp] for comp in ("u", "v", "p")])
    jac = ns_jacobian(chain.flow_setup, x,
                      reference_field(cfg.experiment, chain.grid.coords))
    np.testing.assert_allclose(matrix.toarray(), jac.toarray(), rtol=0, atol=0)


@pytest.mark.parametrize("command", ["run", "forward"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_newton_tol_exits_2_without_files(tmp_path, command, tol):
    cfg = _config(tmp_path, SMALL + f"\n[solver]\nnewton_tol = {tol}\n")
    out = tmp_path / "never"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_pointwise_zero_clamp_floor_exits_2_without_files(tmp_path):
    # the pointwise fit's lower bound is the clamp floor, which must keep
    # the coefficient positive
    base = SMALL + "\n[model]\nvariant = pointwise\nclamp_floor = "
    load_config(_config(tmp_path, base + "1e-6\n", name="ok.ini"))
    cfg = _config(tmp_path, base + "0\n")
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


_FLOAT_KEYS = [(section, key) for section, keys in _SCHEMA.items()
               for key, (_, kind) in keys.items()
               if kind in (float, "float_list")]
# keys whose physics forbids zero or negative values
_SIGNED = {"noise_epsilon": ["-0.01"], "newton_tol": ["0", "-1e-8"],
           "beta": ["0", "-0.01"], "dt": ["0", "-0.1"],
           "clamp_floor": ["-1"], "init_scale": ["-1"]}
_INVALID_FLOATS = [(section, key, value) for section, key in _FLOAT_KEYS
                   for value in ["nan", "inf", "-inf"] + _SIGNED.get(key, [])]


@pytest.mark.parametrize("section,key,value", _INVALID_FLOATS,
                         ids=[f"{k}={v}" for _, k, v in _INVALID_FLOATS])
def test_invalid_float_value_exits_2_without_files(tmp_path, section, key,
                                                   value):
    base = "[experiment]\nname = cavity_viscosity\n\n[grid]\nn = 6\n"
    # the same file with a valid value loads, so exit 2 is due to the value
    load_config(_config(tmp_path, base + f"\n[{section}]\n{key} = 1.0\n",
                        name="ok.ini"))
    cfg = _config(tmp_path, base + f"\n[{section}]\n{key} = {value}\n")
    out = tmp_path / "never"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_forward_writes_every_field_of_the_chain(tmp_path, experiment):
    out = tmp_path / "fwd"
    assert main(["forward", "--config", _config(tmp_path, _small(experiment)),
                 "--out", str(out)]) == 0
    # a chain of its own, solved again at the reference coefficient
    cfg = ExperimentConfig(experiment, grid_n=6, n_points=12).resolved()
    chain = ForwardChain(cfg)
    t = Tape()
    fields, _ = chain(t, t.constant(reference_field(experiment,
                                                    chain.grid.coords)),
                      LinearSolveCounts())
    assert {p.name for p in out.glob("*.csv")} == {f"{c}.csv" for c in fields}
    for comp, ref in fields.items():
        _, values = read_field_csv(out / f"{comp}.csv")
        assert np.array_equal(values, t.value(ref))


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_forward_reads_the_reference_of_a_built_problem(tmp_path, monkeypatch,
                                                        experiment):
    # the reference is solved once per physics: a forward command after a
    # build of the same physics solves nothing and writes its synthesis
    path = _config(tmp_path, _small(experiment))
    problem = build_problem(load_config(path).configs[0])
    solves = []
    newton_solve = experiments.newton_solve

    def counting_newton_solve(*args, **kwargs):
        solves.append(1)
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(experiments, "newton_solve", counting_newton_solve)
    calls = _count_splu(monkeypatch)
    out = tmp_path / "fwd"
    assert main(["forward", "--config", path, "--out", str(out),
                 "--dump-matrix"]) == 0
    assert solves == [] and calls == []
    synthetic = problem.forward.synthetic
    assert {p.name for p in out.glob("*.csv")} == {f"{c}.csv"
                                                   for c in synthetic}
    for comp, values in synthetic.items():
        _, written = read_field_csv(out / f"{comp}.csv")
        assert written.tobytes() == values.tobytes()
    lines = (out / "newton_trace.jsonl").read_text().splitlines()
    assert [tuple(json.loads(line).values()) for line in lines] \
        == list(problem.forward.trace)


_TRANSPORT = "[experiment]\nname = passive_transport\n"


@pytest.mark.parametrize("command", ["run", "gradcheck"])
@pytest.mark.parametrize("text", [
    "[observations]\nseed = -1\n", "[model]\ninit_seed = -1\n",
    "[solver]\ntransport_steps = 0\n",
    # 4 nodes are fewer than the 22 points the experiment observes
    "[grid]\nn = 2\n",
    "[optimizer]\nmax_steps = 0\n", "[optimizer]\nmemory = 0\n"],
    ids=["seed", "init_seed", "transport_steps", "n_points", "max_steps",
         "memory"])
def test_invalid_setting_exits_2_before_solving(tmp_path, monkeypatch,
                                                command, text):
    calls = _count_splu(monkeypatch)
    cfg = _config(tmp_path, _TRANSPORT + text)
    out = tmp_path / "never"
    extra = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", cfg] + extra) == 2
    assert calls == []
    assert not out.exists()


# settings at which the solve at the reference coefficient fails: Newton
# runs out of iterations, diverges at a lid speed of 1e6 (on 11x11; 6x6
# still converges), or the heat system leaves the single-precision range
_REFERENCE_FAILS = {
    "newton_max_iter": SMALL + "\n[solver]\nnewton_max_iter = 1\n",
    "lid_speed": SMALL.replace("n = 6", "n = 11")
    + "\n[physics]\nlid_speed = 1e6\n",
    "rho": _small("conjugate_heat") + "\n[physics]\nrho = 1e300\n",
}


@pytest.mark.parametrize("command", ["run", "sweep", "gradcheck", "forward"])
@pytest.mark.parametrize("setting", sorted(_REFERENCE_FAILS))
def test_failing_reference_solve_exits_2_without_files(tmp_path, capsys,
                                                       command, setting):
    text = _REFERENCE_FAILS[setting]
    if command == "sweep":
        if "[observations]" not in text:
            text += "\n[observations]\n"
        text = text.replace("[observations]\n",
                            "[observations]\nnoise_epsilon = 0.0, 0.05\n")
    out = ["--out", str(tmp_path / "never")]
    argv = {"run": ["run"] + out, "sweep": ["run"] + out,
            "gradcheck": ["gradcheck"], "forward": ["forward"] + out}[command]
    assert main(argv + ["--config", _config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f" {setting} = " in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.ini"]


def test_zero_reference_field_run_exits_2_before_fitting(tmp_path, monkeypatch,
                                                         capsys):
    # with the pressure gradient scaled by 1/rho = 1e-300 the reference v
    # is exactly zero, so its prediction error is undefined; the run stops
    # before the fit, naming the field and the setting
    def no_fit(*args, **kwargs):
        raise AssertionError("the fit ran")

    monkeypatch.setattr(experiments, "lbfgs_optimize", no_fit)
    out = tmp_path / "never"
    cfg = _config(tmp_path, SMALL + "\n[physics]\nrho = 1e300\n")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "reference field v " in err and " rho = 1e+300" in err
    assert not out.exists()


def test_failing_starting_evaluation_run_exits_2(tmp_path, capsys):
    # the reference solves, but the objective at the starting parameters
    # fails its LU solve: the config is at fault, not the fit
    out = tmp_path / "never"
    cfg = _config(tmp_path, _small("passive_transport")
                  + "\n[physics]\nlid_speed = 1e6\n")
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and " lid_speed = " in err
    assert "starting point" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "gradcheck"])
@pytest.mark.parametrize("experiment", ["cavity_viscosity",
                                        "passive_transport"])
def test_zero_lid_speed_fit_exits_2_before_solving(tmp_path, monkeypatch,
                                                   command, experiment):
    # the flow is at rest for every viscosity, so no data determine it
    calls = _count_splu(monkeypatch)
    cfg = _config(tmp_path, _small(experiment)
                  + "\n[physics]\nlid_speed = 0.0\n")
    out = tmp_path / "never"
    extra = ["--out", str(out)] if command == "run" else []
    assert main([command, "--config", cfg] + extra) == 2
    assert calls == []
    assert not out.exists()


def test_zero_lid_speed_heat_fit_runs(tmp_path):
    # a frozen flow at rest still carries heat by conduction
    cfg = _config(tmp_path, _small("conjugate_heat")
                  + "\n[physics]\nlid_speed = 0.0\n")
    out = tmp_path / "heat"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.json").exists()


@pytest.mark.parametrize("points", ["0", "37"])
def test_forward_rejects_set_observation_count_outside_grid(
        tmp_path, monkeypatch, points):
    # run and gradcheck reject it too; the heat default of 40 points on a
    # 6x6 grid is no error for forward (next test)
    calls = _count_splu(monkeypatch)
    cfg = _config(tmp_path, SMALL + f"\n[observations]\nn_points = {points}\n")
    out = tmp_path / "never"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()


def test_forward_writes_temperature_for_heat(tmp_path):
    cfg = _config(tmp_path, "[experiment]\nname = conjugate_heat\n\n[grid]\nn = 6\n")
    out = tmp_path / "heat"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "T.csv").exists()


def test_forward_writes_particles_for_transport(tmp_path):
    cfg = _config(tmp_path, "[experiment]\nname = passive_transport\n\n[grid]\nn = 6\n")
    out = tmp_path / "pt"
    assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "w1.csv").exists()
    assert (out / "w2.csv").exists()


# --- gradcheck


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_gradcheck_passes_clean_build(tmp_path, experiment):
    cfg = _config(tmp_path, _small(experiment))
    assert main(["gradcheck", "--config", cfg, "--samples", "3"]) == 0


def test_gradcheck_zero_samples_exits_2(tmp_path):
    assert main(["gradcheck", "--config", _config(tmp_path),
                 "--samples", "0"]) == 2


def test_gradcheck_corrupted_backward_exits_1(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOWGRAD_CORRUPT_BACKWARD", "1")
    cfg = _config(tmp_path)
    assert main(["gradcheck", "--config", cfg, "--samples", "3"]) == 1
    # the corruption is restored before returning
    monkeypatch.delenv("FLOWGRAD_CORRUPT_BACKWARD")
    assert main(["gradcheck", "--config", cfg, "--samples", "3"]) == 0


def test_gradcheck_corrupted_flow_adjoint_exits_1(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOWGRAD_CORRUPT_BACKWARD", "steady_flow")
    assert main(["gradcheck", "--config", _config(tmp_path),
                 "--samples", "3"]) == 1


def test_gradcheck_corrupted_heat_adjoint_exits_1(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOWGRAD_CORRUPT_BACKWARD", "heat_solve")
    assert main(["gradcheck", "--config",
                 _config(tmp_path, _small("conjugate_heat")),
                 "--samples", "3"]) == 1


def test_gradcheck_corrupted_network_backward_exits_1(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOWGRAD_CORRUPT_BACKWARD", "mlp")
    assert main(["gradcheck", "--config", _config(tmp_path),
                 "--samples", "3"]) == 1


def test_gradcheck_unknown_op_exits_2(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOWGRAD_CORRUPT_BACKWARD", "no_such_op")
    assert main(["gradcheck", "--config", _config(tmp_path),
                 "--samples", "2"]) == 2

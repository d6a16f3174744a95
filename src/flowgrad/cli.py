"""Command-line front end: run experiments, forward solves, gradient checks.

Three subcommands share one INI config format (see :mod:`flowgrad.config`):

  run        full inverse problem; writes report.json plus coefficient and
             prediction CSVs, one subdirectory per noise level when the
             config lists several
  forward    the forward solve with the reference coefficient, shared with
             every run of the same physics in the process; writes state
             CSVs and the Newton trace
  gradcheck  finite-difference audit of the full-chain gradient

Exit codes are a stable contract for scripting: 0 success, 1 a check
failed, 2 configuration or validation error, 3 numerical failure.  A solve
at the reference coefficient that fails numerically is a configuration
error (see ``experiments.forward_chain``), so every command exits 2 for
it, before writing any file.
"""

import argparse
import json
import os
import sys

import numpy as np
import scipy.io

from . import tape as tape_module
from .config import load_config
from .errors import ConfigError, ContractError, FlowgradError
from .experiments import SPECS, build_problem, forward_chain, run_experiment
from .grid import write_field_csv
from .tape import finite_difference_check

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_GRADCHECK_TOL = 1e-4


def _parser():
    p = argparse.ArgumentParser(
        prog="flowgrad",
        description="Coefficient-field inversion for steady incompressible "
                    "flow on a differentiable FEM solver.")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the configured inverse problem")
    run_p.add_argument("--config", required=True, help="INI config path")
    run_p.add_argument("--out", help="output directory (overrides config)")
    run_p.add_argument("--verbose", action="store_true",
                       help="print per-step optimizer progress")

    fwd_p = sub.add_parser("forward",
                           help="forward solve with the reference coefficient")
    fwd_p.add_argument("--config", required=True, help="INI config path")
    fwd_p.add_argument("--out", help="output directory (overrides config)")
    fwd_p.add_argument("--verbose", action="store_true",
                       help="print the Newton trace as JSON lines")
    fwd_p.add_argument("--dump-matrix", action="store_true",
                       help="export the constrained Newton Jacobian of the "
                            "flow at the converged state in MatrixMarket "
                            "format")

    gc_p = sub.add_parser("gradcheck",
                          help="compare the full-chain gradient with "
                               "central finite differences")
    gc_p.add_argument("--config", required=True, help="INI config path")
    gc_p.add_argument("--samples", type=int, default=5,
                      help="number of randomly chosen parameters to check")
    return p


def _check_out_dir(path):
    """Raise ConfigError unless the nearest existing path on the way up to
    ``path`` is a directory this process can write to; creates nothing."""
    existing = os.path.abspath(path)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing)
            and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"output directory {path} cannot be made: "
                          f"{existing} is not a writable directory")


def _write_report_files(out_dir, cfg, rep):
    os.makedirs(out_dir, exist_ok=True)
    grid = forward_chain(cfg).grid
    name = SPECS[rep.experiment].coef_name
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(rep.to_json())
        fh.write("\n")
    write_field_csv(os.path.join(out_dir, f"{name}_reference.csv"), grid,
                    rep.reference_nodal, name=name)
    write_field_csv(os.path.join(out_dir, f"{name}_estimate.csv"), grid,
                    rep.estimate_nodal, name=name)
    write_field_csv(os.path.join(out_dir, f"{name}_difference.csv"), grid,
                    rep.estimate_nodal - rep.reference_nodal, name=name)
    with open(os.path.join(out_dir, "theta.csv"), "w") as fh:
        for value in rep.theta:
            fh.write(f"{value:.17g}\n")
    for comp, values in rep.predicted_nodal.items():
        write_field_csv(os.path.join(out_dir, f"{comp}_prediction.csv"),
                        grid, values, name=comp)


def _run_single(cfg, out_dir, args):
    progress = None
    if args.verbose:
        def progress(step, loss):
            print(f"step {step}: loss {loss:.6e}")
    rep = run_experiment(cfg, progress=progress)
    _write_report_files(out_dir, cfg, rep)
    print(f"{rep.experiment} [{rep.variant}] eps={cfg.noise_epsilon:g}: "
          f"loss {rep.final_loss:.6e}, coefficient MSE "
          f"{rep.relative_mse_percent:.2f}% -> {out_dir}")
    return rep


def _cmd_run(args):
    bundle = load_config(args.config)
    out_dir = args.out or bundle.out_dir or "out"
    if not bundle.is_sweep:
        _check_out_dir(out_dir)
        _run_single(bundle.configs[0], out_dir, args)
        return EXIT_OK
    subs = [f"eps_{cfg.noise_epsilon:g}" for cfg in bundle.configs]
    if len(set(subs)) < len(subs):
        raise ConfigError(
            f"noise levels {[cfg.noise_epsilon for cfg in bundle.configs]} "
            f"share output directories: {subs}")
    for sub in subs:
        _check_out_dir(os.path.join(out_dir, sub))
    summary = []
    for cfg, sub in zip(bundle.configs, subs):
        rep = _run_single(cfg, os.path.join(out_dir, sub), args)
        summary.append({"noise_epsilon": cfg.noise_epsilon,
                        "directory": sub,
                        "final_loss": rep.final_loss,
                        "relative_mse_percent": rep.relative_mse_percent})
    with open(os.path.join(out_dir, "sweep.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def _cmd_forward(args):
    bundle = load_config(args.config)
    out_dir = args.out or bundle.out_dir or "out"
    _check_out_dir(out_dir)
    chain = forward_chain(bundle.configs[0])
    os.makedirs(out_dir, exist_ok=True)
    for comp, values in chain.synthetic.items():
        write_field_csv(os.path.join(out_dir, f"{comp}.csv"), chain.grid,
                        values, name=comp)
    with open(os.path.join(out_dir, "newton_trace.jsonl"), "w") as fh:
        for iteration, residual in chain.trace:
            line = json.dumps({"iteration": iteration,
                               "residual_norm": residual})
            fh.write(line + "\n")
            if args.verbose:
                print(line)
    if args.dump_matrix:
        scipy.io.mmwrite(os.path.join(out_dir, "system_matrix.mtx"),
                         chain.jacobian())
    print(f"{chain.cfg.experiment} forward solve -> {out_dir} "
          f"({len(chain.trace)} Newton iterations)")
    return EXIT_OK


def _corrupt_backward(name):
    """Scale one operator's backward outputs by 1.001 (negative control).

    The default target is the loss-side ``sum_of_squares``: every
    observation mismatch flows through it exactly once, so the corruption
    cannot cancel.  Any other registered operator can be named, for example
    ``residual``, the stacked data misfit before it, or ``steady_flow``,
    whose backward rule is the whole implicit-function adjoint of a flow
    solve: every viscosity gradient passes through it once; or
    ``heat_solve``, the adjoint of the heat system, which every
    conductivity gradient of ``conjugate_heat`` passes through once; or
    ``field``, the coefficient field's network, offset and clamp.
    """
    if name == "1":
        name = "sum_of_squares"
    registry = tape_module._REGISTRY
    if name not in registry:
        raise ConfigError(f"cannot corrupt unknown operator {name!r}")
    opdef = registry[name]
    original = opdef.backward

    def corrupted(grad, ctx):
        return tuple(None if g is None else 1.001 * g
                     for g in original(grad, ctx))

    registry[name] = tape_module.OpDef(opdef.forward, corrupted)
    print(f"warning: backward rule of {name!r} deliberately corrupted",
          file=sys.stderr)
    return name, opdef


def _cmd_gradcheck(args):
    if args.samples <= 0:
        raise ConfigError(f"--samples must be positive, got {args.samples}")
    bundle = load_config(args.config)
    cfg = bundle.configs[0]

    corrupt = os.environ.get("FLOWGRAD_CORRUPT_BACKWARD", "").strip()
    restore = None
    if corrupt:
        restore = _corrupt_backward(corrupt)
    try:
        problem = build_problem(cfg)
        n_params = problem.theta0.size
        rng = np.random.default_rng(cfg.obs_seed)
        count = min(args.samples, n_params)
        indices = sorted(int(i) for i in
                         rng.choice(n_params, size=count, replace=False))
        worst = finite_difference_check(problem.objective, problem.theta0,
                                        h=1e-5, indices=indices)
    finally:
        if restore is not None:
            tape_module._REGISTRY[restore[0]] = restore[1]

    print(f"{cfg.experiment}: max relative gradient error over {count} of "
          f"{n_params} parameters: {worst:.3e}")
    if worst < _GRADCHECK_TOL:
        print("gradcheck PASS")
        return EXIT_OK
    print("gradcheck FAIL")
    return EXIT_CHECK_FAILED


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "forward":
            return _cmd_forward(args)
        return _cmd_gradcheck(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FlowgradError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

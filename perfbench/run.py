"""End-to-end benchmark of flowgrad inversions, with an optional layer trace.

    python3 perfbench/run.py --workload cavity-41 --seed 7 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``src/flowgrad`` from
it.  Prints a summary, one JSON line with the full detail (environment,
checks, eval_s_p90, eval_fail_frac, coef_rel_mse_pct, per-layer breakdown),
and as its last line a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics named in BENCHMARK.json
with ``--trace 0``, the per-layer ones with ``--trace 1``.  The detail also
goes to ``perfbench/results/``, with every span of a traced run.

Exit status: 0 when every check passed; 1 when the gradient gate failed
(before any timing, with no result line) or an output check failed; 2 when
the sources are missing or the arguments are wrong.
"""

import os
import sys

# BLAS sizes its thread pools when numpy loads; SuperLU is serial anyway
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None):
    if not (SRC / "flowgrad" / "__init__.py").is_file():
        print(f"error: no flowgrad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flowgrad
    import harness

    if not Path(flowgrad.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported flowgrad from {flowgrad.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = harness.WORKLOADS[args.workload]
    try:
        result = harness.measure(workload, args.seed, args.seconds,
                                 bool(args.trace))
    except harness.GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for entry in wanted:
        value = result.metrics.get(entry["name"])
        if value is None:
            result.problems.append(f"no value for {entry['name']}")
        else:
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    detail = dict(result.detail, problems=result.problems)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (harness.RESULTS / f"{stem}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    if result.tracer is not None:
        with gzip.open(harness.RESULTS / f"{stem}.spans.tsv.gz", "wt") as fh:
            result.tracer.write_tsv(fh)

    for problem in result.problems:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(detail, sort_keys=True))
    correct = not result.problems
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

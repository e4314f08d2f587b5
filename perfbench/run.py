"""Benchmark of the dualcal command line, run in-process.

    python3 perfbench/run.py --workload pipeline-m80 --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from --seed, runs whole rounds of its
operations for about --seconds, checks every output against the
reference geometry in oracle.py, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the run wraps the
package's public functions (spans.py) and reports per-layer metrics, and
writes the spans to perfbench/out/.  --workload all runs every workload
in turn.  See perfbench/README.md.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
BLAS_THREADS = 1
REFERENCE_ARM = {"joint_twists": [[0, 0, 1, 0, 0, 0], [0, 1, 0, -0.09, 0, 0]] * 3,
                 "zero_offset": [0, 0, 0, 0.8, 0.2, 0]}
UNITS = {"heldout_trans_mm": "mm", "heldout_rot_deg": "deg", "coord_trans_mm": "mm",
         "r_meb_mm": "mm", "admm_iterations": "count", "gn_iterations": "count",
         "eta": "ratio"}


def fresh_cli():
    """Import the package from scratch: the import is part of set-up."""
    for name in [n for n in sys.modules if n == "dualcal" or n.startswith("dualcal.")]:
        del sys.modules[name]
    return importlib.import_module("dualcal.cli")


def reference_time(eighs):
    """Wall time of a fixed computation in the benchmark's own code: 60
    PoE forward kinematics of a 6-joint arm (small numpy products driven
    from Python, like most of the program's work) and `eighs`
    eigendecompositions of a 133x133 matrix (LAPACK, like the SDP)."""
    import numpy as np
    from oracle import forward
    matrix = np.add.outer(np.arange(133.0), np.arange(133.0)) % 7.0
    t0 = perf_counter()
    for i in range(60):
        forward(REFERENCE_ARM, np.full(6, 0.1 + 0.01 * i))
    for _ in range(eighs):
        np.linalg.eigh(matrix)
    return perf_counter() - t0


def run_rounds(wl, cli, seconds, check, ops):
    """Whole rounds, at least one, until another round would end past
    `seconds`; returns the time taken.  The reference computation runs
    before and after every operation."""
    from workloads import Op
    t0, rounds = perf_counter(), 0
    while True:
        for k in range(wl.ops_per_round):
            op = Op(cli, wl.commands)
            before = reference_time(wl.reference_eighs)
            try:
                wl.run_op(op, k, check)
            except Exception as exc:
                op.error = f"{type(exc).__name__}: {exc}"
                print(f"{wl.name} op {k}: {op.error}", file=sys.stderr)
                if not op.failed:  # every command ran: checking their outputs raised
                    check.failures.append(f"op {k}: checking its outputs raised {op.error}")
            op.reference_s = 0.5 * (before + reference_time(wl.reference_eighs))
            ops.append(op)
        rounds += 1
        elapsed = perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > seconds:
            return elapsed


def end_to_end(wl, setup_times, ops):
    """Figures per operation are averaged over each round, whose operations
    differ in input and cost, and the median is taken over rounds.
    `op_rel` divides a round's operation time by the reference time
    measured around its operations: the machine's speed drifts by
    10-25 % over tens of seconds, and the ratio cancels that drift.
    Operations that raised are left out; when none is left, so are the
    per-operation figures."""
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    n = wl.ops_per_round
    rounds = [[op for op in ops[i:i + n] if op.error is None] for i in range(0, len(ops), n)]
    rounds = [r for r in rounds if r]
    if not rounds:
        return metrics, {}

    def per_op(value):
        return statistics.median(statistics.fmean(value(op) for op in r) for r in rounds)

    metrics["op_rel"] = (statistics.median(sum(op.seconds for op in r)
                                           / sum(op.reference_s for op in r) for r in rounds),
                         "ratio")
    metrics["error_mm"] = (per_op(lambda op: op.facts[wl.error_fact]), "mm")
    details = {"op_s": (per_op(lambda op: op.seconds), "s"),
               "reference_s": (per_op(lambda op: op.reference_s), "s"),
               "rounds": (len(rounds), "count")}
    for command in wl.commands:
        details[command.replace("-", "_") + "_s"] = (per_op(lambda op: op.times[command]), "s")
    for fact in rounds[0][0].facts:
        details[fact] = (per_op(lambda op: op.facts[fact]), UNITS[fact])
    return metrics, details


def run_one(workload, seed, seconds, trace):
    from workloads import WORKLOADS, Checks
    workdir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[workload](seed, workdir)
        check, ops, setup_times = Checks(), [], []
        for _ in range(wl.setup_repeats):
            t0 = perf_counter()
            cli = fresh_cli()
            wl.setup(cli)
            setup_times.append(perf_counter() - t0)
        wl.check_setup(check)
        if trace:
            from layers import per_layer
            import spans
            base = []
            used = run_rounds(wl, cli, 0.0, check, base)
            tracer = spans.Tracer()
            spans.install(tracer)
            traced = []
            run_rounds(wl, cli, seconds - used, check, traced)
            tracer.save(OUT / f"trace-{workload}-seed{seed}.npz")
            ops = base + traced
            metrics = per_layer(tracer, base, traced)
            details = {}
        else:
            run_rounds(wl, cli, seconds, check, ops)
            metrics, details = end_to_end(wl, setup_times, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in {**metrics, **details}.items():
        print(f"{workload:14s} {name:34s} {value:14.6g} {unit}")
    for failure in check.failures:
        print(f"{workload}: check failed: {failure}", file=sys.stderr)
    # Correct when every check passed on at least one operation that ran.
    return {"correct": not check.failures and any(op.error is None for op in ops),
            "attempted": sum(len(op.commands) for op in ops),
            "failed": sum(op.failed for op in ops),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # BLAS threads are fixed before numpy loads, which is why the modules
    # that import numpy are imported inside functions; one thread keeps
    # timings independent of the machine's core count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "dualcal" / "cli.py").is_file():
        print(f"perfbench: no dualcal sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    print(f"perfbench: BLAS threads {BLAS_THREADS}, CPUs {len(os.sched_getaffinity(0))}, seed {args.seed}")
    for name in names:
        result = run_one(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

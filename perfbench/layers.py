"""Per-layer metrics of a traced run, per workload operation.

`.calls` is calls per operation, `.ms` inclusive time per operation,
`.self_us` / `.self_ms` self time per operation (time not covered by a
traced callee), `.us` inclusive time per call.  `cli.<command>.io_ms` is
the self time of the command handler: its time minus the library calls
inside it.  Tracing overhead is the traced minus the untraced time of
the same operations.
"""

import statistics

from spans import LAYERS

LIE = ("exp_se3", "log_se3", "left_jacobian", "joint_jacobian", "adjoint")
COMMANDS = ("generate", "init", "calibrate", "evaluate", "identifiability", "ball_eval")
MS = ("sdp_init.solve_sdp", "sdp_init.build_problem", "sdp_init.build_constraints",
      "sdp_init.extract", "sdp_init.certify", "chain.stack", "chain.identifiability_report",
      "solver.solve", "numerics.solve_damped_normal", "evaluate.sphere_fit",
      "evaluate.min_enclosing_ball", "evaluate.ball_consistency", "evaluate.evaluate_dataset",
      "simulate.generate_dataset", "simulate.dataset_to_dict", "simulate.load_dataset")
CALLS = ("chain.stack", "chain.residual_and_jacobian", "chain.predict_B", "numerics.sym_eig",
         "numerics.project_rotation", "evaluate.sphere_fit", "kinematics.forward_kinematics"
         ) + tuple(f"liegroup.{f}" for f in LIE)
SELF_US = ("kinematics.forward_kinematics",) + tuple(f"liegroup.{f}" for f in LIE)


def per_layer(tracer, base_ops, traced_ops):
    totals = tracer.totals()
    n = len(traced_ops)

    def get(name):
        return totals.get(name, (0, 0.0, 0.0))

    def fact(key):
        return statistics.fmean(op.facts.get(key, 0) for op in traced_ops)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (1e3 * sum(s for name, (_, _, s) in totals.items()
                                           if name.startswith(layer + ".")) / n, "ms")
    m["sdp_init.calls"] = (sum(c for name, (c, _, _) in totals.items()
                               if name.startswith("sdp_init.")) / n, "count")
    for name in MS:
        m[f"{name}.ms"] = (1e3 * get(name)[1] / n, "ms")
    for name in CALLS:
        m[f"{name}.calls"] = (get(name)[0] / n, "count")
    for name in SELF_US:
        m[f"{name}.self_us"] = (1e6 * get(name)[2] / n, "us")
    m["sdp_init.solve_sdp.self_ms"] = (1e3 * get("sdp_init.solve_sdp")[2] / n, "ms")
    calls, incl, _ = get("chain.residual_and_jacobian")
    m["chain.residual_and_jacobian.us"] = (1e6 * incl / calls if calls else 0.0, "us")
    iters = fact("admm_iterations")
    m["sdp_init.admm_iterations"] = (iters, "count")
    m["sdp_init.admm_ms_per_iter"] = (m["sdp_init.solve_sdp.ms"][0] / iters if iters else 0.0,
                                      "ms")
    m["solver.iterations"] = (fact("gn_iterations"), "count")
    for command in COMMANDS:
        _, incl, self_time = get(f"cli.cmd_{command}")
        m[f"cli.{command}.ms"] = (1e3 * incl / n, "ms")
        m[f"cli.{command}.io_ms"] = (1e3 * self_time / n, "ms")
    untraced = statistics.fmean(op.seconds for op in base_ops)
    traced = statistics.fmean(op.seconds for op in traced_ops)
    m["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    m["trace.spans"] = (len(tracer.span_start) / n, "count")
    return m

"""Damped Gauss-Newton refinement of X, Y, Z and both arms' joint twists."""

import logging
from dataclasses import dataclass, field

import numpy as np

from .chain import DualArmSystem, stack
from .errors import StructureError
from .numerics import solve_damped_normal
from .sdp_init import initialize

log = logging.getLogger("dualcal")


@dataclass
class SolverConfig:
    damping: float = 1e-3
    tol_inf: float = 1e-3       # infinity-norm threshold on the increment
    max_iters: int = 100

    def __post_init__(self):
        if self.tol_inf <= 0:
            raise ValueError("tol_inf must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveTrace:
    residual_norms: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)   # infinity norms
    dampings: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    def to_dict(self):
        return {
            "residual_norms": self.residual_norms,
            "step_norms": self.step_norms,
            "dampings": self.dampings,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def step(system, samples, config):
    """One damped Gauss-Newton step.

    The residual model is e(system.apply_delta(d)) ~ e + J d, so the
    increment minimizes |e + J d|^2 + damping*|d|^2, i.e. it solves
    (J^T J + damping I) d = -J^T e.  Returns (new_system, delta, e).
    Raises StructureError when e or J is not finite.
    """
    e, J = stack(system, samples)
    if not (np.isfinite(e).all() and np.isfinite(J).all()):
        raise StructureError("residual or Jacobian is not finite")
    delta = solve_damped_normal(J, -e, config.damping)
    return system.apply_delta(delta), delta, e


def solve(initial, samples, config=None):
    """Iterate until |delta|_inf <= tol_inf or max_iters.

    The trace records |e|, |delta|_inf and the damping per iteration;
    monotone decrease of |e| is not guaranteed (fixed damping, no line
    search) but holds on well-initialized problems.
    """
    if config is None:
        config = SolverConfig()
    system = initial
    trace = SolveTrace()
    for _ in range(config.max_iters):
        system, delta, e = step(system, samples, config)
        step_inf = float(np.abs(delta).max())
        trace.residual_norms.append(float(np.linalg.norm(e)))
        trace.step_norms.append(step_inf)
        trace.dampings.append(config.damping)
        trace.iterations += 1
        if step_inf <= config.tol_inf:
            trace.converged = True
            break
    if not trace.converged:
        log.warning("Gauss-Newton did not converge in %d iterations "
                    "(last |delta|_inf %.3e, tolerance %.3e)",
                    trace.iterations, trace.step_norms[-1], config.tol_inf)
    return system, trace


def calibrate(nominal, samples, coords=None, config=None, **sdp_options):
    """The unified calibration: SDP estimate of X, Y, Z, then Gauss-Newton
    over the coordinates and both arms' joint twists.

    nominal is the DualArmSystem whose arms start the refinement.
    coords=(X, Y, Z) replaces the SDP, and init is then None;
    sdp_options go to sdp_init.initialize.  Returns (init, final_system, trace).
    """
    init = None
    if coords is None:
        init = initialize(nominal.sensor_arm, nominal.tool_arm, samples, **sdp_options)
        coords = init.X, init.Y, init.Z
    start = DualArmSystem(nominal.sensor_arm, nominal.tool_arm, *coords)
    final, trace = solve(start, samples, config)
    return init, final, trace

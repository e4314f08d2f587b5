"""Damped Gauss-Newton refinement of X, Y, Z and both arms' joint twists."""

import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .chain import DualArmSystem, stack
from .errors import CalibrationError, ValidationError
from .sdp_init import initialize

log = logging.getLogger("dualcal")

# Fixed damping of every step and iteration cap of a solve; read at call time.
DAMPING = 1e-3
MAX_ITERS = 100


@dataclass
class SolveTrace:
    residual_norms: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)   # infinity norms
    converged: bool = False
    iterations: int = 0

    def to_dict(self):
        return asdict(self)


def step(system, samples):
    """One damped Gauss-Newton step.

    The residual model is e(system.apply_delta(d)) ~ e + J d, so the
    increment minimizes |e + J d|^2 + DAMPING*|d|^2, i.e. it solves
    (J^T J + DAMPING I) d = -J^T e, whose matrix has every eigenvalue
    >= DAMPING.  Returns (new_system, delta, e).  Raises CalibrationError
    when e or J is not finite.
    """
    e, J = stack(system, samples)
    if not (np.isfinite(e).all() and np.isfinite(J).all()):
        raise CalibrationError("residual or Jacobian is not finite")
    delta = np.linalg.solve(J.T @ J + DAMPING * np.eye(J.shape[1]), -(J.T @ e))
    return system.apply_delta(delta), delta, e


def solve(initial, samples, tol=1e-3):
    """Iterate until |delta|_inf <= tol or MAX_ITERS.

    The trace records |e| and |delta|_inf per iteration;
    monotone decrease of |e| is not guaranteed (fixed damping, no line
    search) but holds on well-initialized problems.  Raises ValueError
    unless tol is finite and positive.
    """
    if not 0 < tol < np.inf:  # an infinite tol would pass the first step
        raise ValueError(f"tol must be finite and positive, got {tol}")
    system = initial
    trace = SolveTrace()
    for _ in range(MAX_ITERS):
        system, delta, e = step(system, samples)
        step_inf = float(np.abs(delta).max())
        trace.residual_norms.append(float(np.linalg.norm(e)))
        trace.step_norms.append(step_inf)
        trace.iterations += 1
        if step_inf <= tol:
            trace.converged = True
            break
    if not trace.converged:
        log.warning("Gauss-Newton did not converge in %d iterations "
                    "(last |delta|_inf %.3e, tolerance %.3e)",
                    trace.iterations, trace.step_norms[-1], tol)
    return system, trace


def calibrate(nominal, samples, coords=None, tol=1e-3):
    """The unified calibration: certified estimate of X, Y, Z, then Gauss-Newton
    over the coordinates and both arms' joint twists, until |delta|_inf <= tol.

    nominal is the DualArmSystem whose arms start the refinement.
    coords=(X, Y, Z) replaces that estimate, and init is then None.
    Returns (init, final_system, trace).  Raises ValidationError when the
    samples give fewer residual rows (6 each) than parameters (12n+18),
    and ValueError unless tol is finite and positive, both before the
    initialization runs.
    """
    if not 0 < tol < np.inf:  # an infinite tol would pass the first step
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if 6 * len(samples) < nominal.dim:
        raise ValidationError(f"calibration needs at least {nominal.dim // 6} samples "
                              f"for {nominal.n} joints per arm, got {len(samples)}")
    init = None
    if coords is None:
        init = initialize(nominal, samples)
        coords = init.X, init.Y, init.Z
    start = DualArmSystem(nominal.sensor_arm, nominal.tool_arm, *coords)
    final, trace = solve(start, samples, tol)
    return init, final, trace

"""Consolidated dual-arm error model.

The closed-loop chain A X B = Y C Z is rearranged to predict the
measurable transform B from the full parameter set: the coordinate
poses X, Y, Z and both arms' joint twists.  The per-sample analytical
Jacobian maps the increment of DualArmSystem.apply_delta to the
left-trivialized residual; columns follow the layout
[X, Y, Z, xi_a^1..n, xi_c^1..n].
"""

from dataclasses import dataclass

import numpy as np

from . import liegroup as lie
from .errors import StructureError, ValidationError
from .kinematics import RobotModel
from .numerics import numeric_rank


@dataclass
class DualArmSystem:
    """Two arms plus the three static coordinate transforms.

    X: flange->sensor of the sensor arm, Y: base->base, Z: flange->tool
    of the tool arm.  Both arms share the same joint count.
    """

    sensor_arm: RobotModel
    tool_arm: RobotModel
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        if self.sensor_arm.n != self.tool_arm.n:
            raise ValidationError("both arms must have the same joint count")
        for name in ("X", "Y", "Z"):
            T = np.asarray(getattr(self, name), dtype=float)
            if not lie.is_pose(T):
                raise ValidationError(f"{name} is not a valid pose")
            setattr(self, name, T)

    @property
    def n(self):
        return self.sensor_arm.n

    @property
    def dim(self):
        """Length of the increment: X, Y, Z and 2n joint twists, 6 each."""
        return 12 * self.n + 18

    def copy(self):
        return DualArmSystem(self.sensor_arm.copy(), self.tool_arm.copy(),
                             self.X.copy(), self.Y.copy(), self.Z.copy())

    def apply_delta(self, delta):
        """New system with the increment applied per 6-block, in column order.

        X <- X exp(d_x), Y <- exp(d_y) Y, Z <- exp(d_z) Z and xi <- xi + d
        for every joint twist; the zero offsets stay fixed.  The sides are
        chosen so that the Jacobian block of X, Y and Z is the adjoint of
        the chain prefix before the factor: -I for X^-1 (no prefix), the
        plain adjoint for Y and Z.
        """
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (self.dim,):
            raise StructureError(f"delta must have length {self.dim}")
        d, n = delta.reshape(-1, 6), self.n
        Ex, Ey, Ez = lie.exp_se3(d[:3])
        arms = [RobotModel(arm.name, arm.joint_twists + dj, arm.zero_offset.copy())
                for arm, dj in ((self.sensor_arm, d[3:3 + n]), (self.tool_arm, d[3 + n:]))]
        return DualArmSystem(*arms, self.X @ Ex, Ey @ self.Y, Ez @ self.Z)


@dataclass
class MeasurementSample:
    """Joint readings of both arms plus the measured tool pose B*."""

    q_a: np.ndarray
    q_c: np.ndarray
    B_meas: np.ndarray

    def __post_init__(self):
        self.q_a = np.asarray(self.q_a, dtype=float)
        self.q_c = np.asarray(self.q_c, dtype=float)
        self.B_meas = np.asarray(self.B_meas, dtype=float)
        if not lie.is_pose(self.B_meas):
            raise ValidationError("B_meas is not a valid pose")


def joint_readings(samples, n):
    """Both arms' joint readings as (m, n) arrays; StructureError unless m >= 1 and all have n."""
    if len(samples) < 1:
        raise StructureError("need at least one sample")
    if any(s.q_a.shape != (n,) or s.q_c.shape != (n,) for s in samples):
        raise StructureError("sample joint vectors do not match the system's joint count")
    return np.array([s.q_a for s in samples]), np.array([s.q_c for s in samples])


# Samples per chain walk: bounds the walk's (chunk, 2n+5, ...) temporaries,
# which at a few hundred samples would outgrow the Jacobian itself.
_WALK_CHUNK = 64


def _walk(system, q_a, q_c, rows=None):
    """B' (m, 4, 4) of (m, n) joint readings by one walk along the chain.

    One exp_se3 call gives all joint and zero-offset factors; one batched
    product per factor carries the (m, 4, 4) prefixes.  Given rows
    (m, 6, 12n+18), the walk writes the Jacobian into them: a block is the
    adjoint of the prefix before its factor times the factor's
    differential: -I for X^-1 (no prefix), I for Y and Z, and q J(q xi)
    for joints, negated on the sensor arm, whose exponentials enter
    inverted."""
    m, n = q_a.shape
    arm_a, arm_c = system.sensor_arm, system.tool_arm
    # twist factors in chain order: -xi_st_a, -xi_a^n q_a^n .. -xi_a^1 q_a^1,
    # xi_c^1 q_c^1 .. xi_c^n q_c^n, xi_st_c
    F = np.empty((m, 2 * n + 2, 6))
    F[:, 0], F[:, 2 * n + 1] = -arm_a.zero_offset, arm_c.zero_offset
    F[:, 1:n + 1] = -arm_a.joint_twists[::-1] * q_a[:, ::-1, None]
    F[:, n + 1:2 * n + 1] = arm_c.joint_twists * q_c[:, :, None]
    E = lie.exp_se3(F)
    factors = ([E[:, j] for j in range(n + 1)] + [system.Y]
               + [E[:, j] for j in range(n + 1, 2 * n + 2)] + [system.Z])
    blocks = [None] * len(factors)  # per factor: (column block, differential; None is I)
    if rows is not None:
        rows[:, :, :6] = -np.eye(6)  # X^-1 is the first factor: no prefix
        # each arm's joint Jacobians in one call; the zero offsets have no columns
        J_a = -q_a[:, ::-1, None, None] * lie.left_jacobian(F[:, 1:n + 1])
        J_c = q_c[:, :, None, None] * lie.left_jacobian(F[:, n + 1:2 * n + 1])
        blocks = ([None] + [(2 + n - i, J_a[:, i]) for i in range(n)]
                  + [(1, None)]
                  + [(3 + n + k, J_c[:, k]) for k in range(n)]
                  + [None, (2, None)])
    P = lie.pose_inv(system.X)  # prefix of the current factor
    for factor, block in zip(factors, blocks):
        if block is not None:
            col, D = block
            Ad = lie.adjoint(P)
            rows[:, :, 6 * col:6 * col + 6] = Ad if D is None else Ad @ D
        P = P @ factor
    return P


def _chain(system, samples, jacobian):
    """B' (m, 4, 4) of every sample and, if asked, the Jacobian (6m, 12n+18)."""
    q_a, q_c = joint_readings(samples, system.n)
    m = len(q_a)
    B = np.empty((m, 4, 4))
    J = np.empty((6 * m, system.dim)) if jacobian else None
    for lo in range(0, m, _WALK_CHUNK):
        hi = lo + _WALK_CHUNK
        rows = None if J is None else J[6 * lo:6 * hi].reshape(-1, 6, system.dim)
        B[lo:hi] = _walk(system, q_a[lo:hi], q_c[lo:hi], rows)
    return B, J


def _batch(samples):
    single = isinstance(samples, MeasurementSample)
    return ([samples] if single else list(samples)), single


def predict_B(system, samples):
    """Predicted tool-in-sensor pose from the full PoE chain: 4x4 for one
    sample, (m, 4, 4) for a sequence of m samples."""
    group, single = _batch(samples)
    B, _ = _chain(system, group, jacobian=False)
    return B[0] if single else B


def residual(system, samples):
    """Closed-loop error twist log(B' B*^-1) (exact logarithm): a 6-vector
    for one sample, (m, 6) for a sequence of m samples."""
    group, single = _batch(samples)
    B_meas = np.array([s.B_meas for s in group])
    e = lie.log_se3(predict_B(system, group) @ lie.pose_inv(B_meas))
    return e[0] if single else e


def stack(system, samples):
    """Stacked residual vector (6m,) and Jacobian (6m, 12n+18) from one chain walk."""
    B, J = _chain(system, samples, jacobian=True)
    B_meas = np.array([s.B_meas for s in samples])
    return lie.log_se3(B @ lie.pose_inv(B_meas)).ravel(), J


@dataclass
class IdentifiabilityReport:
    singular_values: np.ndarray
    rank: int
    needed: int
    condition_number: float
    threshold: float
    excitation_violations: list
    well_posed: bool

    def to_dict(self):
        return {
            "singular_values": self.singular_values.tolist(),
            "rank": self.rank,
            "needed": self.needed,
            "condition_number": self.condition_number,
            "threshold": self.threshold,
            "excitation_violations": self.excitation_violations,
            "well_posed": self.well_posed,
        }


def identifiability_report(J, samples, q_min=0.15, rank_rel_threshold=1e-8):
    """Rank/conditioning diagnostics of a stacked Jacobian.

    Never raises: reports the singular values of J, the numeric rank at
    sigma_max * rank_rel_threshold, the condition number, and the samples
    whose joints sit below q_min (weakly exciting; their twist
    contributions degenerate as q -> 0).  Singular values come from an
    SVD of J itself: an eigendecomposition of J^T J squares the
    condition number and cannot resolve the 1e-8 rank threshold.
    """
    J = np.asarray(J, dtype=float)
    sv = np.linalg.svd(J, compute_uv=False)
    rank = numeric_rank(sv, rank_rel_threshold)
    needed = J.shape[1]
    cond = float(sv[0] / sv[needed - 1]) if sv[needed - 1] > 1e-300 else float("inf")
    q = np.stack(joint_readings(samples, samples[0].q_a.shape[0]), axis=1)  # (m, arm, n)
    violations = [{"sample": int(i), "arm": "ac"[a], "joint": int(k), "q": float(q[i, a, k])}
                  for i, a, k in np.argwhere(np.abs(q) < q_min)]
    return IdentifiabilityReport(
        singular_values=sv,
        rank=rank,
        needed=needed,
        condition_number=cond,
        threshold=float(sv[0] * rank_rel_threshold),
        excitation_violations=violations,
        well_posed=bool(rank == needed),
    )

"""Consolidated dual-arm error model.

The closed-loop chain A X B = Y C Z is rearranged to predict the
measurable transform B from the full parameter set: the coordinate
twists xi_x, xi_y, xi_z and both arms' joint twists.  The per-sample
analytical Jacobian maps additive increments of all parameters to the
left-trivialized residual; columns follow the layout
[xi_x, xi_y, xi_z, xi_a^1..n, xi_c^1..n].
"""

from dataclasses import dataclass
from types import SimpleNamespace

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

    def copy(self):
        return DualArmSystem(self.sensor_arm.copy(), self.tool_arm.copy(),
                             self.X.copy(), self.Y.copy(), self.Z.copy())


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


@dataclass
class CalibrationState:
    """Full parameter vector of the unified calibration.

    Coordinate twists plus 2n joint twists are optimized (dimension
    12n+18); the two zero-offset twists are fixed at their nominal
    values and never enter the parameter vector.
    """

    xi_x: np.ndarray
    xi_y: np.ndarray
    xi_z: np.ndarray
    joints_a: np.ndarray  # (n, 6)
    joints_c: np.ndarray  # (n, 6)
    xi_st_a: np.ndarray
    xi_st_c: np.ndarray

    def __post_init__(self):
        for name in ("xi_x", "xi_y", "xi_z", "xi_st_a", "xi_st_c"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(6))
        self.joints_a = np.atleast_2d(np.asarray(self.joints_a, dtype=float))
        self.joints_c = np.atleast_2d(np.asarray(self.joints_c, dtype=float))
        if self.joints_a.shape != self.joints_c.shape or self.joints_a.shape[1] != 6:
            raise ValidationError("joint twist blocks must both be (n, 6)")

    @property
    def n(self):
        return self.joints_a.shape[0]

    @property
    def dim(self):
        return 12 * self.n + 18

    @classmethod
    def from_system(cls, system):
        xi_x, xi_y, xi_z = lie.log_se3(np.array([system.X, system.Y, system.Z]))
        return cls(
            xi_x=xi_x, xi_y=xi_y, xi_z=xi_z,
            joints_a=system.sensor_arm.joint_twists.copy(),
            joints_c=system.tool_arm.joint_twists.copy(),
            xi_st_a=system.sensor_arm.zero_offset.copy(),
            xi_st_c=system.tool_arm.zero_offset.copy(),
        )

    def to_system(self, names=("sensor_arm", "tool_arm")):
        arm_a = RobotModel(names[0], self.joints_a.copy(), self.xi_st_a.copy())
        arm_c = RobotModel(names[1], self.joints_c.copy(), self.xi_st_c.copy())
        X, Y, Z = lie.exp_se3(np.array([self.xi_x, self.xi_y, self.xi_z]))
        return DualArmSystem(arm_a, arm_c, X, Y, Z)

    def copy(self):
        return CalibrationState(self.xi_x.copy(), self.xi_y.copy(), self.xi_z.copy(),
                                self.joints_a.copy(), self.joints_c.copy(),
                                self.xi_st_a.copy(), self.xi_st_c.copy())

    def pack(self):
        """Parameter vector in the canonical column order."""
        return np.concatenate([self.xi_x, self.xi_y, self.xi_z,
                               self.joints_a.ravel(), self.joints_c.ravel()])

    def blocks(self):
        """Views of the optimized twists in column order (2n+3 of them)."""
        out = [self.xi_x, self.xi_y, self.xi_z]
        out += [self.joints_a[k] for k in range(self.n)]
        out += [self.joints_c[k] for k in range(self.n)]
        return out

    def apply_delta(self, delta, mode="additive"):
        """New state with the increment applied per 6-block.

        additive:        xi <- xi + d
        multiplicative:  xi <- log(exp(xi^) exp(d^))
        Both agree to second order in |d|.
        """
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (self.dim,):
            raise StructureError(f"delta must have length {self.dim}")
        xi, d = self.pack().reshape(-1, 6), delta.reshape(-1, 6)
        if mode == "additive":
            xi = xi + d
        elif mode == "multiplicative":
            xi = lie.log_se3(lie.exp_se3(xi) @ lie.exp_se3(d))
        else:
            raise ValueError(f"unknown update mode '{mode}'")
        n = self.n
        return CalibrationState(xi[0], xi[1], xi[2], xi[3:3 + n], xi[3 + n:],
                                self.xi_st_a.copy(), self.xi_st_c.copy())


def joint_readings(samples, n):
    """Both arms' joint readings as (m, n) arrays; StructureError unless m >= 1 and all have n."""
    if len(samples) < 1:
        raise StructureError("need at least one sample")
    if any(s.q_a.shape != (n,) or s.q_c.shape != (n,) for s in samples):
        raise StructureError("sample joint vectors do not match the state's joint count")
    return np.array([s.q_a for s in samples]), np.array([s.q_c for s in samples])


# Samples per chain walk: bounds the walk's (chunk, 2n+5, ...) temporaries,
# which at a few hundred samples would outgrow the Jacobian itself.
_WALK_CHUNK = 64


def _walk(state, q_a, q_c, rows=None):
    """B' (m, 4, 4) of (m, n) joint readings by one walk along the chain.

    One exp_se3 call gives all factors; one batched product per factor
    carries the (m, 4, 4) prefixes.  Given rows (m, 6, 12n+18), the walk
    writes the Jacobian into them: a twist's block is the adjoint of the
    prefix before its factor times the factor's differential: -J(-xi_x) for
    X (no prefix), J(xi) for Y, Z and q J(q xi) for joints, negated on the
    sensor arm, whose exponentials enter inverted."""
    m, n = q_a.shape
    # factor twists in chain order: -xi_x, -xi_st_a, -xi_a^n q_a^n .. -xi_a^1 q_a^1,
    # xi_y, xi_c^1 q_c^1 .. xi_c^n q_c^n, xi_st_c, xi_z
    F = np.empty((m, 2 * n + 5, 6))
    F[:, 0], F[:, 1] = -state.xi_x, -state.xi_st_a
    F[:, 2:n + 2] = -state.joints_a[::-1] * q_a[:, ::-1, None]
    F[:, n + 2] = state.xi_y
    F[:, n + 3:2 * n + 3] = state.joints_c * q_c[:, :, None]
    F[:, 2 * n + 3], F[:, 2 * n + 4] = state.xi_st_c, state.xi_z
    E = lie.exp_se3(F)
    blocks = [None] * F.shape[1]  # per factor: (column block, scaled left Jacobian)
    if rows is not None:
        # each arm's joint Jacobians in one call; the zero offsets have no columns
        J_a = -q_a[:, ::-1, None, None] * lie.left_jacobian(F[:, 2:n + 2])
        J_c = q_c[:, :, None, None] * lie.left_jacobian(F[:, n + 3:2 * n + 3])
        blocks = ([(0, -lie.left_jacobian(-state.xi_x)), None]
                  + [(2 + n - i, J_a[:, i]) for i in range(n)]
                  + [(1, lie.left_jacobian(state.xi_y))]
                  + [(3 + n + k, J_c[:, k]) for k in range(n)]
                  + [None, (2, lie.left_jacobian(state.xi_z))])
    P = None  # prefix of the current factor; None is the identity
    for j, block in enumerate(blocks):
        if block is not None:
            col, D = block
            rows[:, :, 6 * col:6 * col + 6] = D if P is None else lie.adjoint(P) @ D
        P = E[:, j] if P is None else P @ E[:, j]
    return P


def _chain(state, samples, jacobian):
    """B' (m, 4, 4) of every sample and, if asked, the Jacobian (6m, 12n+18)."""
    q_a, q_c = joint_readings(samples, state.n)
    m = len(q_a)
    B = np.empty((m, 4, 4))
    J = np.empty((6 * m, state.dim)) if jacobian else None
    for lo in range(0, m, _WALK_CHUNK):
        hi = lo + _WALK_CHUNK
        rows = None if J is None else J[6 * lo:6 * hi].reshape(-1, 6, state.dim)
        B[lo:hi] = _walk(state, q_a[lo:hi], q_c[lo:hi], rows)
    return B, J


def _batch(samples):
    single = isinstance(samples, MeasurementSample)
    return ([samples] if single else list(samples)), single


def predict_B(state, samples):
    """Predicted tool-in-sensor pose from the full PoE chain: 4x4 for one
    sample, (m, 4, 4) for a sequence of m samples."""
    group, single = _batch(samples)
    B, _ = _chain(state, group, jacobian=False)
    return B[0] if single else B


def residual(state, samples):
    """Closed-loop error twist log(B' B*^-1) (exact logarithm): a 6-vector
    for one sample, (m, 6) for a sequence of m samples."""
    group, single = _batch(samples)
    B_meas = np.array([s.B_meas for s in group])
    e = lie.log_se3(predict_B(state, group) @ lie.pose_inv(B_meas))
    return e[0] if single else e


def stack(state, samples):
    """Stacked residual vector (6m,) and Jacobian (6m, 12n+18) from one chain walk."""
    B, J = _chain(state, samples, jacobian=True)
    B_meas = np.array([s.B_meas for s in samples])
    return lie.log_se3(B @ lie.pose_inv(B_meas)).ravel(), J


def residual_and_jacobian(state, sample):
    """:func:`stack` on one sample: residual (6,) and ``jac.full``, its 6 Jacobian rows."""
    e, J = stack(state, [sample])
    return e, SimpleNamespace(full=J)


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

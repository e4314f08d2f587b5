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
from .errors import CalibrationError, ValidationError
from .kinematics import RobotModel, zero_pose


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
            raise CalibrationError(f"delta must have length {self.dim}")
        d, n = delta.reshape(-1, 6), self.n
        Ex, Ey, Ez = lie.exp_se3(d[:3])
        arms = [RobotModel(arm.name, arm.joint_twists + dj, arm.zero_offset.copy())
                for arm, dj in ((self.sensor_arm, d[3:3 + n]), (self.tool_arm, d[3 + n:]))]
        return DualArmSystem(*arms, self.X @ Ex, Ey @ self.Y, Ez @ self.Z)


@dataclass(eq=False)
class Measurements:
    """The m samples, stacked: both arms' joint readings q_a and q_c (m, n)
    and the measured tool-in-sensor poses B (m, 4, 4).

    Checked once, on construction: m >= 1, matching shapes, finite joint
    readings and every B a pose.  A slice or an index array selects
    samples as a new record; there is no per-sample object.
    """

    q_a: np.ndarray
    q_c: np.ndarray
    B: np.ndarray

    __iter__ = None  # index the arrays instead

    def __post_init__(self):
        self.q_a, self.q_c, self.B = (np.asarray(v, dtype=float)
                                      for v in (self.q_a, self.q_c, self.B))
        if self.q_a.ndim != 2 or len(self.q_a) < 1:
            raise CalibrationError("need at least one sample: q_a must be (m, n) with m >= 1")
        m, n = self.q_a.shape
        if self.q_c.shape != (m, n) or self.B.shape != (m, 4, 4):
            raise CalibrationError(f"q_c {self.q_c.shape} and B {self.B.shape} do not match "
                                   f"q_a {(m, n)}: need (m, n) and (m, 4, 4)")
        for name in ("q_a", "q_c"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)).all(axis=1))
            if bad.size:
                raise ValidationError(f"samples[{bad[0]}].{name} has a non-finite value")
        bad = np.flatnonzero(~lie.is_pose(self.B))
        if bad.size:
            raise ValidationError(f"samples[{bad[0]}].B is not a valid pose")

    def __len__(self):
        return len(self.q_a)

    def __getitem__(self, index):
        return Measurements(self.q_a[index], self.q_c[index], self.B[index])


# Samples per chain walk: bounds the walk's temporaries, the (chunk, 2n, 6, 6)
# differentials and (chunk, 2n, 4, 4) prefixes, which per sample outweigh the
# sample's six Jacobian rows.
_WALK_CHUNK = 64


def _walk(system, ends, E, D=None, rows=None):
    """B' (m, 4, 4) of one chunk of samples by one walk along the chain.

    The chain is X^-1 exp(-xi_st_a) [sensor joint factors a^n .. a^1] Y
    [tool joint factors c^1 .. c^n] exp(xi_st_c) Z; ends holds the pose
    X^-1 exp(-xi_st_a) and exp(xi_st_c), E the (m, 2n, 4, 4) joint
    factors in column order a^1..a^n, c^1..c^n, which the walk visits in
    chain order.  One batched product per factor carries the prefix.
    Given the joint differentials D (m, 2n, 6, 6), in E's order, and rows
    (m, 6, 12n+18), the walk writes the Jacobian into them: a block is
    the adjoint of the prefix before its factor times the factor's
    differential: -I for X^-1 (no prefix), Ad(P) for Y and Z.  For a
    joint with prefix P = (R, t) the block Ad(P) D = [[R D_top],
    [[t^ R, R] D]] is taken blockwise, a 3x3 and a 3x6 product per joint
    written straight into its columns: no 6x6 adjoint of a joint prefix
    is formed."""
    head, tail = ends
    m, n = len(E), system.n
    P = head
    prefixes = []  # before each joint factor, in chain order
    for j in (*range(n - 1, -1, -1), *range(n, 2 * n)):
        if j == n:
            P_Y = P
            P = P @ system.Y
        prefixes.append(P)
        P = P @ E[:, j]
    P = P @ tail
    if rows is not None:
        prefixes[0] = np.broadcast_to(head, (m, 4, 4))  # one pose, shared by the samples
        prefixes = np.stack(prefixes[n - 1::-1] + prefixes[n:], axis=1)  # column order
        blocks = rows.reshape(m, 6, 2 * n + 3, 6)  # column blocks [X, Y, Z, a^1..a^n, c^1..c^n]
        blocks[:, :, 0] = -np.eye(6)
        blocks[:, :, 1:3] = lie.adjoint(np.stack([P_Y, P], axis=1)).swapaxes(1, 2)
        R, AdD = prefixes[..., :3, :3], blocks[:, :, 3:].swapaxes(1, 2)
        np.matmul(R, D[..., :3, :], out=AdD[..., :3, :])
        lower = np.empty(R.shape[:-1] + (6,))  # the adjoint's lower rows [t^ R, R]
        np.matmul(lie.skew(prefixes[..., :3, 3]), R, out=lower[..., :3])
        lower[..., 3:] = R
        np.matmul(lower, D, out=AdD[..., 3:, :])
    return P @ system.Z


def _chain(system, q_a, q_c, jacobian):
    """B' (m, 4, 4) of (m, n) joint readings and, if asked, the Jacobian (6m, 12n+18).

    Per chunk, one exp_se3 call gives both arms' joint factors and one
    joint_jacobian call their differentials: the sensor arm's factors,
    which enter inverted, are its twists at -q_a (their differentials
    then carry the sign).  The zero offsets' poses come from the memo of
    kinematics.zero_pose."""
    q_a, q_c = np.asarray(q_a, dtype=float), np.asarray(q_c, dtype=float)
    if q_a.ndim != 2 or q_a.shape[1] != system.n or q_c.shape != q_a.shape:
        raise CalibrationError("joint readings do not match the system's joint count")
    arm_a, arm_c = system.sensor_arm, system.tool_arm
    twists = np.concatenate([arm_a.joint_twists, arm_c.joint_twists])
    q = np.concatenate([-q_a, q_c], axis=1)
    ends = lie.pose_inv(system.X) @ zero_pose(-arm_a.zero_offset), zero_pose(arm_c.zero_offset)
    m = len(q)
    B = np.empty((m, 4, 4))
    J = np.empty((6 * m, system.dim)) if jacobian else None
    for lo in range(0, m, _WALK_CHUNK):
        hi = lo + _WALK_CHUNK
        E = lie.exp_se3(twists, q[lo:hi])
        if J is None:
            B[lo:hi] = _walk(system, ends, E)
        else:
            B[lo:hi] = _walk(system, ends, E, lie.joint_jacobian(twists, q[lo:hi]),
                             J[6 * lo:6 * hi].reshape(-1, 6, system.dim))
    return B, J


def predict_B(system, q_a, q_c):
    """Predicted tool-in-sensor poses (m, 4, 4) of (m, n) joint readings,
    from the full PoE chain."""
    return _chain(system, q_a, q_c, jacobian=False)[0]


def residual(system, samples):
    """Closed-loop error twists log(B' B*^-1) (exact logarithm), (m, 6)."""
    return lie.log_se3(predict_B(system, samples.q_a, samples.q_c) @ lie.pose_inv(samples.B))


def stack(system, samples):
    """Stacked residual vector (6m,) and Jacobian (6m, 12n+18) from one chain walk."""
    B, J = _chain(system, samples.q_a, samples.q_c, jacobian=True)
    return lie.log_se3(B @ lie.pose_inv(samples.B)).ravel(), J


RANK_REL_THRESHOLD = 1e-8  # the numeric rank counts singular values above sigma_max times this
Q_MIN = 0.15  # rad: a joint below it excites its twist weakly; flagged here, never sampled


@dataclass
class IdentifiabilityReport:
    singular_values: np.ndarray
    rank: int
    needed: int
    condition_number: float
    threshold: float
    excitation_violations: list
    well_posed: bool


def identifiability_report(system, samples):
    """Rank/conditioning diagnostics of the stacked Jacobian J of a system
    on samples.

    Reports the singular values of J, the numeric rank at
    sigma_max * RANK_REL_THRESHOLD, the condition number, and the samples
    whose joints sit below Q_MIN (weakly exciting; their twist
    contributions degenerate as q -> 0).  Singular values come from an
    SVD of J itself: an eigendecomposition of J^T J squares the
    condition number and cannot resolve the 1e-8 rank threshold.  With
    fewer rows than parameters the rank is at most the row count and the
    condition number is infinite.
    """
    J = _chain(system, samples.q_a, samples.q_c, jacobian=True)[1]
    sv = np.linalg.svd(J, compute_uv=False)
    rank = int(np.sum(sv > sv[0] * RANK_REL_THRESHOLD))
    needed = J.shape[1]
    cond = float("inf")
    if len(sv) >= needed and sv[needed - 1] > 1e-300:
        cond = float(sv[0] / sv[needed - 1])
    q = np.stack((samples.q_a, samples.q_c), axis=1)  # (m, arm, n)
    violations = [{"sample": int(i), "arm": "ac"[a], "joint": int(k), "q": float(q[i, a, k])}
                  for i, a, k in np.argwhere(np.abs(q) < Q_MIN)]
    return IdentifiabilityReport(
        singular_values=sv,
        rank=rank,
        needed=needed,
        condition_number=cond,
        threshold=float(sv[0] * RANK_REL_THRESHOLD),
        excitation_violations=violations,
        well_posed=bool(rank == needed),
    )

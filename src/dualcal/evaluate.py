"""Closed-loop deviation metrics and the cooperative-measuring score.

Angles are radians and lengths meters everywhere internally; reports
convert to degrees/millimeters only at the serialization boundary.
"""

import random
from dataclasses import dataclass

import numpy as np

from . import liegroup as lie
from .chain import joint_readings
from .errors import RankDeficientError
from .kinematics import forward_kinematics


@dataclass
class ClosedLoopError:
    E: np.ndarray
    e_rot: float    # radians
    e_trans: float  # meters


def _arm_poses(samples, arm_a, arm_c):
    """Forward kinematics A, C of every sample, two (m, 4, 4) stacks."""
    q_a, q_c = joint_readings(samples, arm_a.n)
    return forward_kinematics(arm_a, q_a), forward_kinematics(arm_c, q_c)


def _loop_deviations(samples, X, Y, Z, arm_a, arm_c):
    """Loop deviations E = (A X B)^-1 Y C Z, (m, 4, 4), with A and C from
    the given arms: nominal ones score a coordinate-only calibration."""
    A, C = _arm_poses(samples, arm_a, arm_c)
    return lie.pose_inv(A @ X @ np.array([s.B_meas for s in samples])) @ Y @ C @ Z


def closed_loop(sample, X, Y, Z, arm_a, arm_c):
    """Loop deviation of one sample with its rotation angle and translation norm."""
    E = _loop_deviations([sample], X, Y, Z, arm_a, arm_c)[0]
    return ClosedLoopError(E, float(lie.rotation_angle(E[:3, :3])),
                           float(np.linalg.norm(E[:3, 3])))


@dataclass
class EvalReport:
    mode: str
    e_rot: np.ndarray    # radians, per sample
    e_trans: np.ndarray  # meters, per sample

    def _stats(self, x):
        q1, med, q3 = np.percentile(x, [25, 50, 75])
        return {"mean": float(x.mean()), "std": float(x.std()),
                "median": float(med), "q1": float(q1), "q3": float(q3),
                "max": float(x.max())}

    def to_dict(self):
        rot_deg = np.degrees(self.e_rot)
        trans_mm = 1e3 * self.e_trans
        return {
            "mode": self.mode,
            "e_rot_deg": rot_deg.tolist(),
            "e_trans_mm": trans_mm.tolist(),
            "rot_deg": self._stats(rot_deg),
            "trans_mm": self._stats(trans_mm),
        }


def evaluate_samples(samples, X, Y, Z, arm_a, arm_c, mode):
    E = _loop_deviations(samples, X, Y, Z, arm_a, arm_c)
    return EvalReport(mode, lie.rotation_angle(E[:, :3, :3]),
                      np.linalg.norm(E[:, :3, 3], axis=-1))


def evaluate_dataset(dataset, calib_system, mode="joint"):
    """Closed-loop report for a calibration result on a dataset.

    mode 'joint' recomputes A/C with the calibrated kinematics; mode
    'coordinate_only' keeps the dataset's nominal kinematics so only
    X, Y, Z are evaluated.
    """
    if mode == "joint":
        arm_a, arm_c = calib_system.sensor_arm, calib_system.tool_arm
    elif mode == "coordinate_only":
        arm_a, arm_c = dataset.nominal_system.sensor_arm, dataset.nominal_system.tool_arm
    else:
        raise ValueError(f"unknown evaluation mode '{mode}'")
    return evaluate_samples(dataset.samples, calib_system.X, calib_system.Y,
                            calib_system.Z, arm_a, arm_c, mode)


# --- sphere fitting --------------------------------------------------------

def sphere_fit(points, refine_iters=20):
    """Least-squares sphere through >= 4 non-coplanar points.

    Algebraic seed (linear in center and radius offset) followed by a few
    geometric Gauss-Newton steps on the radial residuals.  Returns
    (center, radius, rms_residual).  Raises RankDeficientError for
    coplanar/degenerate input.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 3 or P.shape[0] < 4:
        raise RankDeficientError(0, 4)
    A = np.hstack([2.0 * P, np.ones((P.shape[0], 1))])
    rhs = (P * P).sum(axis=1)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= sv[0] * 1e-10:
        raise RankDeficientError(int((sv > sv[0] * 1e-10).sum()), 4)
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    c = sol[:3]
    r = float(np.sqrt(max(sol[3] + c @ c, 0.0)))
    for _ in range(refine_iters):
        d = P - c
        dist = np.linalg.norm(d, axis=1)
        res = dist - r
        if np.abs(res).max() < 1e-15:
            break
        J = np.hstack([-d / dist[:, None], -np.ones((P.shape[0], 1))])
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        c = c + step[:3]
        r = float(r + step[3])
    d = np.linalg.norm(P - c, axis=1)
    rms = float(np.sqrt(np.mean((d - r) ** 2)))
    return c, r, rms


# --- exact minimum enclosing ball (move-to-front) ----------------------------

def _ball_of(boundary):
    """Smallest ball with all boundary points on its surface (<= 4)."""
    k = len(boundary)
    if k == 0:
        return np.zeros(3), -1.0
    if k == 1:
        return np.array(boundary[0], dtype=float), 0.0
    a = np.asarray(boundary[0], dtype=float)
    A = np.asarray(boundary[1:], dtype=float) - a
    # least-norm center offset d within the affine span of the points:
    # |p - a - d| = |d| for every point p means (p - a) . d = |p - a|^2 / 2
    d, *_ = np.linalg.lstsq(A, 0.5 * (A * A).sum(axis=1), rcond=None)
    return a + d, float(np.linalg.norm(d))


def _mtf_ball(P, order, end, boundary):
    """Smallest ball of P[order[:end]] with the boundary points on its surface.

    Gaertner's move-to-front scan ("Fast and robust smallest enclosing
    balls", ESA 1999): a point outside the ball joins the boundary for a
    rescan of the points before it, then moves to the front of ``order``
    (reordered in place).  Recursion deepens only with the boundary (<= 4).
    """
    c, r = _ball_of(boundary)
    i = 0
    while len(boundary) < 4 and i < end:
        outside = np.linalg.norm(P[order[i:end]] - c, axis=1) > r * (1.0 + 1e-12) + 1e-14
        if not outside.any():
            break
        j = i + int(np.argmax(outside))
        p = order[j]
        c, r = _mtf_ball(P, order, j, boundary + [P[p]])
        order[:j + 1] = np.roll(order[:j + 1], 1)
        i = j + 1
    return c, r


def min_enclosing_ball(points):
    """Exact minimum enclosing ball of 3D points.

    Move-to-front scan over a fixed shuffle of the points; at most 4
    support points determine the ball.  Returns (center, radius).
    """
    P = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(P) == 0:
        raise ValueError("need at least one point")
    order = list(range(len(P)))
    random.Random(20260810).shuffle(order)
    c, r = _mtf_ball(P, np.array(order), len(P), [])
    return c, max(r, 0.0)


@dataclass
class BallConsistency:
    centers: np.ndarray       # (n_postures, 3), in the tool-flange frame
    radii: np.ndarray
    fit_rms: np.ndarray
    meb_center: np.ndarray
    r_meb: float

    def to_dict(self):
        return {
            "centers": self.centers.tolist(),
            "radii_mm": (1e3 * self.radii).tolist(),
            "fit_rms_mm": (1e3 * self.fit_rms).tolist(),
            "meb_center": self.meb_center.tolist(),
            "r_meb_mm": 1e3 * self.r_meb,
        }


def ball_consistency(point_clouds, samples, X, Y, arm_a, arm_c):
    """Cooperative-measuring consistency score.

    Each cloud (sensor frame) is mapped to the common tool-flange frame
    by p' = C^-1 Y^-1 A X p with A, C from the supplied arms, a sphere is
    fitted per posture, and the minimum enclosing ball of the fitted
    centers gives r_MEB (smaller is better).
    """
    if not samples or len(point_clouds) != len(samples):
        raise ValueError("need one point cloud per posture sample, and at least one posture")
    A, C = _arm_poses(samples, arm_a, arm_c)
    centers, radii, rmss = [], [], []
    for i, (cloud, T) in enumerate(zip(point_clouds, lie.pose_inv(C) @ lie.pose_inv(Y) @ A @ X)):
        mapped = lie.apply_pose(T, np.asarray(cloud, dtype=float))
        try:
            c, r, rms = sphere_fit(mapped)
        except RankDeficientError as exc:
            exc.args = (f"sphere fit degenerate at posture {i}: {exc.args[0]}",)
            raise
        centers.append(c)
        radii.append(r)
        rmss.append(rms)
    centers = np.vstack(centers)
    meb_c, r_meb = min_enclosing_ball(centers)
    return BallConsistency(centers, np.array(radii), np.array(rmss), meb_c, float(r_meb))

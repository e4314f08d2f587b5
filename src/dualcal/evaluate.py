"""Closed-loop deviation metrics and the cooperative-measuring score.

Angles are radians and lengths meters everywhere internally; a report
converts to degrees/millimeters only at the serialization boundary.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import liegroup as lie
from .chain import predict_B
from .errors import RankDeficientError

log = logging.getLogger("dualcal")


@dataclass
class EvalReport:
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
            "e_rot_deg": rot_deg.tolist(),
            "e_trans_mm": trans_mm.tolist(),
            "rot_deg": self._stats(rot_deg),
            "trans_mm": self._stats(trans_mm),
        }


def evaluate_samples(system, samples):
    """Closed-loop report of a system on samples, from the loop deviations
    E = (A X B)^-1 Y C Z = B^-1 B', B' the chain's prediction from the system.

    A system that carries the nominal arms scores X, Y, Z alone, as a
    coordinate-only calibration."""
    E = lie.pose_inv(samples.B) @ predict_B(system, samples.q_a, samples.q_c)
    return EvalReport(lie.rotation_angle(E[:, :3, :3]), np.linalg.norm(E[:, :3, 3], axis=-1))


# --- sphere fitting --------------------------------------------------------

# Gauss-Newton stops once no fit in the batch moves its center or radius by
# more than this (m); from the algebraic seed that takes about 3 steps.
_FIT_STEP_TOL = 1e-13
_FIT_MAX_ITERS = 20


def _design_rank(P):
    """Numeric rank of [2P, 1] per cloud of P (B, N, 3), from its singular
    values: normal equations would square them and hide a coplanar cloud."""
    A = np.empty(P.shape[:-1] + (4,))
    np.multiply(P, 2.0, out=A[..., :3])
    A[..., 3] = 1.0
    sv = np.linalg.svd(A, compute_uv=False)
    return (sv > sv[:, :1] * 1e-10).sum(axis=-1)


def _algebraic_seed(P):
    """Center (B, 3) and radius (B,) of the linear fit [2P, 1] s = |P|^2 of
    each cloud of P (B, N, 3).  On the centered points Q its normal
    equations split into 2 Q^T Q c = Q^T |Q|^2 and s = mean |Q|^2."""
    mean = P.mean(axis=1)
    Q = P - mean[:, None]
    QT = np.swapaxes(Q, 1, 2)
    q2 = np.einsum("bni,bni->bn", Q, Q)
    dc = np.linalg.solve(2.0 * QT @ Q, QT @ q2[..., None])[..., 0]
    return mean + dc, np.sqrt(np.maximum(q2.mean(axis=-1) + (dc * dc).sum(axis=-1), 0.0))


def sphere_fit(points):
    """Least-squares spheres through clouds of >= 4 non-coplanar points.

    points is (..., N, 3), a batch of clouds of N points each; one cloud
    (N, 3) is the empty batch.  Algebraic seed (linear in center and
    radius offset, on centered points) followed by geometric Gauss-Newton
    steps on the radial residuals, until the largest step in the batch is
    at most _FIT_STEP_TOL.  Returns (center (..., 3), radius (...),
    rms_residual (...)).  Raises RankDeficientError for coplanar or
    degenerate input; its ``index`` is the first such cloud, counted in
    C order over the batch.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim < 2 or P.shape[-1] != 3 or P.shape[-2] < 4:
        raise RankDeficientError(0, 4, index=0)
    batch, n = P.shape[:-2], P.shape[-2]
    P = P.reshape(-1, n, 3)
    rank = _design_rank(P)
    if (rank < 4).any():
        k = int(np.argmax(rank < 4))
        raise RankDeficientError(int(rank[k]), 4, index=k)
    c, r = _algebraic_seed(P)
    # J^T J = [[sum u u^T, sum u], [sum u^T, N]] of the rows [-u^T, -1],
    # u the unit vectors from the center
    JtJ = np.empty((len(P), 4, 4))
    JtJ[:, 3, 3] = n
    for _ in range(_FIT_MAX_ITERS):
        u = P - c[:, None]
        dist = np.sqrt(np.einsum("bni,bni->bn", u, u))
        u /= dist[..., None]
        res = dist - r[:, None]
        uT = np.swapaxes(u, 1, 2)
        JtJ[:, :3, :3] = uT @ u
        JtJ[:, :3, 3] = JtJ[:, 3, :3] = u.sum(axis=1)
        rhs = np.concatenate([uT @ res[..., None], res.sum(axis=-1)[:, None, None]], axis=1)
        step = np.linalg.solve(JtJ, rhs)[..., 0]
        c = c + step[:, :3]
        r = r + step[:, 3]
        if np.abs(step).max(initial=0.0) <= _FIT_STEP_TOL:
            break
    else:
        log.warning("sphere fit: Gauss-Newton did not converge in %d iterations "
                    "(last step %.3e m, tolerance %.3e m)",
                    _FIT_MAX_ITERS, np.abs(step).max(), _FIT_STEP_TOL)
    res = np.linalg.norm(P - c[:, None], axis=-1) - r[:, None]
    rms = np.sqrt((res * res).mean(axis=-1))
    return c.reshape(batch + (3,)), r.reshape(batch), rms.reshape(batch)


# --- exact minimum enclosing ball (pivoting move-to-front) -------------------
#
# Gaertner, "Fast and robust smallest enclosing balls" (ESA 1999): the ball
# of a short front list grows by one farthest outside point at a time, and
# each growth is a move-to-front scan of that list only.  Most points are
# touched only by one vectorized distance pass per pivot.

def _outside(dist, r):
    """Whether distances from a ball's center lie outside its radius r
    beyond round-off (1e-12 relative, 1e-14 m absolute)."""
    return dist > r * (1.0 + 1e-12) + 1e-14


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

    Gaertner's move-to-front scan: a point outside the ball joins the
    boundary for a rescan of the points before it, then moves to the front
    of ``order`` (reordered in place).  Recursion deepens only with the
    boundary (<= 4).  min_enclosing_ball calls it on its short front list.
    """
    c, r = _ball_of(boundary)
    i = 0
    while len(boundary) < 4 and i < end:
        outside = _outside(np.linalg.norm(P[order[i:end]] - c, axis=1), r)
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

    Gaertner's pivoting: the ball is always the smallest one of the first
    t points of ``order``.  The point farthest from its center among the
    rest, if outside, lies on the surface of the next ball (Welzl's
    lemma), which _mtf_ball computes from those t points alone; the pivot
    then moves to the front and t grows by one.  It stops once no point
    is outside, so the ball of a subset holds every point and is the
    ball of all.  Returns (center, radius).
    """
    P = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(P)
    if n == 0:
        raise ValueError("need at least one point")
    order = np.arange(n)
    c, r = _ball_of([])
    t = 0
    while t < n:
        dist = np.linalg.norm(P[order[t:]] - c, axis=1)
        j = t + int(np.argmax(dist))
        if not _outside(dist[j - t], r):
            break
        c, r = _mtf_ball(P, order, t, [P[order[j]]])
        order[:j + 1] = np.roll(order[:j + 1], 1)
        t += 1
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


def ball_consistency(system, point_clouds, q_a, q_c):
    """Cooperative-measuring consistency score.

    point_clouds holds one (N_i, 3) sensor-frame cloud per posture and
    q_a, q_c the (m, n) joint readings of the postures.  Each cloud is
    mapped to the common tool-flange frame by p' = C^-1 Y^-1 A X p = Z B'^-1 p
    (B' the chain's prediction), a sphere is fitted per posture (one
    batched fit per distinct point count), and the minimum enclosing ball
    of the fitted centers gives r_MEB (smaller is better).  A degenerate
    cloud raises RankDeficientError whose ``index`` is the first such
    posture.
    """
    m = len(point_clouds)
    if m == 0 or len(q_a) != m or len(q_c) != m:
        raise ValueError("need one point cloud per posture, and at least one posture")
    T = system.Z @ lie.pose_inv(predict_B(system, q_a, q_c))
    counts = np.array([len(cloud) for cloud in point_clouds])
    centers, radii, rmss = np.empty((m, 3)), np.empty(m), np.empty(m)
    degenerate = []
    for n in np.unique(counts):
        idx = np.flatnonzero(counts == n)
        clouds = np.array([point_clouds[i] for i in idx], dtype=float)
        try:
            centers[idx], radii[idx], rmss[idx] = sphere_fit(lie.apply_pose(T[idx], clouds))
        except RankDeficientError as exc:
            degenerate.append((int(idx[exc.index]), exc.rank))
    if degenerate:
        i, rank = min(degenerate)
        raise RankDeficientError(rank, 4, index=i)
    meb_c, r_meb = min_enclosing_ball(centers)
    return BallConsistency(centers, radii, rmss, meb_c, float(r_meb))

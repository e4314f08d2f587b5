"""Closed-loop deviation metrics and the cooperative-measuring score.

Every record holds radians and meters; dualcal.cli converts to
degrees/millimeters when it writes a report.
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


def _check_rank(rank):
    """Raise RankDeficientError for the first cloud whose rank is below 4."""
    deficient = rank < 4
    if deficient.any():
        k = int(np.argmax(deficient))
        raise RankDeficientError(int(rank[k]), k)


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
    degenerate input, or a cloud so nearly coplanar that its Gauss-Newton
    normal equations turn singular; its ``index`` is the first such
    cloud, counted in C order over the batch.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim < 2 or P.shape[-1] != 3 or P.shape[-2] < 4:
        raise RankDeficientError(0, 0)
    batch, n = P.shape[:-2], P.shape[-2]
    P = P.reshape(-1, n, 3)
    # the design matrix [2P, 1] of the algebraic fit, ranked by its singular
    # values: normal equations would square them and hide a coplanar cloud
    A = np.concatenate([2.0 * P, np.ones(P.shape[:-1] + (1,))], axis=-1)
    _check_rank(np.linalg.matrix_rank(A, rtol=1e-10))
    c, r = _algebraic_seed(P)
    # then the Gauss-Newton design matrix [u, 1], u the unit vectors from the
    # center: the Jacobian of the radial residuals is -[u, 1]
    u = A[..., :3]
    for _ in range(_FIT_MAX_ITERS):
        np.subtract(P, c[:, None], out=u)
        dist = np.sqrt(np.einsum("bni,bni->bn", u, u))
        u /= dist[..., None]
        res = dist - r[:, None]
        AtA = A.mT @ A
        try:
            step = np.linalg.solve(AtA, A.mT @ res[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # a cloud within round-off of a plane passes the rank test; then its
            # u turn parallel.  An LU failure the SVD does not confirm stands
            _check_rank(np.linalg.matrix_rank(AtA))
            raise
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


# --- exact minimum enclosing ball (pivoting) --------------------------------
#
# Gaertner, "Fast and robust smallest enclosing balls" (ESA 1999): at every
# level of Welzl's recursion the ball grows by one farthest outside point at
# a time, so most points are touched only by one vectorized distance pass
# per pivot.

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


def _pivot_ball(P, domain, boundary):
    """Smallest ball of the points P[domain] with the boundary points on
    its surface.

    The ball is always the one of a support list drawn from the domain.
    The domain point farthest from its center, if outside, lies on the
    surface of the ball of the list plus that point (Welzl's lemma): the
    recursion on the list with the point on the boundary.  The point then
    joins the list, at most once, which bounds the loop.  Once no point
    is outside, the ball of the list holds the whole domain and is its
    ball.  Recursion deepens only with the boundary (<= 4 points).
    """
    c, r = _ball_of(boundary)
    if len(boundary) == 4:
        return c, r
    Q = P[domain]
    support = []
    while len(support) < len(domain):
        dist = np.linalg.norm(Q - c, axis=1)
        dist[support] = -np.inf
        j = int(np.argmax(dist))
        if not _outside(dist[j], r):
            break
        c, r = _pivot_ball(P, domain[support], boundary + [Q[j]])
        support.append(j)
    return c, r


def min_enclosing_ball(points):
    """Exact minimum enclosing ball of 3D points, by _pivot_ball over all
    of them with an empty boundary.  Returns (center, radius)."""
    P = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(P) == 0:
        raise ValueError("need at least one point")
    c, r = _pivot_ball(P, np.arange(len(P)), [])
    return c, max(r, 0.0)


@dataclass
class BallConsistency:
    centers: np.ndarray       # (n_postures, 3), in the tool-flange frame
    radii: np.ndarray
    fit_rms: np.ndarray
    meb_center: np.ndarray
    r_meb: float


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
        raise RankDeficientError(rank, i)
    meb_c, r_meb = min_enclosing_ball(centers)
    return BallConsistency(centers, radii, rmss, meb_c, float(r_meb))

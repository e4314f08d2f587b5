"""Shared oracles for the test suite.

Everything here but `level_deviation` is deliberately independent of
the package's own code paths: truncated-series exponentials, plain
Gaussian elimination, brute-force geometry, a move-to-front scan over
every point, one-at-a-time random draws and the lifted constraints as
matrix identities give reference values the library must reproduce.
`level_deviation` measures a kinematic level through the public
simulation API.
"""

import random

import numpy as np

from dualcal import liegroup as lie
from dualcal.chain import Q_MIN, Measurements, predict_B
from dualcal.simulate import D_MIN, perturb_level, pose_deviation, sample_configurations


def expm_taylor(M, terms=30):
    """Truncated-series matrix exponential (reference oracle)."""
    out = np.eye(M.shape[0])
    P = np.eye(M.shape[0])
    for k in range(1, terms):
        P = P @ M / k
        out = out + P
    return out


def dexp_taylor(M, terms=30):
    """Truncated series sum_k M^k/(k+1)! of the differential of the
    exponential at the algebra adjoint M (reference oracle)."""
    out = np.eye(M.shape[0])
    P = np.eye(M.shape[0])
    for k in range(1, terms):
        P = P @ M / (k + 1)
        out = out + P
    return out


def gauss_solve(A, b):
    """Dense solve by Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    for col in range(n):
        piv = col + np.argmax(np.abs(A[col:, col]))
        if abs(A[piv, col]) < 1e-300:
            raise ZeroDivisionError("singular matrix in oracle solve")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def rand_twist(rng, wmax=2.5, rmax=1.0):
    w = rng.uniform(-1.0, 1.0, 3)
    norm = np.linalg.norm(w)
    if norm > 0:
        w *= rng.uniform(0.0, wmax) / norm
    return np.concatenate([w, rng.uniform(-rmax, rmax, 3)])


def rand_pose(rng, wmax=2.6, rmax=1.0):
    return lie.exp_se3(rand_twist(rng, wmax, rmax))


def valid_config(rng, n, q_min=0.15):
    while True:
        q = rng.uniform(-np.pi, np.pi, n)
        if np.abs(q).min() >= q_min:
            return q


def loop_sample_configurations(m, n_joints, rng, q_min=Q_MIN, d_min=D_MIN):
    """sample_configurations one candidate at a time: draw a, then c, and
    accept the pair if every |q| >= q_min and both arms lie at least d_min
    (infinity-norm) from the last accepted pair.  None after 1000 m tries."""
    q_a, q_c = [], []
    for _ in range(1000 * m):
        a = rng.uniform(-np.pi, np.pi, n_joints)
        c = rng.uniform(-np.pi, np.pi, n_joints)
        if np.abs(a).min() < q_min or np.abs(c).min() < q_min:
            continue
        if q_a and (np.abs(a - q_a[-1]).max() < d_min or np.abs(c - q_c[-1]).max() < d_min):
            continue
        q_a.append(a)
        q_c.append(c)
        if len(q_a) == m:
            return np.array(q_a), np.array(q_c)
    return None


def loop_joint_deltas(arm, level, rng):
    """draw_joint_deltas one joint at a time: 3 rotation then 3 translation
    draws per joint (each only at a positive sigma), the translation
    anchored at the joint axis' point p = (w x rho) / |w|^2."""
    deltas = np.zeros((arm.n, 6))
    for k in range(arm.n):
        w = arm.joint_twists[k][:3]
        rho = arm.joint_twists[k][3:]
        dw = rng.normal(0.0, level.rot_sigma, 3) if level.rot_sigma > 0 else np.zeros(3)
        p = np.cross(w, rho) / max(w @ w, 1e-12)
        deltas[k, :3] = dw
        deltas[k, 3:] = np.cross(p, dw)
        if level.trans_sigma > 0:
            deltas[k, 3:] += rng.normal(0.0, level.trans_sigma, 3)
    return deltas


def level_deviation(system, level, rng, configs):
    """Mean end-pose deviation (deg, mm) of a ground truth drawn by
    perturb_level from the nominal arms, pooled over both arms at
    `configs` random configurations each.  Draws the ground truth, then
    the sensor arm's configurations, then the tool arm's."""
    gt = perturb_level(system, level, rng)
    rot, trans = [], []
    for name in ("sensor_arm", "tool_arm"):
        nominal = getattr(system, name)
        q, _ = sample_configurations(configs, nominal.n, rng, d_min=0.0)
        r, t = pose_deviation(nominal, getattr(gt, name), q)
        rot.append(r)
        trans.append(t)
    return (float(np.degrees(np.concatenate(rot).mean())),
            float(1e3 * np.concatenate(trans).mean()))


def noise_free_samples(system, rng, m, n=6):
    """Samples whose B is exactly consistent with the given system."""
    pairs = np.array([[valid_config(rng, n), valid_config(rng, n)] for _ in range(m)])
    q_a, q_c = pairs[:, 0], pairs[:, 1]
    return Measurements(q_a, q_c, predict_B(system, q_a, q_c))


def fd_jacobian_columns(system, samples, h=1e-6):
    """Defining finite differences of the stacked Jacobian.

    Central difference of vee(log(B'(+h e_col) B'(-h e_col)^-1))/2h, with
    B'(d) predicted by system.apply_delta(d): the quantity the analytical
    Jacobian is defined to produce.
    """
    dim = system.dim
    J = np.empty((6 * len(samples), dim))
    for col in range(dim):
        d = np.zeros(dim)
        d[col] = h
        sp = system.apply_delta(d)
        sm = system.apply_delta(-d)
        Bp = predict_B(sp, samples.q_a, samples.q_c)
        Bm = predict_B(sm, samples.q_a, samples.q_c)
        J[:, col] = lie.log_se3(Bp @ lie.pose_inv(Bm)).ravel() / (2 * h)
    return J


def loop_sphere_fit(points, iters=20):
    """Sphere through one cloud (N, 3) by lstsq: algebraic seed, then a
    fixed number of Gauss-Newton steps on the radial residuals."""
    P = np.asarray(points, dtype=float)
    sol = np.linalg.lstsq(np.hstack([2.0 * P, np.ones((len(P), 1))]), (P * P).sum(axis=1),
                          rcond=None)[0]
    c, r = sol[:3], np.sqrt(sol[3] + sol[:3] @ sol[:3])
    for _ in range(iters):
        d = P - c
        dist = np.linalg.norm(d, axis=1)
        J = np.hstack([-d / dist[:, None], -np.ones((len(P), 1))])
        step = np.linalg.lstsq(J, r - dist, rcond=None)[0]
        c, r = c + step[:3], r + step[3]
    res = np.linalg.norm(P - c, axis=1) - r
    return c, r, np.sqrt(np.mean(res * res))


def ball_through(boundary):
    """Smallest ball with all of <= 4 boundary points on its surface: the
    least-norm center offset d in their affine span, from
    (p - a) . d = |p - a|^2 / 2 for every point p.  No points give radius -1."""
    if not boundary:
        return np.zeros(3), -1.0
    a = np.asarray(boundary[0], dtype=float)
    A = np.asarray(boundary[1:], dtype=float).reshape(-1, 3) - a
    d = np.linalg.lstsq(A, 0.5 * (A * A).sum(axis=1), rcond=None)[0]
    return a + d, float(np.linalg.norm(d))


def brute_force_meb(points):
    """Minimum enclosing ball by enumerating all support subsets <= 4."""
    from itertools import combinations

    P = [np.asarray(p, dtype=float) for p in points]
    best = None
    for k in range(1, 5):
        for subset in combinations(P, k):
            c, r = ball_through(list(subset))
            if r < 0:
                continue
            if all(np.linalg.norm(p - c) <= r * (1 + 1e-12) + 1e-14 for p in P):
                if best is None or r < best[1]:
                    best = (c, r)
    return best


def full_scan_meb(points):
    """Minimum enclosing ball by Welzl's move-to-front scan over all points
    in a fixed shuffle: a point outside the ball of the points before it
    joins the boundary for a rescan of those points, then moves to the
    front.  The reference for min_enclosing_ball's pivoting."""
    P = np.asarray(points, dtype=float).reshape(-1, 3)
    order = list(range(len(P)))
    random.Random(20260810).shuffle(order)

    def scan(end, boundary):
        c, r = ball_through(boundary)
        if len(boundary) == 4:
            return c, r
        for i in range(end):
            p = P[order[i]]
            if np.linalg.norm(p - c) > r * (1.0 + 1e-12) + 1e-14:
                c, r = scan(i, boundary + [p])
                order.insert(0, order.pop(i))
        return c, r

    c, r = scan(len(P), [])
    return c, max(r, 0.0)


def lifted_constraints(w):
    """The 160 quadratic constraints of the initialization's lift, as
    matrix identities evaluated at lifted vectors w (..., 133), in the
    order that sdp_init.build_constraints builds them.

    w stacks vec(Rx), vec(Ry), vec(K) (9 x 9), tx, ty, vec(V) (3 x 9) and
    the homogeneous entry h, column-stacked.  The quadratics are the
    entries l <= k of Rx^T Rx, then r1 x r2 - r3 h (the columns of Rx);
    the same for Ry; the entries l <= k of K^T K; for every 3x3 block E
    of K (row-major over the blocks) and then of V, the off-diagonal
    entries of Ry^T E followed by its diagonal differences (0,0)-(1,1) and
    (1,1)-(2,2); and h^2.
    """
    w = np.asarray(w, dtype=float)

    def mat(start, rows, cols):
        M = w[..., start:start + rows * cols].reshape(w.shape[:-1] + (cols, rows))
        return np.swapaxes(M, -1, -2)

    Rx, Ry, K, V, h = mat(0, 3, 3), mat(9, 3, 3), mat(18, 9, 9), mat(105, 3, 9), w[..., 132]

    def orthonormality(R):
        P = np.swapaxes(R, -1, -2) @ R
        n = R.shape[-1]
        return [P[..., l, k] for l in range(n) for k in range(l, n)]

    def handedness(R):
        d = np.cross(R[..., :, 0], R[..., :, 1]) - R[..., :, 2] * h[..., None]
        return [d[..., a] for a in range(3)]

    def scalar_identity(E):
        P = np.swapaxes(Ry, -1, -2) @ E
        off = [P[..., a, b] for a in range(3) for b in range(3) if a != b]
        return off + [P[..., 0, 0] - P[..., 1, 1], P[..., 1, 1] - P[..., 2, 2]]

    quad = orthonormality(Rx) + handedness(Rx) + orthonormality(Ry) + handedness(Ry)
    quad += orthonormality(K)
    for p in range(3):
        for q in range(3):
            quad += scalar_identity(K[..., 3 * p:3 * p + 3, 3 * q:3 * q + 3])
    for j in range(3):
        quad += scalar_identity(V[..., :, 3 * j:3 * j + 3])
    return np.stack(quad + [h * h], axis=-1)

"""Shared oracles for the test suite.

Everything here but `level_deviation` and `full_scan_meb` is
deliberately independent of the package's own code paths:
truncated-series exponentials, plain Gaussian elimination, brute-force
geometry, and one-at-a-time random draws give reference values the
library must reproduce.  `level_deviation` measures a kinematic level
through the public simulation API, and `full_scan_meb` runs the
package's move-to-front scan over every point, which
`min_enclosing_ball`'s pivoting must match.
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


def brute_force_meb(points):
    """Minimum enclosing ball by enumerating all support subsets <= 4."""
    from itertools import combinations
    from dualcal.evaluate import _ball_of

    P = [np.asarray(p, dtype=float) for p in points]
    best = None
    for k in range(1, 5):
        for subset in combinations(P, k):
            c, r = _ball_of(list(subset))
            if r < 0:
                continue
            if all(np.linalg.norm(p - c) <= r * (1 + 1e-12) + 1e-14 for p in P):
                if best is None or r < best[1]:
                    best = (c, r)
    return best


def full_scan_meb(points):
    """Minimum enclosing ball by a move-to-front scan over all points in a
    fixed shuffle, every outside point rescanning the points before it:
    the reference for min_enclosing_ball's pivoting on the same scan."""
    from dualcal.evaluate import _mtf_ball

    P = np.asarray(points, dtype=float).reshape(-1, 3)
    order = list(range(len(P)))
    random.Random(20260810).shuffle(order)
    c, r = _mtf_ball(P, np.array(order), len(P), [])
    return c, max(r, 0.0)

"""Shared oracles for the test suite.

Everything here is deliberately independent of the package's own code
paths: truncated-series exponentials, plain Gaussian elimination, and
brute-force geometry give reference values the library must reproduce.
"""

import numpy as np

from dualcal import liegroup as lie
from dualcal.chain import DualArmSystem, MeasurementSample, predict_B
from dualcal.kinematics import default_arm


def expm_taylor(M, terms=30):
    """Truncated-series matrix exponential (reference oracle)."""
    out = np.eye(M.shape[0])
    P = np.eye(M.shape[0])
    for k in range(1, terms):
        P = P @ M / k
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


def toy_system(rng=None):
    """Dual UR5-like system with the default_system coordinates."""
    arm_a = default_arm("sensor_arm")
    arm_c = default_arm("tool_arm")
    X = lie.exp_se3(np.array([0.10, -0.05, 0.15, 0.05, -0.03, 0.08]))
    Y = lie.exp_se3(np.array([0.05, 0.08, 2.30, 1.15, -0.35, 0.10]))
    Z = lie.exp_se3(np.array([-0.10, 0.20, 0.30, 0.02, 0.04, -0.06]))
    return DualArmSystem(arm_a, arm_c, X, Y, Z)


def noise_free_samples(system, rng, m, n=6):
    """Samples whose B is exactly consistent with the given system."""
    out = []
    for _ in range(m):
        q_a = valid_config(rng, n)
        q_c = valid_config(rng, n)
        B = predict_B(system, MeasurementSample(q_a, q_c, np.eye(4)))
        out.append(MeasurementSample(q_a, q_c, B))
    return out


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
        for i, sample in enumerate(samples):
            Bp = predict_B(sp, sample)
            Bm = predict_B(sm, sample)
            J[6 * i:6 * i + 6, col] = lie.log_se3(Bp @ lie.pose_inv(Bm)) / (2 * h)
    return J


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

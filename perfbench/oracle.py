"""Reference geometry for checking dualcal's outputs.

Written apart from the package: its own Rodrigues exponential, SE(3)
logarithm, product-of-exponentials forward kinematics, closed-loop error
and QCQP objective.  Every check compares gauge-invariant quantities
(poses, closed-loop errors, residual norms), never joint twists, which
carry a 12-dimensional gauge per calibration.
"""

import numpy as np


def skew(w):
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def exp_twist(xi):
    """Rodrigues exponential of a twist [w, v] (rotation part first)."""
    w, v = np.asarray(xi[:3], dtype=float), np.asarray(xi[3:], dtype=float)
    th = np.sqrt(w @ w)
    W = skew(w)
    if th < 1e-6:
        a, b, c = 1.0 - th * th / 6.0, 0.5 - th * th / 24.0, 1.0 / 6.0 - th * th / 120.0
    else:
        a = np.sin(th) / th
        b = (1.0 - np.cos(th)) / th ** 2
        c = (th - np.sin(th)) / th ** 3
    T = np.eye(4)
    T[:3, :3] = np.eye(3) + a * W + b * W @ W
    T[:3, 3] = (np.eye(3) + b * W + c * W @ W) @ v
    return T


def rotation_angle(R):
    s = 0.5 * np.linalg.norm([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return float(np.arctan2(s, 0.5 * (np.trace(R) - 1.0)))


def log_pose(T):
    """Twist [w, v] with exp_twist(log_pose(T)) == T (angle below pi)."""
    R = T[:3, :3]
    th = rotation_angle(R)
    u = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    w = (0.5 + th * th / 12.0 if th < 1e-6 else th / (2.0 * np.sin(th))) * u
    W = skew(w)
    if th < 1e-2:
        d = 1.0 / 12.0 + th ** 2 / 720.0 + th ** 4 / 30240.0
    else:
        d = (1.0 - th * np.sin(th) / (2.0 * (1.0 - np.cos(th)))) / th ** 2
    return np.concatenate([w, (np.eye(3) - 0.5 * W + d * W @ W) @ T[:3, 3]])


def forward(arm, q):
    """PoE forward kinematics of an arm given as a system-file dict."""
    T = np.eye(4)
    for xi, qk in zip(arm["joint_twists"], q):
        T = T @ exp_twist(np.asarray(xi) * qk)
    return T @ exp_twist(arm["zero_offset"])


def is_pose(T, tol=1e-9):
    T = np.asarray(T, dtype=float)
    if T.shape != (4, 4) or not np.isfinite(T).all():
        return False
    R = T[:3, :3]
    return (np.abs(R.T @ R - np.eye(3)).max() < tol and np.linalg.det(R) > 0
            and np.array_equal(T[3], [0.0, 0.0, 0.0, 1.0]))


def poses(system):
    return (np.asarray(system["X"]), np.asarray(system["Y"]), np.asarray(system["Z"]))


def closed_loop_errors(system, samples, arm_a=None, arm_c=None):
    """Per-sample (rotation deg, translation mm) of E = (A X B)^-1 Y C Z.

    A and C come from the system's own arms unless others are given
    (the nominal arms score a coordinate-only calibration).
    """
    X, Y, Z = poses(system)
    arm_a = arm_a or system["sensor_arm"]
    arm_c = arm_c or system["tool_arm"]
    rot, trans = [], []
    for s in samples:
        A, C = forward(arm_a, s["q_a"]), forward(arm_c, s["q_c"])
        E = np.linalg.inv(A @ X @ np.asarray(s["B"])) @ Y @ C @ Z
        rot.append(np.degrees(rotation_angle(E[:3, :3])))
        trans.append(1e3 * np.linalg.norm(E[:3, 3]))
    return np.array(rot), np.array(trans)


def residual_norm(system, samples):
    """|e| over samples of e_i = log(B'_i B_i^-1), B' = X^-1 A^-1 Y C Z."""
    X, Y, Z = poses(system)
    total = 0.0
    for s in samples:
        A = forward(system["sensor_arm"], s["q_a"])
        C = forward(system["tool_arm"], s["q_c"])
        Bp = np.linalg.inv(A @ X) @ Y @ C @ Z
        e = log_pose(Bp @ np.linalg.inv(np.asarray(s["B"])))
        total += e @ e
    return float(np.sqrt(total))


def qcqp_objective(X, Y, Z, triples):
    """sum_i |(A_i X B_i - Y C_i Z)[:3, :]|_F^2: rotation and translation
    gaps of the chain, the cost the SDP relaxation lower-bounds."""
    return float(sum(np.sum(((A @ X @ B) - (Y @ C @ Z))[:3, :] ** 2) for A, B, C in triples))


def nominal_triples(nominal, samples):
    return [(forward(nominal["sensor_arm"], s["q_a"]), np.asarray(s["B"]),
             forward(nominal["tool_arm"], s["q_c"])) for s in samples]

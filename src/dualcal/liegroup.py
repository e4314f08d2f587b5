"""SE(3)/se(3) primitives: hat/vee, exp/log, adjoint and differential Jacobians.

Twist convention used everywhere in this package: a twist is a length-6
vector ``[wx, wy, wz, rx, ry, rz]`` with the rotation part first (radians
when exponentiated with a unit joint value) and the translation part in
meters.  A pose is a plain 4x4 numpy array on SE(3).

Kernels are batched: they take ``(..., 6)`` twists or ``(..., 4, 4)``
poses (``(..., 3)``, ``(..., 3, 3)`` for SO(3)) and return one result per
element; a single twist or pose is the empty batch of the same code.  A
call costs about the same for one element as for hundreds, so gather.

The two differential Jacobians ``left_jacobian`` and ``joint_jacobian``
map additive twist increments to the left-trivialized derivative of the
exponential, i.e. ``vee(d exp(xi^) * exp(-xi^)) = J(xi) dxi``.
"""

import numpy as np

from .errors import NearPiRotationError, StructureError

# Below this rotation angle the exp/log coefficient formulas switch to
# Taylor expansions.  Their cancellation errors are damped by matching
# powers of the skew matrix, so a tiny threshold suffices.
SMALL_ANGLE = 1e-5

# The differential-Jacobian coefficients multiply powers of the full
# algebra adjoint, whose translation block is O(1), so their cancellation
# errors (~1e-16/theta^4 for the Omega^3 term) are not damped; the Taylor
# branch must take over much earlier.  At 0.08 both branches carry
# <= ~1e-12 absolute error.
JACOBIAN_SMALL_ANGLE = 8e-2

_PI_MARGIN = 1e-6

_I3, _I6 = np.eye(3), np.eye(6)
_E4 = np.array([0.0, 0.0, 0.0, 1.0])  # bottom row of a pose


def skew(w):
    """(..., 3) vectors -> (..., 3, 3) skew-symmetric matrices."""
    w = np.asarray(w, dtype=float)
    W = np.zeros(w.shape[:-1] + (3, 3))
    W[..., 0, 1], W[..., 0, 2] = -w[..., 2], w[..., 1]
    W[..., 1, 0], W[..., 1, 2] = w[..., 2], -w[..., 0]
    W[..., 2, 0], W[..., 2, 1] = -w[..., 1], w[..., 0]
    return W


def unskew(W):
    """Inverse of :func:`skew` (reads entries, no arithmetic)."""
    return np.stack([W[..., 2, 1], W[..., 0, 2], W[..., 1, 0]], axis=-1)


def hat(xi):
    """(..., 6) twists -> (..., 4, 4) se(3) matrices."""
    xi = np.asarray(xi, dtype=float)
    H = np.zeros(xi.shape[:-1] + (4, 4))
    H[..., :3, :3] = skew(xi[..., :3])
    H[..., :3, 3] = xi[..., 3:]
    return H


def vee(M):
    """4x4 se(3) matrix -> twist coordinates.

    Raises StructureError if the bottom row is nonzero or the upper-left
    block is not skew-symmetric (tolerance 1e-9).
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (4, 4):
        raise StructureError(f"expected 4x4 matrix, got {M.shape}")
    if np.abs(M[3, :]).max() > 1e-9:
        raise StructureError("bottom row of a twist matrix must be zero")
    if np.abs(M[:3, :3] + M[:3, :3].T).max() > 1e-9:
        raise StructureError("rotation block of a twist matrix must be skew-symmetric")
    return np.concatenate([unskew(M[:3, :3]), M[:3, 3]])


def make_pose(R, t):
    """(..., 3, 3) rotations and (..., 3) translations -> (..., 4, 4) poses."""
    R = np.asarray(R, dtype=float)
    T = np.zeros(R.shape[:-2] + (4, 4))
    T[..., :3, :3] = R
    T[..., :3, 3] = t
    T[..., 3, 3] = 1.0
    return T


def pose_inv(T):
    Rt = np.swapaxes(T[..., :3, :3], -1, -2)
    return make_pose(Rt, -(Rt @ T[..., :3, 3:])[..., 0])


def is_pose(T, tol=1e-9):
    T = np.asarray(T)
    if T.shape != (4, 4):
        return False
    R = T[:3, :3]
    ortho = np.linalg.norm(R.T @ R - _I3) < tol
    # the bottom row within np.allclose's default tolerances, at a fraction of its cost
    return ortho and np.linalg.det(R) > 0 and (np.abs(T[3] - _E4) <= 1e-8 + 1e-5 * _E4).all()


def apply_pose(T, points):
    """Transform one point (3,) or a stack of points (N, 3)."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        return T[:3, :3] @ p + T[:3, 3]
    return p @ T[:3, :3].T + T[:3, 3]


def _branch(theta, threshold):
    # Taylor-branch mask, and theta raised to the threshold where the Taylor
    # branch is taken, so the closed form np.where discards cannot divide by 0
    return theta < threshold, np.maximum(theta, threshold)


def _so3_coeffs(theta):
    # a = sin(t)/t, b = (1-cos(t))/t^2, c = (t-sin(t))/t^3, as (..., 1, 1)
    small, t = _branch(theta, SMALL_ANGLE)
    t2 = theta * theta
    s = np.sin(t)
    a = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, s / t)
    b = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, (1.0 - np.cos(t)) / (t * t))
    c = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0, (t - s) / t ** 3)
    return a[..., None, None], b[..., None, None], c[..., None, None]


def exp_so3(w):
    """Rodrigues formula for (..., 3) rotation vectors."""
    w = np.asarray(w, dtype=float)
    a, b, _ = _so3_coeffs(np.linalg.norm(w, axis=-1))
    W = skew(w)
    return _I3 + a * W + b * (W @ W)


def exp_se3(xi):
    """Exponential map se(3) -> SE(3): (..., 6) twists to (..., 4, 4) poses."""
    xi = np.asarray(xi, dtype=float)
    a, b, c = _so3_coeffs(np.linalg.norm(xi[..., :3], axis=-1))
    W = skew(xi[..., :3])
    W2 = W @ W
    R = _I3 + a * W + b * W2
    V = _I3 + b * W + c * W2
    return make_pose(R, (V @ xi[..., 3:, None])[..., 0])


def log_se3(T):
    """Logarithm map SE(3) -> twist coordinates: (..., 4, 4) to (..., 6).

    Raises NearPiRotationError when any rotation angle is within 1e-6 of
    pi; callers decide how to recover (calibration increments are small,
    so this path is unreachable in normal operation).
    """
    T = np.asarray(T, dtype=float)
    R = T[..., :3, :3]
    theta = np.arccos(np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0))
    if np.any(theta >= np.pi - _PI_MARGIN):
        raise NearPiRotationError(
            f"rotation angle {np.max(theta):.9f} within {_PI_MARGIN} of pi; logarithm unstable")
    small, t = _branch(theta, SMALL_ANGLE)
    t2 = theta * theta
    scale = np.where(small, 0.5 + t2 / 12.0 + 7.0 * t2 * t2 / 720.0, t / (2.0 * np.sin(t)))
    w = scale[..., None] * unskew(R - np.swapaxes(R, -1, -2))
    theta = np.linalg.norm(w, axis=-1)
    small, t = _branch(theta, SMALL_ANGLE)
    t2 = theta * theta
    d = np.where(small, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0,
                 1.0 / (t * t) - (1.0 + np.cos(t)) / (2.0 * t * np.sin(t)))
    W = skew(w)
    Vinv = _I3 - 0.5 * W + d[..., None, None] * (W @ W)
    return np.concatenate([w, (Vinv @ T[..., :3, 3:])[..., 0]], axis=-1)


def rotation_angle(R):
    """Angle of (..., 3, 3) rotation matrices, in [0, pi].

    Same value as arccos((tr(R)-1)/2) but evaluated through atan2 of the
    skew part: arccos alone cannot resolve angles below ~1e-8 rad in
    double precision.
    """
    s = 0.5 * np.linalg.norm(unskew(R - np.swapaxes(R, -1, -2)), axis=-1)
    c = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0)
    return np.arctan2(np.minimum(s, 1.0), c)


def adjoint(T):
    """(..., 6, 6) adjoints of (..., 4, 4) poses: [[R, 0], [t^ R, R]]."""
    R = T[..., :3, :3]
    Ad = np.zeros(T.shape[:-2] + (6, 6))
    Ad[..., :3, :3] = R
    Ad[..., 3:, :3] = skew(T[..., :3, 3]) @ R
    Ad[..., 3:, 3:] = R
    return Ad


def ad(xi):
    """(..., 6, 6) algebra adjoints of twists: [[w^, 0], [rho^, w^]]."""
    xi = np.asarray(xi, dtype=float)
    A = np.zeros(xi.shape[:-1] + (6, 6))
    W = skew(xi[..., :3])
    A[..., :3, :3] = W
    A[..., 3:, 3:] = W
    A[..., 3:, :3] = skew(xi[..., 3:])
    return A


def left_jacobian(xi):
    """Differential of the exponential map at (..., 6) twists ``xi``.

    Closed form: I + c2*O + c3*O^2 + c4*O^3 + c5*O^4 with O = ad(xi) and
    trigonometric coefficients in theta = |w|; equal to the series
    sum_k O^k/(k+1)!.  Taylor fallback below JACOBIAN_SMALL_ANGLE.
    """
    xi = np.asarray(xi, dtype=float)
    theta = np.linalg.norm(xi[..., :3], axis=-1)
    small, t = _branch(theta, JACOBIAN_SMALL_ANGLE)
    t2 = theta * theta
    t4 = t2 * t2
    t6 = t4 * t2
    s, co, T2 = np.sin(t), np.cos(t), t * t
    c2 = np.where(small, 0.5 - t4 / 720.0 + t6 / 20160.0,
                  (4.0 - t * s - 4.0 * co) / (2.0 * T2))
    c3 = np.where(small, 1.0 / 6.0 - t4 / 5040.0 + t6 / 181440.0,
                  (4.0 * t - 5.0 * s + t * co) / (2.0 * T2 * t))
    c4 = np.where(small, 1.0 / 24.0 - t2 / 360.0 + t4 / 13440.0 - t6 / 907200.0,
                  (2.0 - t * s - 2.0 * co) / (2.0 * T2 * T2))
    c5 = np.where(small, 1.0 / 120.0 - t2 / 2520.0 + t4 / 120960.0 - t6 / 9979200.0,
                  (2.0 * t - 3.0 * s + t * co) / (2.0 * T2 * T2 * t))
    c2, c3, c4, c5 = (c[..., None, None] for c in (c2, c3, c4, c5))
    O = ad(xi)
    O2 = O @ O
    return _I6 + c2 * O + c3 * O2 + c4 * (O2 @ O) + c5 * (O2 @ O2)


def joint_jacobian(xi, q):
    """Differential of ``exp(xi^ q)`` with respect to the twist at fixed q.

    Equals q * left_jacobian(q * xi): the series in ad(q*xi) from the
    definite-integral expansion times the chain-rule factor q.  Vanishes
    linearly as q -> 0 (a joint at zero contributes nothing).  Takes
    (..., 6) twists with (...) joint values.
    """
    q = np.asarray(q, dtype=float)
    return q[..., None, None] * left_jacobian(q[..., None] * np.asarray(xi, dtype=float))

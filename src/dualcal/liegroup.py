"""SE(3)/se(3) primitives: hat, exp/log, adjoint and the differential of exp.

Twist convention used everywhere in this package: a twist is a length-6
vector ``[wx, wy, wz, rx, ry, rz]`` with the rotation part first (radians
when exponentiated with a unit joint value) and the translation part in
meters.  A pose is a plain 4x4 numpy array on SE(3).

Kernels are batched: they take ``(..., 6)`` twists or ``(..., 4, 4)``
poses (``(..., 3)``, ``(..., 3, 3)`` for SO(3)) and return one result per
element; a single twist or pose is the empty batch of the same code.  A
call costs about the same for one element as for hundreds, so gather.

The product-of-exponentials chains need two maps of a joint twist xi at
joint value q: the factor ``exp_se3(xi, q)`` = exp(q xi^) and its
differential ``joint_jacobian(xi, q)`` = q J(q xi), which maps additive
twist increments to the left-trivialized derivative,
d exp(q xi^) exp(-q xi^) = (q J(q xi) dxi)^.  Each forms the powers of
hat(xi) or ad(xi) once per twist and takes the joint values, which
broadcast against the twists' batch, only through scalar coefficients;
q defaults to 1, so ``joint_jacobian(xi)`` is the left Jacobian J(xi).
"""

import numpy as np

from .errors import NearPiRotationError

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

POSE_TOL = 1e-9  # is_pose's bound on the Frobenius norm of R^T R - I

_I3, _I4, _I6 = np.eye(3), np.eye(4), np.eye(6)
_E4 = np.array([0.0, 0.0, 0.0, 1.0])  # bottom row of a pose


# The entries of hat(xi) and ad(xi) as indices into [0, xi, -xi]: k reads
# xi[k - 1] and 6 + k reads -xi[k - 1].
_HAT = np.array([[0, 9, 2, 4], [3, 0, 7, 5], [8, 1, 0, 6], [0, 0, 0, 0]])
_AD = np.array([[0, 9, 2, 0, 0, 0], [3, 0, 7, 0, 0, 0], [8, 1, 0, 0, 0, 0],
                [0, 12, 5, 0, 9, 2], [6, 0, 10, 3, 0, 7], [11, 4, 0, 8, 1, 0]])


def _signed_gather(xi, index):
    # one gather, no arithmetic but the sign
    xi = np.asarray(xi, dtype=float)
    return np.concatenate([np.zeros(xi.shape[:-1] + (1,)), xi, -xi], axis=-1)[..., index]


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
    return _signed_gather(xi, _HAT)


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


def is_pose(T):
    """Whether each 4x4 of T (..., 4, 4) is a pose: an orthonormal right-handed
    rotation block and the bottom row [0, 0, 0, 1].  False for other shapes."""
    T = np.asarray(T)
    if T.shape[-2:] != (4, 4):
        return False
    R = T[..., :3, :3]
    ortho = _norm(np.swapaxes(R, -1, -2) @ R - _I3, axis=(-2, -1)) < POSE_TOL
    # the bottom row within np.allclose's default tolerances, at a fraction of its cost
    bottom = (np.abs(T[..., 3, :] - _E4) <= 1e-8 + 1e-5 * _E4).all(axis=-1)
    return ortho & (np.linalg.det(R) > 0) & bottom


def apply_pose(T, points):
    """Transform one point (3,) or a stack of points (N, 3) by a pose, or
    a batch of clouds (..., N, 3) by poses (..., 4, 4)."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        return T[:3, :3] @ p + T[:3, 3]
    out = p @ np.swapaxes(T[..., :3, :3], -1, -2)
    out += T[..., None, :3, 3]
    return out


def _norm(v, axis=-1):
    # np.linalg.norm(v, axis=axis) of real v, bit for bit, without the
    # argument handling that dominates its cost on small batches
    return np.sqrt(np.add.reduce(v * v, axis=axis))


def _branch(theta, threshold):
    # Taylor-branch mask, and theta raised to the threshold where the Taylor
    # branch is taken, so the closed form np.where discards cannot divide by 0
    return theta < threshold, np.maximum(theta, threshold)


def _so3_coeffs(theta):
    # b = (1-cos(t))/t^2, c = (t-sin(t))/t^3, as arrays of theta's shape
    small, t = _branch(theta, SMALL_ANGLE)
    b, c = (1.0 - np.cos(t)) / (t * t), (t - np.sin(t)) / t ** 3
    if small.any():  # the Taylor branch costs nothing when no element takes it
        t2 = theta * theta
        b = np.where(small, 0.5 - t2 / 24.0 + t2 * t2 / 720.0, b)
        c = np.where(small, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0, c)
    return b, c


def exp_se3(xi, q=1.0):
    """Exponential map exp(q xi^) of (..., 6) twists at joint values q
    (default 1), broadcast against the twists' batch: k twists (k, 6) at
    (m, k) joint values give (m, k, 4, 4) poses.

    The cubic I + q Xi + b q^2 Xi^2 + c q^3 Xi^3 with Xi = hat(xi) and
    b, c at theta = |q| |w|: the powers of Xi are formed once per twist
    and q enters only through scalar coefficients.  The sums are
    elementwise, so each element's result does not depend on the rest of
    the batch.  At q = 0 the result is exactly I.
    """
    xi, q = np.asarray(xi, dtype=float), np.asarray(q, dtype=float)
    b, c = _so3_coeffs(np.abs(q) * _norm(xi[..., :3]))
    # coefficient products in theta's shape, before the broadcast to 4x4:
    # for one twist they are numpy scalars, far cheaper than (1, 1) arrays
    q2 = q * q
    k1, k2, k3 = q[..., None, None], (b * q2)[..., None, None], (c * q2 * q)[..., None, None]
    X = hat(xi)
    X2 = X @ X
    return _I4 + k1 * X + k2 * X2 + k3 * (X2 @ X)


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
    theta = _norm(w)
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
    s = 0.5 * _norm(unskew(R - np.swapaxes(R, -1, -2)))
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
    return _signed_gather(xi, _AD)


def _jacobian_coeffs(theta):
    # c2..c5 of the left-Jacobian series in ad(xi), as arrays of theta's shape
    small, t = _branch(theta, JACOBIAN_SMALL_ANGLE)
    s, co, T2 = np.sin(t), np.cos(t), t * t
    ts, tc, d2 = t * s, t * co, 2.0 * T2
    d4 = d2 * T2
    c2 = (4.0 - ts - 4.0 * co) / d2
    c3 = (4.0 * t - 5.0 * s + tc) / (d2 * t)
    c4 = (2.0 - ts - 2.0 * co) / d4
    c5 = (2.0 * t - 3.0 * s + tc) / (d4 * t)
    if small.any():
        t2 = theta * theta
        t4 = t2 * t2
        t6 = t4 * t2
        c2 = np.where(small, 0.5 - t4 / 720.0 + t6 / 20160.0, c2)
        c3 = np.where(small, 1.0 / 6.0 - t4 / 5040.0 + t6 / 181440.0, c3)
        c4 = np.where(small, 1.0 / 24.0 - t2 / 360.0 + t4 / 13440.0 - t6 / 907200.0, c4)
        c5 = np.where(small, 1.0 / 120.0 - t2 / 2520.0 + t4 / 120960.0 - t6 / 9979200.0, c5)
    return c2, c3, c4, c5


def joint_jacobian(xi, q=1.0):
    """Differential q J(q xi) of exp(q xi^) with respect to the (..., 6)
    twists at fixed joint values q (default 1), broadcast as in exp_se3.

    Closed form q (I + c2 q O + c3 q^2 O^2 + c4 q^3 O^3 + c5 q^4 O^4)
    with O = ad(xi) and trigonometric coefficients at theta = |q| |w|;
    equal to the series q sum_k (q O)^k/(k+1)!.  Taylor fallback below
    JACOBIAN_SMALL_ANGLE.  At q = 0 it is exactly 0: a joint at zero
    contributes nothing.
    """
    xi, q = np.asarray(xi, dtype=float), np.asarray(q, dtype=float)
    c2, c3, c4, c5 = _jacobian_coeffs(np.abs(q) * _norm(xi[..., :3]))
    q2 = q * q
    k1, k2, k3 = q[..., None, None], (c2 * q)[..., None, None], (c3 * q2)[..., None, None]
    k4, k5 = (c4 * q2 * q)[..., None, None], (c5 * q2 * q2)[..., None, None]
    O = ad(xi)
    O2 = O @ O
    return k1 * (_I6 + k2 * O + k3 * O2 + k4 * (O2 @ O) + k5 * (O2 @ O2))


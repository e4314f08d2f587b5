"""Tour of the SE(3) kernels: exp/log, adjoint, differential Jacobians.

Twists are [wx, wy, wz, rx, ry, rz] with the rotation part first.
"""

import numpy as np

from dualcal import liegroup as lie

np.set_printoptions(precision=4, suppress=True)

xi = np.array([0.3, -0.2, 0.5, 0.1, 0.0, -0.25])
print("twist xi =", xi)

T = lie.exp_se3(xi)
print("\nexp(xi^) =\n", T)
print("log(exp(xi^)) recovers xi:", np.allclose(lie.log_se3(T), xi, atol=1e-12))

print("\ninverse property: exp(-xi) == exp(xi)^-1 ->",
      np.abs(lie.exp_se3(-xi) - lie.pose_inv(T)).max())

Ad = lie.adjoint(T)
print("\nadjoint block structure [[R, 0], [t^R, R]]; Ad(T1 T2) = Ad(T1) Ad(T2):")
T2 = lie.exp_se3(np.array([0.1, 0.7, -0.3, 0.4, 0.2, 0.0]))
print("  multiplicativity error:",
      np.abs(lie.adjoint(T @ T2) - Ad @ lie.adjoint(T2)).max())

# The differential Jacobian maps additive twist increments to the
# left-trivialized change of the exponential; check it against a central
# finite difference.
rng = np.random.default_rng(0)
d = rng.uniform(-1, 1, 6)
h = 1e-6
M = (lie.exp_se3(xi + h * d) - lie.exp_se3(xi - h * d)) / (2 * h) @ lie.pose_inv(T)
fd = np.concatenate([lie.unskew(0.5 * (M[:3, :3] - M[:3, :3].T)), M[:3, 3]])
an = lie.joint_jacobian(xi) @ d
print("\nleft Jacobian joint_jacobian(xi) vs finite difference:", np.abs(an - fd).max())

# joint version: differential of exp(xi^ q) with respect to xi at fixed q
q = 0.7
Mq = (lie.exp_se3((xi + h * d) * q) - lie.exp_se3((xi - h * d) * q)) / (2 * h) \
    @ lie.pose_inv(lie.exp_se3(xi * q))
fdq = np.concatenate([lie.unskew(0.5 * (Mq[:3, :3] - Mq[:3, :3].T)), Mq[:3, 3]])
anq = lie.joint_jacobian(xi, q) @ d
print("joint_jacobian(xi, q) vs finite difference:", np.abs(anq - fdq).max())

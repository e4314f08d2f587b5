"""Product-of-exponentials forward kinematics and twist perturbation."""

import numpy as np

from dualcal import liegroup as lie
from dualcal.kinematics import default_arm, forward_kinematics, perturb_model
from dualcal.simulate import draw_joint_deltas, level, pose_deviation, sample_configurations

np.set_printoptions(precision=4, suppress=True)

arm = default_arm()
print(f"bundled UR5-like arm: {arm.n} joints")
print("joint twists [w | rho]:\n", arm.joint_twists)
print("zero offset:", arm.zero_offset)

print("\nFK at the zero configuration equals exp(zero_offset):")
print(forward_kinematics(arm, np.zeros(6)))

q = np.array([0.3, -0.8, 1.1, 0.5, -0.4, 0.9])
T = forward_kinematics(arm, q)
print(f"\nFK at q={q}:\n", T)

# kinematic-error simulation: perturb each joint twist multiplicatively
rng = np.random.default_rng(1)
lvl = level("kin", "M")
print(f"\nperturbing at level M (rot_sigma={lvl.rot_sigma:.2e} rad, "
      f"trans_sigma={lvl.trans_sigma:.2e} m)")
perturbed = perturb_model(arm, draw_joint_deltas(arm, lvl, rng))
configs = [qi for qi, _ in sample_configurations(300, 6, rng, d_min=0.0)]
rot, trans = pose_deviation(arm, perturbed, configs)
print(f"induced end-pose deviation over 300 configs: "
      f"{np.degrees(rot.mean()):.3f} deg / {1e3 * trans.mean():.3f} mm "
      f"(published level-M means: 0.264 deg / 1.818 mm)")

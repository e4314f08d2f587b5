"""Cooperative-measuring consistency score r_MEB.

A ball rigidly attached to the tool flange is scanned from several
postures; each sensor-frame cloud is mapped into the tool-flange frame
through the calibrated chain, a sphere is fitted per posture, and the
radius of the minimum enclosing ball of the fitted centers scores the
calibration (smaller = more consistent).
"""

from dataclasses import replace

import numpy as np

from dualcal import liegroup as lie
from dualcal.chain import predict_B
from dualcal.evaluate import ball_consistency
from dualcal.simulate import generate_dataset

rng = np.random.default_rng(3)
ds = generate_dataset(m=10, kin_tag="none", noise_tag="none", seed=3)
system = ds.gt_system
ball_center_E2 = np.array([0.02, -0.01, 0.05])  # fixed in the tool-flange frame
radius = 0.0254

q_a, q_c = ds.samples.q_a, ds.samples.q_c
# sensor-from-flange X^-1 A^-1 Y C of each posture: the chain's B' without its Z
sensor_from_flange = predict_B(system, q_a, q_c) @ lie.pose_inv(system.Z)
clouds = []
for i in range(len(ds.samples)):
    dirs = rng.normal(size=(150, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts_E2 = ball_center_E2 + radius * dirs + rng.normal(0, 2e-5, (150, 3))
    clouds.append(lie.apply_pose(sensor_from_flange[i], pts_E2))
print(f"rendered {len(clouds)} ball clouds (150 pts each, 20 um scan noise)")

result = ball_consistency(system, clouds, q_a, q_c)
print(f"perfect calibration : r_MEB = {1e3 * result.r_meb:.4f} mm, "
      f"fitted radii {1e3 * result.radii.mean():.3f} mm")

for dy_mm in (0.5, 1.0, 2.0):
    Y_bad = system.Y.copy()
    Y_bad[:3, 3] += np.array([dy_mm * 1e-3, 0, 0])
    bad = ball_consistency(replace(system, Y=Y_bad), clouds, q_a, q_c)
    print(f"{dy_mm:.1f} mm base-offset error: r_MEB = {1e3 * bad.r_meb:.4f} mm")
print("\nmiscalibration shows up directly as multi-view inconsistency.")

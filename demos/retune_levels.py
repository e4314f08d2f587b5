"""Re-derive the frozen perturbation/noise level parameters.

The published tables characterize each level by the *induced* pose
deviations, not by generator parameters, so the generator sigmas have to
be calibrated:

* measurement noise: the mean norm of an isotropic Gaussian 3-vector is
  sigma*sqrt(8/pi), so sigma follows analytically from the target mean;
* kinematic perturbations: the end-pose deviation induced by per-joint
  twist increments has no closed form, so the rotation sigma is fitted
  by a fixed-point iteration on a Monte-Carlo estimate of the mean
  rotation deviation, then the translation sigma is fitted the same way
  on the mean translation deviation (the rotation part already induces
  some translation deviation through the lever arms).

Running this script regenerates src/dualcal/assets/levels.json content
and prints it; the shipped file was produced by exactly this procedure.
"""

import json

import numpy as np

from dualcal.kinematics import default_arm, perturb_model
from dualcal.simulate import (MEAN_NORM_FACTOR, Level, draw_joint_deltas, pose_deviation,
                              sample_configurations)

KIN_TARGETS = {  # level: (mean rotation deg, mean translation mm)
    "L": (0.054, 0.417), "ML": (0.103, 1.083), "M": (0.264, 1.818),
    "MH": (0.427, 2.861), "H": (0.692, 5.567), "QH": (1.423, 8.297),
}
NOISE_TARGETS = {
    "L": (0.032, 0.080), "ML": (0.080, 0.160), "M": (0.128, 0.479),
    "MH": (0.160, 0.798), "H": (0.239, 1.277), "QH": (0.319, 1.596),
}


def measure_kin(arm, rot_sigma, trans_sigma, rng, n_pert=48, n_cfg=160):
    """Monte-Carlo mean (rot deg, trans mm) FK deviation at given sigmas."""
    level = Level("probe", rot_sigma, trans_sigma)
    configs = [q for q, _ in sample_configurations(n_cfg, arm.n, rng, d_min=0.0)]
    rots, transs = [], []
    for _ in range(n_pert):
        gt = perturb_model(arm, draw_joint_deltas(arm, level, rng))
        rot, trans = pose_deviation(arm, gt, configs)
        rots.append(rot.mean())
        transs.append(trans.mean())
    return np.degrees(np.mean(rots)), 1e3 * np.mean(transs)


def fit_level(arm, tag, target_rot_deg, target_trans_mm, rng):
    # rotation deviation depends only on the rotation sigma (pose chain
    # rotations never see the translation parts), fit it first
    sigma_r = np.radians(target_rot_deg) / MEAN_NORM_FACTOR / np.sqrt(arm.n)
    for _ in range(4):
        rot, _ = measure_kin(arm, sigma_r, 0.0, rng)
        sigma_r *= target_rot_deg / rot
    rot, trans_base = measure_kin(arm, sigma_r, 0.0, rng)
    # translation sigma on top of the rotation-induced baseline
    residual = max(target_trans_mm - trans_base, 0.05 * target_trans_mm)
    sigma_t = residual / 1e3 / MEAN_NORM_FACTOR / np.sqrt(arm.n)
    for _ in range(4):
        _, trans = measure_kin(arm, sigma_r, sigma_t, rng)
        if trans >= target_trans_mm and trans_base >= target_trans_mm:
            break  # rotation already overshoots; keep sigma_t minimal
        sigma_t *= np.sqrt(max(target_trans_mm ** 2 - trans_base ** 2, (0.02 * target_trans_mm) ** 2)) \
            / max(np.sqrt(max(trans ** 2 - trans_base ** 2, 1e-12)), 1e-9)
    rot, trans = measure_kin(arm, sigma_r, sigma_t, rng, n_pert=64, n_cfg=200)
    print(f"  {tag}: sigma_r={sigma_r:.3e} rad sigma_t={sigma_t:.3e} m -> "
          f"rot {rot:.4f} deg (target {target_rot_deg}), "
          f"trans {trans:.4f} mm (target {target_trans_mm})")
    return sigma_r, sigma_t, rot, trans


def main():
    rng = np.random.default_rng(20260810)
    arm = default_arm()
    levels = {"kin": {}, "noise": {}}
    print("fitting kinematic levels (Monte-Carlo):")
    for tag, (rd, tm) in KIN_TARGETS.items():
        sr, st, rot, trans = fit_level(arm, tag, rd, tm, rng)
        levels["kin"][tag] = {
            "rot_sigma": float(sr), "trans_sigma": float(st),
            "target_rot_deg": rd, "target_trans_mm": tm,
            "achieved_rot_deg": round(float(rot), 5),
            "achieved_trans_mm": round(float(trans), 5),
        }
    print("measurement-noise levels (analytic):")
    for tag, (rd, tm) in NOISE_TARGETS.items():
        sr = float(np.radians(rd) / MEAN_NORM_FACTOR)
        st = float(tm / 1e3 / MEAN_NORM_FACTOR)
        print(f"  {tag}: sigma_r={sr:.4e} rad sigma_t={st:.4e} m")
        levels["noise"][tag] = {
            "rot_sigma": sr, "trans_sigma": st,
            "target_rot_deg": rd, "target_trans_mm": tm,
        }
    print(json.dumps(levels, indent=1))


if __name__ == "__main__":
    main()

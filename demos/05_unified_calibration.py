"""Full pipeline: SDP initialization + unified coordinate/kinematic refinement.

The damped Gauss-Newton stage jointly updates the three coordinate
poses and all 12 joint twists (12n+18 = 90 parameters for two 6-DoF
arms) against the closed-loop error of every sample.  Closed-loop
deviations on held-out samples compare the coordinate-only
initialization against the unified result.
"""

from dataclasses import replace

import numpy as np

from dualcal.evaluate import evaluate_samples
from dualcal.simulate import generate_dataset
from dualcal.solver import calibrate

ds = generate_dataset(m=120, kin_tag="H", noise_tag="M", seed=11)
cal, test = ds.samples[:80], ds.samples[80:]
nominal = ds.nominal_system
print(f"kinematic level H, measurement noise M; {len(cal)} calibration / "
      f"{len(test)} held-out samples")

init, system, trace = calibrate(nominal, cal, tol=1e-8)
print(f"SDP init: eta = {init.eta:.2e}, rank ratio = {init.rank_ratio:.2e}, "
      f"{init.iterations} ADMM iterations (0: the local optimum certified itself)")
print(f"unified refinement: {trace.iterations} iterations, |e| "
      f"{trace.residual_norms[0]:.3e} -> {trace.residual_norms[-1]:.3e}")

rep_init = evaluate_samples(replace(nominal, X=init.X, Y=init.Y, Z=init.Z), test)
rep_unified = evaluate_samples(system, test)
print("\nheld-out closed-loop deviations (mean over 40 samples):")
print(f"  SDP init, nominal kinematics : "
      f"{np.degrees(rep_init.e_rot.mean()):.4f} deg / {1e3 * rep_init.e_trans.mean():.3f} mm")
print(f"  unified joint calibration    : "
      f"{np.degrees(rep_unified.e_rot.mean()):.4f} deg / {1e3 * rep_unified.e_trans.mean():.3f} mm")
print("\nthe unified stage absorbs the kinematic bias that no coordinate-only"
      "\nsolution can compensate; the residual floor is the measurement noise.")

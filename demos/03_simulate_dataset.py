"""Synthetic dual-arm dataset generation.

A dataset is a set of {joint readings, measured tool-in-sensor pose}
samples produced by a ground-truth system whose kinematics deviate from
the nominal model at a chosen level, with leveled measurement noise on
top.
"""

import json

import numpy as np

from dualcal.chain import stack
from dualcal.cli import dataset_to_dict
from dualcal.simulate import generate_dataset, pose_deviation, sample_configurations

ds = generate_dataset(m=40, kin_tag="M", noise_tag="M", seed=42)
print(f"generated {len(ds.samples)} samples, kin level {ds.kin_level}, "
      f"noise level {ds.noise_level}, seed {ds.seed}")
# the ground truth's end-pose deviation from the nominal arms, at random
# configurations of a separate generator
q, _ = sample_configurations(200, ds.nominal_system.n, np.random.default_rng(0))
for name in ("sensor_arm", "tool_arm"):
    rot, trans = pose_deviation(getattr(ds.nominal_system, name), getattr(ds.gt_system, name), q)
    print(f"induced kinematic deviation, {name}: {np.degrees(rot.mean()):.3f} deg / "
          f"{1e3 * trans.mean():.3f} mm (mean over 200 configurations)")

# the ground-truth system fits the noise-free part of the chain; with
# measurement noise the residual at ground truth reflects pure noise
e, _ = stack(ds.gt_system, ds.samples)
print(f"residual at ground truth (pure measurement noise): |e| = {np.linalg.norm(e):.3e}")

e_nom, _ = stack(ds.nominal_system, ds.samples)
print(f"residual at the nominal parameters:               |e| = {np.linalg.norm(e_nom):.3e}")

record = dataset_to_dict(ds)
with open("/tmp/dualcal_demo_dataset.json", "w") as f:
    json.dump(record, f)
print(f"wrote /tmp/dualcal_demo_dataset.json ({len(record['samples'])} samples; "
      "dataset_to_dict(ds, blind=True) omits the ground truth)")

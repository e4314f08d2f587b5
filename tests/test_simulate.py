import json

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal.chain import stack
from dualcal.errors import InfeasibleSamplingError, ValidationError
from dualcal.kinematics import default_arm
from dualcal.simulate import (KinLevel, MEAN_NORM_FACTOR, NoiseLevel,
                              dataset_from_dict, dataset_to_dict, default_system,
                              draw_joint_deltas, generate_dataset, kin_level,
                              level_targets, load_dataset, noise_level,
                              noise_twist, perturb_level, pose_deviation,
                              sample_configurations, save_dataset, synthesize)


def test_levels_available():
    for tag in ("L", "ML", "M", "MH", "H", "QH"):
        k = kin_level(tag)
        n = noise_level(tag)
        assert k.rot_sigma > 0 and k.trans_sigma > 0
        assert n.rot_sigma > 0 and n.trans_sigma > 0
    assert noise_level("none").rot_sigma == 0.0
    with pytest.raises(ValidationError):
        kin_level("XXL")


def test_noise_sigma_matches_analytic_mean():
    # mean norm of N(0, s^2 I3) is s*sqrt(8/pi)
    for tag in ("L", "M", "QH"):
        lvl = noise_level(tag)
        rot_deg, trans_mm = level_targets("noise", tag)
        assert abs(np.degrees(lvl.rot_sigma * MEAN_NORM_FACTOR) - rot_deg) < 1e-9
        assert abs(1e3 * lvl.trans_sigma * MEAN_NORM_FACTOR - trans_mm) < 1e-9


def test_sample_configurations_rules():
    rng = np.random.default_rng(0)
    one = sample_configurations(1, 6, rng)
    assert len(one) == 1
    assert np.abs(one[0][0]).min() >= 0.15
    many = sample_configurations(40, 6, rng, q_min=0.15, d_min=0.3)
    for (qa, qc), (qa2, qc2) in zip(many, many[1:]):
        assert np.abs(qa2 - qa).max() >= 0.3
        assert np.abs(qc2 - qc).max() >= 0.3
    for qa, qc in many:
        assert np.abs(qa).min() >= 0.15 and np.abs(qc).min() >= 0.15


def test_sample_configurations_deterministic():
    a = sample_configurations(80, 6, np.random.default_rng(42))
    b = sample_configurations(80, 6, np.random.default_rng(42))
    for (qa, qc), (qa2, qc2) in zip(a, b):
        assert np.array_equal(qa, qa2) and np.array_equal(qc, qc2)


def test_sample_configurations_infeasible_rules():
    with pytest.raises(InfeasibleSamplingError):
        sample_configurations(5, 6, np.random.default_rng(1), q_min=3.0,
                              max_tries=2000)


def test_perturb_level_zero_sigmas_identity():
    arm_a, arm_c = default_arm("a"), default_arm("c")
    zero = KinLevel("zero", 0.0, 0.0)
    gt_a, gt_c, report = perturb_level(arm_a, arm_c, zero, np.random.default_rng(2),
                                       report_configs=20)
    assert np.array_equal(gt_a.joint_twists, arm_a.joint_twists)
    assert report["rot_mean_deg"] == 0.0
    assert report["trans_mean_mm"] == 0.0


def test_perturb_level_M_matches_published_means():
    arm_a, arm_c = default_arm("a"), default_arm("c")
    rng = np.random.default_rng(3)
    rots, transs = [], []
    for _ in range(12):
        _, _, rep = perturb_level(arm_a, arm_c, kin_level("M"), rng,
                                  report_configs=120)
        rots.append(rep["rot_mean_deg"])
        transs.append(rep["trans_mean_mm"])
    rot_deg, trans_mm = level_targets("kin", "M")
    assert abs(np.mean(rots) - rot_deg) < 0.25 * rot_deg
    assert abs(np.mean(transs) - trans_mm) < 0.25 * trans_mm


def test_synthesize_exact_without_noise():
    system = default_system()
    rng = np.random.default_rng(4)
    configs = sample_configurations(10, 6, rng)
    ds = synthesize(system, system, configs, NoiseLevel("none", 0.0, 0.0), rng)
    e, _ = stack(system, ds.samples)
    assert np.abs(e).max() < 1e-12


def test_noise_level_M_empirical_means():
    rng = np.random.default_rng(5)
    lvl = noise_level("M")
    rots, transs = [], []
    for _ in range(1000):
        d = noise_twist(lvl, rng)
        rots.append(np.linalg.norm(d[:3]))
        transs.append(np.linalg.norm(d[3:]))
    rot_deg, trans_mm = level_targets("noise", "M")
    assert abs(np.degrees(np.mean(rots)) - rot_deg) < 0.25 * rot_deg
    assert abs(1e3 * np.mean(transs) - trans_mm) < 0.25 * trans_mm


def test_generate_dataset_deterministic_bytes(tmp_path):
    ds1 = generate_dataset(15, "M", "M", seed=7)
    ds2 = generate_dataset(15, "M", "M", seed=7)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(ds1, p1)
    save_dataset(ds2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    ds3 = generate_dataset(15, "M", "M", seed=8)
    assert not np.array_equal(ds3.samples.q_a[0], ds1.samples.q_a[0])


def test_dataset_json_roundtrip(tmp_path):
    ds = generate_dataset(6, "L", "L", seed=11)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.seed == ds.seed
    assert back.kin_level == "L" and back.noise_level == "L"
    assert len(back.samples) == 6
    assert np.array_equal(ds.samples.q_a, back.samples.q_a)
    assert np.array_equal(ds.samples.B, back.samples.B)
    assert np.array_equal(back.gt_system.X, ds.gt_system.X)
    assert np.array_equal(back.gt_system.sensor_arm.joint_twists,
                          ds.gt_system.sensor_arm.joint_twists)


def test_blind_export_omits_ground_truth(tmp_path):
    ds = generate_dataset(5, "L", "L", seed=12)
    d = dataset_to_dict(ds, blind=True)
    assert d["gt_system"] is None
    back = dataset_from_dict(d)
    assert back.gt_system is None


def test_residual_zero_at_ground_truth_of_generated_dataset():
    ds = generate_dataset(10, "MH", "none", seed=13)
    e, _ = stack(ds.gt_system, ds.samples)
    assert np.abs(e).max() < 1e-12


def test_noise_applied_right_multiplicatively():
    ds_clean = generate_dataset(8, "M", "none", seed=14)
    ds_noisy = generate_dataset(8, "M", "M", seed=14)
    # same seed, same configs and same kinematic perturbation
    assert np.array_equal(ds_clean.samples.q_a, ds_noisy.samples.q_a)
    d = lie.log_se3(lie.pose_inv(ds_clean.samples.B) @ ds_noisy.samples.B)
    rot = np.linalg.norm(d[:, :3], axis=-1)
    assert ((0 < rot) & (rot < 0.02)).all()

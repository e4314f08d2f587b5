import json

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal import simulate
from dualcal.chain import stack
from dualcal.cli import _dataset_from_dict as dataset_from_dict, dataset_to_dict, load_dataset
from dualcal.errors import CalibrationError, ValidationError
from dualcal.kinematics import RobotModel
from dualcal.simulate import (LEVEL_TAGS, MEAN_NORM_FACTOR, Level, SyntheticDataset, _cross,
                              default_system, draw_joint_deltas, generate_dataset, level,
                              level_targets, noise_twists, perturb_level, sample_configurations,
                              synthesize)
from helpers import level_deviation, loop_joint_deltas, loop_sample_configurations


def test_levels_available():
    for tag in ("L", "ML", "M", "MH", "H", "QH"):
        k = level("kin", tag)
        n = level("noise", tag)
        assert k.rot_sigma > 0 and k.trans_sigma > 0
        assert n.rot_sigma > 0 and n.trans_sigma > 0
    assert level("noise", "none").rot_sigma == 0.0
    with pytest.raises(ValidationError):
        level("kin", "XXL")


def test_noise_sigma_matches_analytic_mean():
    # mean norm of N(0, s^2 I3) is s*sqrt(8/pi)
    for tag in ("L", "M", "QH"):
        lvl = level("noise", tag)
        rot_deg, trans_mm = level_targets("noise", tag)
        assert abs(np.degrees(lvl.rot_sigma * MEAN_NORM_FACTOR) - rot_deg) < 1e-9
        assert abs(1e3 * lvl.trans_sigma * MEAN_NORM_FACTOR - trans_mm) < 1e-9


def test_sample_configurations_rules():
    rng = np.random.default_rng(0)
    q_a, q_c = sample_configurations(1, 6, rng)
    assert q_a.shape == q_c.shape == (1, 6)
    assert np.abs(q_a[0]).min() >= 0.15
    q_a, q_c = sample_configurations(40, 6, rng)
    assert q_a.shape == q_c.shape == (40, 6)
    for q in (q_a, q_c):
        assert np.abs(np.diff(q, axis=0)).max(axis=1).min() >= 0.3
        assert np.abs(q).min() >= 0.15


def test_sample_configurations_refuses_no_configurations():
    with pytest.raises(ValidationError, match=r"^m must be >= 1$"):
        sample_configurations(0, 6, np.random.default_rng(0))


def test_sample_configurations_deterministic():
    a = sample_configurations(80, 6, np.random.default_rng(42))
    b = sample_configurations(80, 6, np.random.default_rng(42))
    for q, q2 in zip(a, b):
        assert np.array_equal(q, q2)


# (q_min, d_min): the defaults, a q_min that rejects most candidates, and two
# spacings that reject often, so that runs of accepted candidates stay short
SAMPLING_RULES = [(0.15, 0.3), (1.0, 0.3), (0.15, 3.0), (0.5, 4.5), (0.0, 0.0)]


@pytest.mark.parametrize("q_min, d_min", SAMPLING_RULES)
@pytest.mark.parametrize("m", [1, 2, 5, 40, 300])
def test_sample_configurations_match_one_at_a_time_draws(monkeypatch, m, q_min, d_min):
    # the block draws give, bitwise, the configurations of drawing a then c
    # per candidate, and leave the generator where those draws do
    monkeypatch.setattr(simulate, "Q_MIN", q_min)
    monkeypatch.setattr(simulate, "D_MIN", d_min)
    for seed in range(8):
        batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
        q_a, q_c = sample_configurations(m, 6, batched)
        ref_a, ref_c = loop_sample_configurations(m, 6, single, q_min, d_min)
        assert q_a.tobytes() == ref_a.tobytes() and q_c.tobytes() == ref_c.tobytes()
        assert batched.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize("seed", range(4))
def test_infeasible_sampling_draws_the_whole_budget(monkeypatch, seed):
    monkeypatch.setattr(simulate, "Q_MIN", 3.1)
    batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.raises(CalibrationError, match=r"^could not draw 3 valid configurations in "
                       r"3000 tries \(q_min=3\.1, d_min=0\.3\)$"):
        sample_configurations(3, 6, batched)
    assert loop_sample_configurations(3, 6, single, q_min=3.1) is None
    assert batched.bit_generator.state == single.bit_generator.state


def tilted_arm():
    """Seven joints whose unit axes and moments are not axis-aligned, so
    that w @ w and the cross products round."""
    rng = np.random.default_rng(31)
    w = rng.normal(size=(7, 3))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return RobotModel("tilted", np.hstack([w, rng.normal(0.0, 0.5, (7, 3))]), np.zeros(6))


@pytest.mark.parametrize("lvl", [*(level("kin", tag) for tag in LEVEL_TAGS), level("kin", "none"),
                                 Level("rot-only", 0.01, 0.0), Level("trans-only", 0.0, 0.002)],
                         ids=lambda lvl: lvl.tag)
def test_draw_joint_deltas_match_per_joint_draws(lvl):
    system = default_system()
    for arm in (system.sensor_arm, system.tool_arm, tilted_arm()):
        for seed in range(8):
            batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
            # bytes, so that a -0.0 where the per-joint draws give 0.0 shows
            assert (draw_joint_deltas(arm, lvl, batched).tobytes()
                    == loop_joint_deltas(arm, lvl, single).tobytes())
            assert batched.bit_generator.state == single.bit_generator.state


def test_cross_matches_numpy_bitwise():
    # rows over sixteen decades, with signed zeros among the components, so
    # that a different rounding or a lost -0.0 shows in the bytes
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 2000, 3)) * 10.0 ** rng.integers(-8, 8, (2, 2000, 1))
    a[rng.random(a.shape) < 0.1] = 0.0
    b[rng.random(b.shape) < 0.1] = -0.0
    assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
    assert _cross(b, a).tobytes() == np.cross(b, a).tobytes()


def test_sample_configurations_infeasible_rules(monkeypatch):
    monkeypatch.setattr(simulate, "Q_MIN", 3.0)
    with pytest.raises(CalibrationError, match=r"^could not draw 5 valid configurations in "
                       r"5000 tries \(q_min=3\.0, d_min=0\.3\)$") as excinfo:
        sample_configurations(5, 6, np.random.default_rng(1))
    assert excinfo.type is CalibrationError


def test_sample_configurations_single_draw_has_no_spacing_rule(monkeypatch):
    monkeypatch.setattr(simulate, "D_MIN", 7.0)
    q_a, q_c = sample_configurations(1, 6, np.random.default_rng(0))
    assert q_a.shape == q_c.shape == (1, 6)


def test_perturb_level_zero_sigmas_identity():
    system = default_system()
    zero = Level("zero", 0.0, 0.0)
    rng = np.random.default_rng(2)
    gt = perturb_level(system, zero, rng)
    assert np.array_equal(gt.sensor_arm.joint_twists, system.sensor_arm.joint_twists)
    assert level_deviation(system, zero, rng, 20) == (0.0, 0.0)


def test_perturb_level_M_matches_published_means():
    system = default_system()
    rng = np.random.default_rng(3)
    rots, transs = zip(*(level_deviation(system, level("kin", "M"), rng, 120)
                         for _ in range(12)))
    rot_deg, trans_mm = level_targets("kin", "M")
    assert abs(np.mean(rots) - rot_deg) < 0.25 * rot_deg
    assert abs(np.mean(transs) - trans_mm) < 0.25 * trans_mm


def test_synthesize_exact_without_noise():
    system = default_system()
    rng = np.random.default_rng(4)
    q_a, q_c = sample_configurations(10, 6, rng)
    samples = synthesize(system, q_a, q_c, Level("none", 0.0, 0.0), rng)
    e, _ = stack(system, samples)
    assert np.abs(e).max() < 1e-12


def test_noise_level_M_empirical_means():
    rng = np.random.default_rng(5)
    d = noise_twists(level("noise", "M"), rng, 1000)
    rots, transs = np.linalg.norm(d[:, :3], axis=1), np.linalg.norm(d[:, 3:], axis=1)
    rot_deg, trans_mm = level_targets("noise", "M")
    assert abs(np.degrees(np.mean(rots)) - rot_deg) < 0.25 * rot_deg
    assert abs(1e3 * np.mean(transs) - trans_mm) < 0.25 * trans_mm


@pytest.mark.parametrize("tag", LEVEL_TAGS)
def test_noise_twists_match_per_sample_draws(tag):
    # one (m, 6) draw consumes the stream of m (rotation, translation) pairs
    lvl = level("noise", tag)
    batched, single = np.random.default_rng(15), np.random.default_rng(15)
    d = noise_twists(lvl, batched, 500)
    pairs = [np.concatenate([single.normal(0, lvl.rot_sigma, 3),
                             single.normal(0, lvl.trans_sigma, 3)]) for _ in range(500)]
    assert np.array_equal(d, np.array(pairs))
    assert batched.bit_generator.state == single.bit_generator.state


def test_generate_dataset_deterministic_bytes():
    ds1 = generate_dataset(15, "M", "M", seed=7)
    ds2 = generate_dataset(15, "M", "M", seed=7)
    assert json.dumps(dataset_to_dict(ds1)) == json.dumps(dataset_to_dict(ds2))
    ds3 = generate_dataset(15, "M", "M", seed=8)
    assert not np.array_equal(ds3.samples.q_a[0], ds1.samples.q_a[0])


def test_generate_dataset_draws_ground_truth_then_configurations_then_noise():
    ds = generate_dataset(12, "M", "M", seed=21)
    rng = np.random.default_rng(21)
    system = default_system()
    gt = perturb_level(system, level("kin", "M"), rng)
    q_a, q_c = sample_configurations(12, system.n, rng)
    samples = synthesize(gt, q_a, q_c, level("noise", "M"), rng)
    expected = SyntheticDataset(system, gt, samples, 21, "M", "M")
    assert json.dumps(dataset_to_dict(ds)) == json.dumps(dataset_to_dict(expected))


def test_dataset_json_roundtrip(tmp_path):
    ds = generate_dataset(6, "L", "L", seed=11)
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(dataset_to_dict(ds)))
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

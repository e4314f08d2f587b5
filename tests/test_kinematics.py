import json

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal.cli import _model_from_dict as model_from_dict, _model_to_dict as model_to_dict
from dualcal.errors import CalibrationError, ValidationError
from dualcal.kinematics import RobotModel, default_arm, forward_kinematics, perturb_model, zero_pose
from helpers import expm_taylor, rand_twist, valid_config


def test_fk_zero_config_is_zero_offset():
    arm = default_arm()
    T = forward_kinematics(arm, np.zeros(6))
    assert np.abs(T - lie.exp_se3(arm.zero_offset)).max() < 1e-15


def test_zero_pose_is_memoized_read_only_exp():
    xi = rand_twist(np.random.default_rng(3), wmax=1.0, rmax=0.5)
    T = zero_pose(xi)
    assert np.array_equal(T, lie.exp_se3(xi))
    assert zero_pose(xi.copy()) is T
    assert zero_pose(-xi) is not T
    assert np.array_equal(zero_pose(-xi), lie.exp_se3(-xi))
    assert not T.flags.writeable


def test_fk_single_revolute_joint():
    model = RobotModel("one", [[0, 0, 1, 0, 0, 0]], np.zeros(6))
    T = forward_kinematics(model, np.array([np.pi / 2]))
    oracle = expm_taylor(lie.hat(np.array([0, 0, np.pi / 2, 0, 0, 0])))
    assert np.abs(T - oracle).max() < 1e-12


def test_fk_matches_series_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        twists = np.array([rand_twist(rng, wmax=1.0, rmax=0.5) for _ in range(4)])
        model = RobotModel("rand", twists, rand_twist(rng, wmax=1.0, rmax=0.5))
        q = rng.uniform(-np.pi, np.pi, 4)
        T = np.eye(4)
        for k in range(4):
            T = T @ expm_taylor(lie.hat(twists[k] * q[k]), 40)
        T = T @ expm_taylor(lie.hat(model.zero_offset), 40)
        assert np.abs(forward_kinematics(model, q) - T).max() < 1e-9


def test_fk_length_mismatch():
    arm = default_arm()
    with pytest.raises(CalibrationError,
                       match=r"^joint vector length \(5,\) does not match n=6$") as excinfo:
        forward_kinematics(arm, np.zeros(5))
    assert excinfo.type is CalibrationError


def test_fk_chain_split_composition():
    arm = default_arm()
    rng = np.random.default_rng(1)
    q = valid_config(rng, 6)
    full = forward_kinematics(arm, q)
    for split in (1, 3, 5):
        head = np.eye(4)
        for k in range(split):
            head = head @ lie.exp_se3(arm.joint_twists[k] * q[k])
        tail_model = RobotModel("tail", arm.joint_twists[split:], arm.zero_offset)
        tail = forward_kinematics(tail_model, q[split:])
        assert np.abs(head @ tail - full).max() < 1e-12


def test_perturb_zero_deltas_identity():
    arm = default_arm()
    out = perturb_model(arm, np.zeros((6, 6)))
    assert np.array_equal(out.joint_twists, arm.joint_twists)
    assert np.array_equal(out.zero_offset, arm.zero_offset)


def test_perturb_commuting_case():
    model = RobotModel("z", [[0, 0, 1, 0, 0, 0]], np.zeros(6))
    delta = np.array([[0, 0, 1e-3, 0, 0, 0]])
    out = perturb_model(model, delta)
    assert np.abs(out.joint_twists[0] - (model.joint_twists[0] + delta[0])).max() < 1e-12


def test_perturb_definitional_oracle():
    rng = np.random.default_rng(2)
    arm = default_arm()
    deltas = rng.normal(0, 1e-3, (6, 6))
    out = perturb_model(arm, deltas)
    for k in range(6):
        lhs = lie.exp_se3(out.joint_twists[k])
        rhs = lie.exp_se3(arm.joint_twists[k]) @ lie.exp_se3(deltas[k])
        assert np.abs(lhs - rhs).max() < 1e-10
    assert np.array_equal(out.zero_offset, arm.zero_offset)


def test_perturb_small_deltas_small_fk_change():
    rng = np.random.default_rng(3)
    arm = default_arm()
    for eps in (1e-4, 1e-3):
        deltas = rng.uniform(-eps, eps, (6, 6))
        out = perturb_model(arm, deltas)
        for _ in range(5):
            q = valid_config(rng, 6)
            d = forward_kinematics(arm, q) - forward_kinematics(out, q)
            assert np.abs(d).max() < 10 * eps * 6


def test_model_json_roundtrip():
    arm = default_arm()
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(arm))))
    assert loaded.name == arm.name
    assert np.array_equal(loaded.joint_twists, arm.joint_twists)
    assert np.array_equal(loaded.zero_offset, arm.zero_offset)


def test_model_schema_validation():
    with pytest.raises(ValidationError):
        model_from_dict({"name": "x", "joint_twists": [[0] * 6], "zero_offset": [0] * 6})
    d = model_to_dict(default_arm())
    d["n"] = 5
    with pytest.raises(ValidationError):
        model_from_dict(d)
    with pytest.raises(ValidationError):
        RobotModel("bad", [[np.inf] * 6], [0] * 6)
    with pytest.raises(ValidationError, match=r"joint_twists must be \(n>=1, 6\), got \(6, 5\)"):
        RobotModel("bad", np.zeros((6, 5)), [0] * 6)
    with pytest.raises(ValidationError, match="zero_offset must be a 6-vector"):
        RobotModel("bad", [[0] * 6], [0] * 5)
    with pytest.raises(CalibrationError, match=r"expected 6 twist deltas, got \(5, 6\)"):
        perturb_model(default_arm(), np.zeros((5, 6)))


def test_default_arm_shape():
    arm = default_arm()
    assert arm.n == 6
    assert arm.joint_twists.shape == (6, 6)
    # all-revolute: unit rotation axes
    assert np.allclose(np.linalg.norm(arm.joint_twists[:, :3], axis=1), 1.0)


def test_default_arm_is_a_fresh_model_per_call():
    # the asset is parsed once per process; a caller's edits stay its own
    arm = default_arm("left")
    arm.joint_twists[0, 0] = 9.0
    arm.zero_offset[:] = 9.0
    again = default_arm()
    assert (arm.name, again.name) == ("left", "ur5_like")
    assert again.joint_twists[0, 0] == 0.0 and not (again.zero_offset == 9.0).any()

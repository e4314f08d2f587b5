import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal.chain import (DualArmSystem, MeasurementSample, identifiability_report,
                           predict_B, residual, stack)
from dualcal.errors import StructureError, ValidationError
from dualcal.kinematics import RobotModel, default_arm, forward_kinematics
from dualcal.simulate import sample_configurations
from helpers import (fd_jacobian_columns, noise_free_samples, toy_system,
                     valid_config)


@pytest.fixture(scope="module")
def gt_system():
    return toy_system()


@pytest.fixture(scope="module")
def samples(gt_system):
    return noise_free_samples(gt_system, np.random.default_rng(0), 12)


def test_predict_trivial_identity():
    n = 3
    arm = RobotModel("zero", np.zeros((n, 6)), np.zeros(6))
    system = DualArmSystem(arm, arm.copy(), np.eye(4), np.eye(4), np.eye(4))
    sample = MeasurementSample(np.array([0.3, -1.0, 2.0]),
                               np.array([1.1, 0.4, -0.7]), np.eye(4))
    assert np.abs(predict_B(system, sample) - np.eye(4)).max() < 1e-15


def test_predict_matches_measurement_on_noise_free(gt_system, samples):
    for s in samples:
        assert np.abs(predict_B(gt_system, s) - s.B_meas).max() < 1e-10


def test_predict_equals_frame_composition(gt_system, samples):
    g = gt_system
    for s in samples:
        A = forward_kinematics(g.sensor_arm, s.q_a)
        C = forward_kinematics(g.tool_arm, s.q_c)
        expect = lie.pose_inv(g.X) @ lie.pose_inv(A) @ g.Y @ C @ g.Z
        assert np.abs(predict_B(gt_system, s) - expect).max() < 1e-12


def test_residual_zero_on_consistent(gt_system, samples):
    for s in samples:
        assert np.abs(residual(gt_system, s)).max() < 1e-12


def test_residual_recovers_injected_twist(gt_system, samples):
    rng = np.random.default_rng(1)
    delta = rng.uniform(-1, 1, 6)
    delta *= 1e-3 / np.linalg.norm(delta)
    s = samples[0]
    Bp = predict_B(gt_system, s)
    bumped = MeasurementSample(s.q_a, s.q_c, lie.exp_se3(-delta) @ Bp)
    assert np.abs(residual(gt_system, bumped) - delta).max() < 1e-9


def test_residual_norm_doubles_with_perturbation(gt_system, samples):
    rng = np.random.default_rng(2)
    d = rng.uniform(-1, 1, gt_system.dim)
    d *= 1e-4 / np.abs(d).max()
    e1, _ = stack(gt_system.apply_delta(d), samples)
    e2, _ = stack(gt_system.apply_delta(2 * d), samples)
    assert abs(np.linalg.norm(e2) / np.linalg.norm(e1) - 2.0) < 0.02


def test_jacobian_x_block_at_identity_X(samples):
    system = toy_system()
    system = DualArmSystem(system.sensor_arm, system.tool_arm, np.eye(4), system.Y, system.Z)
    _, J = stack(system, samples[:1])
    assert np.abs(J[:, :6] + np.eye(6)).max() < 1e-14


def test_jacobian_finite_difference(gt_system):
    rng = np.random.default_rng(3)
    state = gt_system.apply_delta(rng.normal(0, 0.01, gt_system.dim))
    test_samples = noise_free_samples(gt_system, rng, 2)
    _, J = stack(state, test_samples)
    fd = fd_jacobian_columns(state, test_samples)
    scale = np.abs(J).max(axis=0)
    err = np.abs(J - fd).max(axis=0) / np.maximum(scale, 1e-9)
    assert err.max() < 1e-4


def test_jacobian_structural_decomposition_n1():
    rng = np.random.default_rng(4)
    xi_a = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
    xi_c = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    st_a = np.array([0, 0, 0, 0.5, 0, 0.2])
    st_c = np.array([0, 0, 0, -0.3, 0.1, 0])
    xi_x = np.array([0.1, 0.2, -0.1, 0.05, 0.0, 0.02])
    X, Y, Z = lie.exp_se3(np.array([xi_x,
                                    [0.0, 0.3, 1.2, 0.8, -0.2, 0.1],
                                    [-0.2, 0.1, 0.0, 0.0, 0.06, -0.04]]))
    system = DualArmSystem(RobotModel("a", xi_a, st_a), RobotModel("c", xi_c, st_c), X, Y, Z)
    q_a, q_c = np.array([0.9]), np.array([-1.3])
    _, J = stack(system, [MeasurementSample(q_a, q_c, np.eye(4))])
    prefix = (lie.exp_se3(-xi_x) @ lie.exp_se3(-st_a)
              @ lie.exp_se3(-xi_a[0] * q_a[0]) @ Y)
    expect = lie.adjoint(prefix) @ lie.joint_jacobian(xi_c[0], q_c[0])
    assert np.abs(J[:, 24:30] - expect).max() < 1e-13
    # sensor-side block carries the leading minus and a shorter prefix
    prefix_a = lie.exp_se3(-xi_x) @ lie.exp_se3(-st_a)
    expect_a = -lie.adjoint(prefix_a) @ lie.joint_jacobian(-xi_a[0], q_a[0])
    assert np.abs(J[:, 18:24] - expect_a).max() < 1e-13
    # the coordinate blocks are -I, Ad(X^-1 A^-1) and Ad(X^-1 A^-1 Y C)
    A_inv = prefix_a @ lie.exp_se3(-xi_a[0] * q_a[0])
    C = lie.exp_se3(xi_c[0] * q_c[0]) @ lie.exp_se3(st_c)
    assert np.array_equal(J[:, :6], -np.eye(6))
    assert np.abs(J[:, 6:12] - lie.adjoint(A_inv)).max() < 1e-13
    assert np.abs(J[:, 12:18] - lie.adjoint(A_inv @ Y @ C)).max() < 1e-13


def test_stack_identical_samples_identical_rows(gt_system, samples):
    pair = [samples[0], samples[0]]
    e, J = stack(gt_system, pair)
    assert np.array_equal(J[:6], J[6:])
    assert np.array_equal(e[:6], e[6:])


def test_stack_block_extraction(gt_system, samples):
    e, J = stack(gt_system, samples[:5])
    for i in range(5):
        ei, Ji = stack(gt_system, [samples[i]])
        assert np.array_equal(J[6 * i:6 * i + 6], Ji)
        assert np.array_equal(e[6 * i:6 * i + 6], ei)


def test_stack_empty_errors(gt_system):
    with pytest.raises(StructureError):
        stack(gt_system, [])


def test_state_dimensions(gt_system):
    assert gt_system.n == 6
    assert gt_system.dim == 12 * 6 + 18


def test_apply_delta_retracts_poses_and_adds_joint_twists(gt_system):
    rng = np.random.default_rng(5)
    d = rng.uniform(-1, 1, gt_system.dim) * 1e-3
    new = gt_system.apply_delta(d)
    Ex, Ey, Ez = lie.exp_se3(d[:18].reshape(3, 6))
    assert np.array_equal(new.X, gt_system.X @ Ex)
    assert np.array_equal(new.Y, Ey @ gt_system.Y)
    assert np.array_equal(new.Z, Ez @ gt_system.Z)
    for arm, new_arm, dj in ((gt_system.sensor_arm, new.sensor_arm, d[18:54]),
                             (gt_system.tool_arm, new.tool_arm, d[54:])):
        assert new_arm.name == arm.name
        assert np.array_equal(new_arm.joint_twists, arm.joint_twists + dj.reshape(6, 6))
        assert np.array_equal(new_arm.zero_offset, arm.zero_offset)
    with pytest.raises(StructureError):
        gt_system.apply_delta(d[:-1])


def test_apply_delta_at_pi_rotation():
    # facing arms: Y rotates pi about the vertical, where log_se3 refuses;
    # neither the increment nor the chain walk takes a logarithm of Y
    system = toy_system()
    Y = np.diag([-1.0, -1.0, 1.0, 1.0])
    Y[:3, 3] = [1.2, 0.0, 0.0]
    facing = DualArmSystem(system.sensor_arm, system.tool_arm, system.X, Y, system.Z)
    rng = np.random.default_rng(13)
    test_samples = noise_free_samples(facing, rng, 2)
    moved = facing.apply_delta(rng.normal(0, 0.01, facing.dim))
    _, J = stack(moved, test_samples)
    fd = fd_jacobian_columns(moved, test_samples)
    scale = np.abs(J).max(axis=0)
    assert (np.abs(J - fd).max(axis=0) / np.maximum(scale, 1e-9)).max() < 1e-4


def test_identifiability_rank_under_full_excitation(gt_system):
    # The stacked Jacobian always carries an exact 12-dimensional null
    # space: conjugating all of one arm's joint twists by any G in SE(3)
    # is absorbed exactly by the neighbouring coordinate transforms (see
    # test_gauge_orbit_preserves_measurements), 6 directions per arm.
    # Under full excitation the rank therefore saturates at 12n+6, not
    # at the parameter count 12n+18.
    rng = np.random.default_rng(6)
    configs = sample_configurations(80, 6, rng)
    samples80 = []
    for q_a, q_c in configs:
        B = predict_B(gt_system, MeasurementSample(q_a, q_c, np.eye(4)))
        samples80.append(MeasurementSample(q_a, q_c, B))
    _, J = stack(gt_system, samples80)
    rep = identifiability_report(J, samples80)
    assert rep.rank == 12 * 6 + 6
    assert not rep.excitation_violations
    # spectral gap between the excited directions and the gauge orbit
    sv = rep.singular_values
    assert sv[77] > 1e8 * sv[78]
    assert not rep.well_posed  # well_posed demands the full 12n+18


def test_gauge_orbit_preserves_measurements(gt_system, samples):
    # finite gauge transforms that leave every prediction untouched
    G = lie.exp_se3(np.array([0.02, -0.01, 0.03, 0.01, 0.02, -0.015]))
    st = gt_system.copy()
    st.sensor_arm.joint_twists[:] = gt_system.sensor_arm.joint_twists @ lie.adjoint(G).T
    E_a = lie.exp_se3(gt_system.sensor_arm.zero_offset)
    st.X = lie.pose_inv(E_a) @ G @ E_a @ gt_system.X
    st.Y = G @ gt_system.Y
    e, _ = stack(st, samples)
    assert np.abs(e).max() < 1e-12

    H = lie.exp_se3(np.array([-0.015, 0.02, 0.01, -0.02, 0.01, 0.02]))
    st = gt_system.copy()
    st.tool_arm.joint_twists[:] = gt_system.tool_arm.joint_twists @ lie.adjoint(H).T
    st.Y = gt_system.Y @ lie.pose_inv(H)
    E_c = lie.exp_se3(gt_system.tool_arm.zero_offset)
    st.Z = lie.pose_inv(E_c) @ H @ E_c @ gt_system.Z
    e, _ = stack(st, samples)
    assert np.abs(e).max() < 1e-12


def test_identifiability_identical_samples_degenerate(gt_system, samples):
    repeated = [samples[0]] * 20
    _, J = stack(gt_system, repeated)
    rep = identifiability_report(J, repeated)
    assert rep.rank < 90
    assert not rep.well_posed


def test_identifiability_pinned_joint_flagged(gt_system):
    rng = np.random.default_rng(7)
    samples_pinned = []
    for _ in range(30):
        q_a = valid_config(rng, 6)
        q_a[2] = 0.0  # joint 3 of the sensor arm never moves
        q_c = valid_config(rng, 6)
        B = predict_B(gt_system, MeasurementSample(q_a, q_c, np.eye(4)))
        samples_pinned.append(MeasurementSample(q_a, q_c, B))
    _, J = stack(gt_system, samples_pinned)
    rep = identifiability_report(J, samples_pinned)
    flagged = {(v["arm"], v["joint"]) for v in rep.excitation_violations}
    assert ("a", 2) in flagged
    assert not rep.well_posed
    # the pinned joint's twist columns contribute nothing at q=0
    cols = J[:, 18 + 12:18 + 18]
    assert np.abs(cols).max() < 1e-12


def test_system_requires_matching_joint_counts():
    arm6 = default_arm()
    arm3 = RobotModel("three", arm6.joint_twists[:3], arm6.zero_offset)
    with pytest.raises(ValidationError):
        DualArmSystem(arm6, arm3, np.eye(4), np.eye(4), np.eye(4))


def test_forward_kinematics_batched_matches_rows():
    arm = default_arm()
    rng = np.random.default_rng(12)
    q = rng.uniform(-np.pi, np.pi, (7, arm.n))
    q[0] = 0.0
    T = forward_kinematics(arm, q)
    assert T.shape == (7, 4, 4)
    for i in range(len(q)):
        assert np.abs(T[i] - forward_kinematics(arm, q[i])).max() <= 1e-12
    with pytest.raises(StructureError):
        forward_kinematics(arm, q[:, :5])


def test_predict_and_residual_batched_match_single(gt_system, samples):
    B = predict_B(gt_system, samples)
    e = residual(gt_system, samples)
    assert B.shape == (len(samples), 4, 4) and e.shape == (len(samples), 6)
    for i, s in enumerate(samples):
        assert np.abs(B[i] - predict_B(gt_system, s)).max() <= 1e-12
        assert np.abs(e[i] - residual(gt_system, s)).max() <= 1e-12
    assert np.array_equal(e.ravel(), stack(gt_system, samples)[0])

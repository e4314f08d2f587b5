import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal.chain import (CalibrationState, DualArmSystem, MeasurementSample,
                           identifiability_report, predict_B, residual,
                           residual_and_jacobian, stack)
from dualcal.errors import StructureError, ValidationError
from dualcal.kinematics import RobotModel, default_arm, forward_kinematics
from dualcal.simulate import sample_configurations
from helpers import (fd_jacobian_columns, noise_free_samples, toy_system,
                     valid_config)


@pytest.fixture(scope="module")
def gt_state():
    return CalibrationState.from_system(toy_system())


@pytest.fixture(scope="module")
def samples(gt_state):
    return noise_free_samples(gt_state, np.random.default_rng(0), 12)


def test_predict_trivial_identity():
    n = 3
    state = CalibrationState(np.zeros(6), np.zeros(6), np.zeros(6),
                             np.zeros((n, 6)), np.zeros((n, 6)),
                             np.zeros(6), np.zeros(6))
    sample = MeasurementSample(np.array([0.3, -1.0, 2.0]),
                               np.array([1.1, 0.4, -0.7]), np.eye(4))
    assert np.abs(predict_B(state, sample) - np.eye(4)).max() < 1e-15


def test_predict_matches_measurement_on_noise_free(gt_state, samples):
    for s in samples:
        assert np.abs(predict_B(gt_state, s) - s.B_meas).max() < 1e-10


def test_predict_equals_frame_composition(gt_state, samples):
    system = gt_state.to_system()
    for s in samples:
        A = forward_kinematics(system.sensor_arm, s.q_a)
        C = forward_kinematics(system.tool_arm, s.q_c)
        expect = lie.pose_inv(system.X) @ lie.pose_inv(A) @ system.Y @ C @ system.Z
        assert np.abs(predict_B(gt_state, s) - expect).max() < 1e-12


def test_residual_zero_on_consistent(gt_state, samples):
    for s in samples:
        assert np.abs(residual(gt_state, s)).max() < 1e-12


def test_residual_recovers_injected_twist(gt_state, samples):
    rng = np.random.default_rng(1)
    delta = rng.uniform(-1, 1, 6)
    delta *= 1e-3 / np.linalg.norm(delta)
    s = samples[0]
    Bp = predict_B(gt_state, s)
    bumped = MeasurementSample(s.q_a, s.q_c, lie.exp_se3(-delta) @ Bp)
    assert np.abs(residual(gt_state, bumped) - delta).max() < 1e-9


def test_residual_norm_doubles_with_perturbation(gt_state, samples):
    rng = np.random.default_rng(2)
    d = rng.uniform(-1, 1, gt_state.dim)
    d *= 1e-4 / np.abs(d).max()
    e1, _ = stack(gt_state.apply_delta(d), samples)
    e2, _ = stack(gt_state.apply_delta(2 * d), samples)
    assert abs(np.linalg.norm(e2) / np.linalg.norm(e1) - 2.0) < 0.02


def test_jacobian_x_block_at_identity_X(samples):
    system = toy_system()
    state = CalibrationState.from_system(
        DualArmSystem(system.sensor_arm, system.tool_arm, np.eye(4), system.Y, system.Z))
    _, J = stack(state, samples[:1])
    assert np.abs(J[:, :6] + np.eye(6)).max() < 1e-14


def test_jacobian_finite_difference(gt_state):
    rng = np.random.default_rng(3)
    state = gt_state.apply_delta(rng.normal(0, 0.01, gt_state.dim))
    test_samples = noise_free_samples(gt_state, rng, 2)
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
    state = CalibrationState(
        xi_x=np.array([0.1, 0.2, -0.1, 0.05, 0.0, 0.02]),
        xi_y=np.array([0.0, 0.3, 1.2, 0.8, -0.2, 0.1]),
        xi_z=np.array([-0.2, 0.1, 0.0, 0.0, 0.06, -0.04]),
        joints_a=xi_a, joints_c=xi_c, xi_st_a=st_a, xi_st_c=st_c)
    q_a, q_c = np.array([0.9]), np.array([-1.3])
    _, J = stack(state, [MeasurementSample(q_a, q_c, np.eye(4))])
    prefix = (lie.exp_se3(-state.xi_x) @ lie.exp_se3(-st_a)
              @ lie.exp_se3(-xi_a[0] * q_a[0]) @ lie.exp_se3(state.xi_y))
    expect = lie.adjoint(prefix) @ lie.joint_jacobian(xi_c[0], q_c[0])
    assert np.abs(J[:, 24:30] - expect).max() < 1e-13
    # sensor-side block carries the leading minus and a shorter prefix
    prefix_a = lie.exp_se3(-state.xi_x) @ lie.exp_se3(-st_a)
    expect_a = -lie.adjoint(prefix_a) @ lie.joint_jacobian(-xi_a[0], q_a[0])
    assert np.abs(J[:, 18:24] - expect_a).max() < 1e-13


def test_stack_single_sample(gt_state, samples):
    e, J = stack(gt_state, samples[:1])
    ei, jac = residual_and_jacobian(gt_state, samples[0])
    assert np.array_equal(e, ei)
    assert np.array_equal(J, jac.full)


def test_stack_identical_samples_identical_rows(gt_state, samples):
    pair = [samples[0], samples[0]]
    e, J = stack(gt_state, pair)
    assert np.array_equal(J[:6], J[6:])
    assert np.array_equal(e[:6], e[6:])


def test_stack_block_extraction(gt_state, samples):
    e, J = stack(gt_state, samples[:5])
    for i in range(5):
        ei, jac = residual_and_jacobian(gt_state, samples[i])
        assert np.array_equal(J[6 * i:6 * i + 6], jac.full)
        assert np.array_equal(e[6 * i:6 * i + 6], ei)


def test_stack_empty_errors(gt_state):
    with pytest.raises(StructureError):
        stack(gt_state, [])


def test_state_dimensions(gt_state):
    assert gt_state.n == 6
    assert gt_state.dim == 12 * 6 + 18
    assert gt_state.pack().shape == (90,)


def test_apply_delta_modes_agree_to_first_order(gt_state):
    # multiplicative vs additive updates differ by the BCH correction,
    # which is first order in the increment with a coefficient set by the
    # block twist itself: |mult - add - (Jr^-1 - I) d| = O(|d|^2).
    rng = np.random.default_rng(5)
    d = rng.uniform(-1, 1, gt_state.dim) * 1e-4
    add = gt_state.apply_delta(d, "additive")
    mul = gt_state.apply_delta(d, "multiplicative")
    for i, (xi, xa, xm) in enumerate(zip(gt_state.blocks(), add.blocks(), mul.blocks())):
        db = d[6 * i: 6 * i + 6]
        jr_inv_d = np.linalg.solve(lie.left_jacobian(-xi), db)
        assert np.abs(xm - (xi + jr_inv_d)).max() < 10 * np.abs(db).max() ** 2
        assert np.abs(xm - xa).max() <= 2 * np.linalg.norm(xi) * np.abs(db).max() + 1e-12


def test_apply_delta_multiplicative_matches_group_product(gt_state):
    rng = np.random.default_rng(11)
    d = rng.uniform(-1, 1, gt_state.dim) * 1e-3
    mul = gt_state.apply_delta(d, "multiplicative")
    for i, (xi, xm) in enumerate(zip(gt_state.blocks(), mul.blocks())):
        expect = lie.exp_se3(xi) @ lie.exp_se3(d[6 * i: 6 * i + 6])
        assert np.abs(lie.exp_se3(xm) - expect).max() < 1e-10


def test_identifiability_rank_under_full_excitation(gt_state):
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
        B = predict_B(gt_state, MeasurementSample(q_a, q_c, np.eye(4)))
        samples80.append(MeasurementSample(q_a, q_c, B))
    _, J = stack(gt_state, samples80)
    rep = identifiability_report(J, samples80)
    assert rep.rank == 12 * 6 + 6
    assert not rep.excitation_violations
    # spectral gap between the excited directions and the gauge orbit
    sv = rep.singular_values
    assert sv[77] > 1e8 * sv[78]
    assert not rep.well_posed  # well_posed demands the full 12n+18


def test_gauge_orbit_preserves_measurements(gt_state, samples):
    # finite gauge transforms that leave every prediction untouched
    G = lie.exp_se3(np.array([0.02, -0.01, 0.03, 0.01, 0.02, -0.015]))
    st = gt_state.copy()
    for k in range(st.n):
        st.joints_a[k] = lie.adjoint(G) @ gt_state.joints_a[k]
    E_a = lie.exp_se3(gt_state.xi_st_a)
    st.xi_x = -lie.log_se3(lie.exp_se3(-gt_state.xi_x) @ lie.pose_inv(E_a)
                           @ lie.pose_inv(G) @ E_a)
    st.xi_y = lie.log_se3(G @ lie.exp_se3(gt_state.xi_y))
    e, _ = stack(st, samples)
    assert np.abs(e).max() < 1e-12

    H = lie.exp_se3(np.array([-0.015, 0.02, 0.01, -0.02, 0.01, 0.02]))
    st = gt_state.copy()
    for k in range(st.n):
        st.joints_c[k] = lie.adjoint(H) @ gt_state.joints_c[k]
    st.xi_y = lie.log_se3(lie.exp_se3(gt_state.xi_y) @ lie.pose_inv(H))
    E_c = lie.exp_se3(gt_state.xi_st_c)
    st.xi_z = lie.log_se3(lie.pose_inv(E_c) @ H @ E_c @ lie.exp_se3(gt_state.xi_z))
    e, _ = stack(st, samples)
    assert np.abs(e).max() < 1e-12


def test_identifiability_identical_samples_degenerate(gt_state, samples):
    repeated = [samples[0]] * 20
    _, J = stack(gt_state, repeated)
    rep = identifiability_report(J, repeated)
    assert rep.rank < 90
    assert not rep.well_posed


def test_identifiability_pinned_joint_flagged(gt_state):
    rng = np.random.default_rng(7)
    samples_pinned = []
    for _ in range(30):
        q_a = valid_config(rng, 6)
        q_a[2] = 0.0  # joint 3 of the sensor arm never moves
        q_c = valid_config(rng, 6)
        B = predict_B(gt_state, MeasurementSample(q_a, q_c, np.eye(4)))
        samples_pinned.append(MeasurementSample(q_a, q_c, B))
    _, J = stack(gt_state, samples_pinned)
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


def test_predict_and_residual_batched_match_single(gt_state, samples):
    B = predict_B(gt_state, samples)
    e = residual(gt_state, samples)
    assert B.shape == (len(samples), 4, 4) and e.shape == (len(samples), 6)
    for i, s in enumerate(samples):
        assert np.abs(B[i] - predict_B(gt_state, s)).max() <= 1e-12
        assert np.abs(e[i] - residual(gt_state, s)).max() <= 1e-12
    assert np.array_equal(e.ravel(), stack(gt_state, samples)[0])

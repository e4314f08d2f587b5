import copy
import re

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal.chain import (_WALK_CHUNK, DualArmSystem, Measurements, identifiability_report,
                           predict_B, residual, stack)
from dualcal.errors import CalibrationError, ValidationError
from dualcal.kinematics import RobotModel, default_arm, forward_kinematics
from dualcal.simulate import default_system, sample_configurations
from helpers import fd_jacobian_columns, noise_free_samples, valid_config


@pytest.fixture(scope="module")
def gt_system():
    return default_system()


@pytest.fixture(scope="module")
def samples(gt_system):
    return noise_free_samples(gt_system, np.random.default_rng(0), 12)


@pytest.fixture(scope="module")
def facing():
    # facing arms: Y rotates pi about the vertical, where log_se3 refuses
    system = default_system()
    Y = np.diag([-1.0, -1.0, 1.0, 1.0])
    Y[:3, 3] = [1.2, 0.0, 0.0]
    return DualArmSystem(system.sensor_arm, system.tool_arm, system.X, Y, system.Z)


def test_predict_trivial_identity():
    n = 3
    arm = RobotModel("zero", np.zeros((n, 6)), np.zeros(6))
    system = DualArmSystem(arm, copy.deepcopy(arm), np.eye(4), np.eye(4), np.eye(4))
    B = predict_B(system, np.array([[0.3, -1.0, 2.0]]), np.array([[1.1, 0.4, -0.7]]))
    assert np.abs(B - np.eye(4)).max() < 1e-15


def test_predict_matches_measurement_on_noise_free(gt_system, samples):
    assert np.abs(predict_B(gt_system, samples.q_a, samples.q_c) - samples.B).max() < 1e-10


def test_predict_equals_frame_composition(gt_system, samples):
    g = gt_system
    B = predict_B(gt_system, samples.q_a, samples.q_c)
    for i in range(len(samples)):
        A = forward_kinematics(g.sensor_arm, samples.q_a[i])
        C = forward_kinematics(g.tool_arm, samples.q_c[i])
        expect = lie.pose_inv(g.X) @ lie.pose_inv(A) @ g.Y @ C @ g.Z
        assert np.abs(B[i] - expect).max() < 1e-12


def test_residual_zero_on_consistent(gt_system, samples):
    assert np.abs(residual(gt_system, samples)).max() < 1e-12


def test_residual_recovers_injected_twist(gt_system, samples):
    rng = np.random.default_rng(1)
    delta = rng.uniform(-1, 1, 6)
    delta *= 1e-3 / np.linalg.norm(delta)
    s = samples[:1]
    Bp = predict_B(gt_system, s.q_a, s.q_c)
    bumped = Measurements(s.q_a, s.q_c, lie.exp_se3(-delta) @ Bp)
    assert np.abs(residual(gt_system, bumped)[0] - delta).max() < 1e-9


def test_residual_norm_doubles_with_perturbation(gt_system, samples):
    rng = np.random.default_rng(2)
    d = rng.uniform(-1, 1, gt_system.dim)
    d *= 1e-4 / np.abs(d).max()
    e1, _ = stack(gt_system.apply_delta(d), samples)
    e2, _ = stack(gt_system.apply_delta(2 * d), samples)
    assert abs(np.linalg.norm(e2) / np.linalg.norm(e1) - 2.0) < 0.02


def test_jacobian_x_block_at_identity_X(samples):
    system = default_system()
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
    _, J = stack(system, Measurements(q_a[None], q_c[None],
                                      predict_B(system, q_a[None], q_c[None])))
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


def test_joint_blocks_are_prefix_adjoint_times_differential_across_chunks(facing):
    # facing arms, more samples than two walk chunks and one joint at zero:
    # every joint block is Ad(prefix) qJ(q xi), the prefix composed here
    # factor by factor from exp_se3
    rng = np.random.default_rng(15)
    m, n = 2 * _WALK_CHUNK + 3, facing.n
    q_a = rng.uniform(-np.pi, np.pi, (m, n))
    q_c = rng.uniform(-np.pi, np.pi, (m, n))
    zero = _WALK_CHUNK + 1  # its tool joint c^3 sits at zero
    q_c[zero, 2] = 0.0
    _, J = stack(facing, Measurements(q_a, q_c, predict_B(facing, q_a, q_c)))
    xi_a, xi_c = facing.sensor_arm.joint_twists, facing.tool_arm.joint_twists
    for i in range(m):
        rows = J[6 * i:6 * i + 6]
        blocks = []  # (column, prefix, differential) in chain order
        P = lie.pose_inv(facing.X) @ lie.exp_se3(-facing.sensor_arm.zero_offset)
        for k in range(n - 1, -1, -1):
            blocks.append((18 + 6 * k, P, lie.joint_jacobian(xi_a[k], -q_a[i, k])))
            P = P @ lie.exp_se3(xi_a[k], -q_a[i, k])
        P = P @ facing.Y
        for k in range(n):
            blocks.append((18 + 6 * (n + k), P, lie.joint_jacobian(xi_c[k], q_c[i, k])))
            P = P @ lie.exp_se3(xi_c[k], q_c[i, k])
        for col, prefix, diff in blocks:
            expect = lie.adjoint(prefix) @ diff
            err = np.abs(rows[:, col:col + 6] - expect).max()
            assert err <= 1e-13 * max(1.0, np.abs(expect).max()), (i, col, err)
    col = 18 + 6 * (n + 2)
    assert not J[6 * zero:6 * zero + 6, col:col + 6].any()


def test_stack_identical_samples_identical_rows(gt_system, samples):
    pair = samples[[0, 0]]
    e, J = stack(gt_system, pair)
    assert np.array_equal(J[:6], J[6:])
    assert np.array_equal(e[:6], e[6:])


def test_stack_block_extraction(gt_system, samples):
    e, J = stack(gt_system, samples[:5])
    for i in range(5):
        ei, Ji = stack(gt_system, samples[i:i + 1])
        assert np.array_equal(J[6 * i:6 * i + 6], Ji)
        assert np.array_equal(e[6 * i:6 * i + 6], ei)


def test_rows_bitwise_equal_single_sample_calls_across_chunks(gt_system):
    # more samples than two walk chunks: every row equals its own call, bit for bit
    rng = np.random.default_rng(14)
    m = 2 * _WALK_CHUNK + 3
    q_a = rng.uniform(-np.pi, np.pi, (m, 6))
    q_c = rng.uniform(-np.pi, np.pi, (m, 6))
    q_a[5] = 0.0
    many = Measurements(q_a, q_c, predict_B(gt_system, q_a, q_c))
    e, J = stack(gt_system, many)
    T = forward_kinematics(gt_system.sensor_arm, q_a)
    for i in range(m):
        ei, Ji = stack(gt_system, many[i:i + 1])
        assert np.array_equal(J[6 * i:6 * i + 6], Ji), i
        assert np.array_equal(e[6 * i:6 * i + 6], ei), i
        assert np.array_equal(T[i], forward_kinematics(gt_system.sensor_arm, q_a[i])), i


def test_stack_empty_errors(gt_system, samples):
    with pytest.raises(CalibrationError, match=r"^need at least one sample: q_a must be "
                       r"\(m, n\) with m >= 1$") as excinfo:
        stack(gt_system, samples[:0])
    assert excinfo.type is CalibrationError


def test_measurements_select_and_validate(gt_system, samples):
    for index in (slice(2, 7), np.array([5, 0, 5]), np.arange(12) % 3 == 0):
        sub = samples[index]
        assert isinstance(sub, Measurements)
        for name in ("q_a", "q_c", "B"):
            assert np.array_equal(getattr(sub, name), getattr(samples, name)[index])
    assert len(samples) == 12 and len(samples[2:7]) == 5
    with pytest.raises(TypeError):
        iter(samples)  # no per-sample objects
    q_a, q_c, B = samples.q_a, samples.q_c, samples.B
    for args in ((q_a, q_c[:-1], B), (q_a, q_c, B[:-1]),  # length mismatch
                 (q_a, q_c[:, :5], B), (q_a[:, :5], q_c, B)):  # wrong joint count
        message = "q_c {1} and B {2} do not match q_a {0}: need (m, n) and (m, 4, 4)".format(
            *(a.shape for a in args))
        with pytest.raises(CalibrationError, match=f"^{re.escape(message)}$") as excinfo:
            Measurements(*args)
        assert excinfo.type is CalibrationError
    with pytest.raises(CalibrationError,  # the system's joint count
                       match="^joint readings do not match the system's joint count$") as excinfo:
        predict_B(gt_system, q_a[:, :5], q_c[:, :5])
    assert excinfo.type is CalibrationError
    bad = B.copy()
    bad[[9, 4], :3, :3] *= 1.5
    with pytest.raises(ValidationError, match=r"^samples\[4\]\.B is not a valid pose$"):
        Measurements(q_a, q_c, bad)


def test_measurements_reject_non_finite_joint_readings(samples):
    for name in ("q_a", "q_c"):
        for value in (np.nan, np.inf, -np.inf):
            fields = {"q_a": samples.q_a.copy(), "q_c": samples.q_c.copy(), "B": samples.B}
            fields[name][[9, 4], 2] = value
            with pytest.raises(ValidationError,
                               match=rf"^samples\[4\]\.{name} has a non-finite value$"):
                Measurements(**fields)


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
    message = f"^delta must have length {gt_system.dim}$"
    with pytest.raises(CalibrationError, match=message) as excinfo:
        gt_system.apply_delta(d[:-1])
    assert excinfo.type is CalibrationError


def test_apply_delta_at_pi_rotation(facing):
    # neither the increment nor the chain walk takes a logarithm of Y
    rng = np.random.default_rng(13)
    test_samples = noise_free_samples(facing, rng, 2)
    moved = facing.apply_delta(rng.normal(0, 0.01, facing.dim))
    _, J = stack(moved, test_samples)
    fd = fd_jacobian_columns(moved, test_samples)
    scale = np.abs(J).max(axis=0)
    assert (np.abs(J - fd).max(axis=0) / np.maximum(scale, 1e-9)).max() < 1e-4


@pytest.fixture(scope="module")
def full_excitation_report(gt_system):
    rng = np.random.default_rng(6)
    q_a, q_c = sample_configurations(80, 6, rng)
    return identifiability_report(gt_system, Measurements(q_a, q_c, predict_B(gt_system, q_a, q_c)))


def test_identifiability_rank_under_full_excitation(full_excitation_report):
    # The stacked Jacobian always carries an exact 12-dimensional null
    # space: conjugating all of one arm's joint twists by any G in SE(3)
    # is absorbed exactly by the neighbouring coordinate transforms (see
    # test_gauge_orbit_preserves_measurements), 6 directions per arm.
    # Under full excitation the rank therefore saturates at 12n+6, not
    # at the parameter count 12n+18.
    rep = full_excitation_report
    assert rep.rank == 12 * 6 + 6
    assert not rep.excitation_violations
    # spectral gap between the excited directions and the gauge orbit
    sv = rep.singular_values
    assert sv[77] > 1e8 * sv[78]
    assert not rep.well_posed  # well_posed demands the full 12n+18


def test_identifiability_rank_counts_singular_values_above_threshold(full_excitation_report):
    rep = full_excitation_report
    sv = rep.singular_values
    assert rep.rank == np.sum(sv > rep.threshold) == 78


def test_gauge_orbit_preserves_measurements(gt_system, samples):
    # finite gauge transforms that leave every prediction untouched
    G = lie.exp_se3(np.array([0.02, -0.01, 0.03, 0.01, 0.02, -0.015]))
    st = copy.deepcopy(gt_system)
    st.sensor_arm.joint_twists[:] = gt_system.sensor_arm.joint_twists @ lie.adjoint(G).T
    E_a = lie.exp_se3(gt_system.sensor_arm.zero_offset)
    st.X = lie.pose_inv(E_a) @ G @ E_a @ gt_system.X
    st.Y = G @ gt_system.Y
    e, _ = stack(st, samples)
    assert np.abs(e).max() < 1e-12

    H = lie.exp_se3(np.array([-0.015, 0.02, 0.01, -0.02, 0.01, 0.02]))
    st = copy.deepcopy(gt_system)
    st.tool_arm.joint_twists[:] = gt_system.tool_arm.joint_twists @ lie.adjoint(H).T
    st.Y = gt_system.Y @ lie.pose_inv(H)
    E_c = lie.exp_se3(gt_system.tool_arm.zero_offset)
    st.Z = lie.pose_inv(E_c) @ H @ E_c @ gt_system.Z
    e, _ = stack(st, samples)
    assert np.abs(e).max() < 1e-12


def test_identifiability_identical_samples_degenerate(gt_system, samples):
    repeated = samples[np.zeros(20, dtype=int)]
    rep = identifiability_report(gt_system, repeated)
    assert rep.rank < 90
    assert not rep.well_posed


def test_identifiability_with_fewer_rows_than_parameters(gt_system, samples):
    few = samples[:10]  # 60 rows for 90 parameters
    rep = identifiability_report(gt_system, few)
    assert len(rep.singular_values) == 60
    assert rep.rank <= 60
    assert rep.condition_number == float("inf")
    assert not rep.well_posed


def test_identifiability_pinned_joint_flagged(gt_system):
    rng = np.random.default_rng(7)
    pairs = np.array([[valid_config(rng, 6), valid_config(rng, 6)] for _ in range(30)])
    q_a, q_c = pairs[:, 0], pairs[:, 1]
    q_a[:, 2] = 0.0  # joint 3 of the sensor arm never moves
    samples_pinned = Measurements(q_a, q_c, predict_B(gt_system, q_a, q_c))
    _, J = stack(gt_system, samples_pinned)
    rep = identifiability_report(gt_system, samples_pinned)
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
    with pytest.raises(CalibrationError,
                       match=r"^joint vector length \(7, 5\) does not match n=6$") as excinfo:
        forward_kinematics(arm, q[:, :5])
    assert excinfo.type is CalibrationError


def test_predict_and_residual_batched_match_single(gt_system, samples):
    B = predict_B(gt_system, samples.q_a, samples.q_c)
    e = residual(gt_system, samples)
    assert B.shape == (len(samples), 4, 4) and e.shape == (len(samples), 6)
    for i in range(len(samples)):
        s = samples[i:i + 1]
        assert np.abs(B[i] - predict_B(gt_system, s.q_a, s.q_c)[0]).max() <= 1e-12
        assert np.abs(e[i] - residual(gt_system, s)[0]).max() <= 1e-12
    assert np.array_equal(e.ravel(), stack(gt_system, samples)[0])

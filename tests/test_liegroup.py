import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal.errors import NearPiRotationError
from helpers import dexp_taylor, expm_taylor, rand_twist


def test_hat_zero():
    assert np.all(lie.hat(np.zeros(6)) == 0)


def test_hat_unit_z():
    H = lie.hat(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
    expect = np.zeros((4, 4))
    expect[0, 1] = -1.0
    expect[1, 0] = 1.0
    assert np.array_equal(H, expect)


def test_exp_zero_is_identity():
    assert np.allclose(lie.exp_se3(np.zeros(6)), np.eye(4), atol=0)


def test_exp_quarter_turn_z():
    T = lie.exp_se3(np.array([0.0, 0.0, np.pi / 2, 0.0, 0.0, 0.0]))
    oracle = expm_taylor(lie.hat(np.array([0, 0, np.pi / 2, 0, 0, 0])))
    assert np.abs(T - oracle).max() < 1e-12
    assert np.allclose(T[:3, :3], [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)


def test_exp_matches_taylor_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        xi = rand_twist(rng, wmax=np.pi - 0.05)
        T = lie.exp_se3(xi)
        assert np.abs(T - expm_taylor(lie.hat(xi))).max() < 1e-10
        R = T[:3, :3]
        assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12
        assert np.abs(lie.exp_se3(-xi) - lie.pose_inv(T)).max() < 1e-12


def test_log_identity():
    assert np.all(lie.log_se3(np.eye(4)) == 0)


def test_log_exp_roundtrip():
    xi = np.array([0.1, -0.2, 0.3, 0.4, 0.5, -0.6])
    assert np.abs(lie.log_se3(lie.exp_se3(xi)) - xi).max() < 1e-10


def test_log_pure_translation():
    T = lie.make_pose(np.eye(3), [1.0, 2.0, 3.0])
    assert np.allclose(lie.log_se3(T), [0, 0, 0, 1, 2, 3], atol=1e-15)


def test_log_near_pi_errors():
    T = lie.exp_se3(np.array([np.pi - 1e-8, 0, 0, 0.1, 0, 0]))
    with pytest.raises(NearPiRotationError):
        lie.log_se3(T)


def test_exp_log_roundtrip_sampled():
    rng = np.random.default_rng(2)
    for _ in range(500):
        xi = rand_twist(rng, wmax=np.pi - 0.01)
        assert np.abs(lie.log_se3(lie.exp_se3(xi)) - xi).max() < 1e-9


def test_adjoint_identity():
    assert np.array_equal(lie.adjoint(np.eye(4)), np.eye(6))


def test_adjoint_block_structure():
    T = lie.make_pose(np.eye(3), [1.0, 0.0, 0.0])
    Ad = lie.adjoint(T)
    assert np.array_equal(Ad[:3, :3], np.eye(3))
    assert np.array_equal(Ad[3:, 3:], np.eye(3))
    assert np.array_equal(Ad[3:, :3], lie.skew([1.0, 0.0, 0.0]))
    assert np.all(Ad[:3, 3:] == 0)


def test_adjoint_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T1 = lie.exp_se3(rand_twist(rng))
        T2 = lie.exp_se3(rand_twist(rng))
        assert np.abs(lie.adjoint(T1 @ T2) - lie.adjoint(T1) @ lie.adjoint(T2)).max() < 1e-10


def test_adjoint_exp_commutation():
    # Ad(exp(xi^)) equals the exponential of the 6x6 algebra adjoint
    rng = np.random.default_rng(4)
    for _ in range(50):
        xi = rand_twist(rng, wmax=2.0)
        assert np.abs(lie.adjoint(lie.exp_se3(xi)) - expm_taylor(lie.ad(xi), 40)).max() < 1e-8


def _fd_dexp(xi, d, h=1e-6):
    Tp = lie.exp_se3(xi + h * d)
    Tm = lie.exp_se3(xi - h * d)
    M = (Tp - Tm) / (2 * h) @ lie.pose_inv(lie.exp_se3(xi))
    return np.concatenate([lie.unskew(0.5 * (M[:3, :3] - M[:3, :3].T)), M[:3, 3]])


def test_left_jacobian_at_zero():
    assert np.array_equal(lie.joint_jacobian(np.zeros(6)), np.eye(6))


def test_left_jacobian_finite_difference():
    rng = np.random.default_rng(5)
    for _ in range(200):
        xi = rand_twist(rng, wmax=2.5)
        d = rng.uniform(-1, 1, 6)
        an = lie.joint_jacobian(xi) @ d
        fd = _fd_dexp(xi, d)
        assert np.abs(an - fd).max() <= 1e-5 * max(1.0, np.abs(an).max())


def test_left_jacobian_matches_series_at_tiny_angle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        xi = rand_twist(rng, wmax=1.0)
        xi[:3] *= 1e-9 / max(np.linalg.norm(xi[:3]), 1e-300)
        assert np.abs(lie.joint_jacobian(xi) - dexp_taylor(lie.ad(xi), 10)).max() < 1e-10


def test_left_jacobian_branch_seam_consistency():
    # closed form just above the threshold vs Taylor fallback just below
    rng = np.random.default_rng(7)
    for _ in range(20):
        xi = rand_twist(rng, wmax=1.0)
        w = xi[:3] / max(np.linalg.norm(xi[:3]), 1e-300)
        above = xi.copy()
        above[:3] = w * (lie.JACOBIAN_SMALL_ANGLE * (1 + 1e-12))
        below = xi.copy()
        below[:3] = w * (lie.JACOBIAN_SMALL_ANGLE * (1 - 1e-12))
        assert np.abs(lie.joint_jacobian(above) - lie.joint_jacobian(below)).max() < 1e-10


def test_joint_jacobian_zero_motion_limit():
    rng = np.random.default_rng(8)
    xi = rand_twist(rng)
    d = rng.uniform(-1, 1, 6)
    out = lie.joint_jacobian(xi, 1e-12) @ d
    assert np.abs(out).max() < 1e-11


def test_joint_jacobian_finite_difference():
    rng = np.random.default_rng(9)
    q = 0.7
    for _ in range(200):
        xi = rand_twist(rng, wmax=2.0)
        d = rng.uniform(-1, 1, 6)
        an = lie.joint_jacobian(xi, q) @ d
        h = 1e-6
        Tp = lie.exp_se3((xi + h * d) * q)
        Tm = lie.exp_se3((xi - h * d) * q)
        M = (Tp - Tm) / (2 * h) @ lie.pose_inv(lie.exp_se3(xi * q))
        fd = np.concatenate([lie.unskew(0.5 * (M[:3, :3] - M[:3, :3].T)), M[:3, 3]])
        assert np.abs(an - fd).max() <= 1e-5 * max(1.0, np.abs(an).max())


def test_prismatic_twist_supported():
    # zero rotation part goes through the series fallback
    xi = np.array([0.0, 0.0, 0.0, 0.3, -0.2, 0.5])
    T = lie.exp_se3(xi)
    assert np.allclose(T[:3, 3], xi[3:], atol=1e-15)
    J = lie.joint_jacobian(xi)
    d = np.array([0.1, 0.2, 0.3, -0.1, 0.05, 0.0])
    assert np.abs(J @ d - _fd_dexp(xi, d)).max() < 1e-5


def _mixed_batch():
    # rotation angles on both sides of every branch seam, plus 0 and near pi
    thetas = [0.0, 1e-7, lie.SMALL_ANGLE * (1 - 1e-9), lie.SMALL_ANGLE * (1 + 1e-9),
              lie.JACOBIAN_SMALL_ANGLE * (1 - 1e-12), lie.JACOBIAN_SMALL_ANGLE * (1 + 1e-12),
              1.0, 3.0]
    rng = np.random.default_rng(12)
    xi = rng.uniform(-1, 1, (len(thetas), 6))
    xi[:, :3] *= np.array(thetas)[:, None] / np.linalg.norm(xi[:, :3], axis=1)[:, None]
    return xi, rng.uniform(-np.pi, np.pi, len(thetas))


def test_batched_kernels_match_per_row_calls():
    xi, q = _mixed_batch()
    with np.errstate(all="raise"):
        T = lie.exp_se3(xi)
        batched = {
            "exp_se3": T,
            "log_se3": lie.log_se3(T),
            "left_jacobian": lie.joint_jacobian(xi),
            "joint_jacobian": lie.joint_jacobian(xi, q),
            "adjoint": lie.adjoint(T),
            "pose_inv": lie.pose_inv(T),
            "skew": lie.skew(xi[:, :3]),
        }
        for i in range(len(xi)):
            single = {
                "exp_se3": lie.exp_se3(xi[i]),
                "log_se3": lie.log_se3(T[i]),
                "left_jacobian": lie.joint_jacobian(xi[i]),
                "joint_jacobian": lie.joint_jacobian(xi[i], q[i]),
                "adjoint": lie.adjoint(T[i]),
                "pose_inv": lie.pose_inv(T[i]),
                "skew": lie.skew(xi[i, :3]),
            }
            for name, value in single.items():
                assert batched[name][i].shape == value.shape, name
                assert np.abs(batched[name][i] - value).max() <= 1e-12, (name, i)
    assert np.abs(batched["log_se3"] - xi).max() < 1e-9


def test_batched_log_near_pi_errors():
    xi, _ = _mixed_batch()
    T = lie.exp_se3(xi)
    T[3] = lie.exp_se3(np.array([0, np.pi - 1e-8, 0, 0.1, 0, 0]))
    with pytest.raises(NearPiRotationError):
        lie.log_se3(T)


def _joint_values(xi, q):
    # q = +-1 keeps the batch's angles |q| |w| on both sides of each seam,
    # the last rows reach each seam through q instead
    w = np.linalg.norm(xi[:, :3], axis=1)
    seams = np.outer([lie.SMALL_ANGLE, lie.JACOBIAN_SMALL_ANGLE], [1 - 1e-9, 1 + 1e-9]).ravel()
    at_seam = seams[:, None] / np.where(w > 0, w, 1.0)
    ones = np.ones_like(q)
    return np.vstack([ones, -ones, q, -q, at_seam, -at_seam])


def test_exp_and_joint_jacobian_at_joint_values_match_series():
    xi, q = _mixed_batch()
    Q = _joint_values(xi, q)
    with np.errstate(all="raise"):
        E, D = lie.exp_se3(xi, Q), lie.joint_jacobian(xi, Q)
    assert E.shape == Q.shape + (4, 4) and D.shape == Q.shape + (6, 6)
    for i, j in np.ndindex(Q.shape):
        # |q| reaches 1e6 at the seams of the 1e-7 rad twist; |q w| stays below 10
        for got, expect in ((E[i, j], expm_taylor(Q[i, j] * lie.hat(xi[j]), 60)),
                            (D[i, j], Q[i, j] * dexp_taylor(Q[i, j] * lie.ad(xi[j]), 60))):
            assert np.abs(got - expect).max() <= 1e-11 * max(1.0, np.abs(expect).max()), (i, j)
        assert np.array_equal(E[i, j, 3], [0.0, 0.0, 0.0, 1.0])


def test_batched_joint_values_match_per_element_calls_bitwise():
    xi, q = _mixed_batch()
    Q = _joint_values(xi, q)
    E, D = lie.exp_se3(xi, Q), lie.joint_jacobian(xi, Q)
    for i, j in np.ndindex(Q.shape):
        assert np.array_equal(E[i, j], lie.exp_se3(xi[j], Q[i, j])), (i, j)
        assert np.array_equal(D[i, j], lie.joint_jacobian(xi[j], Q[i, j])), (i, j)


def test_exp_and_joint_jacobian_at_zero_are_exact():
    xi, _ = _mixed_batch()
    Q = np.zeros((2, len(xi)))
    assert np.array_equal(lie.exp_se3(xi, Q), np.broadcast_to(np.eye(4), Q.shape + (4, 4)))
    assert np.array_equal(lie.joint_jacobian(xi, Q), np.zeros(Q.shape + (6, 6)))


def test_exp_and_joint_jacobian_of_prismatic_twist():
    xi = np.array([[0.0, 0.0, 0.0, 0.3, -0.2, 0.5]])
    q = np.array([[1.7], [-0.4]])
    E, D = lie.exp_se3(xi, q), lie.joint_jacobian(xi, q)
    for k in range(2):
        expect = np.eye(4)
        expect[:3, 3] = q[k, 0] * xi[0, 3:]
        assert np.abs(E[k, 0] - expect).max() <= 1e-15
        # ad of a pure translation is nilpotent: q (I + q O / 2)
        O = lie.ad(xi[0])
        assert np.abs(D[k, 0] - q[k, 0] * (np.eye(6) + q[k, 0] * O / 2)).max() <= 1e-15

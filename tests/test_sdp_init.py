from collections import Counter

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal import sdp_init as sdp
from dualcal.chain import CalibrationState, MeasurementSample, predict_B
from dualcal.errors import DegenerateSolutionError
from dualcal.simulate import noise_level, noise_twist
from helpers import noise_free_samples, rand_pose, toy_system


def direct_objective(X, Y, Z, triples, alpha=1.0):
    total = 0.0
    for A, B, C in triples:
        f = (A[:3, :3] @ X[:3, :3] @ B[:3, :3] - Y[:3, :3] @ C[:3, :3] @ Z[:3, :3])
        g = (A[:3, :3] @ X[:3, :3] @ B[:3, 3] + A[:3, :3] @ X[:3, 3] + A[:3, 3]
             - Y[:3, :3] @ C[:3, :3] @ Z[:3, 3] - Y[:3, :3] @ C[:3, 3] - Y[:3, 3])
        total += (f * f).sum() + alpha ** 2 * (g * g).sum()
    return total


@pytest.fixture(scope="module")
def constraints():
    return sdp.build_constraints()


@pytest.fixture(scope="module")
def noise_free_setup():
    system = toy_system()
    gt_state = CalibrationState.from_system(system)
    samples = noise_free_samples(gt_state, np.random.default_rng(3), 20)
    problem = sdp.build_problem(system.sensor_arm, system.tool_arm, samples)
    return system, samples, problem


@pytest.fixture(scope="module")
def noise_free_solution(noise_free_setup):
    _, _, problem = noise_free_setup
    return sdp.solve_sdp(problem, tol_factor=1e-10)


def test_lift_identity_layout():
    w = sdp.lift(np.eye(4), np.eye(4), np.eye(4))
    assert w.shape == (133,)
    assert np.array_equal(w[0:9], np.eye(3).reshape(-1, order="F"))
    assert np.array_equal(w[9:18], np.eye(3).reshape(-1, order="F"))
    assert np.array_equal(w[18:99], np.eye(9).reshape(-1, order="F"))
    assert np.all(w[99:132] == 0)
    assert w[132] == 1.0


def test_omega_blocks_reproduce_residuals():
    rng = np.random.default_rng(0)
    for _ in range(50):
        X, Y, Z = rand_pose(rng), rand_pose(rng), rand_pose(rng)
        A, B, C = rand_pose(rng), rand_pose(rng), rand_pose(rng)
        w = sdp.lift(X, Y, Z)
        f = (A[:3, :3] @ X[:3, :3] @ B[:3, :3]
             - Y[:3, :3] @ C[:3, :3] @ Z[:3, :3]).reshape(-1, order="F")
        g = (A[:3, :3] @ X[:3, :3] @ B[:3, 3] + A[:3, :3] @ X[:3, 3] + A[:3, 3]
             - Y[:3, :3] @ C[:3, :3] @ Z[:3, 3] - Y[:3, :3] @ C[:3, 3] - Y[:3, 3])
        assert np.abs(sdp.omega_f(A, B, C) @ w - f).max() < 1e-10
        assert np.abs(sdp.omega_g(A, B, C) @ w - g).max() < 1e-10


def test_omega_f_block_structure():
    rng = np.random.default_rng(1)
    A, B, C = rand_pose(rng), rand_pose(rng), rand_pose(rng)
    Of = sdp.omega_f(A, B, C)
    assert np.array_equal(Of[:, 0:9], np.kron(B[:3, :3].T, A[:3, :3]))
    assert np.all(Of[:, 9:18] == 0)
    vecRc = C[:3, :3].reshape(-1, order="F")
    assert np.array_equal(Of[:, 18:99], -np.kron(vecRc.reshape(1, 9), np.eye(9)))
    assert np.all(Of[:, 99:] == 0)


def test_objective_matches_direct_evaluation():
    rng = np.random.default_rng(2)
    triples = [(rand_pose(rng), rand_pose(rng), rand_pose(rng)) for _ in range(7)]
    for alpha in (1.0, 0.5):
        Q = sdp.build_objective(triples, alpha)
        X, Y, Z = rand_pose(rng), rand_pose(rng), rand_pose(rng)
        w = sdp.lift(X, Y, Z)
        direct = direct_objective(X, Y, Z, triples, alpha)
        assert abs(w @ Q @ w - direct) < 1e-9 * max(1.0, direct)
    # PSD
    lam = np.linalg.eigvalsh(sdp.build_objective(triples))
    assert lam.min() > -1e-9


def test_objective_zero_at_ground_truth(noise_free_setup):
    system, _, problem = noise_free_setup
    w = sdp.lift(system.X, system.Y, system.Z)
    assert w @ problem.Q @ w < 1e-12 * np.trace(problem.Q)


def test_constraint_counts_and_families(constraints):
    assert len(constraints) == 160
    counts = Counter(c.family for c in constraints)
    assert counts == {"Rx_orth": 6, "Rx_hand": 3, "Ry_orth": 6, "Ry_hand": 3,
                      "K_orth": 45, "K_block": 72, "V_block": 24, "homog": 1}


def test_constraints_exactly_symmetric(constraints):
    for c in constraints:
        assert np.array_equal(c.H, c.H.T)


def test_constraints_feasible_at_valid_lifts(constraints):
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = sdp.lift(rand_pose(rng), rand_pose(rng), rand_pose(rng))
        worst = max(abs(w @ c.H @ w - c.rho) for c in constraints)
        assert worst < 1e-10


def test_constraints_detect_scaled_rotation(constraints):
    rng = np.random.default_rng(4)
    X, Y, Z = rand_pose(rng), rand_pose(rng), rand_pose(rng)
    Xbad = X.copy()
    Xbad[:3, :3] *= 1.1
    w = np.concatenate([Xbad[:3, :3].reshape(-1, order="F"),
                        sdp.lift(X, Y, Z)[9:]])
    viol = [abs(w @ c.H @ w - c.rho) for c in constraints if c.family == "Rx_orth"]
    assert max(viol) > 0.2  # 1.1^2 - 1 = 0.21 on the unit-norm rows


def test_constraints_detect_broken_kronecker_structure(constraints):
    rng = np.random.default_rng(5)
    w = sdp.lift(rand_pose(rng), rand_pose(rng), rand_pose(rng))
    w = w.copy()
    w[18:99] = np.linalg.qr(rng.standard_normal((9, 9)))[0].reshape(-1, order="F")
    viol = max(abs(w @ c.H @ w - c.rho) for c in constraints if c.family == "K_block")
    assert viol > 1e-2  # orthogonal but not a Kronecker product of rotations


def test_svec_isometry():
    rng = np.random.default_rng(6)
    from dualcal.numerics import symmetrize
    A = symmetrize(rng.standard_normal((133, 133)))
    B = symmetrize(rng.standard_normal((133, 133)))
    assert abs(sdp.svec(A) @ sdp.svec(B) - np.trace(A @ B)) < 1e-9
    assert np.abs(sdp.smat(sdp.svec(A)) - A).max() < 1e-14


def test_solve_noise_free_tight(noise_free_setup, noise_free_solution):
    _, _, problem = noise_free_setup
    res = noise_free_solution
    assert res.converged
    assert res.p_sdp <= 1e-8
    # constraint feasibility of the returned matrix
    viol = max(abs(np.sum(c.H * res.W) - c.rho) for c in problem.constraints)
    assert viol < 1e-7
    # PSD within tolerance
    lam = np.linalg.eigvalsh(res.W)
    assert lam.min() > -res.tol


def test_extract_noise_free_recovers_truth(noise_free_setup, noise_free_solution):
    system, _, problem = noise_free_setup
    w_star, X, Y, Z, rank_ratio = sdp.extract(noise_free_solution.W)
    assert rank_ratio < 1e-6
    from dualcal.liegroup import rotation_angle
    assert np.degrees(rotation_angle(X[:3, :3] @ system.X[:3, :3].T)) < 1e-3
    assert np.degrees(rotation_angle(Y[:3, :3] @ system.Y[:3, :3].T)) < 1e-3
    assert np.degrees(rotation_angle(Z[:3, :3] @ system.Z[:3, :3].T)) < 1e-3
    assert np.linalg.norm(X[:3, 3] - system.X[:3, 3]) < 1e-5
    assert np.linalg.norm(Y[:3, 3] - system.Y[:3, 3]) < 1e-5
    assert np.linalg.norm(Z[:3, 3] - system.Z[:3, 3]) < 1e-5
    eta, abs_gap, p_cert = sdp.certify(w_star, problem.Q, noise_free_solution.p_sdp,
                                       problem.residual_stack)
    assert 0.0 <= eta <= 1e-6


def test_extract_rank_one_roundtrip():
    rng = np.random.default_rng(7)
    X, Y, Z = rand_pose(rng), rand_pose(rng), rand_pose(rng)
    w = sdp.lift(X, Y, Z)
    w_star, Xh, Yh, Zh, rank_ratio = sdp.extract(np.outer(w, w))
    assert rank_ratio < 1e-12
    assert np.abs(Xh - X).max() < 1e-10
    assert np.abs(Yh - Y).max() < 1e-10
    assert np.abs(Zh - Z).max() < 1e-10
    assert np.abs(w_star - w).max() < 1e-9


def test_extract_sign_fix():
    rng = np.random.default_rng(8)
    w = sdp.lift(rand_pose(rng), rand_pose(rng), rand_pose(rng))
    W = np.outer(-w, -w)  # same matrix; extraction must return +homogeneous
    w_star, *_ = sdp.extract(W)
    assert w_star[132] == 1.0
    assert np.abs(w_star - w).max() < 1e-9


def test_extract_degenerate_errors():
    with pytest.raises(DegenerateSolutionError):
        sdp.extract(np.zeros((133, 133)))


def test_certify_rejects_corrupted_candidate(noise_free_setup, noise_free_solution):
    system, _, problem = noise_free_setup
    rng = np.random.default_rng(9)
    Xbad = rand_pose(rng)  # random rotation substituted for the true X
    w_bad = sdp.lift(Xbad, system.Y, system.Z)
    eta, _, _ = sdp.certify(w_bad, problem.Q, noise_free_solution.p_sdp,
                            problem.residual_stack)
    assert eta > 1e-1


def test_lower_bound_and_eta_on_noisy_data():
    rng = np.random.default_rng(10)
    system = toy_system()
    gt_state = CalibrationState.from_system(system)
    level = noise_level("QH")
    samples = []
    for s in noise_free_samples(gt_state, rng, 20):
        B = s.B_meas @ lie.exp_se3(noise_twist(level, rng))
        samples.append(MeasurementSample(s.q_a, s.q_c, B))
    problem = sdp.build_problem(system.sensor_arm, system.tool_arm, samples)
    res = sdp.solve_sdp(problem, tol_factor=1e-10)
    w_gt = sdp.lift(system.X, system.Y, system.Z)
    gt_obj = w_gt @ problem.Q @ w_gt
    assert res.p_sdp <= gt_obj + 10 * res.tol
    w_star, X, Y, Z, rank_ratio = sdp.extract(res.W)
    eta, abs_gap, p_cert = sdp.certify(w_star, problem.Q, res.p_sdp,
                                       problem.residual_stack)
    assert eta < 1e-3
    assert p_cert > 0


def test_initialize_pipeline_to_dict(noise_free_setup):
    system, samples, _ = noise_free_setup
    init = sdp.initialize(system.sensor_arm, system.tool_arm, samples)
    d = init.to_dict()
    for key in ("X", "Y", "Z", "eta", "p_sdp", "rank_ratio", "iterations", "converged"):
        assert key in d
    assert d["converged"]
    assert d["rank_ratio"] < 1e-6
    assert d["eta"] <= 1e-6

import logging
from dataclasses import replace

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal import sdp_init as sdp
from dualcal.chain import Measurements
from dualcal.cli import _record
from dualcal.errors import CalibrationError
from dualcal.evaluate import evaluate_samples
from dualcal.simulate import default_system, generate_dataset, level, noise_twists
from helpers import lifted_constraints, noise_free_samples, rand_pose


def direct_objective(X, Y, Z, triples):
    total = 0.0
    for A, B, C in triples:
        f = (A[:3, :3] @ X[:3, :3] @ B[:3, :3] - Y[:3, :3] @ C[:3, :3] @ Z[:3, :3])
        g = (A[:3, :3] @ X[:3, :3] @ B[:3, 3] + A[:3, :3] @ X[:3, 3] + A[:3, 3]
             - Y[:3, :3] @ C[:3, :3] @ Z[:3, 3] - Y[:3, :3] @ C[:3, 3] - Y[:3, 3])
        total += (f * f).sum() + (g * g).sum()
    return total


@pytest.fixture(scope="module")
def constraints():
    return sdp.build_constraints()


@pytest.fixture(scope="module")
def dense_H(constraints):
    return np.stack([constraints.adjoint(e) for e in np.eye(len(constraints))])


@pytest.fixture(scope="module")
def noise_free_setup():
    system = default_system()
    samples = noise_free_samples(system, np.random.default_rng(3), 20)
    problem = sdp.build_problem(system, samples)
    return system, samples, problem


def must_not_run(*args, **kwargs):
    raise AssertionError("must not run")


def admm_solve(problem):
    """solve_sdp with the local start's certificate refused: a cold ADMM solve."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sdp, "CERT_ETA", -1.0)
        res = sdp.solve_sdp(problem)
    assert res.iterations > 0
    return res


@pytest.fixture(scope="module")
def noise_free_solution(noise_free_setup):
    _, _, problem = noise_free_setup
    return sdp.solve_sdp(problem)


@pytest.fixture(scope="module")
def noise_free_admm(noise_free_setup):
    _, _, problem = noise_free_setup
    return admm_solve(problem)


def test_lift_identity_layout():
    w = sdp.lift(np.eye(4), np.eye(4), np.eye(4))
    assert w.shape == (133,)
    assert np.array_equal(w[0:9], np.eye(3).reshape(-1, order="F"))
    assert np.array_equal(w[9:18], np.eye(3).reshape(-1, order="F"))
    assert np.array_equal(w[18:99], np.eye(9).reshape(-1, order="F"))
    assert np.all(w[99:132] == 0)
    assert w[132] == 1.0
    # identity Kronecker blocks are symmetric; random poses pin each block's
    # orientation against np.kron, column-stacked
    rng = np.random.default_rng(1)
    for _ in range(20):
        X, Y, Z = rand_pose(rng), rand_pose(rng), rand_pose(rng)
        Ry = Y[:3, :3]
        ref = np.concatenate([X[:3, :3].reshape(-1, order="F"), Ry.reshape(-1, order="F"),
                              np.kron(Z[:3, :3].T, Ry).reshape(-1, order="F"),
                              X[:3, 3], Y[:3, 3],
                              np.kron(Z[None, :3, 3], Ry).reshape(-1, order="F"), [1.0]])
        assert np.array_equal(sdp.lift(X, Y, Z), ref)


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
        G = sdp.build_residual_stack(A, B, C)
        assert np.abs(G[:9] @ w - f).max() < 1e-10
        assert np.abs(G[9:] @ w - g).max() < 1e-10


def test_omega_f_block_structure():
    rng = np.random.default_rng(1)
    A, B, C = (np.array([rand_pose(rng) for _ in range(3)]) for _ in range(3))
    # a batch of triples gives, bitwise, the rows of the triples one by one
    G = sdp.build_residual_stack(A, B, C).reshape(3, 12, sdp.DIM)
    single = [sdp.build_residual_stack(*t) for t in zip(A, B, C)]
    for rows in (slice(None, 9), slice(9, None)):
        assert np.array_equal(G[:, rows], [S[rows] for S in single])
    A, B, C = A[0], B[0], C[0]
    Of = sdp.build_residual_stack(A, B, C)[:9]
    assert np.array_equal(Of[:, 0:9], np.kron(B[:3, :3].T, A[:3, :3]))
    assert np.all(Of[:, 9:18] == 0)
    vecRc = C[:3, :3].reshape(-1, order="F")
    assert np.array_equal(Of[:, 18:99], -np.kron(vecRc.reshape(1, 9), np.eye(9)))
    assert np.all(Of[:, 99:] == 0)


def test_omega_g_block_structure():
    rng = np.random.default_rng(2)
    A, B, C = rand_pose(rng), rand_pose(rng), rand_pose(rng)
    Ra, ta, tb = A[:3, :3], A[:3, 3], B[:3, 3]
    Rc, tc = C[:3, :3], C[:3, 3]
    Og = sdp.build_residual_stack(A, B, C)[9:]
    assert np.array_equal(Og[:, 0:9], np.kron(tb.reshape(1, 3), Ra))
    assert np.array_equal(Og[:, 9:18], -np.kron(tc.reshape(1, 3), np.eye(3)))
    assert np.all(Og[:, 18:99] == 0)
    assert np.array_equal(Og[:, 99:102], Ra)
    assert np.array_equal(Og[:, 102:105], -np.eye(3))
    vecRc = Rc.reshape(-1, order="F")
    assert np.array_equal(Og[:, 105:132], -np.kron(vecRc.reshape(1, 9), np.eye(3)))
    assert np.array_equal(Og[:, 132], ta)


def test_residual_stack_interleaves_omega_blocks_bitwise():
    # rows 12i .. 12i+11 of a batched stack, triple i's 9 rotation rows and
    # then its 3 translation rows, are the bytes of triple i's own stack
    rng = np.random.default_rng(4)
    A, B, C = (np.array([rand_pose(rng) for _ in range(5)]) for _ in range(3))
    G = sdp.build_residual_stack(A, B, C)
    for i in range(5):
        single = sdp.build_residual_stack(A[i], B[i], C[i])
        assert G[12 * i:12 * i + 12].tobytes() == single.tobytes()


def test_objective_matches_direct_evaluation():
    rng = np.random.default_rng(2)
    triples = [(rand_pose(rng), rand_pose(rng), rand_pose(rng)) for _ in range(7)]
    G = sdp.build_residual_stack(*(np.array(P) for P in zip(*triples)))
    X, Y, Z = rand_pose(rng), rand_pose(rng), rand_pose(rng)
    r = G @ sdp.lift(X, Y, Z)
    direct = direct_objective(X, Y, Z, triples)
    assert abs(r @ r - direct) < 1e-9 * max(1.0, direct)


def test_objective_zero_at_ground_truth(noise_free_setup):
    system, _, problem = noise_free_setup
    w = sdp.lift(system.X, system.Y, system.Z)
    assert w @ problem.Q @ w < 1e-12 * np.trace(problem.Q)
    assert np.linalg.eigvalsh(problem.Q).min() > -1e-9  # PSD


@pytest.mark.parametrize("m", [3, 80, 400])
def test_objective_matrix_exactly_symmetric(m):
    # Q = G^T G is symmetric bit for bit, as the certificate's eigvalsh of
    # S = Q - A*(lambda), which reads one triangle, assumes
    ds = generate_dataset(m, "QH", "QH", seed=m)
    Q = sdp.build_problem(ds.nominal_system, ds.samples).Q
    assert np.array_equal(Q, Q.T)


# the constraint families as index ranges of build_constraints' build order
FAMILIES = {"Rx_orth": range(0, 6), "Rx_hand": range(6, 9), "Ry_orth": range(9, 15),
            "Ry_hand": range(15, 18), "K_orth": range(18, 63), "K_block": range(63, 135),
            "V_block": range(135, 159), "homog": range(159, 160)}
# the entries of the lifted vector that each family's H_j touch
RX, RY, K, V = range(0, 9), range(9, 18), range(18, 99), range(105, 132)
FAMILY_ENTRIES = {"Rx_orth": {*RX}, "Rx_hand": {*RX, 132}, "Ry_orth": {*RY},
                  "Ry_hand": {*RY, 132}, "K_orth": {*K}, "K_block": {*RY, *K},
                  "V_block": {*RY, *V}, "homog": {132}}


def test_constraint_counts_and_families(constraints, dense_H):
    assert len(constraints) == 160
    counts = {name: len(rows) for name, rows in FAMILIES.items()}
    assert counts == {"Rx_orth": 6, "Rx_hand": 3, "Ry_orth": 6, "Ry_hand": 3,
                      "K_orth": 45, "K_block": 72, "V_block": 24, "homog": 1}
    assert [j for rows in FAMILIES.values() for j in rows] == list(range(160))
    for name, rows in FAMILIES.items():
        touched = set(np.nonzero(np.abs(dense_H[rows]).sum(axis=(0, 1)))[0])
        assert touched == FAMILY_ENTRIES[name], name


def test_constraints_match_matrix_identity_oracle(constraints, dense_H):
    # H_j by exact polarization of the oracle's quadratics over the unit
    # vectors: q(e_a + e_b) - q(e_a) - q(e_b) = 2 H_ab, in small integers
    E = np.eye(sdp.DIM)
    q1 = lifted_constraints(E)
    q2 = lifted_constraints(E[:, None, :] + E[None, :, :])
    H = np.moveaxis((q2 - q1[:, None, :] - q1[None, :, :]) / 2.0, -1, 0)
    assert np.array_equal(H, dense_H)
    identity = sdp.lift(np.eye(4), np.eye(4), np.eye(4))
    assert np.array_equal(lifted_constraints(identity), constraints.rho)


def test_constraints_read_only_and_built_once(constraints):
    assert sdp.build_constraints() is constraints
    for a in (constraints.rows, constraints.flat, constraints.vals, constraints.rho):
        with pytest.raises(ValueError):
            a[0] = 0


def test_constraints_exactly_symmetric(dense_H):
    for H in dense_H:
        assert np.array_equal(H, H.T)


def test_constraints_feasible_at_valid_lifts(constraints, dense_H):
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = sdp.lift(rand_pose(rng), rand_pose(rng), rand_pose(rng))
        worst = max(abs(w @ H @ w - rho) for H, rho in zip(dense_H, constraints.rho))
        assert worst < 1e-10


def family_violations(constraints, dense_H, w, family):
    return [abs(w @ dense_H[j] @ w - constraints.rho[j]) for j in FAMILIES[family]]


def test_constraints_detect_scaled_rotation(constraints, dense_H):
    rng = np.random.default_rng(4)
    X, Y, Z = rand_pose(rng), rand_pose(rng), rand_pose(rng)
    Xbad = X.copy()
    Xbad[:3, :3] *= 1.1
    w = np.concatenate([Xbad[:3, :3].reshape(-1, order="F"),
                        sdp.lift(X, Y, Z)[9:]])
    viol = family_violations(constraints, dense_H, w, "Rx_orth")
    assert max(viol) > 0.2  # 1.1^2 - 1 = 0.21 on the unit-norm rows


def test_constraints_detect_broken_kronecker_structure(constraints, dense_H):
    rng = np.random.default_rng(5)
    w = sdp.lift(rand_pose(rng), rand_pose(rng), rand_pose(rng))
    w = w.copy()
    w[18:99] = np.linalg.qr(rng.standard_normal((9, 9)))[0].reshape(-1, order="F")
    viol = max(family_violations(constraints, dense_H, w, "K_block"))
    assert viol > 1e-2  # orthogonal but not a Kronecker product of rotations


def test_constraint_operator_matches_dense_constraints(constraints, dense_H):
    op = constraints
    assert op.flat.size == np.count_nonzero(dense_H) == 1540
    rng = np.random.default_rng(6)
    for _ in range(5):
        X = rng.standard_normal((133, 133))
        X = X + X.T
        y = rng.standard_normal(len(constraints))
        AX = op(X)
        assert np.abs(AX - [np.sum(H * X) for H in dense_H]).max() < 1e-12
        # adjoint identity <A(X), y> = <X, A*(y)>
        assert abs(AX @ y - np.sum(X * op.adjoint(y))) < 1e-12 * max(1.0, abs(AX @ y))
        w = rng.standard_normal(133)
        assert np.abs(op.columns(w) - (dense_H @ w).T).max() < 1e-12
    G = np.array([[np.sum(a * b) for b in dense_H] for a in dense_H])
    assert np.abs(op.gram() - G).max() < 1e-12


def test_solve_rejects_non_finite_objective(noise_free_setup, monkeypatch):
    _, _, problem = noise_free_setup
    Q = problem.Q.copy()
    Q[5, 7] = Q[7, 5] = np.nan
    # refused before the local start
    monkeypatch.setattr(sdp, "linear_lift", must_not_run)
    message = "^objective matrix Q has a non-finite entry$"
    with pytest.raises(CalibrationError, match=message) as excinfo:
        sdp.solve_sdp(sdp.SDPProblem(Q, problem.residual_stack))
    assert excinfo.type is CalibrationError


def test_certified_local_falls_back_on_non_finite_stack(noise_free_setup, monkeypatch):
    # a Q built from a non-finite residual stack never reaches the local start
    _, _, problem = noise_free_setup
    G = problem.residual_stack.copy()
    G[3, 5] = np.nan
    monkeypatch.setattr(sdp, "linear_lift", must_not_run)
    message = "^objective matrix Q has a non-finite entry$"
    with pytest.raises(CalibrationError, match=message) as excinfo:
        sdp.solve_sdp(sdp.SDPProblem(G.T @ G, G))
    assert excinfo.type is CalibrationError


def test_solve_noise_free_tight(noise_free_solution, noise_free_admm, constraints, dense_H):
    for res in (noise_free_solution, noise_free_admm):
        assert res.converged
        assert res.p_sdp <= 1e-8
        # constraint feasibility of the returned matrix
        viol = max(abs(np.sum(H * res.W) - rho) for H, rho in zip(dense_H, constraints.rho))
        assert viol < 1e-7
        # PSD within tolerance
        lam = np.linalg.eigvalsh(res.W)
        assert lam.min() > -res.tol


def test_extract_noise_free_recovers_truth(noise_free_setup, noise_free_solution,
                                          noise_free_admm):
    system, _, problem = noise_free_setup
    from dualcal.liegroup import rotation_angle
    for res in (noise_free_solution, noise_free_admm):
        w_star, X, Y, Z, rank_ratio = sdp.extract(res.W)
        assert rank_ratio < 1e-6
        assert np.degrees(rotation_angle(X[:3, :3] @ system.X[:3, :3].T)) < 1e-3
        assert np.degrees(rotation_angle(Y[:3, :3] @ system.Y[:3, :3].T)) < 1e-3
        assert np.degrees(rotation_angle(Z[:3, :3] @ system.Z[:3, :3].T)) < 1e-3
        assert np.linalg.norm(X[:3, 3] - system.X[:3, 3]) < 1e-5
        assert np.linalg.norm(Y[:3, 3] - system.Y[:3, 3]) < 1e-5
        assert np.linalg.norm(Z[:3, 3] - system.Z[:3, 3]) < 1e-5
        eta, abs_gap, p_cert = sdp.certify(problem, w_star, res.p_sdp)
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
    with pytest.raises(CalibrationError, match="dominant eigenvalue"):
        sdp.extract(np.zeros((133, 133)))
    w = sdp.lift(np.eye(4), np.eye(4), np.eye(4))
    w[sdp.HOM] = 0.0
    with pytest.raises(CalibrationError, match="homogeneous entry of the lifted vector is ~0"):
        sdp.project_lift(w)


def test_certify_rejects_corrupted_candidate(noise_free_setup, noise_free_solution):
    system, _, problem = noise_free_setup
    rng = np.random.default_rng(9)
    Xbad = rand_pose(rng)  # random rotation substituted for the true X
    w_bad = sdp.lift(Xbad, system.Y, system.Z)
    eta, _, _ = sdp.certify(problem, w_bad, noise_free_solution.p_sdp)
    assert eta > 1e-1


def test_lower_bound_and_eta_on_noisy_data():
    rng = np.random.default_rng(10)
    system = default_system()
    clean = noise_free_samples(system, rng, 20)
    noise = noise_twists(level("noise", "QH"), rng, len(clean))
    samples = Measurements(clean.q_a, clean.q_c, clean.B @ lie.exp_se3(noise))
    problem = sdp.build_problem(system, samples)
    w_gt = sdp.lift(system.X, system.Y, system.Z)
    gt_obj = w_gt @ problem.Q @ w_gt
    # the certified local optimum's Lagrangian bound, and ADMM's objective
    for res in (sdp.solve_sdp(problem), admm_solve(problem)):
        assert res.p_sdp <= gt_obj + 10 * res.tol
        w_star, X, Y, Z, rank_ratio = sdp.extract(res.W)
        eta, abs_gap, p_cert = sdp.certify(problem, w_star, res.p_sdp)
        assert eta < 1e-3
        assert p_cert > 0


def test_initialize_pipeline_record(noise_free_setup):
    system, samples, _ = noise_free_setup
    init = sdp.initialize(system, samples)
    d = _record(init)
    assert list(d) == ["X", "Y", "Z", "eta", "abs_gap", "p_sdp", "rank_ratio", "iterations",
                       "converged"]
    assert None not in d.values()
    assert d["converged"] and d["iterations"] == 0
    assert d["rank_ratio"] < 1e-6
    assert d["eta"] <= 1e-6


def fail_local_solve(Q, X, Y, Z):
    return X, Y, Z, sdp.LOCAL_MAX_ITERS, False


def test_initialize_warns_when_admm_does_not_converge(noise_free_setup, caplog, monkeypatch):
    system, samples, _ = noise_free_setup
    monkeypatch.setattr(sdp, "local_solve", fail_local_solve)
    monkeypatch.setattr(sdp, "ADMM_MAX_ITERS", 25)
    with caplog.at_level(logging.WARNING, logger="dualcal"):
        init = sdp.initialize(system, samples)
    assert not init.converged
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "did not converge" in warnings[0].getMessage()


def test_initialize_warns_when_admm_result_is_not_certified(caplog, monkeypatch):
    # at m = 3 the local Gauss-Newton does not converge and ADMM converges
    # to a candidate whose gap is far above CERT_ETA
    ds = generate_dataset(3, "M", "M", seed=6)
    with caplog.at_level(logging.WARNING, logger="dualcal"):
        init = sdp.initialize(ds.nominal_system, ds.samples)
    assert init.iterations > 0 and init.converged and init.eta > sdp.CERT_ETA
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "not certified" in message and f"eta = {init.eta:.3e}" in message
    assert f"CERT_ETA = {sdp.CERT_ETA:.0e}" in message
    # stopped at the cap, the same data warns only that ADMM did not converge
    caplog.clear()
    monkeypatch.setattr(sdp, "ADMM_MAX_ITERS", 25)
    with caplog.at_level(logging.WARNING, logger="dualcal"):
        init = sdp.initialize(ds.nominal_system, ds.samples)
    assert not init.converged and init.eta > sdp.CERT_ETA
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "did not converge" in warnings[0].getMessage()


def test_lift_jacobian_matches_central_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(5):
        X, Y, Z = rand_pose(rng), rand_pose(rng), rand_pose(rng)

        def lifted(d):
            Ex, Ey, Ez = lie.exp_se3(d.reshape(3, 6))
            return sdp.lift(X @ Ex, Ey @ Y, Ez @ Z)

        fd = np.stack([(lifted(h * e) - lifted(-h * e)) / (2 * h) for e in np.eye(18)], 1)
        assert np.abs(sdp.lift_jacobian(X, Y, Z) - fd).max() < 1e-8


@pytest.fixture(scope="module")
def qh_problems():
    """The criterion-4 datasets of seeds 4000-4004: m=20, QH/QH."""
    out = []
    for seed in range(4000, 4005):
        ds = generate_dataset(20, "QH", "QH", seed=seed)
        nominal = ds.nominal_system
        out.append(sdp.build_problem(nominal, ds.samples))
    return out


def test_certified_local_on_noise_free_and_qh_data(noise_free_setup, qh_problems, caplog):
    system, samples, problem = noise_free_setup
    with caplog.at_level(logging.WARNING, logger="dualcal"):
        init = sdp.initialize(system, samples)
    assert init.iterations == 0 and init.converged and not caplog.records
    w = sdp.lift(init.X, init.Y, init.Z)
    assert init.eta <= sdp.CERT_ETA and sdp.lagrangian_bound(problem, w)[1] >= -sdp.CERT_EIG_TOL
    assert init.rank_ratio < 1e-12  # the certified optimum is w w^T
    res = sdp.solve_sdp(problem)
    assert res.primal_res == res.dual_res == 0.0  # no ADMM ran
    for est, true in ((init.X, system.X), (init.Y, system.Y), (init.Z, system.Z)):
        assert np.abs(est - true).max() < 1e-9
    res = sdp.solve_sdp(qh_problems[0])
    assert res.iterations == 0 and res.converged
    w_star, *_ = sdp.extract(res.W)
    eta, _, p_cert = sdp.certify(qh_problems[0], w_star, res.p_sdp)
    assert eta <= sdp.CERT_ETA and p_cert > 0


def test_certified_solve_skips_admm_set_up(qh_problems, monkeypatch):
    problem = qh_problems[0]
    X, Y, Z = sdp.linear_lift(problem.Q, 20)
    w = sdp.lift(*sdp.local_solve(problem.Q, X, Y, Z)[:3])
    bound, _ = sdp.lagrangian_bound(problem, w)
    monkeypatch.setattr(np.linalg, "pinv", must_not_run)  # ADMM's first set-up step
    res = sdp.solve_sdp(problem)
    assert res.iterations == 0 and res.converged
    assert np.array_equal(res.W, np.outer(w, w)) and res.p_sdp == bound


def test_certified_local_matches_admm(qh_problems):
    # the certified local optimum against an independent cold ADMM solve
    for problem in qh_problems:
        res = sdp.solve_sdp(problem)
        assert res.iterations == 0
        _, *local = sdp.extract(res.W)
        _, *cold = sdp.extract(admm_solve(problem).W)
        for est, ref in zip(local[:3], cold[:3]):
            assert np.abs(est - ref).max() < 1e-6


def perturbed(X, Y, Z):
    return X @ lie.exp_se3(np.array([1e-3, 0.0, 0.0, 0.0, 0.0, 0.0])), Y, Z


def test_perturbed_candidate_fails_certificate(qh_problems):
    problem = qh_problems[0]
    res = sdp.solve_sdp(problem)
    assert res.iterations == 0
    w_star, X, Y, Z, _ = sdp.extract(res.W)
    _, _, p_cert = sdp.certify(problem, w_star, res.p_sdp)
    w = sdp.lift(*perturbed(X, Y, Z))
    # against the certified bound the perturbed candidate is visibly sub-optimal
    eta, _, _ = sdp.certify(problem, w, p_cert)
    assert eta > sdp.CERT_ETA
    # and its own multipliers leave S = Q - A*(lambda) indefinite
    _, lambda_min_rel = sdp.lagrangian_bound(problem, w)
    assert lambda_min_rel < -sdp.CERT_EIG_TOL


def test_initialize_falls_back_to_admm_when_certificate_fails(monkeypatch, caplog):
    ds = generate_dataset(20, "QH", "QH", seed=4000)
    nominal = ds.nominal_system
    local_solve = sdp.local_solve

    def perturbed_local_solve(Q, X, Y, Z):
        X, Y, Z, iterations, converged = local_solve(Q, X, Y, Z)
        return (*perturbed(X, Y, Z), iterations, converged)

    monkeypatch.setattr(sdp, "local_solve", perturbed_local_solve)
    with caplog.at_level(logging.INFO, logger="dualcal"):
        init = sdp.initialize(nominal, ds.samples)
    assert init.iterations > 0 and init.converged and init.eta < 1e-3
    assert any("not certified (lambda_min(S)/tr(Q) = " in r.getMessage()
               and "solving the SDP by ADMM" in r.getMessage() for r in caplog.records)


def test_certified_init_beats_linear_lift_on_held_out_data():
    # the classic linear AXB=YCZ baseline (Wu et al., IEEE T-RO 2016): the
    # unconstrained least-squares lift, projected onto X/Y/Z
    rot, trans = [], []
    for seed in range(4000, 4005):
        ds = generate_dataset(60, "QH", "QH", seed=seed)
        nominal = ds.nominal_system
        train, held_out = ds.samples[:20], ds.samples[20:]
        init = sdp.initialize(nominal, train)
        assert init.iterations == 0
        linear = sdp.linear_lift(sdp.build_problem(nominal, train).Q, len(train))
        scores = [evaluate_samples(replace(nominal, X=X, Y=Y, Z=Z), held_out)
                  for X, Y, Z in (linear, (init.X, init.Y, init.Z))]
        rot.append([r.e_rot.mean() for r in scores])
        trans.append([r.e_trans.mean() for r in scores])
    # [linear, certified] per dataset; per dataset the rotation errors can
    # tie within noise (seed 4004: 2.13 vs 2.17 deg), so rotation is pooled
    trans, rot = np.array(trans), np.array(rot)
    assert (trans[:, 1] <= trans[:, 0]).all()
    assert rot[:, 1].mean() <= rot[:, 0].mean()


def stack_lift(m, seed):
    """Q's problem, and the projected least-squares lift on the residual stack."""
    ds = generate_dataset(m, "M", "M", seed=seed)
    problem = sdp.build_problem(ds.nominal_system, ds.samples)
    G = problem.residual_stack
    v = np.linalg.lstsq(G[:, :sdp.HOM], -G[:, sdp.HOM], rcond=None)[0]
    return problem, v, sdp.project_lift(np.append(v, 1.0))


def test_linear_lift_of_Q_matches_least_squares_on_the_stack():
    problem, _, ref = stack_lift(80, 11)
    for est, r in zip(sdp.linear_lift(problem.Q, 80), ref):
        assert np.abs(est - r).max() < 1e-12


@pytest.mark.parametrize("m", [14, 80])
def test_linear_lift_solves_by_lu_from_m14(m):
    ds = generate_dataset(m, "M", "M", seed=11)
    Q = sdp.build_problem(ds.nominal_system, ds.samples).Q
    v = np.linalg.solve(Q[:sdp.HOM, :sdp.HOM], -Q[:sdp.HOM, sdp.HOM])
    for est, ref in zip(sdp.linear_lift(Q, m), sdp.project_lift(np.append(v, 1.0))):
        assert np.array_equal(est, ref)


def test_linear_lift_at_m14_matches_the_stack_to_the_blocks_conditioning():
    # from m = 14 on the block Q[:HOM, :HOM] has full rank and LU solves it.
    # At m = 14 the 42 translation rows fit exactly the 42 unknowns only they
    # touch, so the stack's fit is exact with Rx = K = 0: the lift leaves X's
    # and Z's rotations to round-off.  Y and the translations it determines,
    # to the forward error cond(block) * eps |v| of any solve on Q = G^T G.
    problem, v, (Xr, Yr, Zr) = stack_lift(14, 11)
    G, Q = problem.residual_stack, problem.Q
    assert np.abs(G[:, :sdp.HOM] @ v + G[:, sdp.HOM]).max() < 1e-12
    assert np.abs(v[sdp.RX0:sdp.RX0 + 9]).max() < 1e-12
    X, Y, Z = sdp.linear_lift(Q, 14)
    tol = np.linalg.cond(Q[:sdp.HOM, :sdp.HOM]) * np.finfo(float).eps * np.linalg.norm(v)
    assert np.abs(Y - Yr).max() < tol
    for est, ref in ((X, Xr), (Z, Zr)):
        assert np.abs(est[:3, 3] - ref[:3, 3]).max() < tol


def test_linear_lift_below_m14_is_the_min_norm_least_squares():
    # on seed 12 at m = 13 the singular block passes np.linalg.cholesky (with
    # OpenBLAS at one thread), so a factorization's success cannot be the rule
    ds = generate_dataset(13, "M", "M", seed=12)
    Q = sdp.build_problem(ds.nominal_system, ds.samples).Q
    v = np.linalg.lstsq(Q[:sdp.HOM, :sdp.HOM], -Q[:sdp.HOM, sdp.HOM], rcond=None)[0]
    for est, ref in zip(sdp.linear_lift(Q, 13), sdp.project_lift(np.append(v, 1.0))):
        assert np.array_equal(est, ref)


@pytest.mark.parametrize("m, certified", [(15, 16), (18, 20)])
def test_certified_local_counts_at_small_m(m, certified, monkeypatch):
    # with ADMM capped at 0 iterations, only a certified local start converges
    monkeypatch.setattr(sdp, "ADMM_MAX_ITERS", 0)
    count = 0
    for seed in range(20):
        ds = generate_dataset(m, "M", "M", seed=seed)
        count += sdp.solve_sdp(sdp.build_problem(ds.nominal_system, ds.samples)).converged
    assert count >= certified

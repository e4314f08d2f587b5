import numpy as np
import pytest

from dualcal.errors import RankDeficientError
from dualcal.numerics import numeric_rank, project_rotation, solve_damped_normal
from helpers import gauss_solve


def test_project_rotation_det_plus_one():
    rng = np.random.default_rng(3)
    rank_deficient = [np.outer([1.0, 2.0, -1.0], [0.5, 0.0, 2.0]),  # rank 1
                      np.diag([2.0, 1.0, 0.0]),                      # rank 2
                      np.zeros((3, 3))]
    for M in [rng.standard_normal((3, 3)) for _ in range(50)] + rank_deficient:
        R = project_rotation(M)
        assert np.abs(R.T @ R - np.eye(3)).max() < 1e-12
        assert np.linalg.det(R) > 0.99


def test_solve_damped_identity_no_damping():
    d = solve_damped_normal(np.eye(2), np.array([3.0, 4.0]), 0.0)
    assert np.allclose(d, [3.0, 4.0], atol=1e-14)


def test_solve_damped_identity_with_damping():
    d = solve_damped_normal(np.eye(2), np.array([3.0, 4.0]), 1.0)
    assert np.allclose(d, [1.5, 2.0], atol=1e-14)


def test_solve_damped_vs_gauss_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        J = rng.standard_normal((12, 6))
        e = rng.standard_normal(12)
        lam = 1e-3
        d = solve_damped_normal(J, e, lam)
        N = J.T @ J + lam * np.eye(6)
        expect = gauss_solve(N, J.T @ e)
        assert np.abs(d - expect).max() < 1e-9
        # residual of the normal system, relative
        assert np.linalg.norm(N @ d - J.T @ e) < 1e-10 * max(1, np.linalg.norm(J.T @ e))


def test_solve_damped_exact_on_orthogonal():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    e = rng.standard_normal(6)
    d = solve_damped_normal(Q, e, 0.0)
    assert np.abs(Q @ d - e).max() < 1e-12


def test_solve_damped_rank_deficient_errors():
    # an all-zero column makes the undamped Cholesky factorization fail
    J = np.zeros((4, 3))
    J[:, 0] = [1, 2, 3, 4]
    J[:, 2] = [0, 1, 0, 1]
    with pytest.raises(RankDeficientError) as exc:
        solve_damped_normal(J, np.ones(4), 0.0)
    assert exc.value.rank == 2
    assert exc.value.needed == 3
    # damped solve is fine on the same system
    solve_damped_normal(J, np.ones(4), 1e-6)


def test_solve_damped_shape_guard():
    with pytest.raises(ValueError):
        solve_damped_normal(np.ones((3, 5)), np.ones(3), 1.0)


def test_numeric_rank():
    assert numeric_rank(np.array([1.0, 0.5, 1e-12])) == 2
    assert numeric_rank(np.array([0.0])) == 0

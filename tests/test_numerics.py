import numpy as np
import pytest

from dualcal.errors import RankDeficientError
from dualcal.numerics import (numeric_rank, project_rotation, solve_damped_normal,
                              sym_eig, symmetrize)
from helpers import gauss_solve


def test_sym_eig_identity():
    lam, V = sym_eig(np.eye(3))
    assert np.allclose(lam, [1, 1, 1])
    assert np.linalg.norm(V.T @ V - np.eye(3)) < 1e-12


def test_sym_eig_diagonal_sorted_descending():
    lam, V = sym_eig(np.diag([5.0, 2.0, -1.0]))
    assert np.allclose(lam, [5.0, 2.0, -1.0])
    # eigenvectors are signed axis permutations
    assert np.allclose(np.abs(V), np.eye(3))


def test_sym_eig_reconstruction_random():
    rng = np.random.default_rng(0)
    M = symmetrize(rng.standard_normal((10, 10)))
    lam, V = sym_eig(M)
    assert np.abs(V @ np.diag(lam) @ V.T - M).max() < 1e-10 * np.linalg.norm(M)
    assert np.all(np.diff(lam) <= 1e-12)


def test_sym_eig_orthonormality_up_to_dim_150():
    rng = np.random.default_rng(1)
    for dim in (2, 17, 64, 150):
        M = symmetrize(rng.standard_normal((dim, dim)))
        _, V = sym_eig(M)
        assert np.linalg.norm(V.T @ V - np.eye(dim)) < 1e-12


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
    J = np.zeros((4, 3))
    J[:, 0] = [1, 2, 3, 4]
    J[:, 1] = [2, 4, 6, 8]  # dependent column
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

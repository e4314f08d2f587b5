import numpy as np

from dualcal import solver
from dualcal.numerics import project_rotation
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


class _Identity:
    """Stands in for a DualArmSystem: apply_delta returns the increment."""

    def apply_delta(self, delta):
        return delta


def damped_step(monkeypatch, J, e):
    """solver.step's increment on a chosen residual e and Jacobian J."""
    monkeypatch.setattr(solver, "stack", lambda system, samples: (e, J))
    new, delta, e_out = solver.step(_Identity(), None)
    assert e_out is e
    assert np.array_equal(new, delta)
    return delta


def test_solve_damped_identity_with_damping(monkeypatch):
    d = damped_step(monkeypatch, np.eye(2), np.array([3.0, 4.0]))
    assert np.allclose(d, -np.array([3.0, 4.0]) / (1.0 + solver.DAMPING), atol=1e-14)


def test_solve_damped_vs_gauss_oracle(monkeypatch):
    rng = np.random.default_rng(4)
    for _ in range(30):
        J = rng.standard_normal((12, 6))
        e = rng.standard_normal(12)
        d = damped_step(monkeypatch, J, e)
        N = J.T @ J + solver.DAMPING * np.eye(6)
        expect = gauss_solve(N, -(J.T @ e))
        assert np.abs(d - expect).max() < 1e-9
        # residual of the normal system, relative
        assert np.linalg.norm(N @ d + J.T @ e) < 1e-10 * max(1, np.linalg.norm(J.T @ e))

"""Small dense linear-algebra kernels used by the rest of the package.

Symmetric matrices are plain numpy arrays; ``symmetrize`` makes the
symmetry exact after assembly.  Sizes stay around 133, so dense LAPACK
routines are the right tool.
"""

import numpy as np

from .errors import RankDeficientError


def symmetrize(M):
    """Exactly symmetric copy of M (averages with the transpose)."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.T)


def project_rotation(M):
    """Nearest rotation to a 3x3 matrix (orthogonal Procrustes with
    determinant repair)."""
    U, _, Vt = np.linalg.svd(M)
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    return U @ D @ Vt


def numeric_rank(singular_values, rel_threshold=1e-8):
    s = np.asarray(singular_values)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > s[0] * rel_threshold))


def solve_damped_normal(J, e, damping):
    """Solve (J^T J + damping*I) d = J^T e by Cholesky.

    J must have at least as many rows as columns.  With damping == 0 a
    rank-deficient J raises RankDeficientError carrying the numeric rank.
    """
    J = np.asarray(J, dtype=float)
    e = np.asarray(e, dtype=float)
    rows, cols = J.shape
    if rows < cols:
        raise ValueError(f"J has fewer rows ({rows}) than columns ({cols})")
    if damping < 0.0:
        raise ValueError("damping must be nonnegative")
    if damping == 0.0:
        sv = np.linalg.svd(J, compute_uv=False)
        rank = numeric_rank(sv, 1e-12)
        if rank < cols:
            raise RankDeficientError(rank, cols)
    N = J.T @ J + damping * np.eye(cols)
    rhs = J.T @ e
    try:
        L = np.linalg.cholesky(N)
    except np.linalg.LinAlgError:
        sv = np.linalg.svd(J, compute_uv=False)
        raise RankDeficientError(numeric_rank(sv, 1e-12), cols) from None
    y = np.linalg.solve(L, rhs)
    return np.linalg.solve(L.T, y)

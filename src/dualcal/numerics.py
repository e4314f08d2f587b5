"""The nearest rotation to a 3x3 matrix, which numpy does not provide."""

import numpy as np


def project_rotation(M):
    """Nearest rotation to a 3x3 matrix (orthogonal Procrustes with
    determinant repair)."""
    U, _, Vt = np.linalg.svd(M)
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    return U @ D @ Vt

"""Certifiably correct coordinate initialization.

The coordinate-only calibration is lifted to a homogeneous 133-vector

    w = [vec(Rx), vec(Ry), vec(Rz^T kron Ry), tx, ty,
         vec(tz^T kron Ry), 1]

(column-stacking vec throughout).  The chain residuals become linear in
w, the SO(3)/Kronecker structure becomes 160 quadratic equalities, and
the resulting QCQP is relaxed to an SDP over W = w w^T.  The SDP is
solved by operator-splitting ADMM; a rank-1 extraction plus manifold
projection recovers (X, Y, Z), and the SDP optimum certifies the
recovered candidate through an a-posteriori sub-optimality gap.
"""

import logging
from dataclasses import asdict, dataclass

import numpy as np

from . import liegroup as lie
from .chain import joint_readings
from .errors import DegenerateSolutionError, StructureError
from .kinematics import forward_kinematics
from .numerics import project_rotation, sym_eig, symmetrize

log = logging.getLogger("dualcal")

DIM = 133

# index layout of the lifted vector
RX0, RY0, K0, TX0, TY0, V0, HOM = 0, 9, 18, 99, 102, 105, 132


def _vec(M):
    """Column-stacking vectorization."""
    return np.asarray(M, dtype=float).reshape(-1, order="F")


def _unvec(v, shape):
    return np.asarray(v, dtype=float).reshape(shape, order="F")


def lift(X, Y, Z):
    """Lift a coordinate triple to the homogeneous 133-vector."""
    Rx, tx = X[:3, :3], X[:3, 3]
    Ry, ty = Y[:3, :3], Y[:3, 3]
    Rz, tz = Z[:3, :3], Z[:3, 3]
    K = np.kron(Rz.T, Ry)
    V = np.kron(tz.reshape(1, 3), Ry)
    return np.concatenate([_vec(Rx), _vec(Ry), _vec(K), tx, ty, _vec(V), [1.0]])


def omega_f(A, B, C):
    """9x133 matrix with omega_f @ lift = vec(Ra Rx Rb) - vec(Ry Rc Rz)."""
    Ra, Rb, Rc = A[:3, :3], B[:3, :3], C[:3, :3]
    O = np.zeros((9, DIM))
    O[:, RX0:RX0 + 9] = np.kron(Rb.T, Ra)
    O[:, K0:K0 + 81] = -np.kron(_vec(Rc).reshape(1, 9), np.eye(9))
    return O


def omega_g(A, B, C):
    """3x133 matrix with omega_g @ lift = translation part of the chain gap."""
    Ra, ta = A[:3, :3], A[:3, 3]
    tb = B[:3, 3]
    Rc, tc = C[:3, :3], C[:3, 3]
    O = np.zeros((3, DIM))
    O[:, RX0:RX0 + 9] = np.kron(tb.reshape(1, 3), Ra)
    O[:, RY0:RY0 + 9] = -np.kron(tc.reshape(1, 3), np.eye(3))
    O[:, TX0:TX0 + 3] = Ra
    O[:, TY0:TY0 + 3] = -np.eye(3)
    O[:, V0:V0 + 27] = -np.kron(_vec(Rc).reshape(1, 9), np.eye(3))
    O[:, HOM] = ta
    return O


def build_residual_stack(pose_triples, alpha=1.0):
    """Rows [omega_f; alpha*omega_g] of every sample stacked (12m x 133).

    The stack G satisfies |G w|^2 = sum_i (|f_i|^2 + alpha^2 |g_i|^2); it
    evaluates the objective as a sum of squares, free of the cancellation
    that the assembled Q suffers near zero cost.
    """
    rows = []
    for A, B, C in pose_triples:
        rows.append(omega_f(A, B, C))
        rows.append(alpha * omega_g(A, B, C))
    return np.vstack(rows)


@dataclass
class QuadConstraint:
    H: np.ndarray
    rho: float
    family: str


def _rx(r, c):
    return RX0 + 3 * c + r


def _ry(r, c):
    return RY0 + 3 * c + r


def _kk(r, c):
    return K0 + 9 * c + r


def _vv(r, c):
    return V0 + 3 * c + r


class _HBuilder:
    def __init__(self):
        self.H = np.zeros((DIM, DIM))

    def add(self, i, j, coef):
        self.H[i, j] += 0.5 * coef
        self.H[j, i] += 0.5 * coef

    def done(self, rho, family):
        return QuadConstraint(self.H, float(rho), family)


def _orthonormality(idx, family):
    out = []
    for l in range(3):
        for k in range(l, 3):
            b = _HBuilder()
            for r in range(3):
                b.add(idx(r, l), idx(r, k), 1.0)
            out.append(b.done(1.0 if l == k else 0.0, family))
    return out


def _handedness(idx, family):
    # r1 x r2 = r3, written as three bilinear equalities; the linear r3
    # term is paired with the homogeneous entry.
    out = []
    for a in range(3):
        b = _HBuilder()
        a1, a2 = (a + 1) % 3, (a + 2) % 3
        b.add(idx(a1, 0), idx(a2, 1), 1.0)
        b.add(idx(a2, 0), idx(a1, 1), -1.0)
        b.add(idx(a, 2), HOM, -1.0)
        out.append(b.done(0.0, family))
    return out


def _scalar_multiple_of_identity(entry, family):
    """Constraints forcing M_ab = sum_r Ry(r,a)*entry(r,b) to c*I."""
    out = []
    for a in range(3):
        for bcol in range(3):
            if a == bcol:
                continue
            b = _HBuilder()
            for r in range(3):
                b.add(_ry(r, a), entry(r, bcol), 1.0)
            out.append(b.done(0.0, family))
    for a in (0, 1):
        b = _HBuilder()
        for r in range(3):
            b.add(_ry(r, a), entry(r, a), 1.0)
            b.add(_ry(r, a + 1), entry(r, a + 1), -1.0)
        out.append(b.done(0.0, family))
    return out


def build_constraints():
    """All 160 quadratic equality constraints on the lifted vector.

    Families and counts: Rx/Ry orthonormality 6+6, Rx/Ry handedness 3+3,
    K column orthogonality 45, K Kronecker-block structure 72, V block
    structure 24, homogenization 1.
    """
    cons = []
    cons += _orthonormality(_rx, "Rx_orth")
    cons += _handedness(_rx, "Rx_hand")
    cons += _orthonormality(_ry, "Ry_orth")
    cons += _handedness(_ry, "Ry_hand")
    for p in range(9):
        for q in range(p, 9):
            b = _HBuilder()
            for r in range(9):
                b.add(_kk(r, p), _kk(r, q), 1.0)
            cons.append(b.done(1.0 if p == q else 0.0, "K_orth"))
    for p in range(3):
        for q in range(3):
            cons += _scalar_multiple_of_identity(
                lambda r, bcol, p=p, q=q: _kk(3 * p + r, 3 * q + bcol), "K_block")
    for j in range(3):
        cons += _scalar_multiple_of_identity(
            lambda r, bcol, j=j: _vv(r, 3 * j + bcol), "V_block")
    b = _HBuilder()
    b.add(HOM, HOM, 1.0)
    cons.append(b.done(1.0, "homog"))
    return cons


@dataclass
class SDPProblem:
    Q: np.ndarray
    constraints: list
    residual_stack: np.ndarray  # rows G with Q = G^T G


def build_problem(sensor_arm, tool_arm, samples, alpha=1.0):
    """Assemble the SDP from nominal-kinematics poses and measured B.

    A_i and C_i come from the nominal forward kinematics: at
    initialization time kinematic error is part of the measurement
    noise.
    """
    q_a, q_c = joint_readings(samples, sensor_arm.n)
    triples = zip(forward_kinematics(sensor_arm, q_a), (s.B_meas for s in samples),
                  forward_kinematics(tool_arm, q_c))
    G = build_residual_stack(triples, alpha)
    return SDPProblem(symmetrize(G.T @ G), build_constraints(), G)


class ConstraintOperator:
    """A(X) = [<H_j, X>]_j and A*(y) = sum_j y_j H_j, from the flat
    triplets (row j, flat index, value) of the non-zeros of every H_j."""

    def __init__(self, constraints):
        flat = [np.flatnonzero(c.H) for c in constraints]
        self.m = len(constraints)
        self.rows = np.repeat(np.arange(self.m), [f.size for f in flat])
        self.flat = np.concatenate(flat)
        self.vals = np.concatenate([c.H.flat[f] for c, f in zip(constraints, flat)])

    def __call__(self, X):
        return np.bincount(self.rows, self.vals * X.flat[self.flat], self.m)

    def adjoint(self, y):
        return np.bincount(self.flat, self.vals * y[self.rows], DIM * DIM).reshape(DIM, DIM)

    def gram(self):
        """<H_j, H_k> for all pairs, summed over the touched entries only."""
        touched, col = np.unique(self.flat, return_inverse=True)
        M = np.zeros((self.m, touched.size))
        M[self.rows, col] = self.vals
        return M @ M.T


@dataclass
class SDPResult:
    W: np.ndarray
    p_sdp: float
    primal_res: float
    dual_res: float
    iterations: int
    converged: bool
    tol: float


def solve_sdp(problem, tol_factor=1e-8, max_iters=50000, sigma=None,
              over_relax=1.6, check_every=25):
    """Operator-splitting ADMM for min tr(QW) s.t. tr(H_j W)=rho_j, W>=0.

    Iterates are symmetric 133x133 matrices.  Alternates (i) projection
    onto the affine constraint set through the sparse constraint operator
    and a precomputed factorization of its Gram matrix, (ii) PSD
    projection by eigenvalue clamping, (iii) scaled dual update, with
    over-relaxation and residual balancing.  Stops when both residuals
    drop below tol_factor*(1+|Q|_F).  Non-convergence is reported in the
    result, not raised: the caller may still extract.
    """
    Q = problem.Q
    if not np.isfinite(Q).all():
        raise StructureError("objective matrix Q has a non-finite entry")
    A = ConstraintOperator(problem.constraints)
    b = np.array([c.rho for c in problem.constraints])
    G_inv = np.linalg.pinv(A.gram(), rcond=1e-12, hermitian=True)

    def proj_aff(X):
        return X - A.adjoint(G_inv @ (A(X) - b))

    def proj_psd(X):
        lam, V = np.linalg.eigh(X)
        pos = lam > 0  # none positive: an empty product, the zero matrix
        return symmetrize((V[:, pos] * lam[pos]) @ V[:, pos].T)

    tol = tol_factor * (1.0 + np.linalg.norm(Q))
    if sigma is None:
        sigma = max(np.linalg.norm(Q) / 20.0, 1e-3)
    x = proj_aff(np.zeros((DIM, DIM)))
    s = proj_psd(x)
    u = np.zeros((DIM, DIM))
    primal = dual = np.inf
    it = 0
    converged = False
    while it < max_iters:
        it += 1
        x = proj_aff(s - u - Q / sigma)
        xh = over_relax * x + (1.0 - over_relax) * s
        s_new = proj_psd(xh + u)
        u = u + xh - s_new
        if it % check_every == 0 or it == max_iters:
            primal = np.linalg.norm(x - s_new)
            dual = sigma * np.linalg.norm(s_new - s)
            s = s_new
            if primal < tol and dual < tol:
                converged = True
                break
            # residual balancing keeps the two error measures comparable
            if primal > 10.0 * dual:
                sigma *= 2.0
                u /= 2.0
            elif dual > 10.0 * primal:
                sigma /= 2.0
                u *= 2.0
        else:
            s = s_new
    # Report the PSD iterate: exactly PSD, affine-feasible within the
    # primal residual, and its objective tr(QS) >= 0 is far less noisy
    # than the affine iterate's near a zero optimum.
    return SDPResult(s, float(np.sum(Q * s)), float(primal), float(dual),
                     it, converged, tol)


def extract(W):
    """Best rank-1 candidate from W, projected back onto the manifold.

    Returns (w_star, X, Y, Z, rank_ratio) where w_star is the re-lift of
    the projected triple (hence feasible for the original QCQP) and
    rank_ratio = lambda2/lambda1 measures tightness.
    """
    lam, V = sym_eig(W)
    if lam[0] <= 0.0:
        raise DegenerateSolutionError("dominant eigenvalue of W is not positive")
    w = np.sqrt(lam[0]) * V[:, 0]
    if w[HOM] < 0.0:
        w = -w
    if w[HOM] <= 1e-9 * np.linalg.norm(w):
        raise DegenerateSolutionError("homogeneous entry of the extracted vector is ~0")
    w = w / w[HOM]
    Rx = project_rotation(_unvec(w[RX0:RX0 + 9], (3, 3)))
    Ry = project_rotation(_unvec(w[RY0:RY0 + 9], (3, 3)))
    K = _unvec(w[K0:K0 + 81], (9, 9))
    RzT = np.empty((3, 3))
    for p in range(3):
        for q in range(3):
            RzT[p, q] = np.trace(Ry.T @ K[3 * p:3 * p + 3, 3 * q:3 * q + 3]) / 3.0
    Rz = project_rotation(RzT.T)
    tx = w[TX0:TX0 + 3].copy()
    ty = w[TY0:TY0 + 3].copy()
    Vty = _unvec(w[V0:V0 + 27], (3, 9))
    tz = np.array([np.trace(Ry.T @ Vty[:, 3 * j:3 * j + 3]) / 3.0 for j in range(3)])
    X = lie.make_pose(Rx, tx)
    Y = lie.make_pose(Ry, ty)
    Z = lie.make_pose(Rz, tz)
    rank_ratio = float(max(lam[1], 0.0) / lam[0])
    return lift(X, Y, Z), X, Y, Z, rank_ratio


def certify(w_star, Q, p_sdp, residual_stack):
    """A-posteriori sub-optimality gap of a feasible candidate.

    Returns (eta, abs_gap, p_certified).  The candidate objective is
    evaluated through the residual stack G as |G w|^2 (a sum of squares,
    exact near zero cost, where w^T Q w cancels).  The reported
    lower bound is clamped to [0, objective]: the candidate is feasible
    for the QCQP so its objective upper-bounds the true SDP optimum, and
    Q PSD lower-bounds it by zero, so both clamps only remove solver
    noise.  The denominator floor 1e-12*tr(Q) guards the noise-free case
    where the optimum itself vanishes.
    """
    r = residual_stack @ w_star
    obj = float(r @ r)
    p_cert = max(min(float(p_sdp), obj), 0.0)
    floor = 1e-12 * float(np.trace(Q))
    abs_gap = obj - p_cert
    eta = abs_gap / max(p_cert, floor)
    return float(eta), float(abs_gap), float(p_cert)


@dataclass
class InitResult:
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    eta: float
    abs_gap: float
    p_sdp: float
    rank_ratio: float
    iterations: int
    converged: bool
    primal_res: float
    dual_res: float

    def to_dict(self):
        return {**asdict(self), "X": self.X.tolist(), "Y": self.Y.tolist(),
                "Z": self.Z.tolist()}


def initialize(sensor_arm, tool_arm, samples, alpha=1.0, tol_factor=1e-10,
               max_iters=50000):
    """Full certifiable initialization pipeline.

    tol_factor defaults tighter than the bare solver so that the
    certificate stays sharp in the near-zero-optimum (low noise) regime.
    """
    log.info("solving SDP initialization (m=%d samples)", len(samples))
    problem = build_problem(sensor_arm, tool_arm, samples, alpha)
    res = solve_sdp(problem, tol_factor=tol_factor, max_iters=max_iters)
    w_star, X, Y, Z, rank_ratio = extract(res.W)
    eta, abs_gap, p_cert = certify(w_star, problem.Q, res.p_sdp,
                                   problem.residual_stack)
    log.info("init: eta=%.3e rank_ratio=%.3e iters=%d", eta, rank_ratio, res.iterations)
    if not res.converged:
        log.warning("SDP initialization: ADMM did not converge in %d iterations "
                    "(primal %.3e, dual %.3e, tolerance %.3e)",
                    res.iterations, res.primal_res, res.dual_res, res.tol)
    return InitResult(X, Y, Z, eta, abs_gap, p_cert, rank_ratio,
                      res.iterations, res.converged, res.primal_res, res.dual_res)

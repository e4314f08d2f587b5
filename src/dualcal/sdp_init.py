"""Certifiably correct coordinate initialization.

The coordinate-only calibration is lifted to a homogeneous 133-vector

    w = [vec(Rx), vec(Ry), vec(Rz^T kron Ry), tx, ty,
         vec(tz^T kron Ry), 1]

(column-stacking vec throughout).  The chain residuals become linear in
w, the SO(3)/Kronecker structure becomes 160 quadratic equalities, and
the resulting QCQP is relaxed to an SDP over W = w w^T.

solve_sdp solves that relaxation.  It first solves the QCQP locally
(linear lift, then Gauss-Newton over the 18 pose increments, both
minimising w^T Q w on the 133x133 Q alone, whatever the sample count)
and certifies the result through Lagrange multipliers: if
S = Q - sum_j lambda_j H_j is PSD, b^T lambda bounds the SDP from below,
and W = w w^T, feasible with S w = 0, is itself an optimum of the SDP
(the SE-Sync argument, Rosen et al., IJRR 2019).  When that certificate
fails, the SDP is solved by operator-splitting ADMM.  initialize then
recovers (X, Y, Z) from W by rank-1 extraction plus manifold projection,
and the SDP optimum certifies the recovered candidate through an
a-posteriori sub-optimality gap, whose candidate objective is the sum
of squares |G w|^2 over the 12m-row residual stack G.
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np

from . import liegroup as lie
from .errors import CalibrationError, ValidationError
from .kinematics import forward_kinematics
from .numerics import project_rotation

log = logging.getLogger("dualcal")

DIM = 133

# index layout of the lifted vector; _RX[r, c] indexes Rx(r, c), likewise Ry, K, V
RX0, RY0, K0, TX0, TY0, V0, HOM = 0, 9, 18, 99, 102, 105, 132
_RX = RX0 + np.arange(9).reshape(3, 3, order="F")
_RY = RY0 + np.arange(9).reshape(3, 3, order="F")
_KK = K0 + np.arange(81).reshape(9, 9, order="F")
_VV = V0 + np.arange(27).reshape(3, 9, order="F")

# solve_sdp's local start: Gauss-Newton iteration cap and step tolerance,
# and acceptance of its certificate, lambda_min(S) >= -CERT_EIG_TOL * tr(Q)
# and eta <= CERT_ETA
LOCAL_MAX_ITERS = 20
LOCAL_STEP_TOL = 1e-10
CERT_EIG_TOL = 1e-12
CERT_ETA = 1e-6

# ADMM, when the local start does not certify: residual tolerance factor,
# tight so that the certificate stays sharp near a zero optimum; iteration
# cap; over-relaxation; and the interval at which the residuals are checked
# and balanced
ADMM_TOL = 1e-10
ADMM_MAX_ITERS = 50000
ADMM_RELAX = 1.6
ADMM_CHECK_EVERY = 25


def _kron(A, B):
    """Kronecker product of the last two axes, broadcast over the rest."""
    K = np.einsum("...ij,...kl->...ikjl", A, B)
    return K.reshape(K.shape[:-4] + (K.shape[-4] * K.shape[-3], K.shape[-2] * K.shape[-1]))


def lift(X, Y, Z):
    """Lift a coordinate triple to the homogeneous 133-vector."""
    Ry = Y[:3, :3]
    w = np.empty(DIM)
    w[_RX] = X[:3, :3]
    w[_RY] = Ry
    w[_KK] = _kron(Z[:3, :3].T, Ry)
    w[TX0:TX0 + 3] = X[:3, 3]
    w[TY0:TY0 + 3] = Y[:3, 3]
    w[_VV] = _kron(Z[None, :3, 3], Ry)
    w[HOM] = 1.0
    return w


def build_residual_stack(A, B, C):
    """Residual rows of the pose triples of the (m, 4, 4) stacks A, B, C
    (12m x 133): times the lift, rows 12i .. 12i+8 (omega_f) give
    vec(Ra Rx Rb) - vec(Ry Rc Rz) of triple i and rows 12i+9 .. 12i+11
    (omega_g) its translation gap, written into one zeroed (m, 12, 133).

    The stack G satisfies |G w|^2 = sum_i (|f_i|^2 + |g_i|^2); it
    evaluates the objective as a sum of squares, free of the cancellation
    that the assembled Q suffers near zero cost.
    """
    Ra, ta = A[..., :3, :3], A[..., :3, 3]
    Rb, tb = B[..., :3, :3], B[..., :3, 3]
    Rc, tc = C[..., :3, :3], C[..., :3, 3]
    vec_Rc = Rc.mT.reshape(Rc.shape[:-2] + (1, 9))
    O = np.zeros(Ra.shape[:-2] + (12, DIM))
    F, T = O[..., :9, :], O[..., 9:, :]
    # the Rx blocks are Kronecker products acting on vec(Rx), whose entry
    # 3c + r is Rx(r, c), at _RX.T; a block x^T kron I_n holds x_j at
    # [i, n j + i], the lifted entry [i, j] of Ry, K or V
    F[..., _RX.T] = _kron(Rb.mT, Ra).reshape(F.shape[:-1] + (3, 3))
    F[..., np.arange(9)[:, None], _KK] = -vec_Rc
    T[..., _RX.T] = _kron(tb[..., None, :], Ra).reshape(T.shape[:-1] + (3, 3))
    T[..., np.arange(3)[:, None], _RY] = -tc[..., None, :]
    T[..., TX0:TX0 + 3] = Ra
    T[..., TY0:TY0 + 3] = -np.eye(3)
    T[..., np.arange(3)[:, None], _VV] = -vec_Rc
    T[..., HOM] = ta
    return O.reshape(-1, DIM)


class ConstraintOperator:
    """The constraints tr(H_j W) = rho_j, stored as the flat triplets
    (row j, flat index, value) of the non-zeros of every H_j.

    A(X) = [<H_j, X>]_j and A*(y) = sum_j y_j H_j.  Duplicate triplets
    are summed; rho holds each constraint's right-hand side.  The arrays
    are read-only: one operator is shared by every problem.
    """

    def __init__(self, rows, flat, vals, rho):
        self.m = len(rho)
        key, inv = np.unique(np.asarray(rows) * (DIM * DIM) + np.asarray(flat),
                             return_inverse=True)
        vals = np.bincount(inv, vals)
        keep = vals != 0.0
        self.rows, self.flat = np.divmod(key[keep], DIM * DIM)
        self.vals = vals[keep]
        self.rho = np.array(rho, dtype=float)
        for a in (self.rows, self.flat, self.vals, self.rho):
            a.flags.writeable = False

    def __len__(self):
        return self.m

    def __call__(self, X):
        return np.bincount(self.rows, self.vals * X.flat[self.flat], self.m)

    def adjoint(self, y):
        return np.bincount(self.flat, self.vals * y[self.rows], DIM * DIM).reshape(DIM, DIM)

    def columns(self, w):
        """DIM x m matrix whose column j is H_j w."""
        i, k = np.divmod(self.flat, DIM)
        return np.bincount(i * self.m + self.rows, self.vals * w[k],
                           DIM * self.m).reshape(DIM, self.m)

    def gram(self):
        """<H_j, H_k> for all pairs, summed over the touched entries only."""
        touched, col = np.unique(self.flat, return_inverse=True)
        M = np.zeros((self.m, touched.size))
        M[self.rows, col] = self.vals
        return M @ M.T


class _Triplets:
    """Collects the constraints one at a time as (row j, flat index,
    value) triplets of the symmetric H_j, with their rho_j."""

    def __init__(self):
        self.rows, self.flat, self.vals, self.rho = [], [], [], []

    def add(self, i, j, coef):
        row = len(self.rho)
        self.rows += [row, row]
        self.flat += [i * DIM + j, j * DIM + i]
        self.vals += [0.5 * coef, 0.5 * coef]

    def done(self, rho):
        self.rho.append(float(rho))


def _orthonormality(b, idx):
    n = idx.shape[1]
    for l in range(n):
        for k in range(l, n):
            for i, j in zip(idx[:, l], idx[:, k]):
                b.add(i, j, 1.0)
            b.done(1.0 if l == k else 0.0)


def _handedness(b, idx):
    # r1 x r2 = r3, written as three bilinear equalities; the linear r3
    # term is paired with the homogeneous entry.
    for a in range(3):
        a1, a2 = (a + 1) % 3, (a + 2) % 3
        b.add(idx[a1, 0], idx[a2, 1], 1.0)
        b.add(idx[a2, 0], idx[a1, 1], -1.0)
        b.add(idx[a, 2], HOM, -1.0)
        b.done(0.0)


def _scalar_multiple_of_identity(b, block):
    """Constraints forcing Ry^T E to c*I, E the 3x3 block indexed by `block`."""
    for a in range(3):
        for bcol in range(3):
            if a == bcol:
                continue
            for r in range(3):
                b.add(_RY[r, a], block[r, bcol], 1.0)
            b.done(0.0)
    for a in (0, 1):
        for r in range(3):
            b.add(_RY[r, a], block[r, a], 1.0)
            b.add(_RY[r, a + 1], block[r, a + 1], -1.0)
        b.done(0.0)


@functools.cache
def build_constraints():
    """All 160 quadratic equality constraints on the lifted vector, as a
    read-only ConstraintOperator built at the first call of the process.

    In build order: Rx orthonormality 6 and handedness 3, the same for Ry
    (6, 3), K column orthogonality 45, K Kronecker-block structure 72,
    V block structure 24, homogenization 1.
    """
    b = _Triplets()
    _orthonormality(b, _RX)
    _handedness(b, _RX)
    _orthonormality(b, _RY)
    _handedness(b, _RY)
    _orthonormality(b, _KK)
    for p in range(3):
        for q in range(3):
            _scalar_multiple_of_identity(b, _KK[3 * p:3 * p + 3, 3 * q:3 * q + 3])
    for j in range(3):
        _scalar_multiple_of_identity(b, _VV[:, 3 * j:3 * j + 3])
    b.add(HOM, HOM, 1.0)
    b.done(1.0)
    return ConstraintOperator(b.rows, b.flat, b.vals, b.rho)


@dataclass
class SDPProblem:
    Q: np.ndarray  # the constraints, the same for every problem: build_constraints()
    residual_stack: np.ndarray  # rows G with Q = G^T G


def build_problem(nominal, samples):
    """Assemble the SDP from nominal-kinematics poses and measured B.

    A_i and C_i come from the forward kinematics of the nominal system's
    arms: at initialization time kinematic error is part of the
    measurement noise.
    """
    G = build_residual_stack(forward_kinematics(nominal.sensor_arm, samples.q_a), samples.B,
                             forward_kinematics(nominal.tool_arm, samples.q_c))
    return SDPProblem(G.T @ G, G)


@dataclass
class SDPResult:
    W: np.ndarray
    p_sdp: float
    primal_res: float
    dual_res: float
    iterations: int
    converged: bool
    tol: float


def solve_sdp(problem):
    """Solve min tr(QW) s.t. tr(H_j W)=rho_j, W>=0.

    First the local start: linear_lift, local_solve and lagrangian_bound.
    When local_solve converged and its optimum w passes the certificate,
    lambda_min(S)/tr(Q) >= -CERT_EIG_TOL and eta <= CERT_ETA against
    b^T lambda, W = w w^T is returned with p_sdp = b^T lambda at 0
    iterations: W is feasible and S w = 0, so it is an optimum of the SDP.

    Otherwise operator-splitting ADMM, from a cold start.  Iterates are
    symmetric 133x133 matrices.  Alternates (i) projection onto the affine
    constraint set through the sparse constraint operator and a
    precomputed factorization of its Gram matrix, (ii) PSD projection by
    eigenvalue clamping, (iii) scaled dual update, with over-relaxation
    and residual balancing.  Stops when both residuals drop below
    ADMM_TOL*(1+|Q|_F), or after ADMM_MAX_ITERS iterations.
    Non-convergence is reported in the result, not raised: the caller may
    still extract.
    """
    Q = problem.Q
    if not np.isfinite(Q).all():
        raise CalibrationError("objective matrix Q has a non-finite entry")
    tol = ADMM_TOL * (1.0 + np.linalg.norm(Q))
    try:
        X, Y, Z = linear_lift(Q, len(problem.residual_stack) // 12)
    except CalibrationError as exc:
        reason = str(exc)
    else:
        X, Y, Z, steps, local_converged = local_solve(Q, X, Y, Z)
        reason = f"Gauss-Newton did not converge in {steps} iterations"
        if local_converged:
            w = lift(X, Y, Z)
            bound, lambda_min_rel = lagrangian_bound(problem, w)
            eta = certify(problem, w, bound)[0]
            if lambda_min_rel >= -CERT_EIG_TOL and eta <= CERT_ETA:
                log.info("init: local optimum certified after %d Gauss-Newton iterations, "
                         "lambda_min_rel=%.3e", steps, lambda_min_rel)
                # no ADMM ran, so no residual either
                return SDPResult(np.outer(w, w), bound, 0.0, 0.0, 0, True, tol)
            reason = f"lambda_min(S)/tr(Q) = {lambda_min_rel:.3e}, eta = {eta:.3e}"
    log.info("init: local optimum not certified (%s); solving the SDP by ADMM", reason)
    A = build_constraints()
    b = A.rho
    G_inv = np.linalg.pinv(A.gram(), rcond=1e-12, hermitian=True)

    def proj_aff(X):
        return X - A.adjoint(G_inv @ (A(X) - b))

    def proj_psd(X):
        lam, V = np.linalg.eigh(X)
        pos = lam > 0  # none positive: an empty product, the zero matrix
        P = (V[:, pos] * lam[pos]) @ V[:, pos].T
        return 0.5 * (P + P.T)  # exactly symmetric, as extract's eigh assumes

    sigma = max(np.linalg.norm(Q) / 20.0, 1e-3)
    x = proj_aff(np.zeros((DIM, DIM)))
    s = proj_psd(x)
    u = np.zeros((DIM, DIM))
    primal = dual = np.inf
    it = 0
    converged = False
    while it < ADMM_MAX_ITERS:
        it += 1
        x = proj_aff(s - u - Q / sigma)
        xh = ADMM_RELAX * x + (1.0 - ADMM_RELAX) * s
        s_new = proj_psd(xh + u)
        u = u + xh - s_new
        if it % ADMM_CHECK_EVERY == 0 or it == ADMM_MAX_ITERS:
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


def project_lift(w):
    """Nearest coordinate triple to a lifted vector: (X, Y, Z).

    w is scaled to w[HOM] = 1; Rx and Ry are projected onto SO(3), and
    Rz and tz are read off the Kronecker blocks through the projected Ry:
    block (p, q) of K = Rz^T kron Ry is Rz(q, p) Ry and block j of
    V = tz^T kron Ry is tz_j Ry, so each entry is tr(Ry^T block) / 3.
    """
    if w[HOM] <= 1e-9 * np.linalg.norm(w):
        raise CalibrationError("homogeneous entry of the lifted vector is ~0")
    w = w / w[HOM]
    Rx = project_rotation(w[_RX])
    Ry = project_rotation(w[_RY])
    K = w[_KK].reshape(3, 3, 3, 3).transpose(0, 2, 1, 3)  # blocks [p, q]
    Rz = project_rotation(np.trace(Ry.T @ K, axis1=-2, axis2=-1).T / 3.0)
    tx = w[TX0:TX0 + 3].copy()
    ty = w[TY0:TY0 + 3].copy()
    V = w[_VV].reshape(3, 3, 3).transpose(1, 0, 2)  # blocks [j]
    tz = np.trace(Ry.T @ V, axis1=-2, axis2=-1) / 3.0
    return lie.make_pose(Rx, tx), lie.make_pose(Ry, ty), lie.make_pose(Rz, tz)


def extract(W):
    """Best rank-1 candidate from W, projected back onto the manifold.

    Returns (w_star, X, Y, Z, rank_ratio) where w_star is the re-lift of
    the projected triple (hence feasible for the original QCQP) and
    rank_ratio = lambda2/lambda1 measures tightness.
    """
    lam, V = np.linalg.eigh(W)
    lam, V = lam[::-1], V[:, ::-1]  # descending
    if lam[0] <= 0.0:
        raise CalibrationError("dominant eigenvalue of W is not positive")
    w = np.sqrt(lam[0]) * V[:, 0]
    if w[HOM] < 0.0:
        w = -w
    X, Y, Z = project_lift(w)
    rank_ratio = float(max(lam[1], 0.0) / lam[0])
    return lift(X, Y, Z), X, Y, Z, rank_ratio


def certify(problem, w_star, bound):
    """A-posteriori sub-optimality gap of a feasible candidate against a
    lower bound of the SDP (the ADMM objective or the Lagrangian bound).

    Returns (eta, abs_gap, p_certified).  The candidate objective is
    evaluated through the residual stack G as |G w|^2 (a sum of squares,
    exact near zero cost, where w^T Q w cancels).  The reported
    lower bound is clamped to [0, objective]: the candidate is feasible
    for the QCQP so its objective upper-bounds the true SDP optimum, and
    Q PSD lower-bounds it by zero, so both clamps only remove solver
    noise.  The denominator floor 1e-12*tr(Q) guards the noise-free case
    where the optimum itself vanishes.
    """
    r = problem.residual_stack @ w_star
    obj = float(r @ r)
    p_cert = max(min(float(bound), obj), 0.0)
    floor = 1e-12 * float(np.trace(problem.Q))
    abs_gap = obj - p_cert
    eta = abs_gap / max(p_cert, floor)
    return float(eta), float(abs_gap), float(p_cert)


def linear_lift(Q, m):
    """Minimiser of w^T Q w with w[HOM] = 1, ignoring the quadratic
    constraints, projected to (X, Y, Z); Q is built from m samples.

    Solves the normal equations Q[:HOM, :HOM] v = -Q[:HOM, HOM].  The 42
    unknowns Ry, tx, ty and vec(tz^T kron Ry) enter only the 3 translation
    rows of each sample, so the block has rank min(HOM, 12m, 90 + 3m)
    on generic data: full from m = 14 on, where it is solved by LU.
    Below that, or if LU finds it singular, least squares gives the
    min-norm solution.
    """
    A, b = Q[:HOM, :HOM], -Q[:HOM, HOM]
    v = None
    if min(12 * m, 90 + 3 * m) >= HOM:
        try:
            v = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            pass
    if v is None:
        v = np.linalg.lstsq(A, b, rcond=None)[0]
    return project_lift(np.append(v, 1.0))


def lift_jacobian(X, Y, Z):
    """DIM x 18 derivative of lift(X exp(dx), exp(dy) Y, exp(dz) Z) at
    d = [dx, dy, dz] = 0.

    Column k of each block is the product rule applied to the first-order
    change of one pose along the k-th se(3) generator: lift is linear in
    X and bilinear in Ry and (Rz, tz).
    """
    E = lie.hat(np.eye(6))
    dX, dY, dZ = X @ E, E @ Y, E @ Z
    dRy = dY[:, :3, :3]
    Ry, Rz, tz = Y[:3, :3], Z[:3, :3], Z[:3, 3]
    J = np.zeros((18, DIM))
    J[0:6, _RX] = dX[:, :3, :3]
    J[0:6, TX0:TX0 + 3] = dX[:, :3, 3]
    J[6:12, _RY] = dRy
    J[6:12, TY0:TY0 + 3] = dY[:, :3, 3]
    J[6:12, _KK] = _kron(Rz.T, dRy)
    J[6:12, _VV] = _kron(tz[None], dRy)
    J[12:18, _KK] = _kron(dZ[:, :3, :3].mT, Ry)
    J[12:18, _VV] = _kron(dZ[:, None, :3, 3], Ry)
    # C order, as Q @ L's rounding depends on the layout
    return np.ascontiguousarray(J.T)


def local_solve(Q, X, Y, Z):
    """Gauss-Newton on w^T Q w at w = lift(X exp(dx), exp(dy) Y, exp(dz) Z).

    Each step solves the 18x18 normal equations (L^T Q L) d = -L^T Q w,
    with L = lift_jacobian(X, Y, Z), by least squares.  Returns
    (X, Y, Z, iterations, converged); converged once a step's largest
    entry falls to LOCAL_STEP_TOL within LOCAL_MAX_ITERS steps.
    """
    for it in range(1, LOCAL_MAX_ITERS + 1):
        L = lift_jacobian(X, Y, Z)
        QL = Q @ L
        d = np.linalg.lstsq(L.T @ QL, -(QL.T @ lift(X, Y, Z)), rcond=None)[0]
        Ex, Ey, Ez = lie.exp_se3(d.reshape(3, 6))
        X, Y, Z = X @ Ex, Ey @ Y, Ez @ Z
        if np.abs(d).max() <= LOCAL_STEP_TOL:
            return X, Y, Z, it, True
    return X, Y, Z, LOCAL_MAX_ITERS, False


def lagrangian_bound(problem, w):
    """Dual bound of a feasible lifted vector w from its Lagrange multipliers.

    lambda is the min-norm least-squares solution of
    sum_j lambda_j H_j w = Q w.  Returns (b^T lambda, lambda_min(S)/tr(Q))
    with S = Q - A*(lambda).  When S is PSD, weak duality makes b^T lambda
    a lower bound of the SDP, hence of the QCQP.
    """
    A, G, Q = build_constraints(), problem.residual_stack, problem.Q
    lam = np.linalg.lstsq(A.columns(w), G.T @ (G @ w), rcond=None)[0]
    S = Q - A.adjoint(lam)
    return float(A.rho @ lam), float(np.linalg.eigvalsh(S)[0] / np.trace(Q))


@dataclass
class InitResult:
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    eta: float
    abs_gap: float
    p_sdp: float
    rank_ratio: float
    iterations: int  # ADMM's; 0 when the local optimum certified itself
    converged: bool


def initialize(nominal, samples):
    """Full certifiable initialization pipeline, on the nominal system's arms.

    Builds the problem, solves the SDP, extracts and certifies, and warns
    once if ADMM did not converge or else if eta > CERT_ETA (not
    certified).  Raises ValidationError, before building the problem, for
    under 3 samples (6 rows each for X/Y/Z's 18 unknowns).
    """
    if 6 * len(samples) < 18:
        raise ValidationError(f"initialization needs at least 3 samples, got {len(samples)}")
    log.info("certifiable initialization (m=%d samples)", len(samples))
    problem = build_problem(nominal, samples)
    res = solve_sdp(problem)
    w_star, X, Y, Z, rank_ratio = extract(res.W)
    eta, abs_gap, p_cert = certify(problem, w_star, res.p_sdp)
    log.info("init: eta=%.3e rank_ratio=%.3e ADMM iterations=%d", eta, rank_ratio, res.iterations)
    if not res.converged:
        log.warning("SDP initialization: ADMM did not converge in %d iterations "
                    "(primal %.3e, dual %.3e, tolerance %.3e)",
                    res.iterations, res.primal_res, res.dual_res, res.tol)
    elif eta > CERT_ETA:
        log.warning("SDP initialization: result not certified, eta = %.3e exceeds "
                    "the bound CERT_ETA = %.0e", eta, CERT_ETA)
    return InitResult(X, Y, Z, eta, abs_gap, p_cert, rank_ratio, res.iterations, res.converged)

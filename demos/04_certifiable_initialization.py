"""Certifiably correct coordinate initialization.

The coordinate-only problem is lifted to a 133-dimensional homogeneous
vector, its chain residuals become linear, and the SO(3)/Kronecker
structure becomes 160 quadratic equalities.  The resulting QCQP is first
solved locally (linear lift, then Gauss-Newton over the 18 pose
increments) and certified through its Lagrange multipliers: when
S = Q - sum_j lambda_j H_j is PSD, b^T lambda bounds the semidefinite
relaxation from below.  The fallback solves that relaxation by
operator-splitting ADMM; it is run here too, for comparison.  Either way
the recovered candidate comes with an a-posteriori sub-optimality gap
eta; tiny eta certifies near-global optimality of the initialization.
"""

import time

import numpy as np

from dualcal import sdp_init as sdp
from dualcal.liegroup import rotation_angle
from dualcal.simulate import generate_dataset

np.set_printoptions(precision=4, suppress=True)

ds = generate_dataset(m=40, kin_tag="MH", noise_tag="M", seed=7)
nominal = ds.nominal_system
print(f"dataset: {len(ds.samples)} samples, kinematic level MH, noise level M")

problem = sdp.build_problem(nominal, ds.samples)
print(f"lifted QCQP: dim {sdp.DIM}, {len(sdp.build_constraints())} quadratic "
      f"constraints, |Q|_F = {np.linalg.norm(problem.Q):.1f}")

t0 = time.perf_counter()
init = sdp.certified_local(problem)
print(f"certified-local: {init.iterations} Gauss-Newton iterations in "
      f"{1e3 * (time.perf_counter() - t0):.0f} ms, lambda_min(S)/tr(Q) = "
      f"{init.lambda_min_rel:.1e} (accepted >= {-sdp.CERT_EIG_TOL:.0e})")
print(f"certificate: bound b^T lambda = {init.p_sdp:.6e}, eta = {init.eta:.2e}")

t0 = time.perf_counter()
res = sdp.solve_sdp(problem)
print(f"ADMM fallback: {res.iterations} iterations in {time.perf_counter() - t0:.1f} s, "
      f"residuals {res.primal_res:.1e}/{res.dual_res:.1e}, p_sdp = {res.p_sdp:.6e}")
w_star, X, Y, Z, rank_ratio = sdp.extract(res.W)
eta, abs_gap, p_cert = sdp.certify(problem, w_star, res.p_sdp)
print(f"rank ratio lambda2/lambda1 = {rank_ratio:.2e} (rank-1 => relaxation tight)")
print(f"certificate: eta = {eta:.2e}, absolute gap = {abs_gap:.2e}")
gap = max(np.abs(a - b).max() for a, b in ((init.X, X), (init.Y, Y), (init.Z, Z)))
print(f"largest entry difference of X/Y/Z between the two paths: {gap:.1e}")

gt = ds.gt_system
for name, est, true in (("X", init.X, gt.X), ("Y", init.Y, gt.Y), ("Z", init.Z, gt.Z)):
    rot_err = np.degrees(rotation_angle(est[:3, :3] @ true[:3, :3].T))
    trans_err = 1e3 * np.linalg.norm(est[:3, 3] - true[:3, 3])
    print(f"  {name}: rotation error {rot_err:.4f} deg, translation error "
          f"{trans_err:.3f} mm (vs ground truth; residual kinematic bias remains)")

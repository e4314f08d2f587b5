"""Certifiably correct coordinate initialization.

The coordinate-only problem is lifted to a 133-dimensional homogeneous
vector, its chain residuals become linear, and the SO(3)/Kronecker
structure becomes 160 quadratic equalities.  solve_sdp solves the
semidefinite relaxation of the resulting QCQP.  It first solves the QCQP
locally (linear lift, then Gauss-Newton over the 18 pose increments) and
certifies the result through its Lagrange multipliers: when
S = Q - sum_j lambda_j H_j is PSD, b^T lambda bounds the relaxation from
below, and W = w w^T is itself an optimum of it.  When that certificate
fails, as on the smaller dataset below, it solves the relaxation by
operator-splitting ADMM.  Either way the recovered candidate comes with
an a-posteriori sub-optimality gap eta; tiny eta certifies near-global
optimality of the initialization.
"""

import time

import numpy as np

from dualcal import sdp_init as sdp
from dualcal.liegroup import rotation_angle
from dualcal.simulate import generate_dataset

np.set_printoptions(precision=4, suppress=True)


def solve(ds):
    """solve_sdp, extraction and certificate on one dataset; returns (X, Y, Z)."""
    problem = sdp.build_problem(ds.nominal_system, ds.samples)
    t0 = time.perf_counter()
    res = sdp.solve_sdp(problem)
    ms = 1e3 * (time.perf_counter() - t0)
    w_star, X, Y, Z, rank_ratio = sdp.extract(res.W)
    eta, abs_gap, p_cert = sdp.certify(problem, w_star, res.p_sdp)
    if res.iterations == 0:
        _, lambda_min_rel = sdp.lagrangian_bound(problem, w_star)
        print(f"  local optimum certified in {ms:.0f} ms, no ADMM: lambda_min(S)/tr(Q) = "
              f"{lambda_min_rel:.1e} (accepted >= {-sdp.CERT_EIG_TOL:.0e}), "
              f"bound b^T lambda = {res.p_sdp:.6e}")
    else:
        print(f"  local optimum not certified; ADMM: {res.iterations} iterations in "
              f"{ms / 1e3:.1f} s, residuals {res.primal_res:.1e}/{res.dual_res:.1e}, "
              f"p_sdp = {res.p_sdp:.6e}")
    print(f"  rank ratio lambda2/lambda1 = {rank_ratio:.2e} (rank-1 => relaxation tight)")
    print(f"  certificate: eta = {eta:.2e}, absolute gap = {abs_gap:.2e}")
    return X, Y, Z


ds = generate_dataset(m=40, kin_tag="MH", noise_tag="M", seed=7)
print(f"lifted QCQP: dim {sdp.DIM}, {len(sdp.build_constraints())} quadratic constraints")
print(f"dataset: {len(ds.samples)} samples, kinematic level MH, noise level M")
X, Y, Z = solve(ds)
gt = ds.gt_system
for name, est, true in (("X", X, gt.X), ("Y", Y, gt.Y), ("Z", Z, gt.Z)):
    rot_err = np.degrees(rotation_angle(est[:3, :3] @ true[:3, :3].T))
    trans_err = 1e3 * np.linalg.norm(est[:3, 3] - true[:3, 3])
    print(f"  {name}: rotation error {rot_err:.4f} deg, translation error "
          f"{trans_err:.3f} mm (vs ground truth; residual kinematic bias remains)")

ds = generate_dataset(m=15, kin_tag="QH", noise_tag="M", seed=0)
print(f"\ndataset: {len(ds.samples)} samples, kinematic level QH, noise level M")
solve(ds)

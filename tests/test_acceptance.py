"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 7's full-rank
clause is expected to fail: the parameter vector carries an exact
12-dimensional gauge (per-arm SE(3) conjugation of the joint twists is
absorbed by the coordinate transforms), so the stacked Jacobian's rank
saturates at 12n+6 no matter how diverse the excitation; see the test
body and tests/test_chain.py for the verification.
"""

import json
import time

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal import sdp_init as sdp
from dualcal import solver
from dualcal.chain import (DualArmSystem, Measurements, identifiability_report,
                           predict_B, stack)
from dualcal.cli import main as cli_main
from dualcal.evaluate import (ball_consistency, evaluate_samples,
                              min_enclosing_ball, sphere_fit)
from dualcal.kinematics import RobotModel, forward_kinematics
from dualcal.simulate import (default_system, generate_dataset, level, level_targets,
                              noise_twists, perturb_level, sample_configurations)
from helpers import (brute_force_meb, fd_jacobian_columns, noise_free_samples,
                     rand_twist)

LEVELS = ("L", "ML", "M", "MH", "H", "QH")


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


def spearman(x, y):
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))


def split_dataset(m_cal, m_test, kin_tag, noise_tag, seed):
    ds = generate_dataset(m_cal + m_test, kin_tag, noise_tag, seed=seed)
    return ds, ds.samples[:m_cal], ds.samples[m_cal:]


def calibrate(ds, samples, tol=1e-8):
    return solver.calibrate(ds.nominal_system, samples, tol=tol)


def test_criterion_1_lie_kernels():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_rt = 0.0
    for _ in range(10000):
        xi = rand_twist(rng, wmax=np.pi - 0.01)
        worst_rt = max(worst_rt, np.abs(lie.log_se3(lie.exp_se3(xi)) - xi).max())
    worst_J = worst_JJ = 0.0
    h = 1e-6
    for _ in range(1000):
        xi = rand_twist(rng, wmax=2.5)
        d = rng.uniform(-1, 1, 6)
        an = lie.joint_jacobian(xi) @ d
        M = (lie.exp_se3(xi + h * d) - lie.exp_se3(xi - h * d)) / (2 * h) \
            @ lie.pose_inv(lie.exp_se3(xi))
        fd = np.concatenate([lie.unskew(0.5 * (M[:3, :3] - M[:3, :3].T)), M[:3, 3]])
        worst_J = max(worst_J, np.abs(an - fd).max() / max(1.0, np.abs(an).max()))
        q = rng.uniform(-np.pi, np.pi)
        an = lie.joint_jacobian(xi, q) @ d
        M = (lie.exp_se3((xi + h * d) * q) - lie.exp_se3((xi - h * d) * q)) / (2 * h) \
            @ lie.pose_inv(lie.exp_se3(xi * q))
        fd = np.concatenate([lie.unskew(0.5 * (M[:3, :3] - M[:3, :3].T)), M[:3, 3]])
        worst_JJ = max(worst_JJ, np.abs(an - fd).max() / max(1.0, np.abs(an).max()))
    worst_seam = 0.0
    for _ in range(100):
        xi = rand_twist(rng, wmax=1.0)
        w = xi[:3] / max(np.linalg.norm(xi[:3]), 1e-300)
        above, below = xi.copy(), xi.copy()
        above[:3] = w * lie.JACOBIAN_SMALL_ANGLE * (1 + 1e-12)
        below[:3] = w * lie.JACOBIAN_SMALL_ANGLE * (1 - 1e-12)
        worst_seam = max(worst_seam,
                         np.abs(lie.joint_jacobian(above) - lie.joint_jacobian(below)).max())
    dt = time.perf_counter() - t0
    ok = worst_rt < 1e-9 and worst_J < 1e-5 and worst_JJ < 1e-5 \
        and worst_seam < 1e-10 and dt < 10.0
    report(1, ok, f"roundtrip {worst_rt:.2e} (<1e-9), dJ {worst_J:.2e} "
                  f"(<1e-5), dJq {worst_JJ:.2e} (<1e-5), seam {worst_seam:.2e} "
                  f"(<1e-10), {dt:.1f}s (<10s)")
    assert ok


def test_criterion_2_jacobian_finite_difference():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(200):
        joints_a = np.array([rand_twist(rng, 1.5, 0.6) for _ in range(6)])
        joints_c = np.array([rand_twist(rng, 1.5, 0.6) for _ in range(6)])
        X, Y, Z = lie.exp_se3(np.array([rand_twist(rng, 1.0, 0.3), rand_twist(rng, 2.0, 1.0),
                                        rand_twist(rng, 1.0, 0.3)]))
        system = DualArmSystem(RobotModel("a", joints_a, rand_twist(rng, 0.5, 0.5)),
                               RobotModel("c", joints_c, rand_twist(rng, 0.5, 0.5)), X, Y, Z)
        q = np.array([[rng.uniform(-np.pi, np.pi, 6), rng.uniform(-np.pi, np.pi, 6)]
                      for _ in range(2)])
        samples = Measurements(q[:, 0], q[:, 1], predict_B(system, q[:, 0], q[:, 1]))
        _, J = stack(system, samples)
        fd = fd_jacobian_columns(system, samples)
        scale = np.maximum(np.abs(J).max(axis=0), 1e-9)
        worst = max(worst, (np.abs(J - fd).max(axis=0) / scale).max())
    dt = time.perf_counter() - t0
    ok = worst < 1e-4 and dt < 60.0
    report(2, ok, f"worst column error {worst:.2e} (<1e-4) over 200 draws, "
                  f"{dt:.1f}s (<60s)")
    assert ok


def test_criterion_3_noise_free_exact_recovery():
    t0 = time.perf_counter()
    ds, cal, test = split_dataset(80, 40, "M", "none", seed=300)
    init, system, trace = calibrate(ds, cal, tol=1e-12)
    rep = evaluate_samples(test, system.X, system.Y, system.Z,
                           system.sensor_arm, system.tool_arm, "joint")
    dt = time.perf_counter() - t0
    ok = rep.e_rot.mean() < 1e-8 and rep.e_trans.mean() < 1e-8 and dt < 120.0
    report(3, ok, f"held-out mean e_R {rep.e_rot.mean():.2e} rad (<1e-8), "
                  f"e_t {rep.e_trans.mean():.2e} m (<1e-8), {dt:.1f}s (<2min)")
    assert ok


@pytest.fixture(scope="module")
def noisy_sdp_trials():
    """50 seeded QH/QH trials shared by criteria 4 and 5."""
    t0 = time.perf_counter()
    results = []
    for i in range(50):
        ds = generate_dataset(20, "QH", "QH", seed=4000 + i)
        nominal = ds.nominal_system
        problem = sdp.build_problem(nominal.sensor_arm, nominal.tool_arm, ds.samples)
        res = sdp.solve_sdp(problem)
        w_star, X, Y, Z, rank_ratio = sdp.extract(res.W)
        eta, abs_gap, p_cert = sdp.certify(w_star, problem.Q, res.p_sdp,
                                           problem.residual_stack)
        gt = ds.gt_system
        w_gt = sdp.lift(gt.X, gt.Y, gt.Z)
        gt_obj = float(w_gt @ problem.Q @ w_gt)
        results.append({"eta": eta, "rank_ratio": rank_ratio, "p_sdp": res.p_sdp,
                        "p_cert": p_cert, "gt_obj": gt_obj, "tol": res.tol,
                        "converged": res.converged})
    return {"trials": results, "seconds": time.perf_counter() - t0}


def test_criterion_4_sdp_tightness_and_certificate(noisy_sdp_trials):
    trials = noisy_sdp_trials["trials"]
    t0 = time.perf_counter()
    nf_ok = True
    nf_detail = []
    for seed in (400, 401, 402):
        ds = generate_dataset(20, "M", "none", seed=seed)
        nominal = ds.nominal_system
        init = sdp.initialize(nominal.sensor_arm, nominal.tool_arm, ds.samples)
        nf_ok &= init.rank_ratio < 1e-6 and init.eta <= 1e-6
        nf_detail.append((init.rank_ratio, init.eta))
    n_small = sum(1 for r in trials if r["eta"] < 1e-3)
    total = time.perf_counter() - t0 + noisy_sdp_trials["seconds"]
    ok = nf_ok and n_small >= 0.95 * len(trials) and total < 300.0
    worst_nf = max(max(r for r, _ in nf_detail), max(e for _, e in nf_detail))
    report(4, ok, f"noise-free worst rank_ratio/eta {worst_nf:.2e} "
                  f"(<1e-6), noisy QH/QH eta<1e-3 in {n_small}/50 (>=48), "
                  f"{total:.0f}s incl. trials (<5min)")
    assert ok


def test_criterion_5_lower_bound(noisy_sdp_trials):
    trials = noisy_sdp_trials["trials"]
    bad = [r for r in trials if r["p_sdp"] > r["gt_obj"] + 10.0 * r["tol"]]
    margins = [r["gt_obj"] + 10 * r["tol"] - r["p_sdp"] for r in trials]
    ok = not bad
    report(5, ok, f"p_sdp <= gt objective + 10*tol on {50 - len(bad)}/50 trials "
                  f"(min margin {min(margins):.2e})")
    assert ok


def test_criterion_6_trend_reproduction():
    t0 = time.perf_counter()
    sdp_means = []
    unified_means = []
    for li, tag in enumerate(LEVELS):
        e_sdp, e_uni = [], []
        for s in range(10):
            ds, cal, test = split_dataset(80, 40, tag, "M", seed=6000 + 100 * li + s)
            init, system, trace = calibrate(ds, cal, tol=1e-8)
            nominal = ds.nominal_system
            rep_sdp = evaluate_samples(test, init.X, init.Y, init.Z,
                                       nominal.sensor_arm, nominal.tool_arm,
                                       "coordinate_only")
            rep_uni = evaluate_samples(test, system.X, system.Y, system.Z,
                                       system.sensor_arm, system.tool_arm, "joint")
            e_sdp.append(rep_sdp.e_trans.mean())
            e_uni.append(rep_uni.e_trans.mean())
        sdp_means.append(np.mean(e_sdp))
        unified_means.append(np.mean(e_uni))
    rho = spearman(np.arange(6), np.array(sdp_means))
    ratio = unified_means[-1] / sdp_means[-1]
    dt = time.perf_counter() - t0
    ok = rho > 0.9 and ratio < 0.5 and dt < 1200.0
    detail = ", ".join(f"{tag}:{1e3 * m:.2f}mm" for tag, m in zip(LEVELS, sdp_means))
    report(6, ok, f"SDP-only mean e_t by level [{detail}], spearman {rho:.3f} "
                  f"(>0.9); unified/SDP at QH {ratio:.3f} (<0.5); {dt:.0f}s (<20min)")
    assert ok


def test_criterion_7_identifiability_diagnostics():
    t0 = time.perf_counter()
    gt_system = default_system()
    rng = np.random.default_rng(700)
    configs = sample_configurations(80, 6, rng)
    q_a, q_c = np.array(configs).swapaxes(0, 1)
    samples = Measurements(q_a, q_c, predict_B(gt_system, q_a, q_c))
    _, J = stack(gt_system, samples)
    rep = identifiability_report(J, samples)

    qa, qc = q_a[:40].copy(), q_c[:40]
    qa[:, 2] = 0.0
    pinned = Measurements(qa, qc, predict_B(gt_system, qa, qc))
    _, Jp = stack(gt_system, pinned)
    rep_pinned = identifiability_report(Jp, pinned)
    clause_b = (not rep_pinned.well_posed) and rep_pinned.excitation_violations
    dt = time.perf_counter() - t0

    full_rank = rep.rank == 12 * 6 + 18
    ok = full_rank and clause_b and dt < 30.0
    report(7, ok, f"80-sample rank {rep.rank}/{rep.needed} (criterion demands "
                  f"{12 * 6 + 18}; the measured rank saturates at 12n+6=78 because the "
                  f"parameterization carries an exact 12-dim per-arm conjugation gauge, "
                  f"cf. test_chain.py::test_gauge_orbit_preserves_measurements); "
                  f"pinned-joint well_posed={rep_pinned.well_posed} with "
                  f"{len(rep_pinned.excitation_violations)} flags; {dt:.1f}s (<30s)")
    assert clause_b, "excitation-violation clause must hold"
    assert full_rank, (
        "UNATTAINABLE AS SPECIFIED: the stacked Jacobian has an exact 12-dim "
        "null space (SE(3) conjugation of each arm's joint twists absorbed by "
        "X/Y/Z), verified by finite gauge transforms that leave every "
        "measurement invariant; full column rank 12n+18 is impossible")


def test_criterion_8_noise_model_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(800)
    noise_ok = True
    details = []
    for tag in LEVELS:
        draws = noise_twists(level("noise", tag), rng, 10000)
        rot_mean = np.degrees(np.linalg.norm(draws[:, :3], axis=1).mean())
        trans_mean = 1e3 * np.linalg.norm(draws[:, 3:], axis=1).mean()
        rot_t, trans_t = level_targets("noise", tag)
        ok_level = (abs(rot_mean - rot_t) < 0.25 * rot_t
                    and abs(trans_mean - trans_t) < 0.25 * trans_t)
        noise_ok &= ok_level
        if not ok_level:
            details.append(f"noise {tag}: {rot_mean:.3f}deg/{trans_mean:.3f}mm "
                           f"vs {rot_t}/{trans_t}")
    kin_ok = True
    system = default_system()
    for tag in LEVELS:
        rots, transs = [], []
        for _ in range(12):
            _, _, rep = perturb_level(system.sensor_arm, system.tool_arm,
                                      level("kin", tag), rng, report_configs=120)
            rots.append(rep["rot_mean_deg"])
            transs.append(rep["trans_mean_mm"])
        rot_t, trans_t = level_targets("kin", tag)
        ok_level = (abs(np.mean(rots) - rot_t) < 0.25 * rot_t
                    and abs(np.mean(transs) - trans_t) < 0.25 * trans_t)
        kin_ok &= ok_level
        details.append(f"kin {tag}: {np.mean(rots):.3f}deg/{np.mean(transs):.2f}mm "
                       f"(targets {rot_t}/{trans_t})")
    dt = time.perf_counter() - t0
    ok = noise_ok and kin_ok
    report(8, ok, f"all levels within +-25%; {'; '.join(details)}; {dt:.0f}s")
    assert ok


def test_criterion_9_evaluation_kernels():
    rng = np.random.default_rng(900)
    meb_ok = True
    for _ in range(50):
        pts = rng.normal(size=(10, 3))
        c, r = min_enclosing_ball(pts)
        _, rb = brute_force_meb(pts)
        meb_ok &= abs(r - rb) < 1e-9

    center = np.array([1.0, 2.0, 3.0])
    dirs = rng.normal(size=(100, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    c, r, _ = sphere_fit(center + 0.0254 * dirs)
    sphere_ok = np.abs(c - center).max() < 1e-10 and abs(r - 0.0254) < 1e-10

    system = default_system()
    samples = noise_free_samples(system, rng, 10)
    ball_center = np.array([0.02, -0.01, 0.05])
    clouds = []
    q_a, q_c = samples.q_a, samples.q_c
    for i in range(len(samples)):
        dirs = rng.normal(size=(100, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts_E2 = ball_center + 0.0254 * dirs
        A = forward_kinematics(system.sensor_arm, q_a[i])
        C = forward_kinematics(system.tool_arm, q_c[i])
        T = lie.pose_inv(system.X) @ lie.pose_inv(A) @ system.Y @ C
        clouds.append(lie.apply_pose(T, pts_E2))
    result = ball_consistency(clouds, q_a, q_c, system.X, system.Y,
                              system.sensor_arm, system.tool_arm)
    ball_ok = result.r_meb < 1e-9
    ok = meb_ok and sphere_ok and ball_ok
    report(9, ok, f"MEB==brute force on 50 sets: {meb_ok}; sphere exact: "
                  f"{sphere_ok}; perfect-calibration r_MEB {result.r_meb:.2e} m (<1e-9)")
    assert ok


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for run_dir in ("r1", "r2"):
        d = tmp_path / run_dir
        d.mkdir()
        assert cli_main(["generate", "--samples", "20", "--kin-level", "M",
                         "--noise-level", "M", "--seed", "77",
                         "--out", str(d / "data.json")]) == 0
        assert cli_main(["init", "--data", str(d / "data.json"),
                         "--out", str(d / "init.json")]) == 0
        assert cli_main(["calibrate", "--data", str(d / "data.json"),
                         "--init", str(d / "init.json"), "--tol", "1e-10",
                         "--out", str(d / "calib.json")]) == 0
        assert cli_main(["evaluate", "--data", str(d / "data.json"),
                         "--calib", str(d / "calib.json"),
                         "--out", str(d / "report.json")]) == 0
        outs.append({name: (d / name).read_bytes()
                     for name in ("data.json", "init.json", "calib.json", "report.json")})
    same = {name: outs[0][name] == outs[1][name] for name in outs[0]}
    dt = time.perf_counter() - t0
    ok = all(same.values())
    report(10, ok, f"bitwise-identical outputs across two runs: {same}; {dt:.0f}s")
    assert ok

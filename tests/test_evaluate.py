from dataclasses import replace

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal.chain import Measurements
from dualcal.errors import RankDeficientError
from dualcal.evaluate import (_outside, ball_consistency, evaluate_samples, min_enclosing_ball,
                              sphere_fit)
from dualcal.kinematics import forward_kinematics
from dualcal.liegroup import rotation_angle
from dualcal.simulate import (Level, default_system, generate_dataset, sample_configurations,
                              synthesize)
from helpers import brute_force_meb, full_scan_meb, loop_sphere_fit, noise_free_samples


@pytest.fixture(scope="module")
def setup():
    system = default_system()
    samples = noise_free_samples(system, np.random.default_rng(0), 15)
    return system, samples


def test_closed_loop_zero_for_perfect_parameters(setup):
    system, samples = setup
    err = evaluate_samples(system, samples)
    assert err.e_rot.max() < 1e-12
    assert err.e_trans.max() < 1e-12


def test_closed_loop_detects_injected_deviation(setup):
    system, samples = setup
    rng = np.random.default_rng(1)
    dw = rng.normal(size=3)
    dw *= 0.01 / np.linalg.norm(dw)
    dr = rng.normal(size=3)
    dr *= 0.002 / np.linalg.norm(dr)
    delta = np.concatenate([dw, dr])
    s = samples[:1]
    bumped = Measurements(s.q_a, s.q_c, s.B @ lie.exp_se3(delta))
    err = evaluate_samples(system, bumped)
    assert abs(err.e_rot[0] - 0.01) < 0.01 * 0.05
    assert abs(err.e_trans[0] - 0.002) < 0.002 * 0.05


def test_rotation_angle_half_turn_edge():
    # tr(R) = -1: the arccos argument clamps and the angle is pi
    R = np.diag([1.0, -1.0, -1.0])
    assert abs(rotation_angle(R) - np.pi) < 1e-12


def test_rotation_angle_matches_arccos_definition():
    rng = np.random.default_rng(2)
    for _ in range(100):
        w = rng.normal(size=3)
        w *= rng.uniform(0.1, 3.0) / np.linalg.norm(w)
        R = lie.exp_se3(np.r_[w, 0.0, 0.0, 0.0])[:3, :3]
        via_arccos = np.arccos(np.clip((np.trace(R) - 1) / 2, -1, 1))
        assert abs(rotation_angle(R) - via_arccos) < 1e-7


def test_rotation_angle_conjugation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        w = rng.normal(size=3)
        R = lie.exp_se3(np.r_[w, 0.0, 0.0, 0.0])[:3, :3]
        S = lie.exp_se3(np.r_[rng.normal(size=3), 0.0, 0.0, 0.0])[:3, :3]
        assert abs(rotation_angle(S @ R @ S.T) - rotation_angle(R)) < 1e-12


def test_evaluate_samples_on_calibrated_and_nominal_arms(setup):
    system, _ = setup
    rng = np.random.default_rng(4)
    nominal = default_system()
    q_a, q_c = sample_configurations(10, 6, rng)
    samples = synthesize(nominal, q_a, q_c, Level("none", 0, 0), rng)
    report = evaluate_samples(nominal, samples)
    assert report.e_rot.max() < 1e-12
    coordinate_only = replace(system, sensor_arm=nominal.sensor_arm, tool_arm=nominal.tool_arm)
    report2 = evaluate_samples(coordinate_only, samples)
    assert report2.e_rot.max() < 1e-12


def test_evaluate_samples_matches_closed_loop_composition():
    # noisy samples, scored with the perturbed ground truth and with the
    # nominal system: every deviation is nonzero
    ds = generate_dataset(25, "M", "M", seed=5)
    s = ds.samples
    for system in (ds.gt_system, ds.nominal_system):
        A = forward_kinematics(system.sensor_arm, s.q_a)
        C = forward_kinematics(system.tool_arm, s.q_c)
        E = np.linalg.inv(A @ system.X @ s.B) @ system.Y @ C @ system.Z
        report = evaluate_samples(system, s)
        assert report.e_rot.min() > 1e-6 and report.e_trans.min() > 1e-7
        assert np.abs(report.e_rot - rotation_angle(E[:, :3, :3])).max() <= 1e-12
        assert np.abs(report.e_trans - np.linalg.norm(E[:, :3, 3], axis=-1)).max() <= 1e-12
        # the translation is read in the measured frame, B^-1 B', not B' B^-1
        E_other = system.Y @ C @ system.Z @ np.linalg.inv(A @ system.X @ s.B)
        assert np.abs(report.e_trans - np.linalg.norm(E_other[:, :3, 3], axis=-1)).max() > 1e-6


def test_sphere_fit_exact():
    rng = np.random.default_rng(5)
    center = np.array([1.0, 2.0, 3.0])
    radius = 0.0254
    dirs = rng.normal(size=(100, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = center + radius * dirs
    c, r, rms = sphere_fit(pts)
    assert np.abs(c - center).max() < 1e-10
    assert abs(r - radius) < 1e-10
    assert rms < 1e-12


def test_sphere_fit_noisy_monte_carlo():
    rng = np.random.default_rng(6)
    center = np.array([0.3, -0.2, 0.5])
    radius = 0.0254
    errs = []
    for _ in range(50):
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = center + radius * dirs + rng.normal(0, 1e-4, (200, 3))
        c, r, _ = sphere_fit(pts)
        errs.append(np.linalg.norm(c - center))
    assert np.mean(errs) < 5e-5


def noisy_clouds(rng, shape, noise=5e-5):
    """Clouds of points on 25.4 mm spheres about random centers, plus noise."""
    dirs = rng.normal(size=shape + (3,))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    centers = rng.uniform(-1.0, 1.0, shape[:-1] + (1, 3))
    return centers + 0.0254 * dirs + rng.normal(0.0, noise, shape + (3,))


def test_sphere_fit_batch_matches_per_cloud_fits():
    clouds = noisy_clouds(np.random.default_rng(10), (200, 64))
    c, r, rms = sphere_fit(clouds)
    assert c.shape == (200, 3) and r.shape == (200,) and rms.shape == (200,)
    for k in range(len(clouds)):
        for ref in (sphere_fit(clouds[k]), loop_sphere_fit(clouds[k])):
            assert np.abs(c[k] - ref[0]).max() < 1e-12
            assert abs(r[k] - ref[1]) < 1e-12 and abs(rms[k] - ref[2]) < 1e-12
    # a (2, 100) batch is the (200,) batch, reshaped
    c2, r2, rms2 = sphere_fit(clouds.reshape(2, 100, 64, 3))
    assert np.array_equal(c2.reshape(200, 3), c) and np.array_equal(r2.ravel(), r)
    assert np.array_equal(rms2.ravel(), rms)


def test_sphere_fit_coplanar_errors():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
    with pytest.raises(RankDeficientError) as exc:
        sphere_fit(pts)
    assert exc.value.index == 0 and exc.value.rank == 3
    clouds = noisy_clouds(np.random.default_rng(11), (20, 64))
    for k in (0, 7, 19):
        bad = clouds.copy()
        bad[k, :, 2] = 0.25
        bad[19, :, 1] = 0.5  # a later degenerate cloud is not the one named
        with pytest.raises(RankDeficientError) as exc:
            sphere_fit(bad)
        assert exc.value.index == k
    # the cut-off, 1e-10 of the largest singular value of [2P, 1]: a 25.4 mm
    # cloud about 1 m out with out-of-plane scatter at or below 1e-11 m is
    # flat; a line and a single point lose one and two ranks more
    rng = np.random.default_rng(12)
    center = np.array([0.6, -0.5, 0.6])
    dirs = rng.normal(size=(64, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    cases = []
    for scatter in (1e-13, 1e-11):
        flat = center + 0.0254 * dirs
        flat[:, 2] = center[2] + scatter * rng.normal(size=64)
        cases.append((flat, 3))
    cases.append((center + np.outer(rng.uniform(-0.0254, 0.0254, 64), dirs[0]), 2))
    cases.append((np.tile(center, (64, 1)), 1))
    for cloud, rank in cases:
        with pytest.raises(RankDeficientError) as exc:
            sphere_fit(cloud)
        assert exc.value.rank == rank


def test_sphere_fit_nearly_coplanar_cloud_errors_naming_it():
    # 1e-7 m off a plane passes the rank cut-off; Gauss-Newton then runs the
    # center off until [u, 1] is singular
    clouds = noisy_clouds(np.random.default_rng(13), (5, 64))
    clouds[3, :, 2] = 0.25 + np.random.default_rng(14).normal(0.0, 1e-7, 64)
    with pytest.raises(RankDeficientError) as exc:
        sphere_fit(clouds)
    assert exc.value.index == 3 and exc.value.rank < 4


def test_sphere_fit_unconverged_cloud_errors_naming_it():
    # 1e-5 m off a plane 0.4 m from the sphere's center: full rank, and every
    # solve succeeds, but the steps never fall to the tolerance (the center
    # drifts tens of meters out)
    clouds = noisy_clouds(np.random.default_rng(15), (5, 64))
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(64, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    clouds[2] = np.array([0.6, -0.5, 0.6]) + 0.0254 * dirs
    clouds[2, :, 2] = 1.0 + 1e-5 * rng.normal(size=64)
    with pytest.raises(RankDeficientError, match=r"^cloud 2 does not determine a sphere") as exc:
        sphere_fit(clouds)
    assert exc.value.index == 2 and exc.value.rank == 4


def test_meb_single_point():
    c, r = min_enclosing_ball([np.array([1.0, 2.0, 3.0])])
    assert r == 0.0
    assert np.array_equal(c, [1.0, 2.0, 3.0])


def test_meb_refuses_no_points():
    with pytest.raises(ValueError, match="need at least one point"):
        min_enclosing_ball([])


def test_meb_two_points_diameter():
    p = np.array([0.0, 0.0, 0.0])
    q = np.array([2.0, 0.0, 0.0])
    c, r = min_enclosing_ball([p, q])
    assert np.abs(c - [1, 0, 0]).max() < 1e-12
    assert abs(r - 1.0) < 1e-12


def test_meb_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(10):
        pts = rng.normal(size=(10, 3))
        c, r = min_enclosing_ball(pts)
        cb, rb = brute_force_meb(pts)
        assert abs(r - rb) < 1e-9
        dmax = max(np.linalg.norm(p - c) for p in pts)
        assert dmax <= r * (1 + 1e-12) + 1e-12
        assert abs(dmax - r) < 1e-9  # radius attained, nothing outside


def test_meb_large_point_set():
    # 5000 points, of which the move-to-front scans see only the pivots
    pts = np.random.default_rng(0).normal(size=(5000, 3))
    c, r = min_enclosing_ball(pts)
    d = np.linalg.norm(pts - c, axis=1)
    assert d.max() <= r * (1 + 1e-12) + 1e-14
    support = pts[np.abs(d - r) <= 1e-9 * r]
    assert len(support) >= 2
    pairwise = np.linalg.norm(support[:, None] - support[None], axis=-1)
    assert r >= 0.5 * pairwise.max()


def _fitted_centers(rng):
    """One noisy 64-point cloud per posture, one ball: 200 fitted centers."""
    dirs = rng.normal(size=(200, 64, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    noise = rng.normal(0.0, 5e-5, (200, 64, 3))
    return sphere_fit(np.array([0.02, -0.01, 0.05]) + 0.0254 * dirs + noise)[0]


def _meb_set(kind, rng):
    if kind == "fitted-centers":
        return _fitted_centers(rng)
    if kind == "fitted-centers-reversed":
        return _fitted_centers(rng)[::-1]
    if kind == "fitted-centers-shuffled":
        return rng.permutation(_fitted_centers(rng))
    if kind == "gaussian":
        return rng.normal(size=(200, 3))
    if kind == "gaussian-2000":
        return rng.normal(size=(2000, 3))
    if kind == "cospherical":  # every point on the surface of one sphere
        dirs = rng.normal(size=(300, 3))
        return rng.normal(size=3) + 0.7 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    if kind == "tetrahedron":  # 4 cospherical points hold the center, 100 lie inside
        tet = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
        tet = tet + rng.normal(0.0, 0.05, (4, 3))
        tet /= np.linalg.norm(tet, axis=1, keepdims=True)
        inner = rng.normal(size=(100, 3))
        inner *= rng.uniform(0.0, 0.9, (100, 1)) / np.linalg.norm(inner, axis=1, keepdims=True)
        return rng.permutation(np.vstack([tet, inner]))
    if kind == "repeated":  # 3 points, 50 copies each
        return rng.permutation(np.repeat(rng.normal(size=(3, 3)), 50, axis=0))
    if kind == "two-repeated":  # 2 points, 100 copies each
        return rng.permutation(np.repeat(rng.normal(size=(2, 3)), 100, axis=0))
    if kind == "collinear":
        return rng.normal(size=(100, 1)) * rng.normal(size=3) + rng.normal(size=3)
    assert kind == "coplanar"
    return rng.normal(size=(100, 2)) @ rng.normal(size=(2, 3)) + rng.normal(size=3)


@pytest.mark.parametrize("kind", ["fitted-centers", "gaussian", "cospherical", "repeated",
                                  "collinear", "coplanar", "gaussian-2000",
                                  "fitted-centers-reversed", "fitted-centers-shuffled",
                                  "tetrahedron", "two-repeated"])
def test_meb_matches_full_scan(kind):
    rng = np.random.default_rng(21)
    # the fitted centers' ball, in any order, is the scan's to the last bits
    rel = 1e-15 if kind.startswith("fitted-centers") else 1e-12
    for _ in range(3 if kind == "gaussian" else 1):
        pts = _meb_set(kind, rng)
        c, r = min_enclosing_ball(pts)
        _, r_ref = full_scan_meb(pts)
        assert abs(r - r_ref) <= rel * r_ref
        dist = np.linalg.norm(pts - c, axis=1)
        assert not _outside(dist, r).any()
    if kind == "tetrahedron":  # the four cospherical points, and only they, support it
        assert abs(r - 1.0) <= 1e-12
        assert np.sort(np.abs(dist - r) <= 1e-12)[-5:].tolist() == [False] + [True] * 4
    if kind == "two-repeated":  # the ball on the two points' diameter
        p, q = np.unique(pts, axis=0)
        assert abs(2.0 * r - np.linalg.norm(p - q)) <= 1e-12 * r


def _synthetic_clouds(system, samples, ball_center_E2, radius, rng):
    """Exact sphere point clouds rendered into the sensor frame."""
    clouds = []
    for q_a, q_c in zip(samples.q_a, samples.q_c):
        dirs = rng.normal(size=(120, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts_E2 = ball_center_E2 + radius * dirs
        # sensor-frame pose of the tool flange: X^-1 A^-1 Y C
        A = forward_kinematics(system.sensor_arm, q_a)
        C = forward_kinematics(system.tool_arm, q_c)
        T = lie.pose_inv(system.X) @ lie.pose_inv(A) @ system.Y @ C
        clouds.append(lie.apply_pose(T, pts_E2))
    return clouds


def test_ball_consistency_perfect_calibration(setup):
    system, samples = setup
    rng = np.random.default_rng(8)
    center = np.array([0.02, -0.01, 0.05])
    clouds = _synthetic_clouds(system, samples[:10], center, 0.0254, rng)
    q_a, q_c = samples.q_a[:10], samples.q_c[:10]
    result = ball_consistency(system, clouds, q_a, q_c)
    assert result.r_meb < 1e-9
    assert np.abs(result.centers - center).max() < 1e-9
    assert np.abs(result.radii - 0.0254).max() < 1e-9


def test_ball_consistency_refuses_clouds_without_joint_rows(setup):
    system, samples = setup
    clouds = _synthetic_clouds(system, samples[:3], np.zeros(3), 0.0254,
                               np.random.default_rng(8))
    with pytest.raises(ValueError, match="need one point cloud per posture"):
        ball_consistency(system, clouds, samples.q_a[:2], samples.q_c[:2])


def test_ball_consistency_sensitive_to_miscalibration(setup):
    system, samples = setup
    rng = np.random.default_rng(9)
    clouds = _synthetic_clouds(system, samples[:10], np.array([0.02, -0.01, 0.05]),
                               0.0254, rng)
    Y_bad = system.Y.copy()
    Y_bad[:3, 3] += np.array([0.001, 0.0, 0.0])  # 1 mm base-to-base error
    q_a, q_c = samples.q_a[:10], samples.q_c[:10]
    result = ball_consistency(replace(system, Y=Y_bad), clouds, q_a, q_c)
    assert result.r_meb >= 0.5e-3


def test_ball_consistency_centers_follow_the_closed_loop_transform(setup):
    system, samples = setup
    rng = np.random.default_rng(13)
    ball_center = np.array([0.02, -0.01, 0.05])
    s = samples[:10]
    clouds = _synthetic_clouds(system, s, ball_center, 0.0254, rng)
    Y_bad = system.Y @ lie.exp_se3(np.array([0.004, -0.002, 0.003, 0.002, 0.001, -0.001]))
    bad = replace(system, Y=Y_bad)
    result = ball_consistency(bad, clouds, s.q_a, s.q_c)
    inv = np.linalg.inv
    A = forward_kinematics(system.sensor_arm, s.q_a)
    C = forward_kinematics(system.tool_arm, s.q_c)
    # each exact sphere's sensor-frame center (homogeneous), mapped by
    # C^-1 Y^-1 A X with the wrong Y
    sensor_centers = inv(system.X) @ inv(A) @ system.Y @ C @ np.append(ball_center, 1.0)
    expected = (inv(C) @ inv(Y_bad) @ A @ system.X @ sensor_centers[..., None])[:, :3, 0]
    assert np.abs(result.centers - expected).max() <= 1e-12
    assert np.abs(result.centers - ball_center).max() > 1e-3


def test_ball_consistency_ragged_clouds_match_per_posture_fits(setup):
    system, samples = setup
    rng = np.random.default_rng(12)
    clouds = _synthetic_clouds(system, samples[:10], np.array([0.02, -0.01, 0.05]),
                               0.0254, rng)
    clouds = [c[:80] if i % 3 else c[:40] for i, c in enumerate(clouds)]
    clouds = [c + rng.normal(0.0, 5e-5, c.shape) for c in clouds]
    q_a, q_c = samples.q_a[:10], samples.q_c[:10]
    result = ball_consistency(system, clouds, q_a, q_c)
    for i, cloud in enumerate(clouds):
        A = forward_kinematics(system.sensor_arm, q_a[i])
        C = forward_kinematics(system.tool_arm, q_c[i])
        T = lie.pose_inv(C) @ lie.pose_inv(system.Y) @ A @ system.X
        c, r, rms = sphere_fit(lie.apply_pose(T, cloud))
        assert np.abs(result.centers[i] - c).max() < 1e-12
        assert abs(result.radii[i] - r) < 1e-12 and abs(result.fit_rms[i] - rms) < 1e-12
    # the first degenerate posture is named, whichever point-count group holds it
    clouds[7] = clouds[7][:3]
    clouds[5] = clouds[5][:, [0, 1, 0]]
    with pytest.raises(RankDeficientError) as exc:
        ball_consistency(system, clouds, q_a, q_c)
    assert exc.value.index == 5

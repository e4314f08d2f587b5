import copy
import logging

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal import solver
from dualcal.chain import DualArmSystem, Measurements, stack
from dualcal.errors import CalibrationError, ValidationError
from dualcal.kinematics import perturb_model
from dualcal.simulate import default_system
from dualcal.solver import calibrate, solve, step
from helpers import gauss_solve, noise_free_samples


@pytest.fixture(scope="module")
def setup():
    gt = default_system()
    samples = noise_free_samples(gt, np.random.default_rng(0), 80)
    return gt, samples


def fields(system):
    """The refined parameters, one array each: X, Y, Z and both arms' joint twists."""
    return (system.X, system.Y, system.Z,
            system.sensor_arm.joint_twists, system.tool_arm.joint_twists)


def test_step_zero_residual_no_motion(setup):
    gt, samples = setup
    new, delta, e = step(gt, samples)
    assert np.abs(e).max() < 1e-12
    assert np.abs(delta).max() < 1e-12
    for a, b in zip(fields(new), fields(gt)):
        assert np.abs(a - b).max() < 1e-12


def test_step_solves_damped_normal_equations():
    rng = np.random.default_rng(8)
    gt = default_system()
    samples = noise_free_samples(gt, rng, 20)
    start = DualArmSystem(
        perturb_model(gt.sensor_arm, rng.normal(0, 5e-4, (6, 6))),
        perturb_model(gt.tool_arm, rng.normal(0, 5e-4, (6, 6))),
        gt.X, gt.Y, gt.Z).apply_delta(np.r_[rng.normal(0, 1e-3, 18), np.zeros(72)])
    new, delta, e = step(start, samples)
    e_ref, J = stack(start, samples)
    assert np.array_equal(e, e_ref)
    expect = gauss_solve(J.T @ J + solver.DAMPING * np.eye(J.shape[1]), -(J.T @ e))
    assert np.abs(delta - expect).max() < 1e-9
    assert np.abs(delta).max() > 1e-4  # a step that moves, not a trivially zero one
    for a, b in zip(fields(new), fields(start.apply_delta(delta))):
        assert np.array_equal(a, b)


def test_single_step_contracts_coordinate_error(setup):
    gt, samples = setup
    bump = np.zeros(gt.dim)
    bump[6:12] = 1e-4  # Y only
    start = gt.apply_delta(bump)
    e0, _ = stack(start, samples)
    new, _, _ = step(start, samples)
    e1, _ = stack(new, samples)
    assert np.linalg.norm(e1) < np.linalg.norm(e0) / 100.0


def test_solve_converges_quadratically_to_zero_residual(setup):
    # the Jacobian is exact for the increment of apply_delta, so the
    # iteration converges quadratically
    gt, samples = setup
    rng = np.random.default_rng(1)
    start = gt.apply_delta(rng.normal(0, 1e-5, gt.dim))
    final, trace = solve(start, samples, tol=1e-12)
    e, _ = stack(final, samples)
    assert trace.iterations <= 5
    assert np.linalg.norm(e) < 1e-12


def test_solve_at_ground_truth_converges_immediately(setup):
    gt, samples = setup
    final, trace = solve(gt, samples, tol=1e-9)
    assert trace.converged
    assert trace.iterations == 1
    assert trace.step_norms[0] < 1e-10


def test_solve_recovers_from_kinematic_perturbation():
    rng = np.random.default_rng(2)
    nominal = default_system()
    gt_system = DualArmSystem(
        perturb_model(nominal.sensor_arm, rng.normal(0, 5e-4, (6, 6))),
        perturb_model(nominal.tool_arm, rng.normal(0, 5e-4, (6, 6))),
        nominal.X, nominal.Y, nominal.Z)
    samples = noise_free_samples(gt_system, rng, 80)
    holdout = noise_free_samples(gt_system, rng, 30)
    final, trace = solve(nominal, samples, tol=1e-12)
    assert trace.converged
    e_train, _ = stack(final, samples)
    e_test, _ = stack(final, holdout)
    assert np.linalg.norm(e_train) < 1e-10
    assert np.linalg.norm(e_test) < 1e-9
    assert trace.residual_norms[-1] <= trace.residual_norms[0]


def test_trace_is_deterministic(setup):
    gt, samples = setup
    rng = np.random.default_rng(3)
    start = gt.apply_delta(rng.normal(0, 1e-4, gt.dim))
    f1, t1 = solve(start, samples, tol=1e-10)
    f2, t2 = solve(start, samples, tol=1e-10)
    assert t1.residual_norms == t2.residual_norms
    assert t1.step_norms == t2.step_norms
    assert all(np.array_equal(a, b) for a, b in zip(fields(f1), fields(f2)))
    assert len(t1.residual_norms) == t1.iterations


def test_gauge_shift_of_zero_offset_absorbed():
    # data generated with a shifted sensor-arm zero offset still fits:
    # the discrepancy folds into the flange-to-sensor transform
    rng = np.random.default_rng(4)
    nominal = default_system()
    shifted_arm = copy.deepcopy(nominal.sensor_arm)
    delta = np.array([0.002, -0.001, 0.003, 0.001, -0.002, 0.001])
    shifted_arm.zero_offset = lie.log_se3(
        lie.exp_se3(shifted_arm.zero_offset) @ lie.exp_se3(delta))
    gt_system = DualArmSystem(shifted_arm, nominal.tool_arm,
                              nominal.X, nominal.Y, nominal.Z)
    samples = noise_free_samples(gt_system, rng, 60)
    final, trace = solve(nominal, samples, tol=1e-12)  # nominal zero offset
    e, _ = stack(final, samples)
    assert np.linalg.norm(e) < 1e-10


def test_final_residual_never_worse(setup):
    gt, samples = setup
    rng = np.random.default_rng(5)
    for trial in range(3):
        start = gt.apply_delta(rng.normal(0, 3e-4, gt.dim))
        e0, _ = stack(start, samples)
        final, _ = solve(start, samples, tol=1e-10)
        e1, _ = stack(final, samples)
        assert np.linalg.norm(e1) <= np.linalg.norm(e0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_step_on_non_finite_residual_errors(setup):
    gt, samples = setup
    q_a = samples.q_a.copy()
    q_a[4, 2] = 1e200  # finite, but its joint coefficients overflow to NaN
    bad = Measurements(q_a, samples.q_c, samples.B)
    with pytest.raises(CalibrationError, match="^residual or Jacobian is not finite$") as excinfo:
        step(gt, bad)
    assert excinfo.type is CalibrationError


def test_tol_validation(setup, monkeypatch):
    gt, samples = setup

    def no_sdp(*args, **kwargs):
        raise AssertionError("the initialization ran although tol is invalid")
    monkeypatch.setattr("dualcal.solver.initialize", no_sdp)
    for tol in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^tol must be finite and positive, got {tol}$"):
            solve(gt, samples, tol)
        with pytest.raises(ValueError, match=f"^tol must be finite and positive, got {tol}$"):
            calibrate(gt, samples, tol=tol)


def test_solve_warns_only_when_not_converged(setup, caplog, monkeypatch):
    gt, samples = setup
    start = gt.apply_delta(np.full(gt.dim, 1e-4))
    with caplog.at_level(logging.WARNING, logger="dualcal"):
        _, trace = solve(start, samples, tol=1e-9)
        assert trace.converged and not caplog.records
        monkeypatch.setattr(solver, "MAX_ITERS", 1)
        _, trace = solve(start, samples, tol=1e-9)
    assert not trace.converged
    assert len(caplog.records) == 1 and "did not converge" in caplog.records[0].getMessage()


def test_calibrate_from_given_coords_skips_sdp(monkeypatch):
    # data from perturbed arms; the refinement starts at the true X, Y, Z
    # and the nominal arms, and no SDP runs when the coordinates are given
    rng = np.random.default_rng(6)
    nominal = default_system()
    gt_system = DualArmSystem(
        perturb_model(nominal.sensor_arm, rng.normal(0, 5e-4, (6, 6))),
        perturb_model(nominal.tool_arm, rng.normal(0, 5e-4, (6, 6))),
        nominal.X, nominal.Y, nominal.Z)
    samples = noise_free_samples(gt_system, rng, 60)

    def no_sdp(*args, **kwargs):
        raise AssertionError("the SDP ran although coordinates were given")
    monkeypatch.setattr("dualcal.solver.initialize", no_sdp)
    init, final, trace = calibrate(nominal, samples, (nominal.X, nominal.Y, nominal.Z), tol=1e-12)
    assert init is None
    assert trace.converged
    e, _ = stack(final, samples)
    assert np.linalg.norm(e) < 1e-10


def test_calibrate_rejects_fewer_rows_than_parameters(setup, monkeypatch):
    # 14 samples give 84 residual rows for 90 parameters: refused before any solve
    gt, samples = setup

    def no_sdp(*args, **kwargs):
        raise AssertionError("the initialization ran on too few samples")
    monkeypatch.setattr("dualcal.solver.initialize", no_sdp)
    for coords in (None, (gt.X, gt.Y, gt.Z)):
        with pytest.raises(ValidationError, match="at least 15 samples .* got 14"):
            calibrate(gt, samples[:14], coords)
    init, final, trace = calibrate(gt, samples[:15], (gt.X, gt.Y, gt.Z))
    assert trace.converged

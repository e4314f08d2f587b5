"""Synthetic dual-arm data generation.

Six perturbation/noise levels (L, ML, M, MH, H, QH) reproduce the
published pose-error and measurement-noise distributions: measurement
noise sigmas follow analytically from the target means (the mean norm of
an isotropic Gaussian 3-vector is sigma*sqrt(8/pi)), kinematic sigmas
were calibrated by a Monte-Carlo tuning run (see demos/retune_levels.py)
and are frozen in assets/levels.json.
"""

import json
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from . import liegroup as lie
from .chain import Q_MIN, DualArmSystem, Measurements, predict_B
from .errors import CalibrationError, ValidationError
from .kinematics import default_arm, forward_kinematics, perturb_model

LEVEL_TAGS = ("L", "ML", "M", "MH", "H", "QH")

# mean norm of N(0, sigma^2 I_3) is sigma * sqrt(8/pi)
MEAN_NORM_FACTOR = float(np.sqrt(8.0 / np.pi))

D_MIN = 0.3  # rad, least joint-space spacing of consecutive configurations (sample_configurations)


@dataclass
class Level:
    """A kinematic-perturbation or measurement-noise level: the Gaussian
    scales of a twist's rotation and translation parts."""

    tag: str
    rot_sigma: float    # radians
    trans_sigma: float  # meters


_LEVELS = json.loads(resources.files("dualcal.assets").joinpath("levels.json").read_text())


def level(kind, tag):
    """Level by kind ('kin' or 'noise') and tag; 'none' gives zero sigmas:
    nominal twists or exact measurements."""
    if tag == "none":
        return Level("none", 0.0, 0.0)
    if tag not in _LEVELS[kind]:
        name = {"kin": "kinematic", "noise": "noise"}[kind]
        raise ValidationError(f"unknown {name} level '{tag}' (use {LEVEL_TAGS} or 'none')")
    d = _LEVELS[kind][tag]
    return Level(tag, d["rot_sigma"], d["trans_sigma"])


def level_targets(kind, tag):
    """Published (mean rotation deg, mean translation mm) for a level."""
    d = _LEVELS[kind][tag]
    return d["target_rot_deg"], d["target_trans_mm"]


def _spaced(x, y):
    """Whether candidates x and y (..., 2, n) differ by at least D_MIN in
    joint-space infinity-norm on both arms."""
    return (np.abs(x - y).max(axis=-1) >= D_MIN).all(axis=-1)


def _spaced_runs(cand, last, need):
    """Indices of the first (at most `need`) candidates of cand (k, 2, n)
    that the spacing rule accepts in order, after the accepted `last`
    (None before the first acceptance).

    The rule compares each candidate with the last accepted one, so a run
    of accepted candidates is one vectorized pass over consecutive pairs;
    a failed pair ends the run, and the next run starts by comparing the
    candidate after the failure with the run's last member.
    """
    bad = np.flatnonzero(~_spaced(cand[1:], cand[:-1]))  # cand[j + 1] too close to cand[j]
    runs, i, total = [], 0, 0
    while i < len(cand) and total < need:
        if last is not None and not _spaced(cand[i], last):
            i += 1
            continue
        b = np.searchsorted(bad, i)
        end = min(bad[b] + 1 if b < len(bad) else len(cand), i + need - total)
        runs.append(np.arange(i, end))
        total += end - i
        last, i = cand[end - 1], end + 1
    return np.concatenate(runs) if runs else np.zeros(0, dtype=int)


def sample_configurations(m, n_joints, rng):
    """Joint readings q_a, q_c (m, n_joints) of m valid configurations, by
    rejection sampling.

    Validity, by the fixed rules chain.Q_MIN and D_MIN: every joint of both
    arms stays away from zero (|q| >= Q_MIN, where the joint twist
    contribution degenerates) and consecutive samples differ by at least
    D_MIN in joint-space infinity-norm on each arm.  Gives up after
    1000 m candidates.

    Candidates are drawn in blocks, one (k, 2, n_joints) uniform draw
    each, and judged a block at a time.  An array draw takes its values in
    order from the same stream as one-at-a-time draws, so the result is
    that of drawing a then c per candidate until m are accepted, and the
    generator is left where those draws leave it: the last block is drawn
    again from its saved state, up to the candidate that completed the
    set.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    budget, got, parts, k = 1000 * m, 0, [], 0
    while budget:
        # about twice the candidates still needed (the rules accept about
        # one in 1.8), doubling while the rules reject more, at most 4096
        # per block
        k = min(budget, 4096, max(2 * k, 2 * (m - got) + 32))
        state = rng.bit_generator.state
        block = rng.uniform(-np.pi, np.pi, (k, 2, n_joints))
        budget -= k
        valid = np.flatnonzero((np.abs(block) >= Q_MIN).all(axis=(1, 2)))
        take = valid[_spaced_runs(block[valid], parts[-1][-1] if parts else None, m - got)]
        if len(take):
            parts.append(block[take])
            got += len(take)
        if got == m:
            if take[-1] + 1 < k:  # leave the stream just after the completing candidate
                rng.bit_generator.state = state
                rng.uniform(-np.pi, np.pi, (take[-1] + 1, 2, n_joints))
            q = np.concatenate(parts)
            return q[:, 0], q[:, 1]
    raise CalibrationError(f"could not draw {m} valid configurations in {1000 * m} "
                           f"tries (q_min={Q_MIN}, d_min={D_MIN})")


def _cross(a, b):
    """Row-wise cross products of (k, 3) arrays: np.cross's products and
    differences, in its order, so the same bits, without its axis
    handling, which costs several times the arithmetic on a few rows."""
    return a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]


def draw_joint_deltas(arm, level, rng):
    """Per-joint twist increments reproducing the published deviations.

    The rotation part is isotropic Gaussian.  Its translation companion
    is anchored to the joint's own axis (the perturbed axis direction
    pivots about the point of the nominal axis closest to the origin,
    delta_rho = p x delta_omega): base-frame twist increments with an
    independent translation part would swing the whole arm about the
    base origin and overshoot the published translation deviations at
    every level.  An independent isotropic Gaussian translation part is
    added on top.

    One normal draw over the (n, 6) columns whose sigma is positive takes
    the stream of per-joint draws, rotation then translation, as
    noise_twists does.
    """
    sigma = np.repeat([level.rot_sigma, level.trans_sigma], 3)
    drawn = sigma > 0
    d = np.zeros((arm.n, 6))
    d[:, drawn] = rng.normal(0.0, sigma[drawn], (arm.n, int(drawn.sum())))
    w, rho = np.ascontiguousarray(arm.joint_twists[:, :3]), arm.joint_twists[:, 3:]
    ww = (w[:, None, :] @ w[:, :, None])[:, 0, 0]  # each w @ w, through the same dot kernel
    p = _cross(w, rho) / np.maximum(ww, 1e-12)[:, None]
    t = _cross(p, d[:, :3])
    if level.trans_sigma > 0:  # not otherwise: adding zeros would turn a -0.0 into 0.0
        t += d[:, 3:]
    d[:, 3:] = t
    return d


def pose_deviation(arm_nom, arm_gt, q):
    """Rotation (rad) and translation (m) FK deviations at (m, n) joint values."""
    Tn, Tg = forward_kinematics(arm_nom, q), forward_kinematics(arm_gt, q)
    rot = lie.rotation_angle(Tn[:, :3, :3] @ np.swapaxes(Tg[:, :3, :3], -1, -2))
    return rot, np.linalg.norm(Tn[:, :3, 3] - Tg[:, :3, 3], axis=-1)


def perturb_level(system, level, rng):
    """Ground truth: both arms' joint twists perturbed at the level, sensor arm first."""
    arms = {"sensor_arm": system.sensor_arm, "tool_arm": system.tool_arm}
    return replace(system, **{name: perturb_model(arm, draw_joint_deltas(arm, level, rng))
                              for name, arm in arms.items()})


def noise_twists(level, rng, m):
    """m measurement-noise twists (m, 6) in one draw: the same stream as m
    draws of 3 rotation then 3 translation values."""
    return rng.normal(0.0, np.repeat([level.rot_sigma, level.trans_sigma], 3), (m, 6))


@dataclass
class SyntheticDataset:
    nominal_system: DualArmSystem
    gt_system: DualArmSystem  # None in blind exports
    samples: Measurements
    seed: int                 # seed and levels are None in a dataset that does not record them
    kin_level: str
    noise_level: str


def synthesize(system_gt, q_a, q_c, noise, rng):
    """Measurements B_i = gtB_i * exp(noise twist) at (m, n) joint readings."""
    B = predict_B(system_gt, q_a, q_c)
    if noise.rot_sigma > 0 or noise.trans_sigma > 0:
        B = B @ lie.exp_se3(noise_twists(noise, rng, len(q_a)))
    return Measurements(q_a, q_c, B)


def default_system():
    """Nominal dual-arm setup used by the bundled simulations.

    Two UR5-like arms with bases 1.2 m apart and rotated 2.3 rad about
    the vertical, plus small flange-to-sensor and flange-to-tool offsets.
    """
    X, Y, Z = lie.exp_se3(np.array([[0.10, -0.05, 0.15, 0.05, -0.03, 0.08],
                                    [0.05, 0.08, 2.30, 1.15, -0.35, 0.10],
                                    [-0.10, 0.20, 0.30, 0.02, 0.04, -0.06]]))
    return DualArmSystem(default_arm("sensor_arm"), default_arm("tool_arm"), X, Y, Z)


def generate_dataset(m, kin_tag, noise_tag, seed, system=None):
    """Deterministic end-to-end dataset generation from a seed.

    Three draws on one generator, in this order: the ground truth (the
    nominal kinematics perturbed at the kinematic level), the valid
    configurations (by the fixed rules chain.Q_MIN and D_MIN), and the
    measurement noise at the noise level.  Each is taken in blocks, on the
    same stream as one-at-a-time draws (per joint, per candidate, per
    sample), so a seed gives, byte for byte, the dataset of those draws.
    """
    rng = np.random.default_rng(seed)
    nominal = system if system is not None else default_system()
    gt = perturb_level(nominal, level("kin", kin_tag), rng)
    q_a, q_c = sample_configurations(m, nominal.n, rng)
    samples = synthesize(gt, q_a, q_c, level("noise", noise_tag), rng)
    return SyntheticDataset(nominal, gt, samples, seed, kin_tag, noise_tag)

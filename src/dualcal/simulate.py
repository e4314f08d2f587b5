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
from .kinematics import (_require_fields, default_arm, field_array, forward_kinematics,
                         model_from_dict, model_to_dict, perturb_model)

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


def _spaced(x, y, d_min):
    """Whether candidates x and y (..., 2, n) differ by at least d_min in
    joint-space infinity-norm on both arms."""
    return (np.abs(x - y).max(axis=-1) >= d_min).all(axis=-1)


def _spaced_runs(cand, last, d_min, need):
    """Indices of the first (at most `need`) candidates of cand (k, 2, n)
    that the spacing rule accepts in order, after the accepted `last`
    (None before the first acceptance).

    The rule compares each candidate with the last accepted one, so a run
    of accepted candidates is one vectorized pass over consecutive pairs;
    a failed pair ends the run, and the next run starts by comparing the
    candidate after the failure with the run's last member.
    """
    bad = np.flatnonzero(~_spaced(cand[1:], cand[:-1], d_min))  # cand[j + 1] too close to cand[j]
    runs, i, total = [], 0, 0
    while i < len(cand) and total < need:
        if last is not None and not _spaced(cand[i], last, d_min):
            i += 1
            continue
        b = np.searchsorted(bad, i)
        end = min(bad[b] + 1 if b < len(bad) else len(cand), i + need - total)
        runs.append(np.arange(i, end))
        total += end - i
        last, i = cand[end - 1], end + 1
    return np.concatenate(runs) if runs else np.zeros(0, dtype=int)


def sample_configurations(m, n_joints, rng, q_min=Q_MIN, d_min=D_MIN):
    """Joint readings q_a, q_c (m, n_joints) of m valid configurations, by
    rejection sampling.

    Validity: every joint of both arms stays away from zero
    (|q| >= q_min, where the joint twist contribution degenerates) and
    consecutive samples differ by at least d_min in joint-space
    infinity-norm on each arm.  Draws lie in [-pi, pi), so a q_min of pi
    or more, or a d_min of 2 pi or more for m >= 2, is refused before
    drawing.  Gives up after 1000 m candidates.

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
    for name, value, bound, text in (("q_min", q_min, np.pi, "pi"),
                                     ("d_min", d_min, 2 * np.pi if m > 1 else np.inf, "2 pi")):
        if not value >= 0:
            raise ValidationError(f"{name} must be a nonnegative number, got {value}")
        if value >= bound:
            raise ValidationError(f"{name} must be less than {text}, since joint draws lie "
                                  f"in [-pi, pi), got {value}")
    budget, got, parts, k = 1000 * m, 0, [], 0
    while budget:
        # about twice the candidates still needed (the default rules accept
        # about one in 1.8), doubling while the rules reject more, at most
        # 4096 per block
        k = min(budget, 4096, max(2 * k, 2 * (m - got) + 32))
        state = rng.bit_generator.state
        block = rng.uniform(-np.pi, np.pi, (k, 2, n_joints))
        budget -= k
        valid = np.flatnonzero((np.abs(block) >= q_min).all(axis=(1, 2)))
        take = valid[_spaced_runs(block[valid], parts[-1][-1] if parts else None, d_min, m - got)]
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
                           f"tries (q_min={q_min}, d_min={d_min})")


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
    p = np.cross(w, rho) / np.maximum(ww, 1e-12)[:, None]
    t = np.cross(p, d[:, :3])
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


# --- JSON schema -----------------------------------------------------------

def system_to_dict(system):
    return {
        "sensor_arm": model_to_dict(system.sensor_arm),
        "tool_arm": model_to_dict(system.tool_arm),
        "X": system.X.tolist(),
        "Y": system.Y.tolist(),
        "Z": system.Z.tolist(),
    }


def system_from_dict(d, what="system"):
    _require_fields(d, ("sensor_arm", "tool_arm", "X", "Y", "Z"), what)
    return DualArmSystem(model_from_dict(d["sensor_arm"], "sensor_arm"),
                         model_from_dict(d["tool_arm"], "tool_arm"),
                         *(field_array(d[k], k, (4, 4), "a pose is 4x4 row-major")
                           for k in "XYZ"))


def dataset_to_dict(ds, blind=False):
    s = ds.samples
    return {
        "nominal_system": system_to_dict(ds.nominal_system),
        "gt_system": None if (blind or ds.gt_system is None) else system_to_dict(ds.gt_system),
        "samples": [{"q_a": q_a, "q_c": q_c, "B": B}
                    for q_a, q_c, B in zip(s.q_a.tolist(), s.q_c.tolist(), s.B.tolist())],
        "seed": ds.seed,
        "kin_level": ds.kin_level,
        "noise_level": ds.noise_level,
    }


def _list_field(d, key, what):
    """The non-empty list d[key] of the JSON object d, else a
    ValidationError naming the field."""
    _require_fields(d, (key,), what)
    raw = d[key]
    if not isinstance(raw, list):
        raise ValidationError(f"{key} is not a list")
    if not raw:
        raise ValidationError(f"{what} field '{key}' is empty")
    return raw


def _sample_field(raw, key, shape, expected, prefix="samples"):
    """Field `key` of every entry of the list `prefix`, stacked; a failure
    names the first bad entry."""
    try:
        return field_array([s[key] for s in raw], f"{prefix}[:].{key}", (len(raw),) + shape,
                           expected)
    except (KeyError, TypeError, ValidationError):
        for i, s in enumerate(raw):
            if not isinstance(s, dict) or key not in s:
                raise ValidationError(f"{prefix}[{i}] is missing field '{key}'") from None
            field_array(s[key], f"{prefix}[{i}].{key}", shape, expected)
        raise


def dataset_from_dict(d):
    _require_fields(d, ("nominal_system",), "dataset")
    raw = _list_field(d, "samples", "dataset")
    nominal = system_from_dict(d["nominal_system"], "nominal_system")
    na, nc = nominal.sensor_arm.n, nominal.tool_arm.n
    samples = Measurements(
        _sample_field(raw, "q_a", (na,), f"the sensor arm has {na} joints"),
        _sample_field(raw, "q_c", (nc,), f"the tool arm has {nc} joints"),
        _sample_field(raw, "B", (4, 4), "a pose is 4x4 row-major"))
    gt = system_from_dict(d["gt_system"], "gt_system") if d.get("gt_system") else None
    return SyntheticDataset(nominal, gt, samples, d.get("seed"), d.get("kin_level"),
                            d.get("noise_level"))


def _load_json(path, what):
    """The JSON object in a file, else a ValidationError naming the file."""
    try:
        with open(path) as f:
            d = json.load(f)
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ValidationError(f"{what} file {path} is not a JSON object")
    return d


def load_dataset(path):
    return dataset_from_dict(_load_json(path, "dataset"))

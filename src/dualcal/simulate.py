"""Synthetic dual-arm data generation.

Six perturbation/noise levels (L, ML, M, MH, H, QH) reproduce the
published pose-error and measurement-noise distributions: measurement
noise sigmas follow analytically from the target means (the mean norm of
an isotropic Gaussian 3-vector is sigma*sqrt(8/pi)), kinematic sigmas
were calibrated by a Monte-Carlo tuning run (see demos/retune_levels.py)
and are frozen in assets/levels.json.
"""

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import liegroup as lie
from .chain import DualArmSystem, Measurements, predict_B
from .errors import InfeasibleSamplingError, ValidationError
from .kinematics import (_require_fields, field_array, forward_kinematics, model_from_dict,
                         model_to_dict, perturb_model)

LEVEL_TAGS = ("L", "ML", "M", "MH", "H", "QH")

# mean norm of N(0, sigma^2 I_3) is sigma * sqrt(8/pi)
MEAN_NORM_FACTOR = float(np.sqrt(8.0 / np.pi))


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


def sample_configurations(m, n_joints, rng, q_min=0.15, d_min=0.3):
    """m valid (q_a, q_c) pairs by rejection sampling.

    Validity: every joint of both arms stays away from zero
    (|q| >= q_min, where the joint twist contribution degenerates) and
    consecutive samples differ by at least d_min in joint-space
    infinity-norm on each arm.  Gives up after 1000 m candidates.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    for name, value in (("q_min", q_min), ("d_min", d_min)):
        if not value >= 0:
            raise ValidationError(f"{name} must be a nonnegative number, got {value}")
    out = []
    for _ in range(1000 * m):
        q_a = rng.uniform(-np.pi, np.pi, n_joints)
        q_c = rng.uniform(-np.pi, np.pi, n_joints)
        if np.abs(q_a).min() < q_min or np.abs(q_c).min() < q_min:
            continue
        if out and (np.abs(q_a - out[-1][0]).max() < d_min or
                    np.abs(q_c - out[-1][1]).max() < d_min):
            continue
        out.append((q_a, q_c))
        if len(out) == m:
            return out
    raise InfeasibleSamplingError(f"could not draw {m} valid configurations in {1000 * m} "
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
    """
    deltas = np.zeros((arm.n, 6))
    for k in range(arm.n):
        w = arm.joint_twists[k][:3]
        rho = arm.joint_twists[k][3:]
        dw = rng.normal(0.0, level.rot_sigma, 3) if level.rot_sigma > 0 else np.zeros(3)
        p = np.cross(w, rho) / max(w @ w, 1e-12)
        deltas[k, :3] = dw
        deltas[k, 3:] = np.cross(p, dw)
        if level.trans_sigma > 0:
            deltas[k, 3:] += rng.normal(0.0, level.trans_sigma, 3)
    return deltas


def pose_deviation(arm_nom, arm_gt, configs):
    """Rotation (rad) and translation (m) FK deviations per config."""
    Tn = forward_kinematics(arm_nom, np.array(configs))
    Tg = forward_kinematics(arm_gt, np.array(configs))
    rot = lie.rotation_angle(Tn[:, :3, :3] @ np.swapaxes(Tg[:, :3, :3], -1, -2))
    return rot, np.linalg.norm(Tn[:, :3, 3] - Tg[:, :3, 3], axis=-1)


def perturb_level(arm_a, arm_c, level, rng, report_configs=500):
    """Perturb both arms at the given level and report the induced
    end-pose deviations (mean/std, degrees and millimeters) over random
    valid configurations."""
    gt_a = perturb_model(arm_a, draw_joint_deltas(arm_a, level, rng))
    gt_c = perturb_model(arm_c, draw_joint_deltas(arm_c, level, rng))
    def stats(rot, trans):
        return {"rot_mean_deg": float(np.degrees(rot.mean())),
                "rot_std_deg": float(np.degrees(rot.std())),
                "trans_mean_mm": float(1e3 * trans.mean()),
                "trans_std_mm": float(1e3 * trans.std())}

    report = {"level": level.tag}
    deviations = []
    for name, nom, gt in (("sensor_arm", arm_a, gt_a), ("tool_arm", arm_c, gt_c)):
        configs = [q for q, _ in sample_configurations(report_configs, nom.n, rng,
                                                       d_min=0.0)]
        deviations.append(pose_deviation(nom, gt, configs))
        report[name] = stats(*deviations[-1])
    report.update(stats(*(np.concatenate(d) for d in zip(*deviations))))
    return gt_a, gt_c, report


def noise_twists(level, rng, m):
    """m measurement-noise twists (m, 6) in one draw: the same stream as m
    draws of 3 rotation then 3 translation values."""
    return rng.normal(0.0, np.repeat([level.rot_sigma, level.trans_sigma], 3), (m, 6))


@dataclass
class SyntheticDataset:
    nominal_system: DualArmSystem
    gt_system: DualArmSystem  # None in blind exports
    samples: Measurements
    seed: int
    kin_level: str
    noise_level: str
    reports: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.nominal_system.n


def synthesize(system_gt, system_nominal, configs, noise, rng, seed=None, kin_tag="custom"):
    """Measurements B_i = gtB_i * exp(noise twist) over the configs."""
    q_a, q_c = np.array([q for q, _ in configs]), np.array([q for _, q in configs])
    B = predict_B(system_gt, q_a, q_c)
    if noise.rot_sigma > 0 or noise.trans_sigma > 0:
        B = B @ lie.exp_se3(noise_twists(noise, rng, len(configs)))
    return SyntheticDataset(system_nominal.copy(), system_gt.copy(), Measurements(q_a, q_c, B),
                            seed, kin_tag, noise.tag)


def default_system():
    """Nominal dual-arm setup used by the bundled simulations.

    Two UR5-like arms with bases 1.2 m apart and rotated 2.3 rad about
    the vertical, plus small flange-to-sensor and flange-to-tool offsets.
    """
    from .kinematics import default_arm
    X = lie.exp_se3(np.array([0.10, -0.05, 0.15, 0.05, -0.03, 0.08]))
    Y = lie.exp_se3(np.array([0.05, 0.08, 2.30, 1.15, -0.35, 0.10]))
    Z = lie.exp_se3(np.array([-0.10, 0.20, 0.30, 0.02, 0.04, -0.06]))
    return DualArmSystem(default_arm("sensor_arm"), default_arm("tool_arm"), X, Y, Z)


def generate_dataset(m, kin_tag, noise_tag, seed, system=None, q_min=0.15,
                     d_min=0.3):
    """Deterministic end-to-end dataset generation from a seed.

    Perturbs the nominal kinematics at the kinematic level (the result
    is the ground truth), samples valid configurations, and corrupts the
    exact measurements at the measurement-noise level.
    """
    rng = np.random.default_rng(seed)
    nominal = system.copy() if system is not None else default_system()
    gt_a, gt_c, report = perturb_level(nominal.sensor_arm, nominal.tool_arm,
                                       level("kin", kin_tag), rng, report_configs=200)
    gt = DualArmSystem(gt_a, gt_c, nominal.X.copy(), nominal.Y.copy(), nominal.Z.copy())
    configs = sample_configurations(m, nominal.n, rng, q_min=q_min, d_min=d_min)
    ds = synthesize(gt, nominal, configs, level("noise", noise_tag), rng, seed=seed,
                    kin_tag=kin_tag)
    ds.reports["kinematic_deviation"] = report
    return ds


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


def _sample_field(raw, key, shape, expected, prefix="samples"):
    """Field `key` of every entry of the list `prefix`, stacked; a failure
    names the first bad entry."""
    if not isinstance(raw, list):
        raise ValidationError(f"{prefix} is not a list")
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
    _require_fields(d, ("nominal_system", "samples", "seed", "kin_level", "noise_level"),
                    "dataset")
    if not d["samples"]:
        raise ValidationError("dataset field 'samples' is empty")
    nominal = system_from_dict(d["nominal_system"], "nominal_system")
    na, nc = nominal.sensor_arm.n, nominal.tool_arm.n
    samples = Measurements(
        _sample_field(d["samples"], "q_a", (na,), f"the sensor arm has {na} joints"),
        _sample_field(d["samples"], "q_c", (nc,), f"the tool arm has {nc} joints"),
        _sample_field(d["samples"], "B", (4, 4), "a pose is 4x4 row-major"))
    gt = system_from_dict(d["gt_system"], "gt_system") if d.get("gt_system") else None
    return SyntheticDataset(nominal, gt, samples, d["seed"], d["kin_level"], d["noise_level"])


def _load_json(path, what):
    """The JSON object in a file, else a ValidationError naming the file."""
    try:
        with open(path) as f:
            d = json.load(f)
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ValidationError(f"{what} file {path} is not a JSON object")
    return d


def load_dataset(path):
    return dataset_from_dict(_load_json(path, "dataset"))

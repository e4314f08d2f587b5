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
from .chain import DualArmSystem, MeasurementSample, predict_B
from .errors import InfeasibleSamplingError, ValidationError
from .kinematics import forward_kinematics, model_from_dict, model_to_dict, perturb_model

LEVEL_TAGS = ("L", "ML", "M", "MH", "H", "QH")

# mean norm of N(0, sigma^2 I_3) is sigma * sqrt(8/pi)
MEAN_NORM_FACTOR = float(np.sqrt(8.0 / np.pi))


@dataclass
class NoiseLevel:
    """Measurement-noise level: isotropic Gaussian twist on B."""

    tag: str
    rot_sigma: float    # radians
    trans_sigma: float  # meters


@dataclass
class KinLevel:
    """Kinematic-perturbation level: per-joint twist increment scales."""

    tag: str
    rot_sigma: float    # radians, rotation part of each joint delta
    trans_sigma: float  # meters, translation part of each joint delta


def _load_levels():
    text = resources.files("dualcal.assets").joinpath("levels.json").read_text()
    return json.loads(text)


_LEVELS = _load_levels()


def noise_level(tag):
    """Measurement-noise level by tag; 'none' gives exact measurements."""
    if tag == "none":
        return NoiseLevel("none", 0.0, 0.0)
    if tag not in _LEVELS["noise"]:
        raise ValidationError(f"unknown noise level '{tag}' (use {LEVEL_TAGS} or 'none')")
    d = _LEVELS["noise"][tag]
    return NoiseLevel(tag, d["rot_sigma"], d["trans_sigma"])


def kin_level(tag):
    """Kinematic-perturbation level by tag; 'none' keeps nominal twists."""
    if tag == "none":
        return KinLevel("none", 0.0, 0.0)
    if tag not in _LEVELS["kin"]:
        raise ValidationError(f"unknown kinematic level '{tag}' (use {LEVEL_TAGS} or 'none')")
    d = _LEVELS["kin"][tag]
    return KinLevel(tag, d["rot_sigma"], d["trans_sigma"])


def level_targets(kind, tag):
    """Published (mean rotation deg, mean translation mm) for a level."""
    d = _LEVELS[kind][tag]
    return d["target_rot_deg"], d["target_trans_mm"]


def sample_configurations(m, n_joints, rng, q_min=0.15, d_min=0.3, max_tries=None):
    """m valid (q_a, q_c) pairs by rejection sampling.

    Validity: every joint of both arms stays away from zero
    (|q| >= q_min, where the joint twist contribution degenerates) and
    consecutive samples differ by at least d_min in joint-space
    infinity-norm on each arm.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    if max_tries is None:
        max_tries = 1000 * m
    out = []
    prev = None
    tries = 0
    while len(out) < m:
        if tries >= max_tries:
            raise InfeasibleSamplingError(
                f"could not draw {m} valid configurations in {max_tries} tries "
                f"(q_min={q_min}, d_min={d_min})")
        tries += 1
        q_a = rng.uniform(-np.pi, np.pi, n_joints)
        q_c = rng.uniform(-np.pi, np.pi, n_joints)
        if np.abs(q_a).min() < q_min or np.abs(q_c).min() < q_min:
            continue
        if prev is not None:
            if (np.abs(q_a - prev[0]).max() < d_min or
                    np.abs(q_c - prev[1]).max() < d_min):
                continue
        out.append((q_a, q_c))
        prev = (q_a, q_c)
    return out


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


def noise_twist(level, rng):
    d = np.zeros(6)
    if level.rot_sigma > 0:
        d[:3] = rng.normal(0.0, level.rot_sigma, 3)
    if level.trans_sigma > 0:
        d[3:] = rng.normal(0.0, level.trans_sigma, 3)
    return d


@dataclass
class SyntheticDataset:
    nominal_system: DualArmSystem
    gt_system: DualArmSystem  # None in blind exports
    samples: list
    seed: int
    kin_level: str
    noise_level: str
    reports: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.nominal_system.n


def synthesize(system_gt, system_nominal, configs, noise, rng, seed=None,
               kin_tag="custom", noise_tag=None):
    """Measurements B_i = gtB_i * exp(noise twist) over the configs."""
    B = predict_B(system_gt, [MeasurementSample(q_a, q_c, np.eye(4)) for q_a, q_c in configs])
    if noise.rot_sigma > 0 or noise.trans_sigma > 0:
        # one noise twist per sample, drawn in sample order
        B = B @ lie.exp_se3(np.array([noise_twist(noise, rng) for _ in configs]))
    samples = [MeasurementSample(q_a.copy(), q_c.copy(), B_i)
               for (q_a, q_c), B_i in zip(configs, B)]
    return SyntheticDataset(system_nominal.copy(), system_gt.copy(), samples,
                            seed, kin_tag, noise_tag or noise.tag)


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
    klevel = kin_level(kin_tag)
    gt_a, gt_c, report = perturb_level(nominal.sensor_arm, nominal.tool_arm,
                                       klevel, rng, report_configs=200)
    gt = DualArmSystem(gt_a, gt_c, nominal.X.copy(), nominal.Y.copy(), nominal.Z.copy())
    configs = sample_configurations(m, nominal.n, rng, q_min=q_min, d_min=d_min)
    ds = synthesize(gt, nominal, configs, noise_level(noise_tag), rng, seed=seed,
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


def system_from_dict(d):
    for key in ("sensor_arm", "tool_arm", "X", "Y", "Z"):
        if key not in d:
            raise ValidationError(f"system is missing field '{key}'")
    return DualArmSystem(model_from_dict(d["sensor_arm"]), model_from_dict(d["tool_arm"]),
                         np.array(d["X"], dtype=float), np.array(d["Y"], dtype=float),
                         np.array(d["Z"], dtype=float))


def dataset_to_dict(ds, blind=False):
    return {
        "nominal_system": system_to_dict(ds.nominal_system),
        "gt_system": None if (blind or ds.gt_system is None) else system_to_dict(ds.gt_system),
        "samples": [{"q_a": s.q_a.tolist(), "q_c": s.q_c.tolist(),
                     "B": s.B_meas.tolist()} for s in ds.samples],
        "seed": ds.seed,
        "kin_level": ds.kin_level,
        "noise_level": ds.noise_level,
    }


def field_array(obj, name, shape, expected):
    """obj as a finite float array of `shape`, else a ValidationError naming it."""
    try:
        v = np.array(obj, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} is not an array of numbers") from None
    if v.shape != shape:
        raise ValidationError(f"{name} has {v.size} values, {expected}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} has a non-finite value")
    return v


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
    for key in ("nominal_system", "samples", "seed", "kin_level", "noise_level"):
        if key not in d:
            raise ValidationError(f"dataset is missing field '{key}'")
    if not d["samples"]:
        raise ValidationError("dataset field 'samples' is empty")
    nominal = system_from_dict(d["nominal_system"])
    na, nc = nominal.sensor_arm.n, nominal.tool_arm.n
    samples = map(MeasurementSample,
                  _sample_field(d["samples"], "q_a", (na,), f"the sensor arm has {na} joints"),
                  _sample_field(d["samples"], "q_c", (nc,), f"the tool arm has {nc} joints"),
                  _sample_field(d["samples"], "B", (4, 4), "a pose is 4x4 row-major"))
    gt = system_from_dict(d["gt_system"]) if d.get("gt_system") else None
    return SyntheticDataset(nominal, gt, list(samples), d["seed"], d["kin_level"], d["noise_level"])


def save_dataset(ds, path, blind=False):
    with open(path, "w") as f:
        json.dump(dataset_to_dict(ds, blind=blind), f)
        f.write("\n")


def load_dataset(path):
    with open(path) as f:
        return dataset_from_dict(json.load(f))

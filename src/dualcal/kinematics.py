"""Product-of-exponentials forward kinematics for one serial arm."""

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import liegroup as lie
from .errors import StructureError, ValidationError


@dataclass
class RobotModel:
    """n joint twists (base frame) plus the fixed zero-offset twist.

    The zero-offset twist encodes the user-defined zero reference
    configuration; it is never optimized.
    """

    name: str
    joint_twists: np.ndarray  # (n, 6)
    zero_offset: np.ndarray   # (6,)

    def __post_init__(self):
        self.joint_twists = np.atleast_2d(np.asarray(self.joint_twists, dtype=float))
        self.zero_offset = np.asarray(self.zero_offset, dtype=float)
        if self.joint_twists.shape[1] != 6 or self.joint_twists.shape[0] < 1:
            raise ValidationError(f"joint_twists must be (n>=1, 6), got {self.joint_twists.shape}")
        if self.zero_offset.shape != (6,):
            raise ValidationError("zero_offset must be a 6-vector")
        if not (np.isfinite(self.joint_twists).all() and np.isfinite(self.zero_offset).all()):
            raise ValidationError("robot model twists must be finite")

    @property
    def n(self):
        return self.joint_twists.shape[0]

    def copy(self):
        return RobotModel(self.name, self.joint_twists.copy(), self.zero_offset.copy())


@lru_cache(maxsize=16)
def _zero_pose(key):
    T = lie.exp_se3(np.frombuffer(key))
    T.flags.writeable = False
    return T


def zero_pose(xi):
    """exp(xi^) of a zero-offset twist (6,), read-only and memoized by value.

    The zero offsets never change during a calibration, and at one or two
    samples their exponential would cost as much as the rest of the chain.
    """
    return _zero_pose(np.asarray(xi, dtype=float).tobytes())


def forward_kinematics(model, q):
    """End pose exp(xi^1 q^1) ... exp(xi^n q^n) exp(xi_st); (m, n) joints give (m, 4, 4)."""
    q = np.asarray(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != model.n:
        raise StructureError(f"joint vector length {q.shape} does not match n={model.n}")
    E = lie.exp_se3(model.joint_twists, q)
    T = E[..., 0, :, :]
    for k in range(1, model.n):
        T = T @ E[..., k, :, :]
    return T @ zero_pose(model.zero_offset)


def perturb_model(model, deltas):
    """New model with exp(xi_new^) = exp(xi_nom^) exp(delta^) per joint.

    The zero offset is left untouched.
    """
    deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
    if deltas.shape != (model.n, 6):
        raise StructureError(f"expected {model.n} twist deltas, got {deltas.shape}")
    new_twists = model.joint_twists.copy()
    moved = np.any(deltas != 0.0, axis=1)
    new_twists[moved] = lie.log_se3(lie.exp_se3(model.joint_twists[moved])
                                    @ lie.exp_se3(deltas[moved]))
    return RobotModel(model.name, new_twists, model.zero_offset.copy())


def model_to_dict(model):
    return {
        "name": model.name,
        "n": model.n,
        "joint_twists": model.joint_twists.tolist(),
        "zero_offset": model.zero_offset.tolist(),
    }


def _require_fields(d, keys, what):
    """Raise a ValidationError naming `what` unless d is a JSON object holding every key."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} is not a JSON object")
    for key in keys:
        if key not in d:
            raise ValidationError(f"{what} is missing field '{key}'")


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


def model_from_dict(d, what="robot model"):
    _require_fields(d, ("name", "n", "joint_twists", "zero_offset"), what)
    n = d["n"]
    if type(n) is not int or n < 1:
        raise ValidationError(f"{what}.n is not a positive integer: {n!r}")
    return RobotModel(d["name"],
                      field_array(d["joint_twists"], f"{what}.joint_twists", (n, 6),
                                  f"n={n} joint twists of 6 values"),
                      field_array(d["zero_offset"], f"{what}.zero_offset", (6,),
                                  "a twist has 6 values"))


def default_arm(name="ur5_like"):
    """Bundled 6-DoF arm with UR5-like geometry.

    These are toolkit defaults built from the public UR5 dimensions (the
    zero-offset frame is our own choice, aligned with the base); they are
    stand-ins for simulation, not manufacturer data.
    """
    text = resources.files("dualcal.assets").joinpath("ur5_like.json").read_text()
    model = model_from_dict(json.loads(text))
    model.name = name
    return model

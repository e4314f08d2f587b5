"""Command-line pipelines: generate / init / calibrate / evaluate /
identifiability / ball-eval.

Everything is JSON in, JSON out, and this module is the file format's one
implementation: every reader, validator, converter and writer of the
schemas in docs/formats.md lives here.  Poses are 4x4 row-major with
translations in meters.  Exit codes: 0 success, 2 validation problem,
3 numerical failure.  Set DUALCAL_LOG=info for progress output; its
values are debug, info, warning (the default) and quiet.  No code logs at
debug, so debug shows what info shows.

Each command runs with the cyclic garbage collector paused, and main
restores its previous state afterwards.  The commands make no reference
cycles (gc.collect() after each finds nothing to free), so reference
counting frees all they allocate, while the thousands of lists and dicts
of a JSON tree, parsed or built for writing, would trigger collections
that find nothing.
"""

import argparse
import functools
import gc
import json
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .chain import DualArmSystem, Measurements, identifiability_report, residual
from .errors import CalibrationError, RankDeficientError, ValidationError
from .evaluate import ball_consistency, evaluate_samples
from .kinematics import RobotModel
from .sdp_init import initialize
from .simulate import SyntheticDataset, default_system, generate_dataset
from .solver import calibrate

log = logging.getLogger("dualcal")


def _setup_logging():
    """The stderr handler once per process; the level of DUALCAL_LOG at every call."""
    level = os.environ.get("DUALCAL_LOG", "warning")
    levels = {"debug": logging.DEBUG, "info": logging.INFO,
              "warning": logging.WARNING, "quiet": logging.ERROR}
    if level.lower() not in levels:
        raise ValidationError(f"DUALCAL_LOG={level!r} is not one of {', '.join(levels)}")
    logging.basicConfig(format="%(levelname)s %(message)s")
    log.setLevel(levels[level.lower()])


# --- JSON schema -----------------------------------------------------------

def _require_fields(d, keys, what):
    """Raise a ValidationError naming `what` unless d is a JSON object holding every key."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} is not a JSON object")
    for key in keys:
        if key not in d:
            raise ValidationError(f"{what} is missing field '{key}'")


def _field_array(obj, name, shape, expected):
    """obj as a finite float array of `shape`, else a ValidationError naming it."""
    try:
        v = np.array(obj)  # dtype inferred, not forced: a string such as "0.5" is not parsed
    except (TypeError, ValueError):
        raise ValidationError(f"{name} is not an array of numbers") from None
    if v.dtype.kind not in "iuf":
        raise ValidationError(f"{name} is not an array of numbers")
    v = v.astype(float, copy=False)
    if v.shape != shape:
        raise ValidationError(f"{name} has {v.size} values, {expected}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{name} has a non-finite value")
    return v


def _model_to_dict(model):
    return {
        "name": model.name,
        "n": model.n,
        "joint_twists": model.joint_twists.tolist(),
        "zero_offset": model.zero_offset.tolist(),
    }


def _model_from_dict(d, what="robot model"):
    _require_fields(d, ("name", "n", "joint_twists", "zero_offset"), what)
    if not isinstance(d["name"], str):
        raise ValidationError(f"{what}.name is not a string")
    n = d["n"]
    if type(n) is not int or n < 1:
        raise ValidationError(f"{what}.n is not a positive integer: {n!r}")
    return RobotModel(d["name"],
                      _field_array(d["joint_twists"], f"{what}.joint_twists", (n, 6),
                                   f"n={n} joint twists of 6 values"),
                      _field_array(d["zero_offset"], f"{what}.zero_offset", (6,),
                                   "a twist has 6 values"))


def _system_to_dict(system):
    return {
        "sensor_arm": _model_to_dict(system.sensor_arm),
        "tool_arm": _model_to_dict(system.tool_arm),
        "X": system.X.tolist(),
        "Y": system.Y.tolist(),
        "Z": system.Z.tolist(),
    }


def _system_from_dict(d, what="system"):
    _require_fields(d, ("sensor_arm", "tool_arm", "X", "Y", "Z"), what)
    return DualArmSystem(_model_from_dict(d["sensor_arm"], "sensor_arm"),
                         _model_from_dict(d["tool_arm"], "tool_arm"),
                         *(_field_array(d[k], k, (4, 4), "a pose is 4x4 row-major")
                           for k in "XYZ"))


def dataset_to_dict(ds, blind=False):
    """The JSON object of a dataset (schema in docs/formats.md); `blind`
    omits the ground truth."""
    s = ds.samples
    return {
        "nominal_system": _system_to_dict(ds.nominal_system),
        "gt_system": None if (blind or ds.gt_system is None) else _system_to_dict(ds.gt_system),
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
        return _field_array([s[key] for s in raw], f"{prefix}[:].{key}", (len(raw),) + shape,
                            expected)
    except (KeyError, TypeError, ValidationError):
        for i, s in enumerate(raw):
            if not isinstance(s, dict) or key not in s:
                raise ValidationError(f"{prefix}[{i}] is missing field '{key}'") from None
            _field_array(s[key], f"{prefix}[{i}].{key}", shape, expected)
        raise


def _dataset_from_dict(d):
    _require_fields(d, ("nominal_system",), "dataset")
    raw = _list_field(d, "samples", "dataset")
    nominal = _system_from_dict(d["nominal_system"], "nominal_system")
    na, nc = nominal.sensor_arm.n, nominal.tool_arm.n
    samples = Measurements(
        _sample_field(raw, "q_a", (na,), f"the sensor arm has {na} joints"),
        _sample_field(raw, "q_c", (nc,), f"the tool arm has {nc} joints"),
        _sample_field(raw, "B", (4, 4), "a pose is 4x4 row-major"))
    gt = _system_from_dict(d["gt_system"], "gt_system") if d.get("gt_system") else None
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
    """The dataset of a JSON file (schema in docs/formats.md)."""
    return _dataset_from_dict(_load_json(path, "dataset"))


def _load_postures(path, n):
    """Joint readings q_a, q_c (m, n) and the list of (N_i, 3) clouds of a
    clouds file."""
    postures = _list_field(_load_json(path, "clouds"), "postures", "clouds file")
    q_a = _sample_field(postures, "q_a", (n,), f"the sensor arm has {n} joints", "postures")
    q_c = _sample_field(postures, "q_c", (n,), f"the tool arm has {n} joints", "postures")
    clouds = []
    for i, p in enumerate(postures):
        _require_fields(p, ("points",), f"postures[{i}]")
        points = p["points"]
        clouds.append(_field_array(points, f"postures[{i}].points",
                                   (len(points) if isinstance(points, list) else -1, 3),
                                   "a cloud is a list of [x, y, z] points"))
    return q_a, q_c, clouds


def _record(obj):
    """A dataclass record as a JSON object: its fields in order, arrays as lists."""
    return {f.name: v.tolist() if isinstance(v := getattr(obj, f.name), np.ndarray) else v
            for f in fields(obj)}


def _stats(x):
    """Summary quantiles of the values x, as the report's and the CSV's columns."""
    q1, med, q3 = np.percentile(x, [25, 50, 75])
    return {"mean": float(x.mean()), "std": float(x.std()), "median": float(med),
            "q1": float(q1), "q3": float(q3), "max": float(x.max())}


def _write_json(obj, path):
    # json.dumps encodes in one C call; json.dump streams through the
    # pure-Python encoder, for the same bytes
    with open(path, "w") as f:
        f.write(json.dumps(obj) + "\n")
    log.info("wrote %s", path)


# --- commands --------------------------------------------------------------

def cmd_generate(args):
    if args.samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be a nonnegative integer, got {args.seed}")
    system = (_system_from_dict(_load_json(args.system, "system")) if args.system
              else default_system())
    ds = generate_dataset(args.samples, args.kin_level, args.noise_level, args.seed,
                          system=system)
    _write_json(dataset_to_dict(ds, blind=args.blind), args.out)
    return 0


def cmd_init(args):
    ds = load_dataset(args.data)
    init = initialize(ds.nominal_system, ds.samples)
    _write_json(_record(init), args.out)
    return 0


def cmd_calibrate(args):
    if not 0 < args.tol < np.inf:
        raise ValidationError(f"--tol must be finite and positive, got {args.tol}")
    ds = load_dataset(args.data)
    coords = init_record = None
    if args.init:
        init_record = _load_json(args.init, "init")
        _require_fields(init_record, "XYZ", "init")
        coords = [_field_array(init_record[k], k, (4, 4), "a pose is 4x4 row-major")
                  for k in "XYZ"]
    init, final, trace = calibrate(ds.nominal_system, ds.samples, coords, args.tol)
    if init is not None:
        init_record = _record(init)
    out = _system_to_dict(final)
    out["trace"] = _record(trace)
    out["final_residual_norm"] = float(np.linalg.norm(residual(final, ds.samples)))
    out["init"] = init_record
    out["eta"] = init_record.get("eta")
    _write_json(out, args.out)
    log.info("calibrate: %d iterations, final |e| = %.3e", trace.iterations,
             out["final_residual_norm"])
    return 0


def _load_calib_system(path, ds=None):
    """The calibration file's system; given a dataset, with its joint count."""
    calib = _system_from_dict(_load_json(path, "calibration"))
    if ds is not None and calib.n != ds.nominal_system.n:
        raise ValidationError(f"the calibration's arms have {calib.n} joints, "
                              f"the dataset's have {ds.nominal_system.n}")
    return calib


def cmd_evaluate(args):
    ds = load_dataset(args.data)
    calib = _load_calib_system(args.calib, None if args.nominal_kinematics else ds)
    mode = "joint"
    if args.nominal_kinematics:  # score X, Y, Z alone, on the nominal arms
        nominal = ds.nominal_system
        calib = replace(calib, sensor_arm=nominal.sensor_arm, tool_arm=nominal.tool_arm)
        mode = "coordinate_only"
    report = evaluate_samples(calib, ds.samples)
    rot_deg, trans_mm = np.degrees(report.e_rot), 1e3 * report.e_trans
    stats = {"rot_deg": _stats(rot_deg), "trans_mm": _stats(trans_mm)}
    _write_json({"mode": mode, "e_rot_deg": rot_deg.tolist(), "e_trans_mm": trans_mm.tolist(),
                 **stats}, args.out)
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("metric,mean,std,median,q1,q3,max\n")
            for name, s in stats.items():
                f.write(",".join([name, *map(str, s.values())]) + "\n")
        log.info("wrote %s", args.csv)
    return 0


def cmd_identifiability(args):
    ds = load_dataset(args.data)
    source = _load_calib_system(args.calib, ds) if args.calib else ds.nominal_system
    report = identifiability_report(source, ds.samples)
    _write_json(_record(report), args.out)
    return 0


def cmd_ball_eval(args):
    if args.nominal_kinematics and not args.data:
        raise ValidationError("--nominal-kinematics needs --data for the nominal arms")
    if args.data and not args.nominal_kinematics:
        raise ValidationError("--data is read only with --nominal-kinematics, "
                              "for the nominal arms")
    calib = _load_calib_system(args.calib)
    if args.nominal_kinematics:
        nominal = load_dataset(args.data).nominal_system
        calib = replace(calib, sensor_arm=nominal.sensor_arm, tool_arm=nominal.tool_arm)
    q_a, q_c, clouds = _load_postures(args.clouds, calib.n)
    try:
        result = ball_consistency(calib, clouds, q_a, q_c)
    except RankDeficientError as exc:
        why = ("the sphere fit did not converge" if exc.rank >= 4
               else "need 4 or more points, not all in one plane")
        raise ValidationError(f"postures[{exc.index}].points do not determine a sphere: "
                              f"{why}") from None
    _write_json({"centers": result.centers.tolist(), "radii_mm": (1e3 * result.radii).tolist(),
                 "fit_rms_mm": (1e3 * result.fit_rms).tolist(),
                 "meb_center": result.meb_center.tolist(), "r_meb_mm": 1e3 * result.r_meb},
                args.out)
    log.info("r_MEB = %.4f mm", 1e3 * result.r_meb)
    return 0


# built once per process, at the first main() call rather than at import;
# each call still parses into a fresh Namespace
@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="dualcal",
                                description="Dual-arm coordinate/kinematic calibration toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dataset")
    g.add_argument("--system", help="system JSON (default: bundled dual UR5-like setup)")
    g.add_argument("--samples", type=int, required=True)
    g.add_argument("--kin-level", default="M", help="L|ML|M|MH|H|QH|none")
    g.add_argument("--noise-level", default="M", help="L|ML|M|MH|H|QH|none")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--blind", action="store_true", help="omit the ground-truth system")
    g.add_argument("--out", required=True)

    i = sub.add_parser("init", help="certifiable coordinate initialization "
                                    "(certified local optimum, else ADMM on the SDP)")
    i.add_argument("--data", required=True)
    i.add_argument("--out", required=True)

    c = sub.add_parser("calibrate", help="unified coordinate+kinematic calibration")
    c.add_argument("--data", required=True)
    c.add_argument("--init", help="initialization JSON (default: run the initialization)")
    c.add_argument("--out", required=True)
    c.add_argument("--tol", type=float, default=1e-3,
                   help="stop when |increment|_inf falls below this")

    e = sub.add_parser("evaluate", help="closed-loop deviation report")
    e.add_argument("--data", required=True)
    e.add_argument("--calib", required=True)
    e.add_argument("--nominal-kinematics", action="store_true",
                   help="score X, Y, Z alone, with the dataset's nominal arms")
    e.add_argument("--out", required=True)
    e.add_argument("--csv", help="also write summary quantiles as CSV")

    d = sub.add_parser("identifiability", help="rank/excitation diagnostics")
    d.add_argument("--data", required=True)
    d.add_argument("--calib", help="evaluate at a calibrated state (default: nominal)")
    d.add_argument("--out", required=True)

    b = sub.add_parser("ball-eval", help="cooperative-measuring r_MEB score")
    b.add_argument("--clouds", required=True, help="per-posture point clouds JSON")
    b.add_argument("--calib", required=True)
    b.add_argument("--nominal-kinematics", action="store_true")
    b.add_argument("--data", help="dataset JSON for nominal arms (with --nominal-kinematics)")
    b.add_argument("--out", required=True)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()  # the commands make no reference cycles: see the module docstring
    try:
        _setup_logging()
        for flag in ("out", "csv"):  # fail before the computation, not after it
            path = getattr(args, flag, None)
            if path and os.path.isdir(path):
                raise ValidationError(f"--{flag} {path}: is a directory")
            if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
                raise ValidationError(f"--{flag} {path}: its directory does not exist")
        # looked up at each call, not bound into the cached parser, so that a
        # cmd_* replaced after the first call (wrapped, patched) is what runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but a numerical failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

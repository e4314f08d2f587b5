"""Command-line pipelines: generate / init / calibrate / evaluate /
identifiability / ball-eval.

Everything is JSON in, JSON out (schemas in docs/formats.md); poses are
4x4 row-major with translations in meters.  Exit codes: 0 success,
2 validation problem, 3 numerical failure.  Set DUALCAL_LOG=info or
=debug for progress output.
"""

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .chain import identifiability_report, residual
from .errors import CalibrationError, RankDeficientError, ValidationError
from .evaluate import ball_consistency, evaluate_samples
from .kinematics import _require_fields, field_array
from .sdp_init import initialize
from .simulate import (_gc_paused, _list_field, _load_json, _sample_field, dataset_to_dict,
                       default_system, generate_dataset, load_dataset, system_from_dict,
                       system_to_dict)
from .solver import calibrate

log = logging.getLogger("dualcal")


def _setup_logging():
    level = os.environ.get("DUALCAL_LOG", "warning").lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO,
              "warning": logging.WARNING, "quiet": logging.ERROR}
    logging.basicConfig(format="%(levelname)s %(message)s",
                        level=levels.get(level, logging.WARNING))


def _write_json(obj, path):
    # json.dumps encodes in one C call; json.dump streams through the
    # pure-Python encoder, for the same bytes
    with open(path, "w") as f:
        f.write(json.dumps(obj) + "\n")
    log.info("wrote %s", path)


def cmd_generate(args):
    if args.samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be a nonnegative integer, got {args.seed}")
    system = system_from_dict(_load_json(args.system, "system")) if args.system else default_system()
    ds = generate_dataset(args.samples, args.kin_level, args.noise_level, args.seed,
                          system=system)
    _write_json(dataset_to_dict(ds, blind=args.blind), args.out)
    return 0


def cmd_init(args):
    ds = load_dataset(args.data)
    init = initialize(ds.nominal_system, ds.samples)
    _write_json(init.to_dict(), args.out)
    return 0


def cmd_calibrate(args):
    if not 0 < args.tol < np.inf:
        raise ValidationError(f"--tol must be finite and positive, got {args.tol}")
    ds = load_dataset(args.data)
    coords = init_record = None
    if args.init:
        init_record = _load_json(args.init, "init")
        _require_fields(init_record, "XYZ", "init")
        coords = [field_array(init_record[k], k, (4, 4), "a pose is 4x4 row-major")
                  for k in "XYZ"]
    init, final, trace = calibrate(ds.nominal_system, ds.samples, coords, args.tol)
    if init is not None:
        init_record = init.to_dict()
    out = system_to_dict(final)
    out["trace"] = trace.to_dict()
    out["final_residual_norm"] = float(np.linalg.norm(residual(final, ds.samples)))
    out["init"] = init_record
    out["eta"] = init_record.get("eta")
    _write_json(out, args.out)
    log.info("calibrate: %d iterations, final |e| = %.3e", trace.iterations,
             out["final_residual_norm"])
    return 0


def _load_calib_system(path, ds=None):
    """The calibration file's system; given a dataset, with its joint count."""
    calib = system_from_dict(_load_json(path, "calibration"))
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
    d = {"mode": mode, **evaluate_samples(calib, ds.samples).to_dict()}
    _write_json(d, args.out)
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("metric,mean,std,median,q1,q3,max\n")
            for name in ("rot_deg", "trans_mm"):
                s = d[name]
                f.write(f"{name},{s['mean']},{s['std']},{s['median']},"
                        f"{s['q1']},{s['q3']},{s['max']}\n")
        log.info("wrote %s", args.csv)
    return 0


def cmd_identifiability(args):
    ds = load_dataset(args.data)
    source = _load_calib_system(args.calib, ds) if args.calib else ds.nominal_system
    report = identifiability_report(source, ds.samples)
    _write_json(report.to_dict(), args.out)
    return 0


def _postures_from_dict(d, n):
    """Joint readings q_a, q_c (m, n) and the list of (N_i, 3) clouds of a
    parsed clouds file."""
    postures = _list_field(d, "postures", "clouds file")
    q_a = _sample_field(postures, "q_a", (n,), f"the sensor arm has {n} joints", "postures")
    q_c = _sample_field(postures, "q_c", (n,), f"the tool arm has {n} joints", "postures")
    clouds = []
    for i, p in enumerate(postures):
        _require_fields(p, ("points",), f"postures[{i}]")
        points = p["points"]
        clouds.append(field_array(points, f"postures[{i}].points",
                                  (len(points) if isinstance(points, list) else -1, 3),
                                  "a cloud is a list of [x, y, z] points"))
    return q_a, q_c, clouds


def _load_postures(path, n):
    """The readings and clouds of a clouds file, parsed and converted with
    the cyclic collector paused; the parsed JSON is freed before it
    resumes, and before the fit."""
    with _gc_paused():
        return _postures_from_dict(_load_json(path, "clouds"), n)


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
        raise ValidationError(f"postures[{exc.index}].points do not determine a sphere: "
                              "need 4 or more points, not all in one plane") from None
    _write_json(result.to_dict(), args.out)
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
                                    "(certified local solve, ADMM SDP as fallback)")
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
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())

"""Compare the files the dualcal command line writes from two source trees.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the `dualcal` package (a checkout's
`src`).  For each tree, one subprocess imports dualcal from it and runs a
fixed command set: generate (plain and --blind); init on the
certified-local path and on the ADMM fallback (m = 15, level QH, seed 0,
with the ADMM iteration cap lowered to 200 to keep the run short);
calibrate with and without --init, and on the fallback data;
evaluate as JSON with --csv, and with --nominal-kinematics; identifiability
on the nominal system and with --calib; ball-eval with and without
--nominal-kinematics.  The exit code of every command is written to
exit_codes.txt beside the outputs, and warnings are silenced
(DUALCAL_LOG=quiet).  The point clouds come from numpy alone, so both
trees read the same bytes.

Prints every file that differs or exists on one side only, and exits 1 if
any does, 0 if every output is byte-identical.  The commands take about
4 s per tree.
"""

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent


def _clouds(path):
    """200 postures of noisy sphere clouds of 48 or 64 points, in numpy alone."""
    rng = np.random.default_rng(0)
    postures = []
    for i in range(200):
        dirs = rng.normal(size=(48 if i % 3 == 0 else 64, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        points = rng.normal(0.0, 0.3, 3) + 0.0254 * dirs + rng.normal(0.0, 1e-5, dirs.shape)
        postures.append({"q_a": rng.uniform(-np.pi, np.pi, 6).tolist(),
                         "q_c": rng.uniform(-np.pi, np.pi, 6).tolist(),
                         "points": points.tolist()})
    Path(path).write_text(json.dumps({"postures": postures}))


def write_outputs(src, out, clouds):
    """Run the command set with the dualcal of `src`, writing into `out`;
    ball-eval reads the clouds file `clouds`."""
    import dualcal
    from dualcal import cli, sdp_init

    if Path(dualcal.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"dualcal imported from {dualcal.__file__}, not from {src}")
    sdp_init.ADMM_MAX_ITERS = 200
    out = Path(out)
    f = {name: str(out / name) for name in (
        "data.json", "blind.json", "small.json", "init.json", "init_admm.json",
        "calib_init.json", "calib.json", "calib_admm.json", "eval.json", "eval.csv",
        "eval_coord.json", "ident.json", "ident_calib.json", "ball.json", "ball_coord.json")}
    commands = [
        ("generate", "--samples", "80", "--kin-level", "M", "--noise-level", "M", "--seed", "3",
         "--out", f["data.json"]),
        ("generate", "--samples", "20", "--kin-level", "H", "--noise-level", "L", "--seed", "5",
         "--blind", "--out", f["blind.json"]),
        ("generate", "--samples", "15", "--kin-level", "QH", "--seed", "0",
         "--out", f["small.json"]),
        ("init", "--data", f["data.json"], "--out", f["init.json"]),
        ("init", "--data", f["small.json"], "--out", f["init_admm.json"]),
        ("calibrate", "--data", f["data.json"], "--init", f["init.json"],
         "--out", f["calib_init.json"]),
        ("calibrate", "--data", f["data.json"], "--out", f["calib.json"]),
        ("calibrate", "--data", f["small.json"], "--out", f["calib_admm.json"]),
        ("evaluate", "--data", f["data.json"], "--calib", f["calib.json"],
         "--out", f["eval.json"], "--csv", f["eval.csv"]),
        ("evaluate", "--data", f["data.json"], "--calib", f["calib.json"],
         "--nominal-kinematics", "--out", f["eval_coord.json"]),
        ("identifiability", "--data", f["data.json"], "--out", f["ident.json"]),
        ("identifiability", "--data", f["data.json"], "--calib", f["calib.json"],
         "--out", f["ident_calib.json"]),
        ("ball-eval", "--clouds", str(clouds), "--calib", f["calib.json"],
         "--out", f["ball.json"]),
        ("ball-eval", "--clouds", str(clouds), "--calib", f["calib.json"],
         "--nominal-kinematics", "--data", f["data.json"], "--out", f["ball_coord.json"]),
    ]
    codes = [f"{cli.main(list(argv))} {argv[0]} {Path(argv[-1]).name}\n" for argv in commands]
    (out / "exit_codes.txt").write_text("".join(codes))


def run_tree(src, out, clouds):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TOOLS)]),
               DUALCAL_LOG="quiet")
    subprocess.run([sys.executable, "-c",
                    "import sys, compare_outputs; compare_outputs.write_outputs(*sys.argv[1:])",
                    str(src), str(out), str(clouds)], env=env, check=True)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        clouds = Path(tmp) / "clouds.json"
        _clouds(clouds)
        outs = [Path(tmp) / side for side in ("parent", "change")]
        for src, out in zip(argv, outs):
            out.mkdir()
            run_tree(src, out, clouds)
        names = sorted({p.name for out in outs for p in out.iterdir()})
        differ = [n for n in names
                  if not all((out / n).exists() for out in outs)
                  or not filecmp.cmp(outs[0] / n, outs[1] / n, shallow=False)]
    for n in differ:
        print(f"differs: {n}")
    print(f"{len(names) - len(differ)} of {len(names)} files byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

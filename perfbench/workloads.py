"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one `dualcal` command at a time, in this
process, through `dualcal.cli.main`.  A round runs the same operations
on the same seed-derived inputs, so every run attempts whole rounds and
the outputs of a round can be checked against the reference geometry in
`oracle.py`.
"""

import json
from time import perf_counter

import numpy as np

import oracle

# Published mean measurement deviations of noise level M (mm, deg).
NOISE_M_TRANS_MM, NOISE_M_ROT_DEG = 0.479, 0.128
# Fixed pose by which the refine-m400 init file misplaces each true coordinate.
INIT_OFFSET = np.array([0.010, -0.008, 0.006, 0.003, -0.002, 0.004])
BALL_RADIUS = 0.0254            # m
BALL_CENTER = np.array([0.02, -0.01, 0.05])  # tool-flange frame, m
BALL_POSTURES, BALL_POINTS, BALL_NOISE = 200, 64, 5e-5
# Posture sets per ball-eval round: the cost of min_enclosing_ball varies
# several-fold between point sets, so a round averages six.
BALL_SETS = 6


class CommandFailed(Exception):
    pass


class Checks:
    """Collects the checks that failed; a run is correct when none did."""

    def __init__(self):
        self.failures = []

    def __call__(self, ok, what):
        if not ok:
            self.failures.append(what)


def load(path):
    with open(path) as f:
        return json.load(f)


def dump(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f)


def sub_seed(seed, k):
    return int(np.random.SeedSequence([seed % 2 ** 32, k]).generate_state(1)[0])


class Op:
    """One workload operation: the times of its commands that succeeded,
    and the figures its checks computed."""

    def __init__(self, cli, commands):
        self.cli = cli
        self.commands = commands
        self.times = {}
        self.facts = {}
        self.error = None  # what the operation raised, if it did

    def run(self, command, *args):
        t0 = perf_counter()
        code = self.cli.main([command] + [str(a) for a in args])
        if code != 0:
            raise CommandFailed(f"{command} exited {code}")
        self.times[command] = perf_counter() - t0

    @property
    def failed(self):
        return len(self.commands) - len(self.times)

    @property
    def seconds(self):
        return sum(self.times.values())


def check_generated(check, gen, m):
    """Sample count, valid poses, and a ground-truth chain that closes to
    the published noise-M level."""
    samples = gen["samples"]
    check(len(samples) == m, f"generate wrote {len(samples)} samples, asked {m}")
    for i, s in enumerate(samples):
        check(oracle.is_pose(s["B"]), f"sample {i} B is not a valid pose")
    rot, trans = oracle.closed_loop_errors(gen["gt_system"], samples)
    check(0.75 < trans.mean() / NOISE_M_TRANS_MM < 1.25,
          f"ground-truth loop error {trans.mean():.3f} mm is not at noise level M")
    check(0.75 < rot.mean() / NOISE_M_ROT_DEG < 1.25,
          f"ground-truth loop error {rot.mean():.4f} deg is not at noise level M")


def split(gen, m_train, train_path, test_path):
    """Calibration and held-out files of one simulated robot, without its
    ground truth, which only the checks use."""
    blind = dict(gen, gt_system=None)
    dump(dict(blind, samples=gen["samples"][:m_train]), train_path)
    dump(dict(blind, samples=gen["samples"][m_train:]), test_path)
    return gen["samples"][:m_train], gen["samples"][m_train:]


def check_calibration(check, cal, gt, train, op):
    """Valid poses, and a reported residual that matches the reference one
    and is no larger than at the true parameters."""
    for name in "XYZ":
        check(oracle.is_pose(cal[name]), f"calibrated {name} is not a valid pose")
    r_cal = oracle.residual_norm(cal, train)
    rep = cal["final_residual_norm"]
    check(abs(r_cal - rep) <= 1e-6 * r_cal,
          f"final_residual_norm {rep:.9e} != reference {r_cal:.9e}")
    r_gt = oracle.residual_norm(gt, train)
    check(r_cal <= r_gt * (1 + 1e-9),
          f"GN residual {r_cal:.6e} above the ground-truth residual {r_gt:.6e}")
    op.facts["gn_iterations"] = cal["trace"]["iterations"]


def check_report(check, report, cal, test, op):
    """The evaluate report matches the reference held-out loop errors."""
    rot, trans = oracle.closed_loop_errors(cal, test)
    check(report["mode"] == "joint" and len(report["e_trans_mm"]) == len(test),
          "evaluate report has the wrong mode or sample count")
    for key, ref in (("trans_mm", trans), ("rot_deg", rot)):
        got = report[key]["mean"]
        check(abs(got - ref.mean()) <= 1e-7 * ref.mean(),
              f"evaluate {key} mean {got:.9f} != reference {ref.mean():.9f}")
    op.facts["heldout_trans_mm"] = float(trans.mean())
    op.facts["heldout_rot_deg"] = float(rot.mean())


def check_init(check, init, gt, nominal, train, test, op):
    """SDP bound against the true coordinates, and a certificate that
    matches the reference objective at the returned coordinates."""
    XYZ = [np.asarray(init[name]) for name in "XYZ"]
    for name, T in zip("XYZ", XYZ):
        check(oracle.is_pose(T), f"init {name} is not a valid pose")
    triples = oracle.nominal_triples(nominal, train)
    obj_gt = oracle.qcqp_objective(*oracle.poses(gt), triples)
    obj = oracle.qcqp_objective(*XYZ, triples)
    p = init["p_sdp"]
    check(0.0 < p <= obj_gt * (1 + 1e-9),
          f"p_sdp {p:.9e} is not within (0, objective at the true coordinates {obj_gt:.9e}]")
    eta = (obj - p) / p
    check(abs(eta - init["eta"]) <= 1e-9 + 1e-6 * abs(eta),
          f"eta {init['eta']:.3e} != reference gap {eta:.3e}")
    coord = dict(zip("XYZ", XYZ))
    _, trans = oracle.closed_loop_errors(coord, test, nominal["sensor_arm"],
                                         nominal["tool_arm"])
    op.facts["coord_trans_mm"] = float(trans.mean())
    op.facts["admm_iterations"] = init["iterations"]
    op.facts["eta"] = init["eta"]


class PipelineM80:
    """generate -> init -> calibrate --init -> evaluate at m=80 (+40 held
    out) on nine simulated robots, three at each kinematic level L, M and
    QH, noise M.  Nine robots, not three, because the held-out error of
    one m=80 calibration varies by about 14% from robot to robot."""

    name = "pipeline-m80"
    commands = ("generate", "init", "calibrate", "evaluate")
    levels = ("L", "M", "QH") * 3
    error_fact = "heldout_trans_mm"
    # The SDP's eigendecompositions are over half of this workload's time,
    # so its reference computation carries LAPACK work too (run.py).
    reference_eighs = 8
    # Set-up is only the import here, about 40 ms, so it is taken often.
    setup_repeats = 15

    def __init__(self, seed, workdir):
        self.seeds = [sub_seed(seed, k) for k in range(len(self.levels))]
        self.dir = workdir

    ops_per_round = len(levels)

    def setup(self, cli):
        pass

    def check_setup(self, check):
        pass

    def run_op(self, op, k, check):
        level, d = self.levels[k], self.dir
        gen_p, train_p, test_p = d / f"gen{k}.json", d / f"train{k}.json", d / f"test{k}.json"
        init_p, cal_p, rep_p = d / f"init{k}.json", d / f"calib{k}.json", d / f"report{k}.json"
        op.run("generate", "--samples", 120, "--kin-level", level, "--noise-level", "M",
               "--seed", self.seeds[k], "--out", gen_p)
        gen = load(gen_p)
        train, test = split(gen, 80, train_p, test_p)
        op.run("init", "--data", train_p, "--out", init_p)
        op.run("calibrate", "--data", train_p, "--init", init_p, "--out", cal_p)
        op.run("evaluate", "--data", test_p, "--calib", cal_p, "--out", rep_p)

        check_generated(check, gen, 120)
        gt, nominal = gen["gt_system"], gen["nominal_system"]
        init, cal = load(init_p), load(cal_p)
        check_init(check, init, gt, nominal, train, test, op)
        check_calibration(check, cal, gt, train, op)
        check_report(check, load(rep_p), cal, test, op)
        if level == "QH":
            check(5.0 * op.facts["heldout_trans_mm"] < op.facts["coord_trans_mm"],
                  f"QH joint calibration {op.facts['heldout_trans_mm']:.2f} mm does not "
                  f"beat coordinate-only {op.facts['coord_trans_mm']:.2f} mm by 5x")


class RefineM400:
    """calibrate --init -> evaluate -> identifiability at m=400 (+200 held
    out), kinematic level QH, noise M, from a fixed offset of the true
    coordinates and a tolerance at which GN runs to convergence."""

    name = "refine-m400"
    commands = ("calibrate", "evaluate", "identifiability")
    error_fact = "heldout_trans_mm"
    ops_per_round = 1
    reference_eighs = 0
    setup_repeats = 5

    def __init__(self, seed, workdir):
        self.seed = sub_seed(seed, 0)
        self.dir = workdir

    def setup(self, cli):
        d = self.dir
        if cli.main(["generate", "--samples", "600", "--kin-level", "QH", "--noise-level", "M",
                     "--seed", str(self.seed), "--out", str(d / "gen.json")]) != 0:
            raise CommandFailed("set-up generate failed")
        self.gen = load(d / "gen.json")
        self.train, self.test = split(self.gen, 400, d / "train.json", d / "test.json")
        offset = oracle.exp_twist(INIT_OFFSET)
        dump({name: (np.asarray(self.gen["gt_system"][name]) @ offset).tolist()
              for name in "XYZ"}, d / "init.json")

    def check_setup(self, check):
        check_generated(check, self.gen, 600)

    def run_op(self, op, k, check):
        d = self.dir
        op.run("calibrate", "--data", d / "train.json", "--init", d / "init.json",
               "--tol", "1e-8", "--out", d / "calib.json")
        op.run("evaluate", "--data", d / "test.json", "--calib", d / "calib.json",
               "--out", d / "report.json")
        op.run("identifiability", "--data", d / "train.json", "--calib", d / "calib.json",
               "--out", d / "rank.json")

        gt, cal = self.gen["gt_system"], load(d / "calib.json")
        check(cal["trace"]["converged"], "GN did not converge at --tol 1e-8")
        check_calibration(check, cal, gt, self.train, op)
        check_report(check, load(d / "report.json"), cal, self.test, op)
        rank = load(d / "rank.json")
        n = len(gt["sensor_arm"]["joint_twists"])
        check(rank["rank"] == 12 * n + 6 and rank["needed"] == 12 * n + 18,
              f"identifiability rank {rank['rank']}/{rank['needed']}, "
              f"expected {12 * n + 6}/{12 * n + 18}")


class BallEval:
    """ball-eval on noisy sphere clouds seen from six sets of 200 postures
    of a simulated robot, scored with its true system: r_MEB is the
    spread that point noise alone leaves in the fitted centers."""

    name = "ball-eval"
    commands = ("ball-eval",)
    error_fact = "r_meb_mm"
    ops_per_round = BALL_SETS
    reference_eighs = 0
    setup_repeats = 5

    def __init__(self, seed, workdir):
        self.seed = sub_seed(seed, 0)
        self.dir = workdir

    def setup(self, cli):
        d = self.dir
        if cli.main(["generate", "--samples", "1", "--kin-level", "M", "--noise-level", "M",
                     "--seed", str(self.seed), "--out", str(d / "robot.json")]) != 0:
            raise CommandFailed("set-up generate failed")
        robot = load(d / "robot.json")["gt_system"]
        X, Y, _ = oracle.poses(robot)
        dump(robot, d / "calib.json")
        for k in range(BALL_SETS):
            rng = np.random.default_rng(sub_seed(self.seed, k))
            postures = []
            for _ in range(BALL_POSTURES):
                q_a, q_c = rng.uniform(-np.pi, np.pi, (2, 6))
                A = oracle.forward(robot["sensor_arm"], q_a)
                C = oracle.forward(robot["tool_arm"], q_c)
                T = np.linalg.inv(A @ X) @ Y @ C  # tool-flange frame -> sensor frame
                dirs = rng.normal(size=(BALL_POINTS, 3))
                dirs /= np.linalg.norm(dirs, axis=1)[:, None]
                pts = (BALL_CENTER + BALL_RADIUS * dirs
                       + rng.normal(0, BALL_NOISE, (BALL_POINTS, 3)))
                postures.append({"q_a": q_a.tolist(), "q_c": q_c.tolist(),
                                 "points": (pts @ T[:3, :3].T + T[:3, 3]).tolist()})
            dump({"postures": postures}, d / f"clouds{k}.json")

    def check_setup(self, check):
        pass

    def run_op(self, op, k, check):
        d = self.dir
        op.run("ball-eval", "--clouds", d / f"clouds{k}.json", "--calib", d / "calib.json",
               "--out", d / f"ball{k}.json")
        ball = load(d / f"ball{k}.json")
        centers = np.asarray(ball["centers"])
        c, r = np.asarray(ball["meb_center"]), ball["r_meb_mm"] / 1e3
        check(centers.shape == (BALL_POSTURES, 3), f"ball-eval gave {centers.shape} centers")
        check(np.linalg.norm(centers - c, axis=1).max() <= r * (1 + 1e-9) + 1e-12,
              "a fitted center lies outside the reported ball")
        diam = max(np.linalg.norm(centers - p, axis=1).max() for p in centers)
        check(r >= 0.5 * diam * (1 - 1e-9),
              f"r_MEB {r:.6e} m is below half the largest center distance {diam:.6e} m")
        offsets = np.linalg.norm(centers - BALL_CENTER, axis=1)
        check(r <= offsets.max() * (1 + 1e-9),
              "r_MEB exceeds the ball about the true center that holds every center")
        center_tol = 8.0 * BALL_NOISE * np.sqrt(3.0 / BALL_POINTS)
        check(offsets.max() <= center_tol,
              f"a fitted center is {1e3 * offsets.max():.4f} mm from the true center "
              f"(noise allows {1e3 * center_tol:.4f})")
        radius_tol = 6.0 * BALL_NOISE / np.sqrt(BALL_POINTS)
        worst = np.abs(np.asarray(ball["radii_mm"]) / 1e3 - BALL_RADIUS).max()
        check(worst <= radius_tol,
              f"a fitted radius is {1e3 * worst:.4f} mm off 25.4 mm (noise allows "
              f"{1e3 * radius_tol:.4f})")
        op.facts["r_meb_mm"] = ball["r_meb_mm"]


WORKLOADS = {w.name: w for w in (PipelineM80, RefineM400, BallEval)}

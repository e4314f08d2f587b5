import copy
import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal import sdp_init
from dualcal.chain import identifiability_report
from dualcal.cli import (_load_calib_system, _record, _system_to_dict as system_to_dict,
                         _write_json, build_parser, dataset_to_dict, load_dataset, main)
from dualcal.errors import CalibrationError
from dualcal.evaluate import evaluate_samples
from dualcal.kinematics import forward_kinematics
from dualcal.simulate import default_system, generate_dataset


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert run("generate", "--samples", "20", "--kin-level", "M",
               "--noise-level", "none", "--seed", "42",
               "--out", str(d / "data.json")) == 0
    return d


def test_generate_is_deterministic(workdir, tmp_path):
    out2 = tmp_path / "data2.json"
    assert run("generate", "--samples", "20", "--kin-level", "M",
               "--noise-level", "none", "--seed", "42", "--out", str(out2)) == 0
    assert (workdir / "data.json").read_bytes() == out2.read_bytes()


def test_generate_schema(workdir):
    d = json.loads((workdir / "data.json").read_text())
    assert set(d) == {"nominal_system", "gt_system", "samples", "seed",
                      "kin_level", "noise_level"}
    assert len(d["samples"]) == 20
    assert set(d["samples"][0]) == {"q_a", "q_c", "B"}
    ds = load_dataset(workdir / "data.json")
    assert json.dumps(system_to_dict(ds.nominal_system)) == json.dumps(d["nominal_system"])


@pytest.fixture(scope="module")
def init_file(workdir):
    out = workdir / "init.json"
    assert run("init", "--data", str(workdir / "data.json"),
               "--out", str(out)) == 0
    return out


def test_init_output(init_file):
    d = json.loads(init_file.read_text())
    for key in ("X", "Y", "Z", "eta", "p_sdp", "rank_ratio", "iterations", "converged"):
        assert key in d
    assert d["converged"] is True
    assert d["eta"] <= 1e-6
    assert d["rank_ratio"] < 1e-6
    assert np.array(d["X"]).shape == (4, 4)


@pytest.fixture(scope="module")
def calib_file(workdir, init_file):
    out = workdir / "calib.json"
    assert run("calibrate", "--data", str(workdir / "data.json"),
               "--init", str(init_file), "--tol", "1e-12",
               "--out", str(out)) == 0
    return out


def test_calibrate_output(calib_file):
    d = json.loads(calib_file.read_text())
    for key in ("sensor_arm", "tool_arm", "X", "Y", "Z", "trace",
                "final_residual_norm", "eta"):
        assert key in d
    assert d["trace"]["converged"] is True
    assert d["final_residual_norm"] < 1e-9


def drop_z(record):
    del record["Z"]
    return record


@pytest.mark.parametrize("edit, message", [
    (drop_z, "init is missing field 'Z'"),
    (lambda record: [record["X"], record["Y"], record["Z"]], "is not a JSON object"),
], ids=["missing-Z", "not-an-object"])
def test_bad_init_file_exits_2_naming_field(workdir, init_file, tmp_path, capsys, edit, message):
    bad = tmp_path / "bad_init.json"
    bad.write_text(json.dumps(edit(json.loads(init_file.read_text()))))
    assert run("calibrate", "--data", str(workdir / "data.json"), "--init", str(bad),
               "--out", str(tmp_path / "calib.json")) == 2
    assert message in capsys.readouterr().err


def test_calibrate_without_init_records_eta(workdir, tmp_path):
    out = tmp_path / "calib_auto.json"
    assert run("calibrate", "--data", str(workdir / "data.json"),
               "--tol", "1e-10", "--out", str(out)) == 0
    d = json.loads(out.read_text())
    assert d["eta"] is not None and d["eta"] <= 1e-6
    assert d["init"]["rank_ratio"] < 1e-6


def test_evaluate_joint_mode(workdir, calib_file, tmp_path):
    rep = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    assert run("evaluate", "--data", str(workdir / "data.json"),
               "--calib", str(calib_file), "--out", str(rep),
               "--csv", str(csv)) == 0
    d = json.loads(rep.read_text())
    assert d["mode"] == "joint"
    assert d["rot_deg"]["mean"] < 1e-7
    assert d["trans_mm"]["mean"] < 1e-7
    # the library's record in radians and meters, written in degrees and millimeters
    ds = load_dataset(workdir / "data.json")
    report = evaluate_samples(_load_calib_system(calib_file, ds), ds.samples)
    assert d["e_rot_deg"] == np.degrees(report.e_rot).tolist()
    assert d["e_trans_mm"] == (1e3 * report.e_trans).tolist()
    assert d["trans_mm"]["max"] == max(d["e_trans_mm"]) and len(d["e_rot_deg"]) == 20
    # the CSV rows are the report's stats
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("metric,")
    assert lines[1:] == [",".join([name, *map(str, d[name].values())])
                         for name in ("rot_deg", "trans_mm")]


def test_evaluate_nominal_kinematics_flag(workdir, calib_file, tmp_path):
    rep = tmp_path / "report_coord.json"
    assert run("evaluate", "--data", str(workdir / "data.json"),
               "--calib", str(calib_file), "--nominal-kinematics",
               "--out", str(rep)) == 0
    d = json.loads(rep.read_text())
    assert d["mode"] == "coordinate_only"
    # nominal kinematics cannot close the loop: kinematic-level-M bias remains
    assert d["trans_mm"]["mean"] > 0.05


def test_identifiability_command(workdir, tmp_path):
    rep = tmp_path / "ident.json"
    assert run("identifiability", "--data", str(workdir / "data.json"),
               "--out", str(rep)) == 0
    d = json.loads(rep.read_text())
    assert d["needed"] == 90
    assert d["rank"] == 78  # 12n+6: the 12 gauge directions are never excited
    assert d["well_posed"] is False
    assert d["excitation_violations"] == []


@pytest.fixture(scope="module")
def ten_samples(tmp_path_factory):
    d = tmp_path_factory.mktemp("ten")
    assert run("generate", "--samples", "10", "--kin-level", "M", "--noise-level", "M",
               "--seed", "42", "--out", str(d / "data.json")) == 0
    return d / "data.json"


def test_identifiability_with_fewer_rows_than_parameters(ten_samples, tmp_path):
    rep = tmp_path / "ident.json"
    assert run("identifiability", "--data", str(ten_samples), "--out", str(rep)) == 0
    text = rep.read_text()
    assert '"condition_number": Infinity' in text
    d = json.loads(text)
    assert d["needed"] == 90 and len(d["singular_values"]) == 60
    assert d["rank"] <= 60
    assert d["well_posed"] is False


def test_written_json_is_byte_identical_to_json_dump(tmp_path):
    ds = generate_dataset(10, "M", "M", seed=42)
    report = _record(identifiability_report(ds.nominal_system, ds.samples))
    assert report["condition_number"] == np.inf  # written as Infinity
    for obj in (dataset_to_dict(ds), report):
        _write_json(obj, tmp_path / "written.json")
        with open(tmp_path / "dumped.json", "w") as f:
            json.dump(obj, f)
            f.write("\n")
        assert (tmp_path / "written.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()


FORMATS = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()


def doc_keys(heading):
    """The quoted keys of the JSON example under a heading of docs/formats.md, in order."""
    section = FORMATS.split(f"\n## {heading}", 1)[1]
    return re.findall(r'"(\w+)":', section.split("```json", 1)[1].split("```", 1)[0])


def flat_keys(obj, own_section=()):
    """The keys of a JSON object in order, each followed by the keys of its
    object value, or of the first object in its list value, unless the
    docs give that object a section of its own."""
    keys = []
    for key, value in obj.items():
        keys.append(key)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = value[0]
        if isinstance(value, dict) and key not in own_section:
            keys += flat_keys(value, own_section)
    return keys


def test_written_keys_follow_docs_formats(workdir, init_file, calib_file, postures, tmp_path):
    f = {name: tmp_path / name for name in (
        "weak.json", "report.json", "report.csv", "ident.json", "clouds.json", "ball.json")}
    data = json.loads((workdir / "data.json").read_text())
    data["samples"][3]["q_a"][2] = 0.04  # one excitation violation, to show its keys
    f["weak.json"].write_text(json.dumps(data))
    f["clouds.json"].write_text(json.dumps({"postures": postures}))
    assert run("evaluate", "--data", str(workdir / "data.json"), "--calib", str(calib_file),
               "--out", str(f["report.json"]), "--csv", str(f["report.csv"])) == 0
    assert run("identifiability", "--data", str(f["weak.json"]), "--out", str(f["ident.json"])) == 0
    assert run("ball-eval", "--clouds", str(f["clouds.json"]), "--calib", str(calib_file),
               "--out", str(f["ball.json"])) == 0
    read = {name: json.loads(path.read_text()) for name, path in (
        ("data", workdir / "data.json"), ("init", init_file), ("calib", calib_file),
        ("report", f["report.json"]), ("ident", f["ident.json"]), ("ball", f["ball.json"]))}
    model = doc_keys("Robot model")
    assert list(read["data"]["nominal_system"]["sensor_arm"]) == model
    assert list(read["calib"]["tool_arm"]) == model
    assert flat_keys(read["data"], ("nominal_system", "gt_system")) == doc_keys("Dataset")
    assert list(read["data"]["gt_system"]) == doc_keys("System")
    assert flat_keys(read["init"]) == doc_keys("Initialization")
    assert list(read["calib"]["init"]) == doc_keys("Initialization")
    assert (flat_keys(read["calib"], ("sensor_arm", "tool_arm", "init"))
            == doc_keys("System") + doc_keys("Calibration"))
    assert flat_keys(read["report"]) == doc_keys("Evaluation report")
    rows = [line.split(",") for line in f["report.csv"].read_text().splitlines()]
    assert f"`{','.join(rows[0])}`" in FORMATS
    assert rows[0][1:] == list(read["report"]["rot_deg"])
    assert [row[0] for row in rows] == ["metric", "rot_deg", "trans_mm"]
    assert flat_keys(read["ident"]) == doc_keys("Identifiability report")
    assert flat_keys(read["ball"]) == doc_keys("Ball-consistency report")


def test_calibrate_too_few_samples_fails_fast(ten_samples, tmp_path, capsys):
    t0 = time.perf_counter()
    assert run("calibrate", "--data", str(ten_samples), "--out", str(tmp_path / "c.json")) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "at least 15 samples" in err and "got 10" in err


def test_init_too_few_samples_fails_fast(workdir, tmp_path, capsys):
    def edit(samples):
        del samples[2:]
    t0 = time.perf_counter()
    assert run_init_on_edited_data(workdir, tmp_path, edit) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "at least 3 samples" in err and "got 2" in err
    assert not (tmp_path / "x.json").exists()


@pytest.fixture(scope="module")
def postures(workdir):
    ds = load_dataset(workdir / "data.json")
    system = ds.gt_system
    rng = np.random.default_rng(0)
    center = np.array([0.02, -0.01, 0.05])
    postures = []
    for q_a, q_c in zip(ds.samples.q_a[:8], ds.samples.q_c[:8]):
        dirs = rng.normal(size=(80, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts_E2 = center + 0.0254 * dirs
        A = forward_kinematics(system.sensor_arm, q_a)
        C = forward_kinematics(system.tool_arm, q_c)
        T = lie.pose_inv(system.X) @ lie.pose_inv(A) @ system.Y @ C
        pts = lie.apply_pose(T, pts_E2)
        postures.append({"q_a": q_a.tolist(), "q_c": q_c.tolist(),
                         "points": pts.tolist()})
    return postures


def run_ball_eval(postures, calib_file, tmp_path, *flags):
    clouds = tmp_path / "clouds.json"
    clouds.write_text(json.dumps({"postures": postures}))
    return run("ball-eval", "--clouds", str(clouds), "--calib", str(calib_file),
               "--out", str(tmp_path / "ball.json"), *flags)


def test_ball_eval_command(postures, calib_file, tmp_path):
    assert run_ball_eval(postures, calib_file, tmp_path) == 0
    d = json.loads((tmp_path / "ball.json").read_text())
    # calibrated chain aligns the clouds to well under a millimeter
    assert d["r_meb_mm"] < 0.2
    assert len(d["centers"]) == 8


def test_ball_eval_nominal_kinematics(workdir, postures, calib_file, tmp_path):
    assert run_ball_eval(postures, calib_file, tmp_path) == 0
    joint = json.loads((tmp_path / "ball.json").read_text())
    assert run_ball_eval(postures, calib_file, tmp_path, "--nominal-kinematics",
                         "--data", str(workdir / "data.json")) == 0
    nominal = json.loads((tmp_path / "ball.json").read_text())
    assert len(nominal["centers"]) == 8
    # the nominal arms carry the level-M kinematic error that the calibration removed
    assert nominal["r_meb_mm"] > joint["r_meb_mm"]


def test_ball_eval_nominal_kinematics_needs_data(postures, calib_file, tmp_path, capsys):
    assert run_ball_eval(postures, calib_file, tmp_path, "--nominal-kinematics") == 2
    assert "--nominal-kinematics needs --data" in capsys.readouterr().err
    assert not (tmp_path / "ball.json").exists()


def test_ball_eval_data_needs_nominal_kinematics(workdir, postures, calib_file, tmp_path,
                                                 capsys):
    assert run_ball_eval(postures, calib_file, tmp_path, "--data",
                         str(workdir / "data.json")) == 2
    err = capsys.readouterr().err
    assert "--data" in err and "--nominal-kinematics" in err
    assert not (tmp_path / "ball.json").exists()


def test_ball_eval_ragged_clouds(postures, calib_file, tmp_path):
    ragged = copy.deepcopy(postures)
    ragged[2]["points"] = ragged[2]["points"][:50]
    assert run_ball_eval(ragged, calib_file, tmp_path) == 0
    d = json.loads((tmp_path / "ball.json").read_text())
    assert d["r_meb_mm"] < 0.2
    assert len(d["centers"]) == 8


def test_validation_exit_codes(tmp_path):
    bad = tmp_path / "nope.json"
    assert run("init", "--data", str(bad), "--out", str(tmp_path / "x.json")) == 2
    bad.write_text("{not json")
    assert run("init", "--data", str(bad), "--out", str(tmp_path / "x.json")) == 2
    bad.write_text(json.dumps({"samples": []}))
    rc = run("init", "--data", str(bad), "--out", str(tmp_path / "x.json"))
    assert rc == 2


def test_missing_field_named(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"samples": [], "seed": 0, "kin_level": "M",
                               "noise_level": "M"}))
    rc = run("init", "--data", str(bad), "--out", str(tmp_path / "x.json"))
    assert rc == 2
    assert "nominal_system" in capsys.readouterr().err


def test_dataset_without_synthetic_metadata(workdir, tmp_path):
    # a measured dataset records no seed or levels, and no command reads them
    d = json.loads((workdir / "data.json").read_text())
    for key in ("seed", "kin_level", "noise_level"):
        del d[key]
    measured = tmp_path / "measured.json"
    measured.write_text(json.dumps(d))

    def outputs(data, tag):
        init, calib, report, ident = (str(tmp_path / f"{tag}.{name}.json")
                                      for name in ("init", "calib", "report", "ident"))
        assert run("init", "--data", str(data), "--out", init) == 0
        assert run("calibrate", "--data", str(data), "--init", init, "--out", calib) == 0
        assert run("evaluate", "--data", str(data), "--calib", calib, "--out", report) == 0
        assert run("identifiability", "--data", str(data), "--calib", calib,
                   "--out", ident) == 0
        return [Path(path).read_bytes() for path in (init, calib, report, ident)]

    assert outputs(measured, "measured") == outputs(workdir / "data.json", "synthetic")
    assert load_dataset(measured).seed is None


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("generate", "--frobnicate", "1")
    assert exc.value.code == 2


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_reused_parser_leaves_no_flag_behind(workdir, calib_file, tmp_path):
    # a flag given to one call must not reach the next call of the same command
    reports = [tmp_path / "coordinate.json", tmp_path / "joint.json"]
    common = ("evaluate", "--data", str(workdir / "data.json"), "--calib", str(calib_file))
    assert run(*common, "--nominal-kinematics", "--out", str(reports[0])) == 0
    assert run(*common, "--out", str(reports[1])) == 0
    modes = [json.loads(r.read_text())["mode"] for r in reports]
    assert modes == ["coordinate_only", "joint"]


def test_reused_parser_runs_a_valid_command_after_a_rejected_one(workdir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("identifiability", "--data", str(workdir / "data.json"),
            "--out", str(tmp_path / "ident.json"), "--frobnicate")
    assert exc.value.code == 2
    assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err
    out = tmp_path / "data.json"
    assert run("generate", "--samples", "20", "--kin-level", "M",
               "--noise-level", "none", "--seed", "42", "--out", str(out)) == 0
    assert out.read_bytes() == (workdir / "data.json").read_bytes()


@pytest.mark.parametrize("flag, value", [("--damping", "1e-3"), ("--max-iters", "1")])
def test_dropped_calibrate_flags_exit_2(workdir, flag, value):
    with pytest.raises(SystemExit) as exc:
        run("calibrate", "--data", str(workdir / "data.json"), "--out", "calib.json", flag, value)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("generate", "--samples", "5", "--seed", "1", "--q-min", "0.2"),
    ("generate", "--samples", "5", "--seed", "1", "--d-min", "0.2"),
    ("identifiability", "--data", "{data}", "--q-min", "0.2"),
], ids=["generate-q-min", "generate-d-min", "identifiability-q-min"])
def test_dropped_sampling_rule_flags_exit_2(workdir, tmp_path, argv):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run(*(a.format(data=workdir / "data.json") for a in argv), "--out", str(out))
    assert exc.value.code == 2
    assert not out.exists()


def test_init_warns_on_uncertified_result_and_exits_0(tmp_path):
    data, out = tmp_path / "data.json", tmp_path / "init.json"
    assert run("generate", "--samples", "3", "--kin-level", "M", "--noise-level", "M",
               "--seed", "6", "--out", str(data)) == 0
    # the CLI's own logging setup writes to stderr, which a subprocess shows as is
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "DUALCAL_LOG": "warning"}
    proc = subprocess.run([sys.executable, "-m", "dualcal.cli", "init", "--data", str(data),
                           "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    eta = json.loads(out.read_text())["eta"]
    assert proc.stderr == (f"WARNING SDP initialization: result not certified, eta = {eta:.3e} "
                           "exceeds the bound CERT_ETA = 1e-06\n")


def test_log_level_follows_the_environment_at_every_call(tmp_path):
    # logging.basicConfig configures a process only once, at the first call
    script = ("import os, sys\n"
              "from dualcal.cli import main\n"
              "for i, level in enumerate(sys.argv[1:]):\n"
              "    os.environ['DUALCAL_LOG'] = level\n"
              "    main(['generate', '--samples', '3', '--seed', '1', '--out', f'{i}.json'])\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script, "warning", "info", "quiet", "info"],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == "INFO wrote 1.json\nINFO wrote 3.json\n"


@pytest.mark.parametrize("level", ["verbose", ""])
def test_unknown_log_level_exits_2_naming_the_values(tmp_path, capsys, monkeypatch, level):
    monkeypatch.setenv("DUALCAL_LOG", level)
    out = tmp_path / "out.json"
    assert run("generate", "--samples", "3", "--seed", "1", "--out", str(out)) == 2
    assert (f"error: DUALCAL_LOG={level!r} is not one of debug, info, warning, quiet"
            in capsys.readouterr().err)
    assert not out.exists()


# one command per input file a command reads: --data, --calib and --clouds
BAD_FILE_ARGV = pytest.mark.parametrize("argv", [
    ("calibrate", "--data", "{bad}"),
    ("init", "--data", "{bad}"),
    ("identifiability", "--data", "{data}", "--calib", "{bad}"),
    ("ball-eval", "--clouds", "{bad}", "--calib", "{calib}"),
], ids=["calibrate", "init", "identifiability", "ball-eval"])


def run_on_bad_file(workdir, calib_file, tmp_path, argv, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    files = {"bad": bad, "data": workdir / "data.json", "calib": calib_file}
    assert run(*(a.format(**files) for a in argv), "--out", str(tmp_path / "out.json")) == 2
    return bad


@BAD_FILE_ARGV
def test_non_object_json_exits_2_naming_file(workdir, calib_file, tmp_path, capsys, argv):
    bad = run_on_bad_file(workdir, calib_file, tmp_path, argv, b"5\n")
    assert f"file {bad} is not a JSON object" in capsys.readouterr().err


@BAD_FILE_ARGV
def test_non_utf8_file_exits_2_naming_file(workdir, calib_file, tmp_path, capsys, argv):
    # a UTF-16 byte-order mark is not valid UTF-8
    bad = run_on_bad_file(workdir, calib_file, tmp_path, argv, b"\xff\xfe{}")
    err = capsys.readouterr().err
    assert f"file {bad} is not valid JSON: 'utf-8' codec can't decode byte 0xff" in err


def tool_arm_ragged_twists(record):
    record["tool_arm"]["joint_twists"][2].pop()


# falsy values that are not lists: each must be reported as not a list, not as empty
FALSY_NON_LISTS = {"0": 0, "dict": {}, "str": "", "false": False, "null": None}


@pytest.mark.parametrize("target, edit, message", [
    ("data", lambda d: d.update(samples=5), "error: samples is not a list"),
    ("clouds", lambda d: d.update(postures=5), "error: postures is not a list"),
    *(("data", lambda d, v=v: d.update(samples=v), "error: samples is not a list")
      for v in FALSY_NON_LISTS.values()),
    *(("clouds", lambda d, v=v: d.update(postures=v), "error: postures is not a list")
      for v in FALSY_NON_LISTS.values()),
    ("data", lambda d: d.update(samples=[]), "error: dataset field 'samples' is empty"),
    ("clouds", lambda d: d.update(postures=[]), "error: clouds file field 'postures' is empty"),
    ("system", lambda d: d.update(sensor_arm=5), "error: sensor_arm is not a JSON object"),
    ("system", tool_arm_ragged_twists, "error: tool_arm.joint_twists is not an array of numbers"),
    ("system", lambda d: d["sensor_arm"].update(n="6"),
     "error: sensor_arm.n is not a positive integer: '6'"),
    # a number written as a JSON string is refused, not parsed
    ("data", lambda d: d["samples"][3]["q_a"].__setitem__(2, "0.5"),
     "error: samples[3].q_a is not an array of numbers"),
    ("data", lambda d: d["nominal_system"]["X"][0].__setitem__(3, "0.1"),
     "error: X is not an array of numbers"),
    ("clouds", lambda d: d["postures"][1]["points"][0].__setitem__(0, "0.02"),
     "error: postures[1].points is not an array of numbers"),
    ("system", lambda d: d["sensor_arm"].update(name=5), "error: sensor_arm.name is not a string"),
    ("data", lambda d: d["samples"][3].pop("B"), "error: samples[3] is missing field 'B'"),
    ("clouds", lambda d: d["postures"][2].pop("q_a"),
     "error: postures[2] is missing field 'q_a'"),
], ids=["samples-int", "postures-int", *(f"samples-{k}" for k in FALSY_NON_LISTS),
        *(f"postures-{k}" for k in FALSY_NON_LISTS), "samples-empty", "postures-empty",
        "sensor_arm-int", "ragged-twists",
        "n-string", "q_a-string", "X-string", "points-string", "name-int", "B-missing",
        "q_a-missing"])
def test_wrong_json_type_exits_2_naming_field(workdir, postures, calib_file, tmp_path, capsys,
                                              target, edit, message):
    record = {"data": json.loads((workdir / "data.json").read_text()),
              "clouds": {"postures": copy.deepcopy(postures)},
              "system": system_to_dict(default_system())}[target]
    edit(record)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(record))
    out = str(tmp_path / "out.json")
    argv = {"data": ("init", "--data", str(bad)),
            "clouds": ("ball-eval", "--clouds", str(bad), "--calib", str(calib_file)),
            "system": ("generate", "--system", str(bad), "--samples", "5", "--seed", "1")}[target]
    assert run(*argv, "--out", out) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("calibrate", "--data", "{data}", "--init", "{init}", "--tol", "nan"),
     "--tol must be finite and positive, got nan"),
    (("calibrate", "--data", "{data}", "--init", "{init}", "--tol", "0"),
     "--tol must be finite and positive, got 0.0"),
    (("calibrate", "--data", "{data}", "--init", "{init}", "--tol", "inf"),
     "--tol must be finite and positive, got inf"),
    (("generate", "--samples", "5", "--seed", "1", "--kin-level", "X"),
     "unknown kinematic level 'X'"),
    (("generate", "--samples", "0", "--seed", "1"), "--samples must be >= 1, got 0"),
    (("generate", "--samples", "5", "--seed", "-1"),
     "--seed must be a nonnegative integer, got -1"),
], ids=["tol-nan", "tol-zero", "tol-inf", "unknown-kin-level", "samples-zero", "seed-negative"])
def test_bad_flag_value_exits_2_naming_it(workdir, init_file, tmp_path, capsys, monkeypatch,
                                          argv, message):
    def no_load(*args):
        raise AssertionError("the data was loaded although a flag is invalid")
    monkeypatch.setattr("dualcal.cli.load_dataset", no_load)
    files = {"data": workdir / "data.json", "init": init_file}
    out = tmp_path / "out.json"
    assert run(*(a.format(**files) for a in argv), "--out", str(out)) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("generate", "--samples", "5", "--seed", "1", "--out", "{missing}"), "out"),
    (("init", "--data", "{data}", "--out", "{missing}"), "out"),
    (("calibrate", "--data", "{data}", "--init", "{init}", "--out", "{missing}"), "out"),
    (("evaluate", "--data", "{data}", "--calib", "{calib}", "--out", "{missing}"), "out"),
    (("evaluate", "--data", "{data}", "--calib", "{calib}", "--out", "{report}",
      "--csv", "{missing}"), "csv"),
    (("identifiability", "--data", "{data}", "--out", "{missing}"), "out"),
    (("ball-eval", "--clouds", "{clouds}", "--calib", "{calib}", "--out", "{missing}"), "out"),
    # an existing directory is no output file either
    (("calibrate", "--data", "{data}", "--out", "{dir}"), "out"),
], ids=["generate", "init", "calibrate", "evaluate", "evaluate-csv", "identifiability",
        "ball-eval", "calibrate-out-is-dir"])
def test_output_in_missing_directory_exits_2_before_running(workdir, init_file, calib_file,
                                                           postures, tmp_path, capsys,
                                                           monkeypatch, argv, flag):
    clouds = workdir / "clouds.json"
    clouds.write_text(json.dumps({"postures": postures}))
    missing = tmp_path / "missing" / "out.json"

    def not_run(args):
        raise AssertionError("the command ran although its output cannot be written")
    monkeypatch.setattr("dualcal.cli.cmd_" + argv[0].replace("-", "_"), not_run)
    files = {"data": workdir / "data.json", "init": init_file, "calib": calib_file,
             "clouds": clouds, "report": tmp_path / "report.json", "missing": missing,
             "dir": tmp_path}
    assert run(*(a.format(**files) for a in argv)) == 2
    message = (f"{tmp_path}: is a directory" if "{dir}" in argv
               else f"{missing}: its directory does not exist")
    assert f"error: --{flag} {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_pose_in_calib_exits_2_naming_field(workdir, calib_file, tmp_path, capsys):
    # not numbers, then a finite 4x4 whose rotation block is sheared
    sheared = np.eye(4)
    sheared[0, 1] = 0.5
    for X, message in (("x", "X is not an array of numbers"),
                       (sheared.tolist(), "X is not a valid pose")):
        d = json.loads(calib_file.read_text())
        d["X"] = X
        bad = tmp_path / "calib.json"
        bad.write_text(json.dumps(d))
        assert run("evaluate", "--data", str(workdir / "data.json"), "--calib", str(bad),
                   "--out", str(tmp_path / "report.json")) == 2
        assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, code", [
    ("evaluate", (), 2),
    ("identifiability", (), 2),
    ("evaluate", ("--nominal-kinematics",), 0),  # the dataset's arms replace the file's
])
def test_calib_with_wrong_joint_count(workdir, calib_file, tmp_path, capsys, command, flags,
                                      code):
    d = json.loads(calib_file.read_text())
    for arm in ("sensor_arm", "tool_arm"):
        d[arm].update(n=5, joint_twists=d[arm]["joint_twists"][:5])
    five = tmp_path / "calib5.json"
    five.write_text(json.dumps(d))
    assert run(command, "--data", str(workdir / "data.json"), "--calib", str(five),
               "--out", str(tmp_path / "out.json"), *flags) == code
    if code == 2:
        assert ("error: the calibration's arms have 5 joints, the dataset's have 6"
                in capsys.readouterr().err)


def test_linalg_failure_exits_3(workdir, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", fail)  # the report's SVD of J
    assert run("identifiability", "--data", str(workdir / "data.json"),
               "--out", str(tmp_path / "ident.json")) == 3
    assert "numerical failure: SVD did not converge" in capsys.readouterr().err


def run_init_on_edited_data(workdir, tmp_path, edit):
    d = json.loads((workdir / "data.json").read_text())
    edit(d["samples"])
    data = tmp_path / "bad.json"
    data.write_text(json.dumps(d))
    return run("init", "--data", str(data), "--out", str(tmp_path / "x.json"))


def test_short_joint_vector_exits_2_naming_field(workdir, tmp_path, capsys):
    def edit(samples):
        samples[3]["q_a"] = samples[3]["q_a"][:5]
    assert run_init_on_edited_data(workdir, tmp_path, edit) == 2
    assert "samples[3].q_a has 5 values, the sensor arm has 6 joints" in capsys.readouterr().err


def test_nan_joint_reading_exits_2_naming_field(workdir, tmp_path, capsys):
    def edit(samples):
        samples[2]["q_c"][1] = float("nan")
    assert run_init_on_edited_data(workdir, tmp_path, edit) == 2
    assert "samples[2].q_c has a non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("bad, named", [((17,), 17), ((17, 9), 9)])
def test_non_pose_B_exits_2_naming_first_bad_sample(workdir, tmp_path, capsys, bad, named):
    def edit(samples):
        for i in bad:  # rotation block scaled by 1.5
            for row in samples[i]["B"][:3]:
                row[:3] = [1.5 * v for v in row[:3]]
    assert run_init_on_edited_data(workdir, tmp_path, edit) == 2
    assert f"error: samples[{named}].B is not a valid pose" in capsys.readouterr().err


def short_q_a(postures):
    postures[3]["q_a"] = postures[3]["q_a"][:5]


def nan_q_c(postures):
    postures[2]["q_c"][1] = float("nan")


def nan_point(postures):
    postures[5]["points"][7][0] = float("nan")


def three_points(postures):
    postures[4]["points"] = postures[4]["points"][:3]


def coplanar_points(postures):
    for p in postures[6]["points"]:
        p[2] = 0.25


def nearly_coplanar_points(postures):
    # within 1e-7 m of a plane: the rank test passes it, the fit's solve does not
    rng = np.random.default_rng(0)
    for p in postures[3]["points"]:
        p[2] = 0.25 + rng.normal(0.0, 1e-7)


def flattened_disc(postures):
    # 1e-4 m off a plane: full rank and every solve succeeds, but Gauss-Newton
    # does not settle (it drifts towards a sphere meters wide)
    rng = np.random.default_rng(0)
    for p in postures[3]["points"]:
        p[2] = 0.25 + rng.normal(0.0, 1e-4)


@pytest.mark.parametrize("edit, message", [
    (short_q_a, "postures[3].q_a has 5 values, the sensor arm has 6 joints"),
    (nan_q_c, "postures[2].q_c has a non-finite value"),
    (nan_point, "postures[5].points has a non-finite value"),
    (three_points, "postures[4].points do not determine a sphere: "
                   "need 4 or more points, not all in one plane"),
    (coplanar_points, "postures[6].points do not determine a sphere: "
                      "need 4 or more points, not all in one plane"),
    (nearly_coplanar_points, "postures[3].points do not determine a sphere: "
                             "need 4 or more points, not all in one plane"),
    (flattened_disc, "postures[3].points do not determine a sphere: "
                     "the sphere fit did not converge"),
], ids=["short-q_a", "nan-q_c", "nan-points", "three-points", "coplanar-points",
        "nearly-coplanar-points", "flattened-disc"])
def test_bad_posture_exits_2_naming_field(postures, calib_file, tmp_path, capsys, edit, message):
    bad = copy.deepcopy(postures)
    edit(bad)
    assert run_ball_eval(bad, calib_file, tmp_path) == 2
    assert message in capsys.readouterr().err


def test_facing_arms_pipeline(tmp_path):
    # the tool arm's base faces the sensor arm's: Y rotates pi about the
    # vertical, where the SE(3) logarithm is singular
    system = system_to_dict(default_system())
    system["Y"] = [[-1.0, 0.0, 0.0, 1.2], [0.0, -1.0, 0.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    (tmp_path / "system.json").write_text(json.dumps(system))
    files = {name: str(tmp_path / f"{name}.json")
             for name in ("system", "data", "calib", "report", "ident")}
    assert run("generate", "--system", files["system"], "--samples", "80",
               "--kin-level", "M", "--noise-level", "M", "--seed", "7",
               "--out", files["data"]) == 0
    assert run("calibrate", "--data", files["data"], "--out", files["calib"]) == 0
    assert json.loads((tmp_path / "calib.json").read_text())["trace"]["converged"] is True
    assert run("evaluate", "--data", files["data"], "--calib", files["calib"],
               "--out", files["report"]) == 0
    assert run("identifiability", "--data", files["data"], "--calib", files["calib"],
               "--out", files["ident"]) == 0
    assert json.loads((tmp_path / "ident.json").read_text())["rank"] == 12 * 6 + 6


@pytest.fixture
def gc_state():
    """The cyclic collector's state before the test, restored after it."""
    enabled = gc.isenabled()
    yield enabled
    (gc.enable if enabled else gc.disable)()


# main pauses the collector around each command; the commands that read a
# file, valid or malformed in the parse or in a field, and one whose
# computation fails, leave it as they found it
FAILING_STEP = {"generate": "generate_dataset", "init": "initialize",
                "ball-eval": "ball_consistency"}


@pytest.mark.parametrize("start", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("content, code", [
    (None, 0), (b"{", 2), (b'{"samples": [], "postures": 5}', 2), (None, 3),
], ids=["valid", "bad-json", "bad-field", "numerical-failure"])
@pytest.mark.parametrize("command", ["generate", "init", "ball-eval"])
def test_loaders_leave_the_collector_as_they_found_it(workdir, postures, calib_file, tmp_path,
                                                      monkeypatch, gc_state, start, content, code,
                                                      command):
    path = workdir / "data.json"
    if content is not None:
        path = tmp_path / "bad.json"
        path.write_bytes(content)
    elif command != "init":
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"generate": system_to_dict(default_system()),
                                    "ball-eval": {"postures": postures}}[command]))
    if code == 3:
        def fail(*args, **kwargs):
            raise CalibrationError("stub failure")
        monkeypatch.setattr(f"dualcal.cli.{FAILING_STEP[command]}", fail)
    flag = {"generate": ("--samples", "5", "--seed", "1", "--system"), "init": ("--data",),
            "ball-eval": ("--calib", str(calib_file), "--clouds")}[command]
    (gc.enable if start else gc.disable)()
    assert run(command, *flag, str(path), "--out", str(tmp_path / "out.json")) == code
    assert gc.isenabled() is start


def test_commands_run_no_collection(tmp_path, gc_state, monkeypatch):
    # every command runs with the collector paused, which is safe only if
    # it makes no reference cycles: gc.collect() afterwards finds nothing
    monkeypatch.setattr(sdp_init, "ADMM_MAX_ITERS", 50)
    f = {name: str(tmp_path / f"{name}.json") for name in (
        "data", "small", "init", "admm", "calib", "calib_run", "clouds", "bad", "out")}
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(200, 64, 3))
    clouds = 0.0254 * dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)  # 25.4 mm spheres
    Path(f["clouds"]).write_text(json.dumps({"postures": [
        {"q_a": q_a.tolist(), "q_c": q_c.tolist(), "points": points.tolist()}
        for (q_a, q_c), points in zip(rng.uniform(-np.pi, np.pi, (200, 2, 6)), clouds)]}))
    Path(f["bad"]).write_text("{")
    commands = [
        (("generate", "--samples", "400", "--kin-level", "M", "--seed", "3", "--out", f["data"]), 0),
        (("generate", "--samples", "15", "--kin-level", "QH", "--seed", "0", "--out", f["small"]),
         0),
        (("init", "--data", f["data"], "--out", f["init"]), 0),
        (("init", "--data", f["small"], "--out", f["admm"]), 0),
        (("calibrate", "--data", f["data"], "--init", f["init"], "--out", f["calib"]), 0),
        (("calibrate", "--data", f["data"], "--out", f["calib_run"]), 0),
        (("evaluate", "--data", f["data"], "--calib", f["calib"], "--out", f["out"]), 0),
        (("identifiability", "--data", f["data"], "--calib", f["calib"], "--out", f["out"]), 0),
        (("ball-eval", "--clouds", f["clouds"], "--calib", f["calib"], "--out", f["out"]), 0),
        (("init", "--data", f["bad"], "--out", f["out"]), 2),
        (("identifiability", "--data", f["data"], "--out", f["out"]), 3),
    ]

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    build_parser()  # built once per process, by whichever main() call comes first
    found = {}
    gc.enable()
    for i, (argv, code) in enumerate(commands):
        gc.collect()
        collections = []
        with monkeypatch.context() as m:
            if code == 3:
                m.setattr(np.linalg, "svd", fail)  # the report's SVD of J
            # watched over the command alone: the first allocation after it
            # may start the collection that its paused allocations put off
            gc.callbacks.append(count)
            try:
                exit_code = run(*argv)
            finally:
                gc.callbacks.remove(count)
        assert exit_code == code, argv
        found[f"{i} {argv[0]}"] = (collections, gc.collect())
    assert all(v == ([], 0) for v in found.values()), found
    # the certified local optimum runs no ADMM; the m = 15 dataset falls back to it
    iterations = [json.loads(Path(f[k]).read_text())["iterations"] for k in ("init", "admm")]
    assert iterations[0] == 0 and iterations[1] > 0

import copy
import json

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal.cli import main
from dualcal.kinematics import forward_kinematics
from dualcal.simulate import default_system, load_dataset, system_to_dict


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
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("metric,")
    assert len(lines) == 3


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
def postures(workdir):
    ds = load_dataset(workdir / "data.json")
    system = ds.gt_system
    rng = np.random.default_rng(0)
    center = np.array([0.02, -0.01, 0.05])
    postures = []
    for s in ds.samples[:8]:
        dirs = rng.normal(size=(80, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts_E2 = center + 0.0254 * dirs
        A = forward_kinematics(system.sensor_arm, s.q_a)
        C = forward_kinematics(system.tool_arm, s.q_c)
        T = lie.pose_inv(system.X) @ lie.pose_inv(A) @ system.Y @ C
        pts = lie.apply_pose(T, pts_E2)
        postures.append({"q_a": s.q_a.tolist(), "q_c": s.q_c.tolist(),
                         "points": pts.tolist()})
    return postures


def run_ball_eval(postures, calib_file, tmp_path):
    clouds = tmp_path / "clouds.json"
    clouds.write_text(json.dumps({"postures": postures}))
    return run("ball-eval", "--clouds", str(clouds), "--calib", str(calib_file),
               "--out", str(tmp_path / "ball.json"))


def test_ball_eval_command(postures, calib_file, tmp_path):
    assert run_ball_eval(postures, calib_file, tmp_path) == 0
    d = json.loads((tmp_path / "ball.json").read_text())
    # calibrated chain aligns the clouds to well under a millimeter
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


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run("generate", "--frobnicate", "1")
    assert exc.value.code == 2


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


@pytest.mark.parametrize("edit, message", [
    (short_q_a, "postures[3].q_a has 5 values, the sensor arm has 6 joints"),
    (nan_q_c, "postures[2].q_c has a non-finite value"),
    (nan_point, "postures[5].points has a non-finite value"),
    (three_points, "postures[4].points do not determine a sphere"),
    (coplanar_points, "postures[6].points do not determine a sphere"),
], ids=["short-q_a", "nan-q_c", "nan-points", "three-points", "coplanar-points"])
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

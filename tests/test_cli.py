import copy
import json

import numpy as np
import pytest

from dualcal import liegroup as lie
from dualcal.chain import CalibrationState
from dualcal.cli import main
from dualcal.kinematics import forward_kinematics
from dualcal.simulate import load_dataset, system_to_dict


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
    state = CalibrationState.from_system(system)
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


@pytest.mark.parametrize("edit, message", [
    (short_q_a, "postures[3].q_a has 5 values, the sensor arm has 6 joints"),
    (nan_q_c, "postures[2].q_c has a non-finite value"),
    (nan_point, "postures[5].points has a non-finite value"),
], ids=["short-q_a", "nan-q_c", "nan-points"])
def test_bad_posture_exits_2_naming_field(postures, calib_file, tmp_path, capsys, edit, message):
    bad = copy.deepcopy(postures)
    edit(bad)
    assert run_ball_eval(bad, calib_file, tmp_path) == 2
    assert message in capsys.readouterr().err

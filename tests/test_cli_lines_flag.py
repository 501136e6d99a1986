import json

import pytest

from xampus.cli import main


@pytest.fixture()
def scene_path(tmp_path):
    doc = {
        "speed_of_sound_m_s": 1540.0,
        "tau_s": 25.6e-6,
        "pulse": {"carrier_hz": 5.142e6, "sigma_s": 1e-7},
        "array": {"num_elements": 8, "pitch_m": 0.3e-3},
        "lines": [{"scatterers": [{"t_n_s": 6e-6, "reflectivity": 1.0}]}
                  for _ in range(3)],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return path


def test_lines_flag_limits_processing(scene_path, tmp_path):
    ch = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out", str(ch),
                 "--lines", "2"]) == 0
    assert len(list(ch.glob("line_*.urf"))) == 2
    out = tmp_path / "ref"
    assert main(["beamform", "--channels", str(ch), "--scene",
                 str(scene_path), "--out", str(out), "--lines", "1"]) == 0
    body = (out / "reference.pgm").read_bytes()
    assert body.startswith(b"P5\n1 ")  # single image column


def test_xample_lines_checks_only_the_lines_it_images(scene_path, tmp_path,
                                                      capsys):
    # a steered third line does not stop the low-rate path from imaging the
    # first two, but still refuses the scene as a whole
    doc = json.loads(scene_path.read_text())
    doc["lines"][2]["alpha_rad"] = 0.3
    scene_path.write_text(json.dumps(doc))
    ch = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out", str(ch),
                 "--lines", "2"]) == 0
    xample = ["xample", "--channels", str(ch), "--scene", str(scene_path),
              "--L", "5"]
    assert main([*xample, "--out", str(tmp_path / "two"), "--lines", "2"]) == 0
    body = (tmp_path / "two" / "xampled.pgm").read_bytes()
    assert body.startswith(b"P5\n2 ")
    assert main([*xample, "--out", str(tmp_path / "all")]) == 1
    assert capsys.readouterr().err.startswith(
        "error[InvariantViolation]: low-rate acquisition is defined for "
        "linear scan only")
    assert not (tmp_path / "all").exists()


def test_lines_flag_validated(scene_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scene", str(scene_path),
              "--out", str(tmp_path / "ch"), "--lines", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error[Usage]:")


@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["beamform", "--channels", "missing"],
    ["xample", "--channels", "missing", "--L", "5"],
], ids=["simulate", "beamform", "xample"])
@pytest.mark.parametrize("count", ["0", "-1", "two"])
def test_lines_flag_is_a_usage_error_before_any_file_is_read(
        tmp_path, capsys, argv, count):
    # neither the scene nor the channel directory exists
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--scene", str(tmp_path / "missing.json"),
              "--out", str(out), "--lines", count])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[Usage]: argument --lines: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()

import csv
import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from xampus import (ChannelSet, cli, read_channels, read_pgm,
                    write_channels)
from xampus.cli import main
from xampus.imaging import assemble_image

from util import SPEED, default_geometry, fresh_dir


@pytest.fixture()
def scene_path(tmp_path):
    doc = {
        "speed_of_sound_m_s": SPEED,
        "tau_s": 51.2e-6,
        "pulse": {"carrier_hz": 5.142e6, "sigma_s": 1e-7, "amplitude": 1.0},
        "array": {"num_elements": 16, "pitch_m": 0.3e-3},
        "lines": [
            {"scatterers": [{"t_n_s": 0.01 / SPEED, "reflectivity": 1.0},
                            {"t_n_s": 0.02 / SPEED, "reflectivity": 1.0}]},
            {"scatterers": [{"t_n_s": 8e-6, "reflectivity": 1.5}]},
        ],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def scene_image(tmp_path):
    """A PGM of the size ``compare`` takes for ``scene_path``: 2 lines of
    1024 rows (51.2 us at 50 ns)."""
    img = tmp_path / "same.pgm"
    img.write_bytes(b"P5\n2 1024\n255\n" + bytes([0, 0, 255, 10, 1, 255])
                    + bytes(2 * 1021))
    return img


def test_simulate_writes_channel_files(scene_path, tmp_path):
    out = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path),
                 "--out", str(out)]) == 0
    files = sorted(out.glob("line_*.urf"))
    assert len(files) == 2
    ch = read_channels(files[0], default_geometry())
    assert ch.samples.shape[0] == 16
    assert ch.tau == 51.2e-6


def test_simulate_empty_line_is_zero(scene_path, tmp_path):
    doc = json.loads(scene_path.read_text())
    doc["lines"] = [{"scatterers": []}]
    scene2 = tmp_path / "empty.json"
    scene2.write_text(json.dumps(doc))
    out = tmp_path / "ch0"
    assert main(["simulate", "--scene", str(scene2), "--out", str(out)]) == 0
    ch = read_channels(out / "line_000.urf", default_geometry())
    assert not np.any(ch.samples)


def test_simulate_refuses_an_overflowing_noise_budget(scene_path, tmp_path,
                                                     capsys):
    # the clean power of a 1e200 reflector overflows, and the noise scaled
    # to it would make the channel file non-finite
    doc = json.loads(scene_path.read_text())
    doc["lines"][0]["scatterers"][0]["reflectivity"] = 1e200
    doc["noise"] = {"snr_db": 25.0, "speckle_count": 25, "seed": 0}
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    out = tmp_path / "ch"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", "--scene", str(huge), "--out", str(out)])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error[InvariantViolation]: line_000.urf: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_simulate_refuses_an_snr_whose_budget_overflows(scene_path, tmp_path,
                                                       capsys):
    # 10 ** 400 overflows a float before any channel is scaled
    doc = json.loads(scene_path.read_text())
    doc["noise"] = {"snr_db": -4000.0, "speckle_count": 0, "seed": 0}
    low = tmp_path / "low.json"
    low.write_text(json.dumps(doc))
    out = tmp_path / "ch"
    rc = main(["simulate", "--scene", str(low), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[InvariantViolation]: line_000.urf: ")
    assert "interference power budget overflows" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_simulate_refuses_an_echo_that_overflows(scene_path, tmp_path,
                                                 capsys):
    # 10 x 1e308 is beyond the float range: with no noise budget to refuse
    # it, the echo's samples would be inf and nan, in a file no reader takes
    doc = json.loads(scene_path.read_text())
    doc["pulse"]["amplitude"] = 10.0
    doc["lines"][0]["scatterers"][0]["reflectivity"] = 1e308
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    out = tmp_path / "ch"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", "--scene", str(huge), "--out", str(out)])
    assert rc == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        "error[InvariantViolation]: line_000.urf: twice the echoes' summed "
        "|pulse amplitude x reflectivity| overflows\n")
    assert not out.exists()


def _four_element_scene(tmp_path, scatterers):
    """A noiseless one-line scene on 4 elements, and its work directories."""
    doc = {"speed_of_sound_m_s": SPEED, "tau_s": 25.6e-6,
           "pulse": {"carrier_hz": 5.142e6, "sigma_s": 1e-7},
           "array": {"num_elements": 4, "pitch_m": 0.3e-3},
           "lines": [{"scatterers": scatterers}]}
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(doc))
    return scene, tmp_path / "ch", tmp_path / "img", tmp_path / "xa"


def _refused_without_warning(capsys, argv, outputs, message):
    """``main(argv)`` exits 1 with ``message`` as its one stderr line, no
    warning and none of ``outputs`` on disk."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert [str(w.message) for w in caught] == []
    assert (rc, capsys.readouterr().err) == (1, message + "\n")
    assert not any(path.exists() for path in outputs)


def test_simulate_refuses_echoes_that_overlap_beyond_the_float_range(
        tmp_path, capsys):
    # each echo is finite, but 1 ns apart their sum is not; the file would
    # be one that no reader takes
    scene, ch, _, _ = _four_element_scene(tmp_path, [
        {"t_n_s": 8e-6, "reflectivity": 1.5e308},
        {"t_n_s": 8.000001e-6, "reflectivity": 1.5e308}])
    _refused_without_warning(
        capsys, ["simulate", "--scene", str(scene), "--out", str(ch)], [ch],
        "error[InvariantViolation]: line_000.urf: twice the echoes' summed "
        "|pulse amplitude x reflectivity| overflows")


def _image_commands(scene, ch, img, xa):
    return [(["beamform", "--scene", str(scene), "--channels", str(ch),
              "--out", str(img)], [img / "reference.pgm",
                                   img / "reference_lines.csv"]),
            (["xample", "--scene", str(scene), "--channels", str(ch),
              "--out", str(xa), "--L", "5", "--rho", "2"],
             [xa / "estimates.csv", xa / "xampled.pgm"])]


def test_a_stage_whose_sums_overflow_refuses_the_line(tmp_path, capsys):
    # the channels hold 1e306, but the envelope's transform and the
    # deconvolved coefficients pass the float range
    scene, ch, img, xa = _four_element_scene(
        tmp_path, [{"t_n_s": 8e-6, "reflectivity": 1e306}])
    assert main(["simulate", "--scene", str(scene), "--out", str(ch)]) == 0
    capsys.readouterr()
    (beamform, beamformed), (xample, xampled) = _image_commands(scene, ch,
                                                                img, xa)
    _refused_without_warning(capsys, beamform, beamformed,
                             "error[InvariantViolation]: line_000.urf: "
                             "envelope overflows")
    _refused_without_warning(capsys, xample, xampled,
                             "error[InvariantViolation]: line_000.urf: "
                             "Fourier coefficient y overflows")


def test_channels_of_finite_samples_whose_sum_overflows_are_refused(
        tmp_path, capsys):
    # every sample is finite, so the reader takes the file; the
    # delay-and-sum and the kernel bank's sum of mirrored traces overflow
    scene, ch, img, xa = _four_element_scene(tmp_path, [])
    assert main(["simulate", "--scene", str(scene), "--out", str(ch)]) == 0
    capsys.readouterr()
    line = read_channels(ch / "line_000.urf", default_geometry(4))
    write_channels(ch / "line_000.urf",
                   ChannelSet(line.grid_step, np.full_like(line.samples, 1e308),
                              line.geometry, line.tau))
    (beamform, beamformed), (xample, xampled) = _image_commands(scene, ch,
                                                                img, xa)
    _refused_without_warning(capsys, beamform, beamformed,
                             "error[InvariantViolation]: line_000.urf: "
                             "delay-and-sum line overflows")
    _refused_without_warning(capsys, xample, xampled,
                             "error[InvariantViolation]: line_000.urf: "
                             "kernel bank output overflows")


def test_pulse_sign_changes_no_estimate_and_no_image(scene_path, tmp_path):
    # a negative pulse negates every channel sample and the pulse spectrum
    # alike, so the estimates and both images are those of its positive twin
    outputs = {}
    for amplitude in (1.0, -1.0):
        doc = json.loads(scene_path.read_text())
        doc["pulse"]["amplitude"] = amplitude
        work = tmp_path / f"amplitude{amplitude}"
        work.mkdir()
        scene = work / "scene.json"
        scene.write_text(json.dumps(doc))
        common = ["--scene", str(scene), "--channels", str(work / "ch")]
        assert main(["simulate", "--scene", str(scene),
                     "--out", str(work / "ch")]) == 0
        assert main(["beamform", *common, "--out", str(work / "ref")]) == 0
        assert main(["xample", *common, "--out", str(work / "xa"), "--L", "5",
                     "--rho", "2", "--sv-threshold", "0.1"]) == 0
        outputs[amplitude] = [
            (work / name).read_bytes() for name in
            ("ref/reference.pgm", "xa/estimates.csv", "xa/xampled.pgm")]
    assert len(outputs[1.0][1].splitlines()) == 4  # header and three echoes
    assert outputs[-1.0] == outputs[1.0]


def _overflow_on_line_1(tmp_path):
    """A 2-line, 4-element scene at 20 dB whose line 1's noise budget
    overflows after line 0 is written."""
    doc = {
        "speed_of_sound_m_s": SPEED,
        "tau_s": 51.2e-6,
        "pulse": {"carrier_hz": 5.142e6, "sigma_s": 1e-7},
        "array": {"num_elements": 4, "pitch_m": 0.3e-3},
        "noise": {"snr_db": 20.0, "seed": 0},
        "lines": [{"scatterers": [{"t_n_s": 8e-6, "reflectivity": 1.0}]},
                  {"scatterers": [{"t_n_s": 8e-6, "reflectivity": 1e200}]}],
    }
    scene = tmp_path / "failing.json"
    scene.write_text(json.dumps(doc))
    return scene


def test_failed_simulate_removes_the_lines_it_wrote(tmp_path, capsys):
    out = tmp_path / "ch"
    assert main(["simulate", "--scene", str(_overflow_on_line_1(tmp_path)),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("error[InvariantViolation]: line_001.urf: interference "
                   "power budget overflows\n")
    assert not out.exists()


def test_failed_simulate_leaves_no_line_of_an_earlier_run(scene_path,
                                                          tmp_path, capsys):
    # an earlier 2-line run filled the directory; the failed run must not
    # leave its line_001 to be imaged with a missing line_000
    out = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path),
                 "--out", str(out)]) == 0
    assert len(list(out.glob("line_*.urf"))) == 2
    capsys.readouterr()
    assert main(["simulate", "--scene", str(_overflow_on_line_1(tmp_path)),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error[InvariantViolation]: "
                                              "line_001.urf:")
    assert out.is_dir() and list(out.iterdir()) == []
    assert main(["beamform", "--scene", str(scene_path), "--channels",
                 str(out), "--out", str(tmp_path / "img")]) == 1
    assert capsys.readouterr().err == (
        f"error[InvariantViolation]: no line_*.urf files in {out}\n")


@pytest.mark.parametrize("key, value, kind", [
    # tau_hat overflows to inf
    ("pitch_m", 1e300, "InvariantViolation"),
    # tau_hat is finite, the grid beyond any array numpy can make
    ("speed_of_sound_m_s", 1e-300, "InvariantViolation"),
    ("num_elements", 10**12, "InvariantViolation"),
    # a grid numpy can make, but 36 PiB that no allocation gets
    ("tau_s", 1e6, "MemoryError"),
], ids=["pitch", "speed", "elements", "tau"])
def test_simulate_refuses_a_hostile_scalar_typed(scene_path, tmp_path, capsys,
                                                 key, value, kind):
    doc = json.loads(scene_path.read_text())
    doc["lines"] = doc["lines"][1:]
    (doc["array"] if key in doc["array"] else doc)[key] = value
    scene_path.write_text(json.dumps(doc))
    out = tmp_path / "ch"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", "--scene", str(scene_path), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error[{kind}]: line_000.urf: "), err
    assert err.count("\n") == 1, err
    assert not out.exists()


def test_malformed_scene_fails_with_error_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"speed_of_sound_m_s": }')
    rc = main(["simulate", "--scene", str(bad), "--out", str(tmp_path / "o")])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.startswith("error[ParseError]:")
    assert len(err.strip().splitlines()) == 1


def test_missing_channels_dir_fails(scene_path, tmp_path, capsys):
    rc = main(["beamform", "--channels", str(tmp_path / "nope"),
               "--scene", str(scene_path), "--out", str(tmp_path / "o")])
    assert rc != 0
    assert capsys.readouterr().err.startswith("error[")


def test_usage_error_is_single_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["xample"])  # missing required flags
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error[Usage]:")


def test_beamform_outputs(scene_path, tmp_path):
    ch_dir = tmp_path / "ch"
    main(["simulate", "--scene", str(scene_path), "--out", str(ch_dir)])
    out = tmp_path / "ref"
    assert main(["beamform", "--channels", str(ch_dir),
                 "--scene", str(scene_path), "--out", str(out)]) == 0
    img = read_pgm(out / "reference.pgm")
    assert img.shape == (1024, 2)  # 51.2 us / 50 ns axial samples x 2 lines
    rows = read_rows(out / "reference_lines.csv")
    assert len(rows) == 2
    # line 1's lone reflector peaks at its round trip
    assert float(rows[1]["peak_time_s"]) == pytest.approx(16e-6, abs=100e-9)


def test_beamform_bright_rows_match_depths(scene_path, tmp_path):
    ch_dir = tmp_path / "ch"
    main(["simulate", "--scene", str(scene_path), "--out", str(ch_dir)])
    out = tmp_path / "ref"
    main(["beamform", "--channels", str(ch_dir), "--scene", str(scene_path),
          "--out", str(out)])
    img = read_pgm(out / "reference.pgm")
    col = img[:, 0].astype(float)
    t1, t2 = 2 * 0.01 / SPEED, 2 * 0.02 / SPEED
    r1, r2 = int(t1 / 50e-9), int(t2 / 50e-9)
    split = (r1 + r2) // 2
    assert abs(int(np.argmax(col[:split])) - r1) <= 2
    assert abs(split + int(np.argmax(col[split:])) - r2) <= 2


def test_infinity_focus_lowers_contrast(scene_path, tmp_path):
    ch_dir = tmp_path / "ch"
    main(["simulate", "--scene", str(scene_path), "--out", str(ch_dir)])
    peaks = {}
    for mode in ("dynamic", "infinity"):
        out = tmp_path / mode
        main(["beamform", "--channels", str(ch_dir), "--scene",
              str(scene_path), "--out", str(out), "--focus", mode])
        rows = read_rows(out / "reference_lines.csv")
        peaks[mode] = float(rows[0]["peak_value"])
    assert peaks["dynamic"] >= peaks["infinity"]


def test_xample_outputs(scene_path, tmp_path):
    ch_dir = tmp_path / "ch"
    main(["simulate", "--scene", str(scene_path), "--out", str(ch_dir)])
    out = tmp_path / "xa"
    assert main(["xample", "--channels", str(ch_dir), "--scene",
                 str(scene_path), "--out", str(out), "--L", "5",
                 "--rho", "2"]) == 0
    rows = read_rows(out / "estimates.csv")
    by_line = {}
    for r in rows:
        by_line.setdefault(int(r["line_index"]), []).append(float(r["t_l_s"]))
    assert len(by_line[0]) == 2
    assert len(by_line[1]) == 1
    assert all(len(v) <= 5 for v in by_line.values())
    assert by_line[1][0] == pytest.approx(16e-6, abs=50e-9)
    img = read_pgm(out / "xampled.pgm")
    assert img.shape == (1024, 2)
    c_rows = read_rows(out / "samples_c.csv")
    assert len(c_rows) == 2 * 40  # p = 4*rho*L = 40 per line
    assert sorted(f.name for f in out.iterdir()) == [
        "estimates.csv", "samples_c.csv", "xampled.pgm"]


@pytest.mark.parametrize("retired", [["--method", "pencil"],
                                     ["--dump-samples"]])
def test_retired_xample_options_are_usage_errors(scene_path, tmp_path,
                                                 capsys, retired):
    # xample runs the pencil and writes samples_c.csv on every run
    with pytest.raises(SystemExit) as exc:
        main(["xample", "--channels", str(tmp_path), "--scene",
              str(scene_path), "--out", str(tmp_path / "o"), "--L", "5",
              *retired])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error[Usage]: unrecognized arguments: {' '.join(retired)}\n")


def test_xample_eta_guard_before_compute(scene_path, tmp_path, capsys):
    # the pencil split is fixed at K//3: --eta is no option, refused as usage
    with pytest.raises(SystemExit) as exc:
        main(["xample", "--channels", str(tmp_path / "missing"),
              "--scene", str(scene_path), "--out", str(tmp_path / "o"),
              "--L", "5", "--rho", "2", "--eta", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err == "error[Usage]: unrecognized arguments: --eta 4\n"


def test_xample_rejects_steered_lines(scene_path, tmp_path, capsys):
    doc = json.loads(scene_path.read_text())
    doc["lines"][0]["alpha_rad"] = 0.1
    steered = tmp_path / "steered.json"
    steered.write_text(json.dumps(doc))
    rc = main(["xample", "--channels", str(tmp_path), "--scene", str(steered),
               "--out", str(tmp_path / "o"), "--L", "5"])
    assert rc != 0
    assert capsys.readouterr().err.startswith("error[InvariantViolation]:")


def test_xample_residual_of_a_huge_echo_is_finite(scene_path, tmp_path,
                                                  capsys):
    # the squares of the line's coefficients overflow; its residual must not
    doc = json.loads(scene_path.read_text())
    doc["lines"][0]["scatterers"][0]["reflectivity"] = 1e300
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    ch_dir, out = tmp_path / "ch", tmp_path / "xa"
    assert main(["simulate", "--scene", str(huge), "--out", str(ch_dir)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["xample", "--channels", str(ch_dir), "--scene", str(huge),
                   "--out", str(out), "--L", "5"])
    assert rc == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    residuals = [float(r["residual"]) for r in read_rows(out / "estimates.csv")]
    assert residuals and np.isfinite(residuals).all()


def test_cost_command(tmp_path):
    out = tmp_path / "cost.csv"
    assert main(["cost", "--L", "30", "--rho", "1", "2", "3", "4",
                 "--elements", "16", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [int(r["K"]) for r in rows] == [60, 120, 180, 240]
    assert [int(r["samples_per_element_per_line"]) for r in rows] == \
        [120, 240, 360, 480]


def test_cost_single_rho(tmp_path):
    out = tmp_path / "cost.csv"
    assert main(["cost", "--rho", "2", "--out", str(out)]) == 0
    assert len(read_rows(out)) == 1


def test_cost_invalid_rho(tmp_path, capsys):
    # the kernel bank's own (L, rho) check: at L=5, 2*rho*L = 15 is odd and
    # 10.5 is no integer, so cost refuses both as xample does
    for L, rho in (("30", "0"), ("30", "inf"), ("30", "nan"), ("30", "1e300"),
                   ("5", "1.5"), ("5", "1.05")):
        rc = main(["cost", "--L", L, "--rho", rho,
                   "--out", str(tmp_path / "c.csv")])
        assert rc != 0
        err = capsys.readouterr().err
        assert (err.startswith("error[InvariantViolation]:")
                and err.count("\n") == 1)
    assert not (tmp_path / "c.csv").exists()


def test_cost_invalid_elements(tmp_path, capsys):
    for elements in ("0", "-3"):
        rc = main(["cost", "--elements", elements,
                   "--out", str(tmp_path / "c.csv")])
        assert rc != 0
        err = capsys.readouterr().err
        assert (err == f"error[InvariantViolation]: num_elements {elements} "
                "must be >= 1\n")
    assert not (tmp_path / "c.csv").exists()


def test_xample_rejects_hostile_rho(scene_path, tmp_path, capsys):
    # the configuration is checked before any channel file is read; the
    # library's select_kappa is the one owner of the (L, rho) check
    (tmp_path / "ch").mkdir()
    (tmp_path / "ch" / "line_000.urf").write_bytes(b"")
    for L, rho in (("5", "inf"), ("5", "nan"), ("5", "1e300"), ("5", "1e6"),
                   ("0", "2"), ("1" + "0" * 400, "2")):
        rc = main(["xample", "--channels", str(tmp_path / "ch"),
                   "--scene", str(scene_path), "--out", str(tmp_path / "o"),
                   "--L", L, "--rho", rho])
        assert rc != 0
        err = capsys.readouterr().err
        assert (err.startswith("error[InvariantViolation]:")
                and err.count("\n") == 1)


def test_compare_pipeline(scene_path, tmp_path):
    ch_dir = tmp_path / "ch"
    main(["simulate", "--scene", str(scene_path), "--out", str(ch_dir)])
    ref = tmp_path / "ref"
    main(["beamform", "--channels", str(ch_dir), "--scene", str(scene_path),
          "--out", str(ref)])
    xa = tmp_path / "xa"
    main(["xample", "--channels", str(ch_dir), "--scene", str(scene_path),
          "--out", str(xa), "--L", "5", "--rho", "2"])
    out = tmp_path / "metrics.csv"
    assert main(["compare", "--reference", str(ref / "reference.pgm"),
                 "--xampled", str(xa / "xampled.pgm"),
                 "--estimates", str(xa / "estimates.csv"),
                 "--scene", str(scene_path), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    for r in rows:
        assert float(r["delay_rmse_s"]) <= 50e-9
        assert float(r["amp_rel_err"]) <= 0.05
        assert int(r["peak_row_delta"]) <= 2
    assert int(rows[0]["detections"]) == 2
    assert int(rows[1]["detections"]) == 1


def test_compare_identical_estimates_zero_rmse(scene_path, tmp_path):
    # hand-written estimates equal to ground truth and identical images
    est = tmp_path / "est.csv"
    with open(est, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["line_index", "t_l_s", "b_l", "residual"])
        w.writerow([0, repr(2 * 0.01 / SPEED), repr(16 * 1.0), "0.0"])
        w.writerow([0, repr(2 * 0.02 / SPEED), repr(16 * 1.0), "0.0"])
        w.writerow([1, repr(2 * 8e-6), repr(16 * 1.5), "0.0"])
    img = scene_image(tmp_path)
    out = tmp_path / "metrics.csv"
    assert main(["compare", "--reference", str(img), "--xampled", str(img),
                 "--estimates", str(est), "--scene", str(scene_path),
                 "--out", str(out)]) == 0
    for r in read_rows(out):
        assert float(r["delay_rmse_s"]) == 0.0
        assert float(r["amp_rel_err"]) == 0.0
        assert int(r["peak_row_delta"]) == 0


def test_compare_line_with_echoes_and_no_estimate_reads_inf(scene_path,
                                                            tmp_path, capsys):
    est = tmp_path / "est.csv"
    est.write_text("line_index,t_l_s,b_l,residual\n"
                   f"0,{2e-5!r},16.0,0.0\n0,{1.3e-5!r},16.0,0.0\n")
    img = scene_image(tmp_path)
    out = tmp_path / "metrics.csv"
    assert main(["compare", "--reference", str(img), "--xampled", str(img),
                 "--estimates", str(est), "--scene", str(scene_path),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    found, missed = read_rows(out)
    assert np.isfinite([float(v) for v in found.values()]).all()
    assert (missed["delay_rmse_s"], missed["amp_rel_err"]) == ("inf", "inf")
    assert (missed["detections"], missed["true_count"]) == ("0", "1")


def test_compare_matches_each_estimate_to_one_echo(scene_path, tmp_path):
    # echoes at 10.0 and 10.5 us, estimates at 10.2 and 20 us: the nearer
    # pair takes the 10.2 us estimate, so the 10.5 us echo gets the 20 us
    # one and scores 9.5 us, not 0.3 us
    doc = json.loads(scene_path.read_text())
    doc["lines"][0]["scatterers"] = [{"t_n_s": 5e-6, "reflectivity": 1.0},
                                     {"t_n_s": 5.25e-6, "reflectivity": 1.0}]
    scene_path.write_text(json.dumps(doc))
    rows = (f"0,{20e-6!r},16.0,0.0\n0,{10.2e-6!r},16.0,0.0\n"
            f"1,{16e-6!r},24.0,0.0\n")
    rc, _, out = _compare_with(scene_path, tmp_path, HEADER + rows)
    assert rc == 0
    line0, line1 = read_rows(out)
    want = math.sqrt(((10.2e-6 - 10e-6) ** 2 + (20e-6 - 10.5e-6) ** 2) / 2)
    assert float(line0["delay_rmse_s"]) == pytest.approx(want, rel=1e-9)
    assert float(line0["amp_rel_err"]) == 0.0
    assert float(line1["delay_rmse_s"]) == 0.0


def test_compare_amplitude_error_is_the_mean_over_a_line(scene_path,
                                                        tmp_path):
    # three echoes whose estimates are 10%, 20% and 60% off: the mean,
    # 0.3, is not the median, 0.2
    doc = json.loads(scene_path.read_text())
    doc["lines"][0]["scatterers"] = [{"t_n_s": 5e-6, "reflectivity": 1.0},
                                     {"t_n_s": 8e-6, "reflectivity": 2.0},
                                     {"t_n_s": 11e-6, "reflectivity": -0.5}]
    scene_path.write_text(json.dumps(doc))
    rows = (f"0,{10e-6!r},{16 * 1.1!r},0.0\n"
            f"0,{16e-6!r},{16 * 2.0 * 1.2!r},0.0\n"
            f"0,{22e-6!r},{16 * -0.5 * 0.4!r},0.0\n"
            f"1,{16e-6!r},24.0,0.0\n")
    rc, _, out = _compare_with(scene_path, tmp_path, HEADER + rows)
    assert rc == 0
    line0, _ = read_rows(out)
    assert float(line0["delay_rmse_s"]) == 0.0
    assert float(line0["amp_rel_err"]) == pytest.approx((0.1 + 0.2 + 0.6) / 3,
                                                        rel=1e-12)


def test_compare_line_with_more_echoes_than_estimates_reads_inf(
        scene_path, tmp_path):
    # line 0 has two echoes and one estimate, which cannot score both
    rows = f"0,{2 * 0.01 / SPEED!r},16.0,0.0\n1,{16e-6!r},24.0,0.0\n"
    rc, _, out = _compare_with(scene_path, tmp_path, HEADER + rows)
    assert rc == 0
    short, full = read_rows(out)
    assert (short["delay_rmse_s"], short["amp_rel_err"]) == ("inf", "inf")
    assert (short["detections"], short["true_count"]) == ("1", "2")
    assert float(full["delay_rmse_s"]) == float(full["amp_rel_err"]) == 0.0


@pytest.mark.parametrize("truths, ests, match", [
    # the nearest pair first; a tie goes to the lower truth, then to the
    # lower estimate index
    ([(1.0, 1.0), (3.0, 1.0)], [(2.0, 1.0)], {0: 0}),
    ([(2.0, 1.0)], [(3.0, 1.0), (1.0, 1.0)], {0: 0}),
    ([(1.0, 1.0), (1.5, 1.0)], [(1.4, 1.0), (9.0, 1.0)], {1: 0, 0: 1}),
    ([(1.0, 1.0)], [], {}),
])
def test_match_pairs_truths_and_estimates_one_to_one(truths, ests, match):
    assert cli._match(truths, ests) == match


def test_compare_refuses_a_scatterer_of_zero_reflectivity(
        scene_path, tmp_path, capsys):
    # its relative amplitude error would be inf whatever the estimates
    doc = json.loads(scene_path.read_text())
    doc["lines"][1]["scatterers"][0]["reflectivity"] = 0.0
    scene_path.write_text(json.dumps(doc))
    est = tmp_path / "est.csv"
    est.write_text(f"line_index,t_l_s,b_l,residual\n1,{2 * 8e-6!r},1.0,0.0\n")
    img = scene_image(tmp_path)
    out = tmp_path / "metrics.csv"
    assert main(["compare", "--reference", str(img), "--xampled", str(img),
                 "--estimates", str(est), "--scene", str(scene_path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error[InvariantViolation]: scatterer reflectivities must be finite "
        "and nonzero\n")
    assert not out.exists()


def test_compare_refuses_an_error_beyond_the_float_range(scene_path,
                                                         tmp_path, capsys):
    # a 1e-300 echo matched to an estimate of 1e300: its relative error
    # overflows, and an inf would read as a line with no estimate
    doc = json.loads(scene_path.read_text())
    doc["lines"][1]["scatterers"][0]["reflectivity"] = 1e-300
    scene_path.write_text(json.dumps(doc))
    est = tmp_path / "est.csv"
    est.write_text("line_index,t_l_s,b_l,residual\n"
                   f"1,{2 * 8e-6!r},1e300,0.0\n")
    img = scene_image(tmp_path)
    out = tmp_path / "metrics.csv"
    assert main(["compare", "--reference", str(img), "--xampled", str(img),
                 "--estimates", str(est), "--scene", str(scene_path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error[InvariantViolation]: line 1: its delay or amplitude error "
        "overflows\n")
    assert not out.exists()


def test_compare_line_count_mismatch(scene_path, tmp_path, capsys):
    est = tmp_path / "est.csv"
    est.write_text("line_index,t_l_s,b_l,residual\n")
    img = tmp_path / "one.pgm"
    img.write_bytes(b"P5\n1 2\n255\n" + bytes([0, 255]))
    rc = main(["compare", "--reference", str(img), "--xampled", str(img),
               "--estimates", str(est), "--scene", str(scene_path),
               "--out", str(tmp_path / "m.csv")])
    assert rc != 0
    assert capsys.readouterr().err.startswith("error[InvariantViolation]:")


@pytest.mark.parametrize("ref_rows, xam_rows",
                         [(1024, 800), (800, 1024), (4, 4)])
def test_compare_refuses_images_of_another_height(scene_path, tmp_path,
                                                  capsys, ref_rows, xam_rows):
    # the scene's 51.2 us window is 1024 rows at 50 ns; an 800-row image is
    # a 40 us window, whose peak rows mean other depths
    paths = []
    for name, rows in (("ref.pgm", ref_rows), ("xa.pgm", xam_rows)):
        paths.append(tmp_path / name)
        paths[-1].write_bytes(f"P5\n2 {rows}\n255\n".encode()
                              + bytes([0, 255]) * rows)
    est = tmp_path / "est.csv"
    est.write_text(HEADER)
    out = tmp_path / "metrics.csv"
    assert main(["compare", "--reference", str(paths[0]),
                 "--xampled", str(paths[1]), "--estimates", str(est),
                 "--scene", str(scene_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error[InvariantViolation]: image sizes ({ref_rows}, 2) and "
        f"({xam_rows}, 2) (rows, lines) do not match the scene's (1024, 2)\n")
    assert not out.exists()


def test_xample_infinity_focus_side_by_side(scene_path, tmp_path):
    ch_dir = tmp_path / "ch"
    main(["simulate", "--scene", str(scene_path), "--out", str(ch_dir)])
    out_dyn = tmp_path / "dyn"
    out_inf = tmp_path / "inf"
    assert main(["xample", "--channels", str(ch_dir), "--scene",
                 str(scene_path), "--out", str(out_dyn), "--L", "5"]) == 0
    assert main(["xample", "--channels", str(ch_dir), "--scene",
                 str(scene_path), "--out", str(out_inf), "--L", "5",
                 "--focus", "infinity"]) == 0
    a = read_pgm(out_dyn / "xampled.pgm")
    b = read_pgm(out_inf / "xampled.pgm")
    assert a.shape == b.shape  # same layout, ready for side-by-side display


def test_failing_line_is_named(scene_path, tmp_path, capsys):
    # line 0 fits the bound L = 2, line 1 carries four echoes
    doc = json.loads(scene_path.read_text())
    doc["lines"] = [doc["lines"][1],
                    {"scatterers": [{"t_n_s": t, "reflectivity": 1.0}
                                    for t in (3e-6, 8e-6, 13e-6, 18e-6)]}]
    scene = tmp_path / "four.json"
    scene.write_text(json.dumps(doc))
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene), "--out", str(ch_dir)]) == 0
    capsys.readouterr()
    rc = main(["xample", "--channels", str(ch_dir), "--scene", str(scene),
               "--out", str(tmp_path / "xa"), "--L", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[OrderOverflow]: line_001.urf: ")
    assert "above threshold 0.01, bound is 2" in err


def test_channel_file_errors_name_the_file(scene_path, tmp_path, capsys):
    # a header whose grid step is too coarse for the simulation grid parses,
    # and the ChannelSet it builds refuses it: the error still names the file
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out",
                 str(ch_dir)]) == 0
    path = ch_dir / "line_001.urf"
    raw = bytearray(path.read_bytes())
    raw[12:20] = struct.pack("<d", 1e-7)
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    for argv in (["beamform"], ["xample", "--L", "5"]):
        out = tmp_path / argv[0]
        rc = main([*argv, "--channels", str(ch_dir), "--scene",
                   str(scene_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[GridTooCoarse]: {path}: grid_step 1e-07")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize("tau", [25.6e-6, 102.4e-6])
def test_channels_from_another_window_are_refused(scene_path, tmp_path,
                                                  capsys, tau):
    # channels simulated over 51.2 us, imaged with a shorter window (the
    # 26 us echo would wrap around it) or a longer one (read past the grid)
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out",
                 str(ch_dir)]) == 0
    doc = json.loads(scene_path.read_text())
    doc["tau_s"] = tau
    del doc["lines"][0]["scatterers"][1]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (["beamform"], ["xample", "--L", "5"]):
        out = tmp_path / argv[0]
        rc = main([*argv, "--channels", str(ch_dir), "--scene", str(other),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error[InvariantViolation]: {ch_dir / 'line_000.urf'}: window "
            f"5.12e-05 s is not the scene's tau_s {tau!r} s\n")
        assert not out.exists()


def test_non_finite_channel_samples_are_refused(scene_path, tmp_path,
                                                capsys):
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out",
                 str(ch_dir)]) == 0
    path = ch_dir / "line_001.urf"
    raw = bytearray(path.read_bytes())
    raw[28:28 + 8 * 100] = np.full(100, np.nan).tobytes()
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    for argv in (["beamform"], ["xample", "--L", "5"]):
        out = tmp_path / argv[0]
        rc = main([*argv, "--channels", str(ch_dir), "--scene",
                   str(scene_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error[ParseError]: {path}: samples must be finite\n")
        assert not out.exists()


def test_channels_cut_short_of_tau_hat_are_refused(scene_path, tmp_path,
                                                  capsys):
    # a file whose header and body agree but whose grid stops at 60% of
    # tau_hat: delay-and-sum would image zeros past its end
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out",
                 str(ch_dir)]) == 0
    path = ch_dir / "line_000.urf"
    ch = read_channels(path, default_geometry())
    keep = int(0.6 * ch.grid_len)
    path.write_bytes(struct.pack("<4sIIdd", b"URF1", 16, keep, ch.grid_step,
                                 ch.tau)
                     + np.ascontiguousarray(ch.samples[:, :keep]).tobytes())
    capsys.readouterr()
    for argv in (["beamform"], ["xample", "--L", "5"]):
        out = tmp_path / argv[0]
        rc = main([*argv, "--channels", str(ch_dir), "--scene",
                   str(scene_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[GridTooShort]: {path}: channel grid "
                              "ends at ")
        assert len(err.splitlines()) == 1
        assert not out.exists()


def test_xample_refuses_a_steered_line_before_listing_files(
        scene_path, tmp_path, capsys):
    doc = json.loads(scene_path.read_text())
    doc["lines"] = [{"alpha_rad": 0.2, "scatterers": []}]
    steered = tmp_path / "steered.json"
    steered.write_text(json.dumps(doc))
    ch_dir = tmp_path / "ch"
    ch_dir.mkdir()
    rc = main(["xample", "--channels", str(ch_dir), "--scene", str(steered),
               "--out", str(tmp_path / "xa"), "--L", "5"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error[InvariantViolation]: low-rate acquisition is defined for "
        "linear scan only (alpha_rad must be 0)\n")


def test_beamform_steers_each_line_by_its_angle(scene_path, tmp_path):
    # one scatterer at t_n = 10 us on a line steered to 0.5 rad: read at
    # alpha = 0 its 16 echoes miss the focus (peak 0.58 at 19.25 us)
    doc = json.loads(scene_path.read_text())
    doc["lines"] = [{"alpha_rad": 0.5, "scatterers": [
        {"t_n_s": 10e-6, "reflectivity": 1.0}]}]
    scene = tmp_path / "steered.json"
    scene.write_text(json.dumps(doc))
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene), "--out", str(ch_dir)]) == 0
    out = tmp_path / "ref"
    assert main(["beamform", "--channels", str(ch_dir), "--scene", str(scene),
                 "--out", str(out)]) == 0
    [row] = read_rows(out / "reference_lines.csv")
    assert float(row["peak_time_s"]) == pytest.approx(20e-6, abs=1e-12)
    assert float(row["peak_value"]) == pytest.approx(16.0, rel=1e-2)


def test_each_scene_line_reads_its_own_file(scene_path, tmp_path, capsys):
    # with line_001.urf gone, line 1 is refused, not imaged from line_002
    doc = json.loads(scene_path.read_text())
    doc["lines"].append({"scatterers": [{"t_n_s": 15e-6,
                                         "reflectivity": 1.0}]})
    scene_path.write_text(json.dumps(doc))
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out",
                 str(ch_dir)]) == 0
    missing = ch_dir / "line_001.urf"
    missing.unlink()
    capsys.readouterr()
    for argv in (["beamform"], ["xample", "--L", "5"]):
        out = tmp_path / argv[0]
        rc = main([*argv, "--channels", str(ch_dir), "--scene",
                   str(scene_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[FileNotFoundError]: ")
        assert str(missing) in err and len(err.splitlines()) == 1
        assert not out.exists()


def test_beamform_rejects_more_channel_files_than_scene_lines(
        scene_path, tmp_path, capsys):
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out",
                 str(ch_dir)]) == 0
    doc = json.loads(scene_path.read_text())
    doc["lines"] = doc["lines"][:1]
    one_line = tmp_path / "one.json"
    one_line.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["beamform", "--channels", str(ch_dir), "--scene",
               str(one_line), "--out", str(tmp_path / "ref")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error[InvariantViolation]: 2 channel files for 1 scene lines\n")


def test_xample_rejects_more_channel_files_than_scene_lines(
        scene_path, tmp_path, capsys):
    ch_dir = tmp_path / "ch"
    doc = json.loads(scene_path.read_text())
    doc["lines"] *= 2
    four_lines = tmp_path / "four.json"
    four_lines.write_text(json.dumps(doc))
    assert main(["simulate", "--scene", str(four_lines), "--out",
                 str(ch_dir)]) == 0
    capsys.readouterr()
    out = tmp_path / "xa"
    rc = main(["xample", "--channels", str(ch_dir), "--scene",
               str(scene_path), "--out", str(out), "--L", "5"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error[InvariantViolation]: 4 channel files for 2 scene lines\n")
    assert not out.exists()


def test_rerun_into_the_same_paths_matches_a_fresh_run(scene_path, tmp_path):
    # every output file is replaced: a rerun over an earlier run's files,
    # here written with other settings, leaves exactly what a fresh run does
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out",
                 str(ch_dir)]) == 0

    def run(root, focus, rhos):
        ref, xa = root / "ref", root / "xa"
        common = ["--channels", str(ch_dir), "--scene", str(scene_path),
                  "--focus", focus]
        for argv in (
                ["beamform", "--out", str(ref), *common],
                ["xample", "--out", str(xa), "--L", "5", *common],
                ["cost", "--L", "5", "--rho", *rhos,
                 "--out", str(root / "cost.csv")],
                ["compare", "--reference", str(ref / "reference.pgm"),
                 "--xampled", str(xa / "xampled.pgm"),
                 "--estimates", str(xa / "estimates.csv"),
                 "--scene", str(scene_path),
                 "--out", str(root / "metrics.csv")]):
            assert main(argv) == 0, argv
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    first = run(tmp_path / "reused", "infinity", ["1", "2", "3", "4"])
    again = run(tmp_path / "reused", "dynamic", ["2"])
    assert again == run(tmp_path / "fresh", "dynamic", ["2"])
    assert len(again) == 7
    assert again != first


def test_negative_seed_fails_before_any_file_is_written(scene_path, tmp_path,
                                                        capsys):
    # a negative seed in the scene file is refused as an invariant of the
    # noise, before the output directory is made
    doc = json.loads(scene_path.read_text())
    doc["noise"] = {"snr_db": 20.0, "speckle_count": 0, "seed": -5}
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps(doc))
    out = tmp_path / "ch"
    assert main(["simulate", "--scene", str(negative), "--out",
                 str(out)]) == 1
    assert capsys.readouterr().err == (
        "error[InvariantViolation]: noise seed -5 must be >= 0\n")
    assert not out.exists()


def test_simulate_over_an_earlier_run(scene_path, tmp_path):
    # a second run into the same directory leaves exactly what a run into
    # a fresh one writes
    doc = json.loads(scene_path.read_text())

    def simulate(name, seed, lines=2):
        scene = tmp_path / f"seed{seed}_lines{lines}.json"
        scene.write_text(json.dumps({
            **doc, "lines": doc["lines"][:lines],
            "noise": {"snr_db": 20.0, "speckle_count": 5, "seed": seed}}))
        out = tmp_path / name
        assert main(["simulate", "--scene", str(scene), "--out",
                     str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = simulate("reused", 3)
    again = simulate("reused", 4)
    assert again == simulate("fresh", 4)
    assert sorted(again) == ["line_000.urf", "line_001.urf"]
    assert all(again[name] != first[name] for name in first)
    # a shorter rerun removes the channel files it did not write, and only
    # those: other files in the directory stay
    (tmp_path / "reused" / "notes.txt").write_text("keep")
    fewer = simulate("reused", 5, lines=1)
    assert fewer == {**simulate("fresh_one", 5, lines=1),
                     "notes.txt": b"keep"}


@pytest.mark.parametrize("command", ["beamform", "xample"])
@pytest.mark.parametrize("db", ["0", "-10", "nan", "inf"])
def test_bad_dynamic_range_is_refused(scene_path, tmp_path, capsys,
                                      monkeypatch, db, command):
    # the image is assembled with a bad dynamic range: the command reports
    # the refusal on one line and writes no output
    monkeypatch.setattr(cli, "assemble_image", lambda traces: assemble_image(
        traces, dynamic_range_db=float(db)))
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out",
                 str(ch_dir)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main([command, "--channels", str(ch_dir), "--scene",
               str(scene_path), "--out", str(out)]
              + (["--L", "5"] if command == "xample" else []))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[InvariantViolation]: dynamic range ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, option, value, message", [
    ("xample", "--sv-threshold", "2", "sv threshold "),
    ("xample", "--sv-threshold", "nan", "sv threshold "),
    ("xample", "--sv-threshold", "0", "sv threshold "),
    ("xample", "--sv-threshold", "-1", "sv threshold "),
])
def test_bad_option_is_refused_before_the_channels(scene_path, tmp_path,
                                                   capsys, command, option,
                                                   value, message):
    # an empty channel directory: the option's error comes first
    ch_dir = tmp_path / "ch"
    ch_dir.mkdir()
    out = tmp_path / "out"
    rc = main([command, "--channels", str(ch_dir), "--scene", str(scene_path),
               "--out", str(out), option, value]
              + (["--L", "5"] if command == "xample" else []))
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error[InvariantViolation]: {message}")
    assert not out.exists()


def _compare_with(scene_path, tmp_path, estimates_text):
    est = tmp_path / "est.csv"
    if isinstance(estimates_text, bytes):
        est.write_bytes(estimates_text)
    else:
        est.write_text(estimates_text)
    img = scene_image(tmp_path)
    out = tmp_path / "metrics.csv"
    rc = main(["compare", "--reference", str(img), "--xampled", str(img),
               "--estimates", str(est), "--scene", str(scene_path),
               "--out", str(out)])
    return rc, est, out


HEADER = "line_index,t_l_s,b_l,residual\n"


def _bad_row(row, line_index, t_l_s, b_l):
    return (f"row {row}: line_index {line_index!r} must be a non-negative "
            f"integer, t_l_s {t_l_s!r} and b_l {b_l!r} finite numbers")


@pytest.mark.parametrize("text, message", [
    ("line_index,b_l,residual\n0,16.0,0.0\n",
     "row 1: missing column(s) ['t_l_s']"),
    ("t_l_s,b_l\n", "row 1: missing column(s) ['line_index']"),
    ("", "row 1: missing column(s) ['b_l', 'line_index', 't_l_s']"),
    (HEADER + "0,1.3e-05,16.0,0.0\n-1,1e-05,16.0,0.0\n",
     _bad_row(3, "-1", "1e-05", "16.0")),
    (HEADER + "1.0,1e-05,16.0,0.0\n", _bad_row(2, "1.0", "1e-05", "16.0")),
    (HEADER + ",1e-05,16.0,0.0\n", _bad_row(2, "", "1e-05", "16.0")),
    (HEADER + "0,nan,16.0,0.0\n", _bad_row(2, "0", "nan", "16.0")),
    (HEADER + "0,1e-05,-inf,0.0\n", _bad_row(2, "0", "1e-05", "-inf")),
    (HEADER + "0,1e-05,x,0.0\n", _bad_row(2, "0", "1e-05", "x")),
    (HEADER + "0,1e-05\n", _bad_row(2, "0", "1e-05", None)),
    (b"\xff" + HEADER.encode(), "not UTF-8 text (invalid start byte)"),
])
def test_compare_rejects_malformed_estimates(scene_path, tmp_path, capsys,
                                             text, message):
    rc, est, out = _compare_with(scene_path, tmp_path, text)
    assert rc == 1
    assert capsys.readouterr().err == f"error[ParseError]: {est}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("index", [2, 7])
def test_compare_refuses_an_estimate_for_a_line_the_scene_lacks(
        scene_path, tmp_path, capsys, index):
    # the scene has lines 0 and 1, so no row may be an estimate of line 2
    rows = f"0,1.3e-05,16.0,0.0\n{index},1e-05,16.0,0.0\n"
    rc, est, out = _compare_with(scene_path, tmp_path, HEADER + rows)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error[InvariantViolation]: {est}: line_index {index} is not a "
        "line of the scene (2 lines)\n")
    assert not out.exists()


TAU_PROP = 12.8e-6
# the window's edges: the earliest delay and the last whose round trip
# stays inside the window
_edge_times = st.sampled_from([math.ulp(0.0), math.nextafter(TAU_PROP / 2, 0)])
_scatterer = st.fixed_dictionaries({
    "t_n_s": st.one_of(_edge_times, st.floats(1e-7, TAU_PROP / 2 - 1e-7)),
    # 1e306 passes the channels and overflows the stages' sums; two
    # 1.5e308 echoes, or one with its rounding margin, pass the float range
    "reflectivity": st.one_of(
        st.sampled_from([0.0, 1e200, -1e200, 1e306, 1.5e308, -1.5e308]),
        st.floats(-2.0, 2.0)),
})
_line = st.fixed_dictionaries({
    # unsteered often enough that xample, which images only alpha = 0, runs
    "alpha_rad": st.just(0.0) | st.floats(-0.5, 0.5),
    "scatterers": st.lists(_scatterer, max_size=3,
                           unique_by=lambda s: s["t_n_s"]),
})
# a line every command takes: unsteered, echoes of moderate strength whose
# round trips lie at least 2 us inside the window
_well_formed_line = st.fixed_dictionaries({
    "alpha_rad": st.just(0.0),
    "scatterers": st.lists(st.fixed_dictionaries({
        "t_n_s": st.floats(1e-6, TAU_PROP / 2 - 1e-6),
        "reflectivity": st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
    }), min_size=1, max_size=3, unique_by=lambda s: s["t_n_s"]),
})


def _scene_doc(line, amplitudes):
    """Scenes of 1-3 ``line``s whose pulse amplitude is one of
    ``amplitudes``, None for a pulse that omits it."""
    pulse = {"carrier_hz": 5.142e6, "sigma_s": 1e-7}
    return st.fixed_dictionaries({
        "speed_of_sound_m_s": st.just(SPEED),
        "tau_s": st.just(TAU_PROP),
        "pulse": st.sampled_from(amplitudes).map(
            lambda a: pulse if a is None else {**pulse, "amplitude": a}),
        "array": st.fixed_dictionaries({"num_elements": st.integers(1, 8),
                                        "pitch_m": st.just(0.3e-3)}),
        "lines": st.lists(line, min_size=1, max_size=3),
    }, optional={"noise": st.just({"snr_db": 20.0, "speckle_count": 5,
                                   "seed": 0})})


def _ended_cleanly(rc, err, outputs):
    """Exit 0 with nothing on stderr, or exit 1 with one ``error[Kind]``
    line and none of the command's outputs on disk."""
    if rc == 0:
        assert err == ""
        assert all(path.exists() for path in outputs)
    else:
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error[")
        assert not any(path.exists() for path in outputs)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# a zero amplitude is refused, and 1e200 times a 1e200 reflectivity
# overflows; a well-formed scene's pulse may be negative
@given(doc=_scene_doc(_line, [None, -1.0, 0.0, 1e200])
       | _scene_doc(_well_formed_line, [None, -1.0]))
# the draws give the overflow with a zero reflectivity beside it, which the
# scene refuses first; here it stands alone
@example(doc={"speed_of_sound_m_s": SPEED, "tau_s": TAU_PROP,
              "pulse": {"carrier_hz": 5.142e6, "sigma_s": 1e-7,
                        "amplitude": 1e200},
              "array": {"num_elements": 2, "pitch_m": 0.3e-3},
              "lines": [{"scatterers": [{"t_n_s": 2e-6,
                                         "reflectivity": -1e200}]}]})
# echoes that overlap beyond the float range, and one whose channels are
# finite but whose stages' sums are not
@example(doc={"speed_of_sound_m_s": SPEED, "tau_s": TAU_PROP,
              "pulse": {"carrier_hz": 5.142e6, "sigma_s": 1e-7},
              "array": {"num_elements": 4, "pitch_m": 0.3e-3},
              "lines": [{"scatterers": [
                  {"t_n_s": 2e-6, "reflectivity": 1.5e308},
                  {"t_n_s": 2.000001e-6, "reflectivity": 1.5e308}]}]})
@example(doc={"speed_of_sound_m_s": SPEED, "tau_s": TAU_PROP,
              "pulse": {"carrier_hz": 5.142e6, "sigma_s": 1e-7},
              "array": {"num_elements": 4, "pitch_m": 0.3e-3},
              "lines": [{"scatterers": [{"t_n_s": 2e-6,
                                         "reflectivity": 1e306}]}]})
def test_every_command_ends_cleanly(tmp_path, capsys, doc):
    """Every scene of 1-3 steered lines on 1-8 elements, with echoes at the
    window's edges, zero or huge reflectivities, a pulse amplitude omitted,
    negative, zero or huge and noise on or off, taken through simulate,
    beamform, xample and compare (100 drawn examples and three above), ends
    each command in success with finite numbers or in one error line and no
    output.  A metric is inf only on a line with more true echoes than
    estimates.  Part of the scenes have well-formed lines only, so that
    xample and compare succeed on most examples."""
    work = fresh_dir(tmp_path)
    scene = work / "scene.json"
    scene.write_text(json.dumps(doc))
    ch_dir, img_dir, xa_dir = work / "ch", work / "img", work / "xa"
    rc = main(["simulate", "--scene", str(scene), "--out", str(ch_dir)])
    lines = [ch_dir / f"line_{i:03d}.urf" for i in range(len(doc["lines"]))]
    _ended_cleanly(rc, capsys.readouterr().err, lines)
    rc = main(["beamform", "--scene", str(scene), "--channels", str(ch_dir),
               "--out", str(img_dir)])
    csv_path = img_dir / "reference_lines.csv"
    _ended_cleanly(rc, capsys.readouterr().err,
                   [img_dir / "reference.pgm", csv_path])
    if rc == 0:
        rows = read_rows(csv_path)
        assert len(rows) == len(doc["lines"])
        values = [float(v) for row in rows for v in row.values()]
        assert np.isfinite(values).all()

    rc = main(["xample", "--scene", str(scene), "--channels", str(ch_dir),
               "--out", str(xa_dir), "--L", "5", "--rho", "2",
               "--sv-threshold", "0.1"])
    estimates = xa_dir / "estimates.csv"
    _ended_cleanly(rc, capsys.readouterr().err,
                   [estimates, xa_dir / "xampled.pgm"])
    if rc == 0:
        values = [float(v) for row in read_rows(estimates)
                  for v in row.values()]
        assert np.isfinite(values).all()
    metrics = work / "metrics.csv"
    rc = main(["compare", "--reference", str(img_dir / "reference.pgm"),
               "--xampled", str(xa_dir / "xampled.pgm"),
               "--estimates", str(estimates), "--scene", str(scene),
               "--out", str(metrics)])
    _ended_cleanly(rc, capsys.readouterr().err, [metrics])
    if rc == 0:
        for row in read_rows(metrics):
            missed = int(row["true_count"]) > int(row["detections"])
            odd = {k: v for k, v in row.items() if not np.isfinite(float(v))}
            assert odd == (dict.fromkeys(["delay_rmse_s", "amp_rel_err"],
                                         "inf") if missed else {})

import csv
import json

import numpy as np
import pytest

from xampus import read_channels, read_pgm
from xampus.cli import main

from util import SPEED, default_geometry


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
                 str(scene_path), "--out", str(out), "--L", "5", "--rho", "2",
                 "--dump-samples"]) == 0
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
    cqm_rows = read_rows(out / "samples_cqm.csv")
    assert len(cqm_rows) == 2 * 40 * 16
    # grouped layout: each mirror pair sits in its lower-index element's rows
    assert all(float(r["value"]) == 0 for r in cqm_rows if int(r["m"]) >= 8)


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
    for rho in ("0", "inf", "nan", "1e300"):
        rc = main(["cost", "--rho", rho, "--out", str(tmp_path / "c.csv")])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error[ValueError]:") and err.count("\n") == 1


def test_cost_invalid_depth(tmp_path, capsys):
    # 1e-9 cm is a round trip that rounds to no sample at all
    for depth in ("inf", "nan", "0", "-1", "1e300", "1e-9"):
        rc = main(["cost", "--depth-cm", depth,
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
        assert (err == f"error[ValueError]: num_elements {elements} must be "
                ">= 1\n")
    assert not (tmp_path / "c.csv").exists()


def test_xample_rejects_hostile_rho(scene_path, tmp_path, capsys):
    # the configuration is checked before any channel file is read
    (tmp_path / "ch").mkdir()
    (tmp_path / "ch" / "line_000.urf").write_bytes(b"")
    for rho, kind in (("inf", "ValueError"), ("nan", "ValueError"),
                      ("1e300", "ValueError"), ("1e6", "InvariantViolation")):
        rc = main(["xample", "--channels", str(tmp_path / "ch"),
                   "--scene", str(scene_path), "--out", str(tmp_path / "o"),
                   "--L", "5", "--rho", rho])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith(f"error[{kind}]:") and err.count("\n") == 1


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
    img = tmp_path / "same.pgm"
    img.write_bytes(b"P5\n2 4\n255\n" + bytes([0, 0, 255, 10, 1, 255, 0, 0]))
    out = tmp_path / "metrics.csv"
    assert main(["compare", "--reference", str(img), "--xampled", str(img),
                 "--estimates", str(est), "--scene", str(scene_path),
                 "--out", str(out)]) == 0
    for r in read_rows(out):
        assert float(r["delay_rmse_s"]) == 0.0
        assert float(r["amp_rel_err"]) == 0.0
        assert int(r["peak_row_delta"]) == 0


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


def test_failing_beamform_line_is_named(scene_path, tmp_path, capsys):
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out",
                 str(ch_dir)]) == 0
    capsys.readouterr()
    # the zone count is checked in infinity focus too, where it is unused
    for focus in ("dynamic", "infinity"):
        rc = main(["beamform", "--channels", str(ch_dir), "--scene",
                   str(scene_path), "--out", str(tmp_path / focus),
                   "--focus", focus, "--focal-zones", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error[ValueError]: line_000.urf: num_focal_zones must be >= 1")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / focus).exists()


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


def test_seed_flag(scene_path, tmp_path):
    doc = json.loads(scene_path.read_text())
    doc["noise"] = {"snr_db": 20.0, "speckle_count": 0, "seed": 1}
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps(doc))

    def simulate(name, *flags):
        out = tmp_path / name
        assert main(["simulate", "--scene", str(noisy), "--out", str(out),
                     *flags]) == 0
        return [(out / f"line_{i:03d}.urf").read_bytes() for i in range(2)]

    scene_seed = simulate("none")
    assert simulate("seed1", "--seed", "1") == scene_seed
    other = simulate("seed999", "--seed", "999")
    assert simulate("seed999_again", "--seed", "999") == other
    assert all(a != b for a, b in zip(other, scene_seed))


@pytest.mark.parametrize("command", ["beamform", "xample"])
@pytest.mark.parametrize("db", ["0", "-10", "nan", "inf"])
def test_bad_dynamic_range_is_refused(scene_path, tmp_path, capsys, db,
                                      command):
    ch_dir = tmp_path / "ch"
    assert main(["simulate", "--scene", str(scene_path), "--out",
                 str(ch_dir)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main([command, "--channels", str(ch_dir), "--scene",
               str(scene_path), "--out", str(out), "--dynamic-range-db", db]
              + (["--L", "5"] if command == "xample" else []))
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[InvariantViolation]: dynamic range ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def _compare_with(scene_path, tmp_path, estimates_text):
    est = tmp_path / "est.csv"
    est.write_text(estimates_text)
    img = tmp_path / "same.pgm"
    img.write_bytes(b"P5\n2 4\n255\n" + bytes([0, 0, 255, 10, 1, 255, 0, 0]))
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
])
def test_compare_rejects_malformed_estimates(scene_path, tmp_path, capsys,
                                             text, message):
    rc, est, out = _compare_with(scene_path, tmp_path, text)
    assert rc == 1
    assert capsys.readouterr().err == f"error[ParseError]: {est}: {message}\n"
    assert not out.exists()

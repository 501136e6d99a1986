import json

import pytest

from xampus import InvariantViolation, ParseError, load_scene


def base_doc():
    return {
        "speed_of_sound_m_s": 1540.0,
        "tau_s": 51.2e-6,
        "pulse": {"carrier_hz": 5.142e6, "sigma_s": 1e-7, "amplitude": 1.0},
        "array": {"num_elements": 16, "pitch_m": 0.3e-3},
        "lines": [
            {"alpha_rad": 0.0,
             "scatterers": [{"t_n_s": 6.4935e-6, "reflectivity": 1.0},
                            {"t_n_s": 12.987e-6, "reflectivity": 0.8}]},
            {"scatterers": []},
        ],
        "noise": {"snr_db": 20.0, "speckle_count": 10, "seed": 42},
    }


def write(tmp_path, doc, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


def test_valid_scene(tmp_path):
    sf = load_scene(write(tmp_path, base_doc()))
    assert sf.geometry.num_elements == 16
    assert sf.pulse.carrier_hz == 5.142e6
    assert sf.tau == 51.2e-6
    assert len(sf.lines) == 2
    assert len(sf.lines[0].scatterers) == 2
    assert sf.lines[1].scatterers == ()
    assert sf.noise.snr_db == 20.0
    assert sf.noise.seed == 42


def test_noise_optional(tmp_path):
    doc = base_doc()
    del doc["noise"]
    sf = load_scene(write(tmp_path, doc))
    assert sf.noise is None


def test_unknown_top_level_key(tmp_path):
    doc = base_doc()
    doc["gain"] = 3
    with pytest.raises(ParseError, match="gain"):
        load_scene(write(tmp_path, doc))


def test_unknown_nested_key(tmp_path):
    doc = base_doc()
    doc["pulse"]["bandwidth"] = 0.6
    with pytest.raises(ParseError, match="bandwidth"):
        load_scene(write(tmp_path, doc))


def test_missing_key(tmp_path):
    doc = base_doc()
    del doc["array"]
    with pytest.raises(ParseError, match="array"):
        load_scene(write(tmp_path, doc))


def test_syntax_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"speed_of_sound_m_s": 1540,\n  "tau_s": }\n')
    with pytest.raises(ParseError, match=r"line 2, column"):
        load_scene(path)


def test_type_errors(tmp_path):
    doc = base_doc()
    doc["tau_s"] = "long"
    with pytest.raises(ParseError, match="tau_s"):
        load_scene(write(tmp_path, doc))
    doc = base_doc()
    doc["array"]["num_elements"] = 15.5
    with pytest.raises(ParseError, match="num_elements"):
        load_scene(write(tmp_path, doc))


def test_invariants_checked_at_load(tmp_path):
    doc = base_doc()
    doc["lines"][0]["scatterers"][0]["t_n_s"] = 30e-6  # 2 t_n > tau
    with pytest.raises(InvariantViolation):
        load_scene(write(tmp_path, doc))
    doc = base_doc()
    doc["pulse"]["sigma_s"] = -1e-7
    with pytest.raises(InvariantViolation):
        load_scene(write(tmp_path, doc))


def test_empty_lines_rejected(tmp_path):
    doc = base_doc()
    doc["lines"] = []
    with pytest.raises(ParseError, match="lines"):
        load_scene(write(tmp_path, doc))


@pytest.mark.parametrize("literal",
                         ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
@pytest.mark.parametrize("field", [
    ("tau_s",),
    ("pulse", "carrier_hz"),
    ("lines", 0, "scatterers", 1, "reflectivity"),
])
def test_non_finite_numbers_rejected(tmp_path, literal, field):
    # json.loads accepts these tokens and reads them as nan, +-inf or an
    # integer too large for a float
    doc = base_doc()
    target = doc
    for step in field[:-1]:
        target = target[step]
    target[field[-1]] = 12345.5
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc).replace("12345.5", literal))
    with pytest.raises(ParseError, match=field[-1]):
        load_scene(path)

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xampus import (ArrayGeometry, InvariantViolation, NoiseSpec, ParseError,
                    PulseModel, Scatterer, Scene, SceneFile, XampusError,
                    load_scene)

from util import fresh_dir


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
    assert sf.noise == NoiseSpec()


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


@pytest.mark.parametrize("field,where", [
    (("pulse",), "pulse"),
    (("array",), "array"),
    (("noise",), "noise"),
    (("lines", 0), r"lines\[0\]"),
    (("lines", 0, "scatterers", 0), r"lines\[0\]\.scatterers\[0\]"),
])
def test_scene_object_given_as_list_is_refused(tmp_path, field, where):
    doc = base_doc()
    target = doc
    for step in field[:-1]:
        target = target[step]
    target[field[-1]] = [1.0]
    with pytest.raises(ParseError, match=f"^{where}: expected an object$"):
        load_scene(write(tmp_path, doc))


@pytest.mark.parametrize("snr", ["omitted", None])
def test_omitted_optional_keys_take_their_defaults(tmp_path, snr):
    doc = base_doc()
    del doc["pulse"]["amplitude"]
    del doc["noise"]["speckle_count"]
    if snr is None:
        doc["noise"]["snr_db"] = None
    else:
        del doc["noise"]["snr_db"]
    sf = load_scene(write(tmp_path, doc))
    assert sf.pulse.amplitude == 1.0
    assert sf.noise.speckle_count == 0
    assert sf.noise.snr_db is None
    assert sf.noise.seed == 42


# --- fuzz ---------------------------------------------------------------------

# deterministic, no example database; each example writes into its own
# fresh_dir(tmp_path)
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def scene_files(draw):
    tau = draw(st.floats(1e-9, 1.0))
    snr = draw(st.none() | st.floats(-200.0, 200.0))
    noise = draw(st.just(NoiseSpec()) | st.builds(
        NoiseSpec, snr_db=st.just(snr),
        speckle_count=st.integers(0, 0 if snr is None else 100),
        seed=st.integers(0, 2**64)))
    times = st.lists(st.floats(0.0, tau / 2, exclude_min=True,
                               exclude_max=True), unique=True, max_size=4)
    lines = draw(st.lists(st.builds(
        lambda ts, gains, alpha: Scene(
            scatterers=tuple(map(Scatterer, ts, gains)), beam_angle=alpha,
            tau=tau),
        times, st.lists(finite, min_size=4, max_size=4), finite),
        min_size=1, max_size=3))
    return SceneFile(
        pulse=PulseModel(draw(positive), draw(positive), draw(finite)),
        geometry=ArrayGeometry(draw(st.integers(1, 64)), draw(positive),
                               draw(positive)),
        tau=tau, noise=noise, lines=lines)


def scene_doc(sf):
    """The JSON document of a SceneFile, every optional key written."""
    doc = {
        "speed_of_sound_m_s": sf.geometry.speed_of_sound,
        "tau_s": sf.tau,
        "pulse": {"carrier_hz": sf.pulse.carrier_hz,
                  "sigma_s": sf.pulse.envelope_sigma,
                  "amplitude": sf.pulse.amplitude},
        "array": {"num_elements": sf.geometry.num_elements,
                  "pitch_m": sf.geometry.pitch},
        "lines": [{"alpha_rad": line.beam_angle,
                   "scatterers": [{"t_n_s": s.axial_time,
                                   "reflectivity": s.reflectivity}
                                  for s in line.scatterers]}
                  for line in sf.lines],
    }
    doc["noise"] = {"snr_db": sf.noise.snr_db,
                    "speckle_count": sf.noise.speckle_count,
                    "seed": sf.noise.seed}
    return doc


# bytes no scene file can hold anywhere: C0 controls other than JSON's
# whitespace (rejected inside strings too) and bytes that cannot stand
# alone in UTF-8 text
NEVER_VALID = [b for b in range(256) if b >= 0x80
               or (b < 0x20 and b not in b"\t\n\r")]


@FUZZ
@given(sf=scene_files())
def test_fuzz_scene_roundtrip(tmp_path, sf):
    path = write(fresh_dir(tmp_path), scene_doc(sf), "f.json")
    assert load_scene(path) == sf


@FUZZ
@given(sf=scene_files(), data=st.data())
def test_fuzz_scene_every_truncation_fails(tmp_path, sf, data):
    raw = json.dumps(scene_doc(sf)).encode()
    path = fresh_dir(tmp_path) / "f.json"
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ParseError, match="f.json: "):
        load_scene(path)


@FUZZ
@given(sf=scene_files(), data=st.data())
def test_fuzz_scene_garbled_byte_fails_typed(tmp_path, sf, data):
    raw = bytearray(json.dumps(scene_doc(sf)).encode())
    at = data.draw(st.integers(0, len(raw) - 1))
    raw[at] = data.draw(st.integers(0, 255))
    path = fresh_dir(tmp_path) / "f.json"
    path.write_bytes(bytes(raw))
    if raw[at] in NEVER_VALID:
        with pytest.raises(ParseError, match="f.json: "):
            load_scene(path)
    else:
        # a garbled document may still be a valid scene; anything it is
        # refused for must be typed
        try:
            load_scene(path)
        except XampusError:
            pass

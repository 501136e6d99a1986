"""Strict JSON scene configuration: geometry, pulse, per-line scatterers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ParseError
from .geometry import ArrayGeometry
from .pulse import PulseModel
from .sim import NoiseSpec, Scatterer, Scene


@dataclass
class SceneFile:
    pulse: PulseModel
    geometry: ArrayGeometry
    tau: float
    noise: NoiseSpec
    lines: list[Scene]


def _object(obj, where: str, required, optional=()) -> dict:
    """``obj``, checked as an object with no missing and no unknown keys."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ParseError(f"{where}: missing keys {sorted(missing)}")
    return obj


def _number(obj, where, key, default=None):
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ParseError(f"{where}.{key}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ParseError(f"{where}.{key}: expected a finite number, got {v!r}")
    return x


def _integer(obj, where, key, default=None):
    if key not in obj:
        return default
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def load_scene(path) -> SceneFile:
    """Parse and validate a scene file.

    Raises ``ParseError`` for text that is not UTF-8, syntax problems or
    unknown/missing keys (JSON errors carry line/column),
    ``InvariantViolation`` for values that break a documented physical
    invariant.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(
            f"{path}: line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    _object(doc, "scene",
            ["speed_of_sound_m_s", "tau_s", "pulse", "array", "lines"],
            ["noise"])

    c = _number(doc, "scene", "speed_of_sound_m_s")
    tau = _number(doc, "scene", "tau_s")

    pd = _object(doc["pulse"], "pulse", ["carrier_hz", "sigma_s"],
                 ["amplitude"])
    pulse = PulseModel(
        carrier_hz=_number(pd, "pulse", "carrier_hz"),
        envelope_sigma=_number(pd, "pulse", "sigma_s"),
        amplitude=_number(pd, "pulse", "amplitude", 1.0),
    )

    ad = _object(doc["array"], "array", ["num_elements", "pitch_m"])
    geometry = ArrayGeometry(
        num_elements=_integer(ad, "array", "num_elements"),
        pitch=_number(ad, "array", "pitch_m"),
        speed_of_sound=c,
    )

    noise = NoiseSpec()
    if "noise" in doc:
        nd = _object(doc["noise"], "noise", ["seed"],
                     ["snr_db", "speckle_count"])
        noise = NoiseSpec(
            snr_db=None if nd.get("snr_db") is None
            else _number(nd, "noise", "snr_db"),
            speckle_count=_integer(nd, "noise", "speckle_count", 0),
            seed=_integer(nd, "noise", "seed"),
        )

    if not isinstance(doc["lines"], list) or not doc["lines"]:
        raise ParseError("lines: expected a non-empty list")
    lines = []
    for i, ld in enumerate(doc["lines"]):
        where = f"lines[{i}]"
        _object(ld, where, ["scatterers"], ["alpha_rad"])
        alpha = _number(ld, where, "alpha_rad", 0.0)
        if not isinstance(ld["scatterers"], list):
            raise ParseError(f"{where}.scatterers: expected a list")
        scatterers = []
        for j, sd in enumerate(ld["scatterers"]):
            sw = f"{where}.scatterers[{j}]"
            _object(sd, sw, ["t_n_s", "reflectivity"])
            scatterers.append(Scatterer(
                axial_time=_number(sd, sw, "t_n_s"),
                reflectivity=_number(sd, sw, "reflectivity"),
            ))
        lines.append(Scene(scatterers=tuple(scatterers), beam_angle=alpha,
                           tau=tau))
    return SceneFile(pulse=pulse, geometry=geometry, tau=tau, noise=noise,
                     lines=lines)

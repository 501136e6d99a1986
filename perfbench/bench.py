"""The three workloads, their timed loop, their metrics and the checks on
the CLI's output files (the gate on estimates is ``gate.py``).

A run processes images of ``lines_per_image`` lines, one image after the
other, until the next image would overrun ``--seconds`` (at least two
images always run).  Each image draws fresh scenes from (seed, image index), so no
result can be reused from one image to the next.  A line's time covers the
library calls that make its estimate; drawing the scene and scoring the
estimate against the truth stay outside it.
"""

from __future__ import annotations

import csv
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import xampus
from xampus import costs
from xampus.imaging import DEFAULT_DYNAMIC_RANGE_DB
from xampus.recover import SV_THRESHOLD_DEFAULT

import gate
from gate import LineResult
from tracing import Tracer, traced_recover

SRC = Path(__file__).resolve().parent.parent / "src"
STARTUP = Path(__file__).resolve().parent / "startup.py"

# README operating point: 16 elements at 0.3 mm, 51.2 us window, 16x grid.
SPEED = 1540.0
TAU = 51.2e-6
ELEMENTS = 16
PITCH = 0.3e-3
OVERSAMPLE = 16
AXIAL_STEP = 50e-9
PULSE = {"carrier_hz": 5.142e6, "sigma_s": 1e-7, "amplitude": 1.0}
SUBPROCESS_TIMEOUT_S = 120
COST_L = 30  # the README's ``xampus cost`` table


@dataclass(frozen=True)
class Spec:
    L: int                 # reflector bound, also the cost-model point
    rho: float
    reflectors: int        # per line
    margin: float          # round-trip clearance from the window edges, s
    min_sep: float         # least round-trip spacing between echoes, s
    refl: tuple[float, float]
    sv_threshold: float
    channel_snr_db: float | None = None
    speckle: int = 0
    coeff_snr_db: float | None = None  # complex noise on the coefficients
    config: bool = True    # set-up builds the kernel-bank config and S/H


_L5_SCENE = dict(reflectors=3, margin=4e-6, min_sep=4e-6, refl=(0.8, 1.5),
                 sv_threshold=0.1, channel_snr_db=25.0, speckle=25)
SPECS = {
    "lowrate-L5": Spec(L=5, rho=2, **_L5_SCENE),
    "reference-das": Spec(L=5, rho=2, config=False, **_L5_SCENE),
    "recover-L30": Spec(L=30, rho=4, reflectors=20, margin=2e-6,
                        min_sep=1e-6, refl=(0.5, 2.0),
                        sv_threshold=SV_THRESHOLD_DEFAULT, coeff_snr_db=40.0),
}

# name -> (unit, better).  BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "lines_per_s": ("1/s", "higher"),
    "line_s_p50": ("s", "lower"),
    "line_s_tail": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "lines_ok_ratio": ("ratio", "higher"),
    "order_ok_ratio": ("ratio", "higher"),
}
SPAN_LAYERS = [
    "sim.synthesize", "sim.interference", "urf.write", "urf.read",
    "xample.kernel_bank", "xample.config", "recover.line", "recover.fourier",
    "recover.pencil", "recover.annihilating", "recover.amplitudes",
    "pulse.build_H", "beamform.das", "beamform.envelope", "imaging.render",
    "imaging.assemble", "imaging.pgm", "scenefile.load", "cli.import",
    "cli.simulate", "cli.beamform", "cli.xample", "cli.cost", "cli.compare",
]
ERROR_KINDS = ["OrderOverflow", "IllConditioned", "ConditioningFailure",
               "SingularSystem", "RankDeficient"]
COMPUTED = {
    "xample.kernel_evals": ("count", "lower"),
    "xample.table_mb": ("MB", "lower"),
    "sim.channel_mb": ("MB", "lower"),
    "urf.mb": ("MB", "lower"),
    "costs.xampled_mops": ("MOp", "lower"),
    "costs.standard_mops": ("MOp", "lower"),
}
PER_LAYER = {
    **{f"{name}_s": ("s", "lower") for name in SPAN_LAYERS},
    **COMPUTED,
    "xample.evals_per_s": ("1/s", "higher"),
    "recover.mops_per_s": ("MOp/s", "higher"),
    "recover.lines_failed": ("count", "lower"),
    "recover.imag_warnings": ("count", "lower"),
    "recover.sv_margin_min": ("ratio", "higher"),
    **{f"errors.{kind}": ("count", "lower") for kind in ERROR_KINDS},
    "errors.other": ("count", "lower"),
    "accuracy.delay_err_ns_p50": ("ns", "lower"),
    "accuracy.delay_err_ns_max": ("ns", "lower"),
    "accuracy.amp_rel_err_p50": ("ratio", "lower"),
    "accuracy.annihilating_delay_err_ns_p50": ("ns", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def layer_calls(tracer: Tracer | None) -> SimpleNamespace:
    """The library entry points the workloads call, spanned when tracing."""
    calls = {
        "synthesize_channels": ("sim.synthesize", xampus.synthesize_channels),
        "add_interference": ("sim.interference", xampus.add_interference),
        "write_channels": ("urf.write", xampus.write_channels),
        "read_channels": ("urf.read", xampus.read_channels),
        "xample_channels": ("xample.kernel_bank", xampus.xample_channels),
        "recover_line": ("recover.line", xampus.recover_line),
        "beamform_line": ("beamform.das", xampus.beamform_line),
        "envelope_detect": ("beamform.envelope", xampus.envelope_detect),
        "render_line": ("imaging.render", xampus.render_line),
        "assemble_image": ("imaging.assemble", xampus.assemble_image),
        "write_pgm": ("imaging.pgm", xampus.write_pgm),
    }
    return SimpleNamespace(**{
        attr: fn if tracer is None else tracer.wrap(name, fn)
        for attr, (name, fn) in calls.items()})


def corrupted(c: np.ndarray) -> np.ndarray:
    """Negate the sine branches: conjugates the coefficients, so every
    delay t comes back near tau - t.  Used only to prove the gate trips."""
    c = np.array(c, dtype=float)
    c[len(c) // 2:] *= -1.0
    return c


def envelope_peaks(env: np.ndarray, rel: float = 0.3,
                   min_gap_s: float = 500e-9):
    """Echo times and heights of a detected envelope: local maxima above
    ``rel`` of the line's maximum, the strongest kept within ``min_gap_s``."""
    if env.size < 3 or env.max() <= 0.0:
        return np.zeros(0), np.zeros(0)
    mid = env[1:-1]
    idx = np.flatnonzero((mid >= env[:-2]) & (mid > env[2:])
                         & (mid > rel * env.max())) + 1
    gap = min_gap_s / AXIAL_STEP
    kept: list[int] = []
    for i in idx[np.argsort(-env[idx], kind="stable")]:
        if all(abs(i - j) >= gap for j in kept):
            kept.append(int(i))
    kept.sort()
    return np.array(kept) * AXIAL_STEP, env[kept]


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile with
    ten samples beyond it, capped at p90 so that on short lines it does not
    rest on the ten slowest of hundreds; the median below twenty samples."""
    s = sorted(times)
    n = len(s)
    if n < 20:
        return 50.0, statistics.median(s), n // 2
    beyond = max(10, int(np.ceil(0.1 * n)))
    return 100.0 * (n - beyond) / n, s[n - beyond - 1], beyond


def shares(per_layer: dict, traced: "Loop") -> dict[str, float]:
    """Each line layer's time as a share of the traced median line; for the
    CLI, start-up's share of each subcommand.  Set-up layers are left out:
    they are paid once, not per line."""
    line = statistics.median(x.seconds for x in traced.lines)
    setup = ("scenefile.load", "xample.config", "cli.import")
    out = {name: per_layer[f"{name}_s"] / line for name in SPAN_LAYERS
           if not name.startswith("cli.") and name not in setup
           and per_layer[f"{name}_s"] > 0}
    for sub in ("simulate", "beamform", "xample", "cost", "compare"):
        if per_layer[f"cli.{sub}_s"] > 0:
            out[f"cli.import/cli.{sub}"] = (per_layer["cli.import_s"]
                                            / per_layer[f"cli.{sub}_s"])
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


@dataclass
class Loop:
    """What one timed loop saw."""

    lines: list[LineResult] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    imag_warnings: int = 0
    other_warnings: Counter = field(default_factory=Counter)
    sv_margins: list[float] = field(default_factory=list)


class Run:
    """One workload at one seed, set up in this process."""

    def __init__(self, workload: str, seed: int, workdir: Path,
                 lines_per_image: int = 4, corrupt: bool = False):
        self.name = workload
        self.spec = SPECS[workload]
        self.seed = seed
        self.workdir = workdir
        self.lines_per_image = lines_per_image
        self.corrupt = corrupt
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("XAMPUS_SEED", "XAMPUS_THREADS")}
        self.env["PYTHONPATH"] = str(SRC)
        self.problems: list[str] = []
        self.identity: float | None = None
        self.tracer: Tracer | None = None
        self.calls = layer_calls(None)
        self.loop = Loop()

        workdir.mkdir(parents=True)
        self.scene_path = workdir / "scene.json"
        self.write_scene(self.scene_path, 0)
        scene = xampus.load_scene(self.scene_path)
        self.pulse, self.geom = scene.pulse, scene.geometry
        self.step = xampus.simulation_grid_step(OVERSAMPLE)
        self.n_axial = max(1, int(np.floor(TAU / AXIAL_STEP + 1e-9)))
        self.axial = np.arange(self.n_axial) * AXIAL_STEP
        self.cfg = xampus.XampleConfig.create(self.spec.L, self.spec.rho, TAU,
                                              self.pulse, self.geom)
        self.S = xampus.build_S(self.cfg.p)
        self.H = xampus.build_H(self.pulse, self.cfg.kappa, TAU)
        self.urf_path = workdir / "line.urf"
        self.computed = self._computed_counts()

    # -- inputs -------------------------------------------------------------

    def draw_image(self, image: int):
        """Per line (round trips, reflectivities), and the image's noise seed.

        Round trips are uniform subject to ``min_sep`` spacing and the
        window margins (sorted uniforms on the free span, plus the gaps).
        """
        spec = self.spec
        rng = np.random.default_rng([self.seed % 2**64, image])
        n = spec.reflectors
        free = TAU - 2 * spec.margin - (n - 1) * spec.min_sep
        lines = []
        for _ in range(self.lines_per_image):
            trips = (spec.margin + np.sort(rng.uniform(0.0, free, n))
                     + spec.min_sep * np.arange(n))
            lines.append((trips, rng.uniform(*spec.refl, n)))
        return lines, int(rng.integers(2**31))

    def write_scene(self, path: Path, image: int):
        lines, noise_seed = self.draw_image(image)
        doc = {
            "speed_of_sound_m_s": SPEED, "tau_s": TAU, "pulse": PULSE,
            "array": {"num_elements": ELEMENTS, "pitch_m": PITCH},
            "lines": [{"alpha_rad": 0.0, "scatterers": [
                {"t_n_s": t / 2.0, "reflectivity": r}
                for t, r in zip(trips, refl)]} for trips, refl in lines],
        }
        if self.spec.channel_snr_db is not None:
            doc["noise"] = {"snr_db": self.spec.channel_snr_db,
                            "speckle_count": self.spec.speckle,
                            "seed": noise_seed}
        path.write_text(json.dumps(doc))
        return lines

    def _scene(self, trips, refl) -> xampus.Scene:
        return xampus.Scene(
            scatterers=tuple(xampus.Scatterer(t / 2.0, r)
                             for t, r in zip(trips, refl)),
            beam_angle=0.0, tau=TAU)

    def branch_samples(self, trips, refl, noise_seed: int) -> np.ndarray:
        """c = Re(S (H * V b / tau)) with complex noise on the coefficients;
        b is in beamformed units (element count times reflectivity)."""
        cfg = self.cfg
        K = cfg.K
        b = ELEMENTS * np.asarray(refl)
        V = np.exp((-2j * np.pi / cfg.tau) * np.outer(cfg.kappa_pos, trips))
        phi = self.H[:K] * (V @ b) / cfg.tau
        rng = np.random.default_rng(noise_seed)
        sigma = np.sqrt(np.mean(np.abs(phi) ** 2)
                        * 10.0 ** (-self.spec.coeff_snr_db / 10.0) / 2.0)
        phi = phi + sigma * (rng.standard_normal(K)
                             + 1j * rng.standard_normal(K))
        return np.real(self.S.entries @ np.concatenate([phi, np.conj(phi)]))

    def _computed_counts(self) -> dict[str, float]:
        """Counts derived from array sizes and the cost model, not timed."""
        spec = self.spec
        M = ELEMENTS // 2
        K, _ = costs.sample_counts(spec.L, spec.rho)
        std = costs.standard_ops(costs.standard_samples(SPEED * TAU / 2.0),
                                 ELEMENTS)
        out = {name: 0.0 for name in COMPUTED}
        out["costs.xampled_mops"] = costs.xampled_ops(spec.L, K, 2 * K,
                                                      M) / 1e6
        out["costs.standard_mops"] = std / 1e6
        if self.name == "recover-L30":
            return out
        empty = xampus.synthesize_channels(self._scene([], []), self.geom,
                                           self.pulse, self.step)
        xampus.write_channels(self.urf_path, empty)
        out["sim.channel_mb"] = empty.samples.nbytes / 1e6
        out["urf.mb"] = self.urf_path.stat().st_size / 1e6
        if self.name != "reference-das":
            # one complex exponential per harmonic and grid point at or past
            # the element's warp onset |offset|/c, held as one dense table
            t = empty.times
            per_elem = [int(np.sum(t >= a)) for a in self.geom.offset_times]
            kappa = len(self.cfg.kappa)
            out["xample.kernel_evals"] = float(kappa * sum(per_elem))
            out["xample.table_mb"] = kappa * max(per_elem) * 16 / 1e6
        return out

    # -- one line of each path ----------------------------------------------

    def _line(self, line_id: str, truth, work) -> tuple[LineResult, object]:
        """Time one line; a line that raises is counted, never dropped."""
        if self.tracer is not None:
            self.tracer.line = line_id
        estimates: list[tuple[str, np.ndarray, np.ndarray]] = []
        errors: list[str] = []
        product = None
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                product = work(estimates)
            except Exception as e:  # noqa: BLE001 - recorded per kind below
                errors.append(type(e).__name__)
        seconds = time.perf_counter() - t0
        for w in caught:
            if "imaginary residue" in str(w.message):
                self.loop.imag_warnings += 1
            else:
                self.loop.other_warnings[f"{w.category.__name__}: "
                                         f"{w.message}"] += 1
        trips, refl = truth
        outcomes = [gate.score(method, trips, refl, d, a, ELEMENTS)
                    for method, d, a in estimates]
        return LineResult(seconds, outcomes, errors), product

    def _recover(self, c, method: str):
        est = self.calls.recover_line(c, self.cfg, self.pulse, method=method,
                                      sv_threshold=self.spec.sv_threshold,
                                      S=self.S)
        s, order = est.singular_values, est.model_order
        if 0 < order < len(s):
            self.loop.sv_margins.append(float(s[order - 1] / s[order]))
        return est

    def _channels(self, trips, refl, noise_seed: int):
        calls = self.calls
        ch = calls.synthesize_channels(self._scene(trips, refl), self.geom,
                                       self.pulse, self.step)
        ch = calls.add_interference(ch, self.spec.channel_snr_db,
                                    self.spec.speckle, noise_seed,
                                    pulse=self.pulse, beam_angle=0.0)
        calls.write_channels(self.urf_path, ch)
        return calls.read_channels(self.urf_path, self.geom)

    def _image_lines(self, image: int):
        """lowrate-L5 and reference-das: channels to a written PGM image."""
        draws, noise_seed = self.draw_image(image)
        das = self.name == "reference-das"
        results, traces = [], []
        t0 = time.perf_counter()
        for i, (trips, refl) in enumerate(draws):
            def work(estimates, trips=trips, refl=refl, i=i):
                ch = self._channels(trips, refl, noise_seed + i)
                if das:
                    line = self.calls.beamform_line(
                        ch, alpha=0.0, focus_mode="dynamic",
                        out_step=AXIAL_STEP, duration=TAU)
                    env = self.calls.envelope_detect(line)[: self.n_axial]
                    estimates.append(("das", *envelope_peaks(env)))
                    return env
                c = self.calls.xample_channels(ch, self.cfg, self.S).c
                if self.corrupt and image == 0 and i == 0:
                    c = corrupted(c)
                est = self._recover(c, "pencil")
                estimates.append(("pencil", est.delays, est.amplitudes))
                return self.calls.render_line(est, self.pulse, self.axial)

            result, trace = self._line(f"{image}.{i}", (trips, refl), work)
            results.append(result)
            traces.append(np.zeros(self.n_axial) if trace is None else trace)
        if self.tracer is not None:
            self.tracer.line = f"image{image}"
        picture = self.calls.assemble_image(traces, DEFAULT_DYNAMIC_RANGE_DB,
                                            AXIAL_STEP)
        self.calls.write_pgm(self.workdir / "image.pgm", picture)
        return results, time.perf_counter() - t0

    def _image_recover(self, image: int):
        """recover-L30: analytic branch samples, pencil then annihilating."""
        draws, noise_seed = self.draw_image(image)
        inputs = [self.branch_samples(trips, refl, noise_seed + i)
                  for i, (trips, refl) in enumerate(draws)]
        if self.corrupt and image == 0:
            inputs[0] = corrupted(inputs[0])
        results = []
        t0 = time.perf_counter()
        for i, (c, truth) in enumerate(zip(inputs, draws)):
            def work(estimates, c=c):
                for method in ("pencil", "annihilating"):
                    est = self._recover(c, method)
                    estimates.append((method, est.delays, est.amplitudes))

            results.append(self._line(f"{image}.{i}", truth, work)[0])
        return results, time.perf_counter() - t0

    def _image_cli(self, image: int):
        """The five subcommands as fresh processes on one image's scene;
        only traced lowrate-L5 runs do this, for the ``cli.*`` layers."""
        d = self.workdir / "cli"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir()
        scene = d / "scene.json"
        draws = self.write_scene(scene, image)
        ref, xa = d / "ref", d / "xa"
        steps = [
            ("simulate", ["--scene", scene, "--out", d / "ch"]),
            ("beamform", ["--channels", d / "ch", "--scene", scene,
                          "--out", ref]),
            ("xample", ["--channels", d / "ch", "--scene", scene,
                        "--out", xa, "--L", self.spec.L, "--rho",
                        self.spec.rho, "--sv-threshold",
                        self.spec.sv_threshold]),
            ("cost", ["--L", COST_L, "--rho", 1, 2, 3, 4, "--elements",
                      ELEMENTS, "--out", d / "cost.csv"]),
            ("compare", ["--reference", ref / "reference.pgm",
                         "--xampled", xa / "xampled.pgm",
                         "--estimates", xa / "estimates.csv",
                         "--scene", scene, "--out", d / "metrics.csv"]),
        ]
        errors: list[str] = []
        t0 = time.perf_counter()
        for sub, args in steps:
            argv = [sub, *map(str, args)]
            spans = d / f"{sub}.spans.json"
            cmd = ([sys.executable, str(STARTUP), "cli", str(spans), *argv]
                   if self.tracer is not None
                   else [sys.executable, "-m", "xampus.cli", *argv])
            ts = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=SUBPROCESS_TIMEOUT_S)
            if self.tracer is not None:
                self.tracer.add(f"cli.{sub}", time.perf_counter() - ts,
                                f"image{image}")
                if spans.exists():
                    stages = json.loads(spans.read_text())
                    self.tracer.add("cli.import", stages["cli.import"],
                                    f"image{image}:{sub}")
            if proc.returncode != 0:
                kind = proc.stderr.strip().partition("]")[0]
                errors.append(kind.removeprefix("error[") or "exit")
                break
        wall = time.perf_counter() - t0
        estimates = ({} if errors else
                     self._read_cli_outputs(d, draws, xa / "estimates.csv"))
        results = []
        for i, (trips, refl) in enumerate(draws):
            est = estimates.get(i, ([], []))
            outcomes = [] if errors else [
                gate.score("pencil", trips, refl, *est, ELEMENTS)]
            results.append(LineResult(wall / len(draws), outcomes,
                                      list(errors)))
        return results, wall

    def _read_cli_outputs(self, d: Path, draws, estimates_csv: Path):
        """Per-line estimates; checks the reference peaks, cost table and
        metrics rows on the way."""
        table: dict[int, tuple[list[float], list[float]]] = {}
        with open(estimates_csv, newline="") as f:
            for row in csv.DictReader(f):
                t, b = table.setdefault(int(row["line_index"]), ([], []))
                t.append(float(row["t_l_s"]))
                b.append(float(row["b_l"]))
        with open(d / "ref" / "reference_lines.csv", newline="") as f:
            for row in csv.DictReader(f):
                trips = draws[int(row["line_index"])][0]
                off = np.min(np.abs(trips - float(row["peak_time_s"])))
                if not off <= gate.DELAY_BOUND_S:
                    self.problems.append(
                        f"reference line {row['line_index']}: envelope peak "
                        f"{off * 1e9:.0f} ns from the nearest echo")
        with open(d / "cost.csv", newline="") as f:
            for row in csv.DictReader(f):
                K = round(2 * float(row["rho"]) * COST_L)
                if (int(row["K"]) != K
                        or int(row["samples_per_element_per_line"]) != 2 * K):
                    self.problems.append(f"cost table row {row} is wrong")
        with open(d / "metrics.csv", newline="") as f:
            rows = sum(1 for _ in csv.DictReader(f))
        if rows != len(draws):
            self.problems.append(f"compare wrote {rows} rows for "
                                 f"{len(draws)} lines")
        return table

    # -- runs ---------------------------------------------------------------

    def image(self, image: int):
        if self.name == "recover-L30":
            return self._image_recover(image)
        return self._image_lines(image)

    def kernel_identity(self) -> float:
        """Relative l2 gap between direct sampling and sampling the
        materialized beamformed line, on the clean channels of one line."""
        trips, refl = self.draw_image(0)[0][0]
        clean = xampus.synthesize_channels(self._scene(trips, refl),
                                           self.geom, self.pulse, self.step)
        direct = xampus.xample_channels(clean, self.cfg, self.S).c
        line = xampus.beamform_line(clean, focus_mode="dynamic",
                                    out_step=clean.grid_step,
                                    duration=self.cfg.tau)
        oracle = xampus.xample_beamformed_oracle(line, self.cfg, self.S)
        return float(np.linalg.norm(direct - oracle) / np.linalg.norm(oracle))

    def timed(self, seconds: float,
              tracer: Tracer | None = None) -> tuple[Loop, Loop]:
        """Images until the next one would end past ``seconds``, and at
        least two.

        With a tracer, images alternate untraced and traced, so both halves
        see the same stretch of machine time and their difference is the
        tracing overhead.  Returns (untraced, traced) loops."""
        plain, traced = Loop(), Loop()
        start = time.perf_counter()
        for image in range(10**9):
            on = tracer is not None and image % 2 == 1
            self.tracer = tracer if on else None
            self.calls = layer_calls(self.tracer)
            self.loop = traced if on else plain
            with traced_recover(self.tracer):
                lines, wall = self.image(image)
            self.loop.lines += lines
            self.loop.walls.append(wall)
            spent = time.perf_counter() - start
            walls = plain.walls + traced.walls
            if (len(walls) >= 2 and spent + statistics.median(walls) > seconds
                    and (tracer is None or traced.walls)):
                break
        self.tracer = None
        self.calls = layer_calls(None)
        return plain, traced

    def setup_times(self, probes: int, tracer: Tracer | None) -> list[float]:
        """Spawn-to-ready seconds of fresh interpreters setting up."""
        cmd = [sys.executable, str(STARTUP), "probe", str(self.scene_path)]
        if self.spec.config:
            cmd += [str(self.spec.L), str(self.spec.rho)]
        times = []
        for j in range(probes):
            t0 = time.perf_counter()
            with subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE,
                                  text=True) as proc:
                first = proc.stdout.readline()
                ready = time.perf_counter() - t0
                proc.stdout.read()
                proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
            if proc.returncode != 0 or not first:
                raise RuntimeError(f"setup probe exited {proc.returncode}")
            times.append(ready)
            if tracer is not None:
                for name, dt in json.loads(first).items():
                    tracer.add(name, dt, f"setup{len(tracer.spans)}")
        return times

    def measure(self, seconds: float, trace: bool,
                probes: int = 3) -> tuple[dict, Tracer | None]:
        """Gate, timed loop(s), set-up probes; returns the full record and,
        traced, the tracer holding the spans.

        One set-up probe runs before the timed loop and the rest after it,
        so their median spans the run rather than one stretch of it.  A
        traced run alternates untraced and traced images over ``seconds``;
        a traced lowrate-L5 run then runs the CLI once, traced."""
        if self.name == "lowrate-L5":
            self.identity = self.kernel_identity()
        tracer = Tracer() if trace else None
        setup = self.setup_times(1, tracer)
        loop, traced = self.timed(seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cli_lines: list[LineResult] = []
        if tracer is not None and self.name == "lowrate-L5":
            self.tracer = tracer
            cli_lines, _ = self._image_cli(len(loop.walls) + len(traced.walls))
            self.tracer = None
        setup += self.setup_times(probes - 1, tracer)
        problems = (gate.check(loop.lines + traced.lines + cli_lines,
                               self.identity)
                    + self.problems)

        times = [line.seconds for line in loop.lines]
        n = len(loop.lines)
        pct, tail_s, beyond = tail(times)
        e2e = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(loop.walls),
            "lines_per_s": n / sum(loop.walls),
            "line_s_p50": statistics.median(times),
            "line_s_tail": tail_s,
            "peak_rss_mb": peak_rss_mb,
            "lines_ok_ratio": 1.0 - sum(x.failed for x in loop.lines) / n,
            "order_ok_ratio": sum(x.order_ok for x in loop.lines) / n,
        }
        record = {
            "workload": self.name, "seed": self.seed, "seconds": seconds,
            "lines": n, "images": len(loop.walls),
            "failed": sum(x.failed for x in loop.lines),
            "tail": {"percentile": pct, "samples": n, "beyond": beyond},
            "setup_samples": setup, "line_seconds": times,
            "image_seconds": loop.walls, "identity": self.identity,
            "problems": problems, "end_to_end": e2e,
            "warnings": dict(loop.other_warnings),
        }
        if trace:
            record["per_layer"] = self.per_layer(tracer, traced, loop)
            record["shares"] = shares(record["per_layer"], traced)
        return record, tracer

    def per_layer(self, tracer: Tracer, traced: Loop, plain: Loop) -> dict:
        """Layer times from the traced images; counts and accuracy from all
        images of the run."""
        m = {f"{name}_s": tracer.per_line(name) for name in SPAN_LAYERS}
        m.update(self.computed)
        calls, busy = tracer.count_total("xample.kernel_bank")
        m["xample.evals_per_s"] = (calls * m["xample.kernel_evals"] / busy
                                   if busy else 0.0)
        calls, busy = tracer.count_total("recover.line")
        m["recover.mops_per_s"] = (calls * m["costs.xampled_mops"] / busy
                                   if busy else 0.0)
        lines = plain.lines + traced.lines
        m["recover.lines_failed"] = float(sum(x.failed for x in lines))
        m["recover.imag_warnings"] = float(plain.imag_warnings
                                           + traced.imag_warnings)
        m["recover.sv_margin_min"] = min(plain.sv_margins + traced.sv_margins,
                                         default=0.0)
        kinds = Counter(k for x in lines for k in x.errors)
        for kind in ERROR_KINDS:
            m[f"errors.{kind}"] = float(kinds.pop(kind, 0))
        m["errors.other"] = float(sum(kinds.values()))

        def pooled(attr, primary):
            vals = [v for x in lines for o in x.outcomes
                    if o.order_ok and (o.method != "annihilating") == primary
                    for v in getattr(o, attr)]
            return np.array(vals)

        d = pooled("delay_err", True) * 1e9
        a = pooled("amp_err", True)
        ann = pooled("delay_err", False) * 1e9
        m["accuracy.delay_err_ns_p50"] = float(np.median(d)) if d.size else 0.0
        m["accuracy.delay_err_ns_max"] = float(np.max(d)) if d.size else 0.0
        m["accuracy.amp_rel_err_p50"] = float(np.median(a)) if a.size else 0.0
        m["accuracy.annihilating_delay_err_ns_p50"] = (
            float(np.median(ann)) if ann.size else 0.0)
        plain_p50 = statistics.median(x.seconds for x in plain.lines)
        traced_p50 = statistics.median(x.seconds for x in traced.lines)
        m["trace.overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
        return m

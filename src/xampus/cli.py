"""Command-line front end.

Subcommands::

    simulate   scene JSON -> one URF1 channel file per image line
    beamform   channel files -> reference image (PGM) + peak CSV
    xample     channel files -> low-rate estimates CSV + image (PGM)
    cost       sampling-rate / op-count table (CSV)
    compare    estimates + images vs. scene ground truth (metrics CSV)

Every failure prints a single ``error[<Kind>]: message`` line on stderr and
exits nonzero; a failure on one line names that line's file first.
``simulate --seed`` overrides the scene's noise seed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import costs, urf
from .beamform import beamform_line, envelope_detect
from .errors import InvariantViolation, ParseError, XampusError
from .imaging import (DEFAULT_DYNAMIC_RANGE_DB, assemble_image, read_pgm,
                      render_line, write_pgm)
from .recover import SV_THRESHOLD_DEFAULT, recover_line
from .scenefile import load_scene
from .sim import add_interference, simulation_grid_step, synthesize_channels
from .xample import XampleConfig, build_S, xample_channels

AXIAL_STEP = 50e-9


def _fmt(x: float) -> str:
    return f"{x:.12e}"


@contextmanager
def _naming(path: Path):
    """Prefix an error raised while working on one line with its file name."""
    try:
        yield
    except (XampusError, ValueError) as e:
        e.args = (f"{path.name}: {e}",)
        raise


def _line_paths(channel_dir: Path, limit=None) -> list[Path]:
    paths = sorted(Path(channel_dir).glob("line_*.urf"))
    if not paths:
        raise InvariantViolation(f"no line_*.urf files in {channel_dir}")
    return _first(paths, limit)


def _first(items, limit):
    if limit is None:
        return list(items)
    if limit < 1:
        raise InvariantViolation("--lines must be >= 1")
    return list(items)[:limit]


def _axial_samples(tau: float) -> int:
    # image axial extent must not exceed the window
    return max(1, int(np.floor(tau / AXIAL_STEP + 1e-9)))


def cmd_simulate(args) -> int:
    scene = load_scene(args.scene)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    step = simulation_grid_step(args.oversample)
    noise = scene.noise
    lines = _first(scene.lines, args.lines)
    for idx, line in enumerate(lines):
        path = out / f"line_{idx:03d}.urf"
        with _naming(path):
            ch = synthesize_channels(line, scene.geometry, scene.pulse, step)
            if noise is not None:
                seed = noise.seed if args.seed is None else args.seed
                ch = add_interference(ch, noise.snr_db, noise.speckle_count,
                                      seed + idx, pulse=scene.pulse,
                                      beam_angle=line.beam_angle)
        urf.write_channels(path, ch)
    print(f"wrote {len(lines)} channel file(s) to {out}")
    return 0


def cmd_beamform(args) -> int:
    scene = load_scene(args.scene)
    paths = _line_paths(Path(args.channels), args.lines)
    if len(paths) > len(scene.lines):
        raise InvariantViolation(
            f"{len(paths)} channel files for {len(scene.lines)} scene lines")
    n_axial = _axial_samples(scene.tau)

    traces = []
    for path, scene_line in zip(paths, scene.lines):
        ch = urf.read_channels(path, scene.geometry)
        with _naming(path):
            line = beamform_line(ch, alpha=scene_line.beam_angle,
                                 focus_mode=args.focus,
                                 out_step=AXIAL_STEP, duration=scene.tau,
                                 num_focal_zones=args.focal_zones)
        traces.append(envelope_detect(line)[:n_axial])
    image = assemble_image(traces, args.dynamic_range_db, AXIAL_STEP)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pgm(out / "reference.pgm", image)
    with open(out / "reference_lines.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["line_index", "peak_time_s", "peak_value"])
        for i, tr in enumerate(traces):
            peak = int(np.argmax(tr))
            w.writerow([i, _fmt(peak * AXIAL_STEP), _fmt(float(tr[peak]))])
    print(f"wrote {out / 'reference.pgm'} and {out / 'reference_lines.csv'}")
    return 0


def cmd_xample(args) -> int:
    # configuration guards come before any input is touched
    costs.sample_counts(args.L, args.rho)
    scene = load_scene(args.scene)
    paths = _line_paths(Path(args.channels), args.lines)
    for line in scene.lines:
        if line.beam_angle != 0.0:
            raise InvariantViolation(
                "low-rate acquisition is defined for linear scan only "
                "(alpha_rad must be 0)"
            )
    cfg = XampleConfig.create(args.L, args.rho, scene.tau, scene.pulse,
                              scene.geometry, focus_mode=args.focus)
    S = build_S(cfg.p)
    n_axial = _axial_samples(scene.tau)
    axial_grid = np.arange(n_axial) * AXIAL_STEP

    results = []
    for path in paths:
        ch = urf.read_channels(path, scene.geometry)
        with _naming(path):
            out_samples = xample_channels(ch, cfg, S)
            est = recover_line(out_samples.c, cfg, scene.pulse,
                               method=args.method,
                               sv_threshold=args.sv_threshold, S=S)
        results.append((out_samples, est))
    traces = [render_line(est, scene.pulse, axial_grid)
              for _, est in results]
    image = assemble_image(traces, args.dynamic_range_db, AXIAL_STEP)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "estimates.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["line_index", "t_l_s", "b_l", "residual"])
        for i, (_, est) in enumerate(results):
            for t_l, b_l in zip(est.delays, est.amplitudes):
                w.writerow([i, _fmt(t_l), _fmt(b_l), _fmt(est.residual)])
    write_pgm(out / "xampled.pgm", image)

    if args.dump_samples:
        with open(out / "samples_c.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["line_index", "q", "value"])
            for i, (xo, _) in enumerate(results):
                for q, v in enumerate(xo.c):
                    w.writerow([i, q, _fmt(v)])
        with open(out / "samples_cqm.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["line_index", "q", "m", "value"])
            for i, (xo, _) in enumerate(results):
                for q in range(xo.c_qm.shape[0]):
                    for m in range(xo.c_qm.shape[1]):
                        w.writerow([i, q, m, _fmt(xo.c_qm[q, m])])
    print(f"wrote {out / 'estimates.csv'} and {out / 'xampled.pgm'}")
    return 0


def cmd_cost(args) -> int:
    rows = costs.cost_table(args.L, args.rho, num_elements=args.elements,
                            depth_m=args.depth_cm / 100.0)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["L", "rho", "K", "samples_per_element_per_line",
                    "xampled_mops", "reduction_factor", "standard_samples",
                    "standard_mops"])
        for r in rows:
            w.writerow([r.L, f"{r.rho:g}", r.K,
                        r.samples_per_element_per_line,
                        _fmt(r.xampled_mops), _fmt(r.reduction_factor),
                        r.standard_samples, _fmt(r.standard_mops)])
    print(f"wrote {out}")
    return 0


def _read_estimates(path) -> dict[int, list[tuple[float, float]]]:
    """(t_l, b_l) pairs by line index.  A missing column, a line index that
    is not a non-negative integer or a delay or amplitude that is not finite
    raises ``ParseError`` naming the file and the row (the header is row 1).
    """
    table: dict[int, list[tuple[float, float]]] = {}
    with open(path, "r", newline="") as f:
        reader = csv.DictReader(f)
        missing = {"line_index", "t_l_s", "b_l"} - set(reader.fieldnames or ())
        if missing:
            raise ParseError(
                f"{path}: row 1: missing column(s) {sorted(missing)}")
        for row in reader:
            index, t_l, b_l = row["line_index"], row["t_l_s"], row["b_l"]
            try:
                t, b = float(t_l), float(b_l)
            except (TypeError, ValueError):
                t = b = np.nan
            if not ((index or "").isdecimal() and np.isfinite([t, b]).all()):
                raise ParseError(
                    f"{path}: row {reader.line_num}: line_index {index!r} "
                    f"must be a non-negative integer, t_l_s {t_l!r} and "
                    f"b_l {b_l!r} finite numbers")
            table.setdefault(int(index), []).append((t, b))
    return table


def cmd_compare(args) -> int:
    scene = load_scene(args.scene)
    ref_img = read_pgm(args.reference)
    xam_img = read_pgm(args.xampled)
    estimates = _read_estimates(args.estimates)
    n_lines = len(scene.lines)
    if ref_img.shape[1] != n_lines or xam_img.shape[1] != n_lines:
        raise InvariantViolation(
            f"image line counts ({ref_img.shape[1]}, {xam_img.shape[1]}) "
            f"do not match the scene ({n_lines})"
        )
    n_elem = scene.geometry.num_elements

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["line_index", "delay_rmse_s", "amp_rel_err",
                    "detections", "true_count", "peak_row_delta"])
        for i, line in enumerate(scene.lines):
            truths = sorted((2.0 * s.axial_time, s.reflectivity)
                            for s in line.scatterers)
            ests = estimates.get(i, [])
            if truths and ests:
                d_est = np.array([t for t, _ in ests])
                b_est = np.array([b for _, b in ests])
                sq = 0.0
                rel = 0.0
                for t_true, b_true in truths:
                    j = int(np.argmin(np.abs(d_est - t_true)))
                    sq += (d_est[j] - t_true) ** 2
                    rel += abs(b_est[j] / n_elem - b_true) / abs(b_true)
                rmse = float(np.sqrt(sq / len(truths)))
                amp_err = rel / len(truths)
            elif truths:
                rmse = float("inf")
                amp_err = float("inf")
            else:
                rmse = 0.0
                amp_err = 0.0
            r_col = ref_img[:, i]
            x_col = xam_img[:, i]
            if r_col.max() > 0 and x_col.max() > 0:
                peak_delta = abs(int(np.argmax(r_col)) - int(np.argmax(x_col)))
            else:
                peak_delta = 0
            w.writerow([i, _fmt(rmse), _fmt(amp_err), len(ests), len(truths),
                        peak_delta])
    print(f"wrote {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error[Usage]: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="xampus",
                description="Sub-Nyquist ultrasound image-line pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="scene JSON -> URF1 channel files")
    sim.add_argument("--scene", required=True)
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--oversample", type=int, default=16,
                     help="simulation grid factor over the 20 MHz rate")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the scene noise seed")
    sim.add_argument("--lines", type=int, default=None,
                     help="process only the first N lines")
    sim.set_defaults(fn=cmd_simulate)

    bf = sub.add_parser("beamform", help="reference delay-and-sum image")
    bf.add_argument("--channels", required=True, help="directory of URF1 files")
    bf.add_argument("--scene", required=True)
    bf.add_argument("--out", required=True, help="output directory")
    bf.add_argument("--focus", choices=["dynamic", "infinity"],
                    default="dynamic")
    bf.add_argument("--focal-zones", type=int, default=None,
                    help="staircase focus with this many zones")
    bf.add_argument("--dynamic-range-db", type=float,
                    default=DEFAULT_DYNAMIC_RANGE_DB)
    bf.add_argument("--lines", type=int, default=None,
                    help="process only the first N lines")
    bf.set_defaults(fn=cmd_beamform)

    xa = sub.add_parser("xample", help="low-rate acquisition and recovery")
    xa.add_argument("--channels", required=True)
    xa.add_argument("--scene", required=True)
    xa.add_argument("--out", required=True, help="output directory")
    xa.add_argument("--L", type=int, required=True,
                    help="upper bound on reflectors per line")
    xa.add_argument("--rho", type=float, default=2.0)
    xa.add_argument("--focus", choices=["dynamic", "infinity"],
                    default="dynamic")
    xa.add_argument("--method", choices=["pencil", "annihilating"],
                    default="pencil")
    xa.add_argument("--sv-threshold", type=float,
                    default=SV_THRESHOLD_DEFAULT)
    xa.add_argument("--dump-samples", action="store_true",
                    help="also write the branch sample CSVs")
    xa.add_argument("--dynamic-range-db", type=float,
                    default=DEFAULT_DYNAMIC_RANGE_DB)
    xa.add_argument("--lines", type=int, default=None,
                    help="process only the first N lines")
    xa.set_defaults(fn=cmd_xample)

    co = sub.add_parser("cost", help="sampling-rate and op-count table")
    co.add_argument("--L", type=int, default=30)
    co.add_argument("--rho", type=float, nargs="+", default=[1, 2, 3, 4])
    co.add_argument("--elements", type=int, default=16)
    co.add_argument("--depth-cm", type=float, default=7.88)
    co.add_argument("--out", required=True, help="output CSV path")
    co.set_defaults(fn=cmd_cost)

    cp = sub.add_parser("compare", help="metrics vs. scene ground truth")
    cp.add_argument("--reference", required=True, help="reference PGM")
    cp.add_argument("--xampled", required=True, help="low-rate PGM")
    cp.add_argument("--estimates", required=True, help="estimates CSV")
    cp.add_argument("--scene", required=True)
    cp.add_argument("--out", required=True, help="output CSV path")
    cp.set_defaults(fn=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (XampusError, OSError, ValueError) as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

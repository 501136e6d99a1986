"""Command-line front end.

Subcommands::

    simulate   scene JSON -> one URF1 channel file per image line
    beamform   channel files -> reference image (PGM) + peak CSV
    xample     channel files -> low-rate estimates CSV + image (PGM)
    cost       sampling-rate / op-count table (CSV)
    compare    estimates + images vs. scene ground truth (metrics CSV)

Every failure prints a single ``error[<Kind>]: message`` line on stderr and
exits nonzero; a failure on one line names that line's file first.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import costs, urf
from .beamform import DEFAULT_OUT_STEP as AXIAL_STEP
from .beamform import beamform_line, envelope_detect
from .errors import (InvariantViolation, ParseError, XampusError,
                     refuse_overflow)
from .imaging import assemble_image, read_pgm, render_line, write_pgm
from .outfile import open_new
from .recover import SV_THRESHOLD_DEFAULT, check_sv_threshold, recover_line
from .scenefile import load_scene
from .sim import add_interference, simulation_grid_step, synthesize_channels
from .xample import XampleConfig, build_S, xample_channels


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _write_csv(path, header, rows) -> None:
    with open_new(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


@contextmanager
def _naming(path: Path):
    """Prefix an error raised while working on one line with its file name."""
    try:
        yield
    except (XampusError, ValueError) as e:
        e.args = (f"{path.name}: {e}",)
        raise


def _line_files(directory, count: int) -> list[Path]:
    return [Path(directory) / f"line_{i:03d}.urf" for i in range(count)]


def _each_line(args, scene, work) -> list:
    """``work(channels, scene_line)`` on each scene line and its file
    ``line_{i:03d}.urf``, in line order.  A file must hold the scene's
    window; an error raised by ``work`` names the line's file."""
    n_files = len(list(Path(args.channels).glob("line_*.urf")))
    if not n_files:
        raise InvariantViolation(
            f"no line_*.urf files in {Path(args.channels)}")
    if n_files > len(scene.lines):
        raise InvariantViolation(
            f"{n_files} channel files for {len(scene.lines)} scene lines")
    results = []
    for path, line in zip(_line_files(args.channels, len(scene.lines)),
                          scene.lines):
        ch = urf.read_channels(path, scene.geometry)
        if ch.tau != scene.tau:
            raise InvariantViolation(f"{path}: window {ch.tau!r} s is not "
                                     f"the scene's tau_s {scene.tau!r} s")
        with _naming(path):
            results.append(work(ch, line))
    return results


def _axial_samples(tau: float) -> int:
    # image axial extent must not exceed the window
    return max(1, int(np.floor(tau / AXIAL_STEP + 1e-9)))


def cmd_simulate(args) -> int:
    scene = load_scene(args.scene)
    noise = scene.noise
    step = simulation_grid_step()
    out = Path(args.out)
    paths = _line_files(out, len(scene.lines))
    # a file left by an earlier, longer run would be imaged as a line
    for stale in set(out.glob("line_*.urf")) - set(paths):
        stale.unlink()
    made_out = not out.exists()
    try:
        for idx, (line, path) in enumerate(zip(scene.lines, paths)):
            with _naming(path):
                ch = synthesize_channels(line, scene.geometry, scene.pulse,
                                         step)
                ch = add_interference(ch, noise.snr_db, noise.speckle_count,
                                      noise.seed + idx, pulse=scene.pulse,
                                      beam_angle=line.beam_angle)
            urf.write_channels(path, ch)
    except BaseException:
        # a failed run leaves no line to be imaged, neither its own nor an
        # earlier run's under the names it took over
        for path in paths:
            path.unlink(missing_ok=True)
        if made_out and out.exists():
            out.rmdir()
        raise
    print(f"wrote {len(paths)} channel file(s) to {out}")
    return 0


def cmd_beamform(args) -> int:
    scene = load_scene(args.scene)
    n_axial = _axial_samples(scene.tau)

    def work(ch, scene_line):
        line = beamform_line(ch, alpha=scene_line.beam_angle,
                             focus_mode=args.focus, out_step=AXIAL_STEP)
        return envelope_detect(line)[:n_axial]

    traces = _each_line(args, scene, work)
    image = assemble_image(traces)
    out = Path(args.out)
    write_pgm(out / "reference.pgm", image)
    peaks = [int(np.argmax(tr)) for tr in traces]
    _write_csv(out / "reference_lines.csv",
               ["line_index", "peak_time_s", "peak_value"],
               ([i, _fmt(peak * AXIAL_STEP), _fmt(float(tr[peak]))]
                for i, (peak, tr) in enumerate(zip(peaks, traces))))
    print(f"wrote {out / 'reference.pgm'} and {out / 'reference_lines.csv'}")
    return 0


def cmd_xample(args) -> int:
    scene = load_scene(args.scene)
    # the configuration and options are checked before any channel file
    cfg = XampleConfig.create(args.L, args.rho, scene.tau, scene.pulse,
                              scene.geometry, focus_mode=args.focus)
    check_sv_threshold(args.sv_threshold)
    if any(line.beam_angle != 0.0 for line in scene.lines):
        raise InvariantViolation("low-rate acquisition is defined for linear "
                                 "scan only (alpha_rad must be 0)")
    S = build_S(cfg.p)

    def work(ch, _):
        out_samples = xample_channels(ch, cfg, S)
        return out_samples, recover_line(out_samples.c, cfg, scene.pulse,
                                         method=args.method,
                                         sv_threshold=args.sv_threshold, S=S)

    results = _each_line(args, scene, work)
    axial_grid = np.arange(_axial_samples(scene.tau)) * AXIAL_STEP
    traces = [render_line(est, scene.pulse, axial_grid)
              for _, est in results]
    image = assemble_image(traces)
    out = Path(args.out)
    _write_csv(out / "estimates.csv",
               ["line_index", "t_l_s", "b_l", "residual"],
               ([i, _fmt(t_l), _fmt(b_l), _fmt(est.residual)]
                for i, (_, est) in enumerate(results)
                for t_l, b_l in zip(est.delays, est.amplitudes)))
    write_pgm(out / "xampled.pgm", image)

    if args.dump_samples:
        _write_csv(out / "samples_c.csv", ["line_index", "q", "value"],
                   ([i, q, _fmt(v)] for i, (xo, _) in enumerate(results)
                    for q, v in enumerate(xo.c)))
        _write_csv(out / "samples_cqm.csv", ["line_index", "q", "m", "value"],
                   ([i, q, m, _fmt(v)] for i, (xo, _) in enumerate(results)
                    for (q, m), v in np.ndenumerate(xo.c_qm)))
    print(f"wrote {out / 'estimates.csv'} and {out / 'xampled.pgm'}")
    return 0


def cmd_cost(args) -> int:
    rows = costs.cost_table(args.L, args.rho, num_elements=args.elements)
    out = Path(args.out)
    _write_csv(out, ["L", "rho", "K", "samples_per_element_per_line",
                     "xampled_mops", "reduction_factor", "standard_samples",
                     "standard_mops"],
               ([r.L, f"{r.rho:g}", r.K, r.samples_per_element_per_line,
                 _fmt(r.xampled_mops), _fmt(r.reduction_factor),
                 r.standard_samples, _fmt(r.standard_mops)] for r in rows))
    print(f"wrote {out}")
    return 0


def _read_estimates(path) -> dict[int, list[tuple[float, float]]]:
    """(t_l, b_l) pairs by line index.  Text that is not UTF-8, a missing
    column, a line index that is not a non-negative integer or a delay or
    amplitude that is not finite raises ``ParseError`` naming the file, and
    the row where there is one (the header is row 1).
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            text = f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from e
    reader = csv.DictReader(io.StringIO(text, newline=""))
    missing = {"line_index", "t_l_s", "b_l"} - set(reader.fieldnames or ())
    if missing:
        raise ParseError(f"{path}: row 1: missing column(s) {sorted(missing)}")
    table: dict[int, list[tuple[float, float]]] = {}
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


def _match(truths, ests) -> dict[int, int]:
    """Estimate index by truth index, one to one: every (truth, estimate)
    pair in order of delay distance, ties by truth then estimate index, is
    taken when neither side is taken yet."""
    match = {}
    for _, i, j in sorted((abs(t_e - t), i, j)
                          for i, (t, _) in enumerate(truths)
                          for j, (t_e, _) in enumerate(ests)):
        if i not in match and j not in match.values():
            match[i] = j
    return match


def cmd_compare(args) -> int:
    scene = load_scene(args.scene)
    ref_img = read_pgm(args.reference)
    xam_img = read_pgm(args.xampled)
    estimates = _read_estimates(args.estimates)
    n_lines = len(scene.lines)
    last = max(estimates, default=-1)
    if last >= n_lines:
        raise InvariantViolation(f"{args.estimates}: line_index {last} is "
                                 f"not a line of the scene ({n_lines} lines)")
    size = (_axial_samples(scene.tau), n_lines)
    if ref_img.shape != size or xam_img.shape != size:
        raise InvariantViolation(
            f"image sizes {ref_img.shape} and {xam_img.shape} (rows, lines) "
            f"do not match the scene's {size}")
    n_elem = scene.geometry.num_elements

    out = Path(args.out)
    rows = []
    for i, line in enumerate(scene.lines):
        truths = sorted((2.0 * s.axial_time, s.reflectivity)
                        for s in line.scatterers)
        ests = estimates.get(i, [])
        match = _match(truths, ests)
        if len(match) < len(truths):  # an echo no estimate is left for
            rmse = amp_err = float("inf")
        elif truths:
            t_true, b_true = np.array(truths).T
            t_est, b_est = np.array([ests[match[k]]
                                     for k in range(len(truths))]).T
            with np.errstate(over="ignore", invalid="ignore"):
                rmse = float(np.sqrt(np.mean((t_est - t_true) ** 2)))
                amp_err = float(np.mean(np.abs(b_est / n_elem - b_true)
                                        / np.abs(b_true)))
            refuse_overflow([rmse, amp_err],
                            f"line {i}: its delay or amplitude error")
        else:
            rmse = amp_err = 0.0
        r_col = ref_img[:, i]
        x_col = xam_img[:, i]
        if r_col.max() > 0 and x_col.max() > 0:
            peak_delta = abs(int(np.argmax(r_col)) - int(np.argmax(x_col)))
        else:
            peak_delta = 0
        rows.append([i, _fmt(rmse), _fmt(amp_err), len(ests), len(truths),
                     peak_delta])
    _write_csv(out, ["line_index", "delay_rmse_s", "amp_rel_err",
                     "detections", "true_count", "peak_row_delta"], rows)
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

    # flags shared by the subcommands that go through scene lines
    lines = argparse.ArgumentParser(add_help=False)
    lines.add_argument("--scene", required=True)
    lines.add_argument("--out", required=True, help="output directory")
    image = argparse.ArgumentParser(add_help=False, parents=[lines])
    image.add_argument("--channels", required=True,
                       help="directory of URF1 files")
    image.add_argument("--focus", choices=["dynamic", "infinity"],
                       default="dynamic")

    sim = sub.add_parser("simulate", parents=[lines],
                         help="scene JSON -> URF1 channel files")
    sim.set_defaults(fn=cmd_simulate)

    bf = sub.add_parser("beamform", parents=[image],
                        help="reference delay-and-sum image")
    bf.set_defaults(fn=cmd_beamform)

    xa = sub.add_parser("xample", parents=[image],
                        help="low-rate acquisition and recovery")
    xa.add_argument("--L", type=int, required=True,
                    help="upper bound on reflectors per line")
    xa.add_argument("--rho", type=float, default=2.0)
    xa.add_argument("--method", choices=["pencil", "annihilating"],
                    default="pencil")
    xa.add_argument("--sv-threshold", type=float,
                    default=SV_THRESHOLD_DEFAULT)
    xa.add_argument("--dump-samples", action="store_true",
                    help="also write the branch sample CSVs")
    xa.set_defaults(fn=cmd_xample)

    co = sub.add_parser("cost", help="sampling-rate and op-count table")
    co.add_argument("--L", type=int, default=30)
    co.add_argument("--rho", type=float, nargs="+", default=[1, 2, 3, 4])
    co.add_argument("--elements", type=int, default=16)
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

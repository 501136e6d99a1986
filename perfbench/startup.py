"""Fresh-interpreter helpers, each run as its own process by the benchmark.

    python3 perfbench/startup.py probe SCENE.json [L RHO]
        Set up as a line-processing run does (import, scene parse and, when
        L and RHO are given, config plus S/H build), print one JSON line of
        stage times and exit.  The parent times spawn to that line.

    python3 perfbench/startup.py cli SPANS.json SUBCOMMAND [ARGS...]
        Run one ``xampus`` subcommand, writing its import and main times to
        SPANS.json; exits with the subcommand's code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    if not (SRC / "xampus" / "__init__.py").is_file():
        sys.exit(f"error: no xampus sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import xampus.cli
    return xampus.cli


def probe(scene_path: str, L: str | None = None, rho: str | None = None):
    t0 = time.perf_counter()
    _import_cli()
    from xampus import XampleConfig, build_H, build_S, load_scene
    t1 = time.perf_counter()
    scene = load_scene(scene_path)
    t2 = time.perf_counter()
    stages = {"cli.import": t1 - t0, "scenefile.load": t2 - t1}
    if L is not None:
        cfg = XampleConfig.create(int(L), float(rho), scene.tau, scene.pulse,
                                  scene.geometry)
        build_S(cfg.p)
        build_H(scene.pulse, cfg.kappa, cfg.tau)
        stages["xample.config"] = time.perf_counter() - t2
    print(json.dumps(stages), flush=True)


def cli(spans_path: str, *argv: str) -> int:
    t0 = time.perf_counter()
    module = _import_cli()
    t1 = time.perf_counter()
    code = module.main(list(argv))
    t2 = time.perf_counter()
    with open(spans_path, "w") as f:
        json.dump({"cli.import": t1 - t0, "cli.main": t2 - t1}, f)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "probe":
        probe(*rest)
    elif mode == "cli":
        sys.exit(cli(*rest))
    else:
        sys.exit(f"unknown mode {mode!r}")

"""Paired benchmark runs of a base commit against this working tree.

    python3 tools/pairs.py --base REV --pairs N --out BENCH_<n>.json

Run from anywhere inside the repository.  The base side is the committed
files of ``REV``, unpacked by ``git archive`` into a temporary directory;
the change side is this tree as it stands, uncommitted edits included.
Pair i (from 0) runs ``BENCHMARK.json``'s command with ``--workload W
--seed i+1 --seconds`` its ``run_seconds`` once on each side, for every
workload W of ``BENCHMARK.json``, the base first in even pairs and the
change first in odd ones.  Each round runs one pair of every workload, so
a workload's pairs spread over the whole run.

The change side is identified by ``HEAD``, by ``tree``, the git tree hash
of the files it ran (every file ``git add -A`` would take), and by
``entries``, the object hash of each top-level file and directory of that
tree.  A commit C holds the code that ran where ``git ls-tree C`` shows the
same hashes for ``src``, ``perfbench`` and ``pyproject.toml``.  The output
file is written after the hashes are taken, so its own entry never matches.

The output JSON holds both commits, the environment ``perfbench/run.py``
reports, every run's result JSON, and for each workload and end-to-end
metric of ``BENCHMARK.json`` each side's median and quartiles and the
change's wins out of the pairs (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """``metrics``: per metric of ``better`` (name -> "lower" or "higher"),
    each side's median and quartiles over the pairs where both sides report
    it, and the change's wins out of those pairs; ``lines``: each side's
    line counts.  A pair is ``{"base": run, "change": run}`` with
    ``run["result"]`` a result JSON or None."""
    metrics = {}
    for name, direction in better.items():
        values = {side: [] for side in SIDES}
        for pair in pairs:
            got = [(pair[side]["result"] or {}).get("metrics", {}).get(name)
                   for side in SIDES]
            if None not in got:
                for side, metric in zip(SIDES, got):
                    values[side].append(metric["value"])
        if not values["base"]:
            continue
        base, change = (np.array(values[side], dtype=float) for side in SIDES)
        wins = change < base if direction == "lower" else change > base
        metrics[name] = {
            "pairs": len(base),
            "change_wins": int(wins.sum()),
            "ties": int((change == base).sum()),
            **{side: dict(zip(("q1", "median", "q3"),
                              np.percentile(arr, [25, 50, 75]).tolist()))
               for side, arr in zip(SIDES, (base, change))},
        }
    lines = {}
    for side in SIDES:
        results = [pair[side]["result"] for pair in pairs
                   if pair[side]["result"] is not None]
        lines[side] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "gate_failed_runs": sum(not r["correct"] for r in results),
            "runs_without_result": len(pairs) - len(results),
        }
    return {"metrics": metrics, "lines": lines}


def _git(*args: str, env=None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True,
                          env=env).stdout.strip()


def _identity(tmp: Path) -> dict:
    """``HEAD``, the git tree hash of this working tree and the object
    hash of each of the tree's top-level entries."""
    env = {**os.environ, "GIT_INDEX_FILE": str(tmp / "index")}
    _git("read-tree", "HEAD", env=env)
    _git("add", "-A", env=env)
    tree = _git("write-tree", env=env)
    entries = {}
    for line in _git("ls-tree", tree).splitlines():
        meta, name = line.split("\t")
        entries[name] = meta.split()[2]
    return {"head": _git("rev-parse", "HEAD"), "tree": tree,
            "entries": entries}


def _unpack(rev: str, dest: Path) -> None:
    """The committed files of ``rev`` under a new directory ``dest``."""
    dest.mkdir()
    proc = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                            stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def run_once(tree: Path, command: list[str], timeout: float) -> dict:
    """One benchmark run in ``tree``: its exit code, the environment line
    and the result JSON of its last stdout line (None if there is none)."""
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.partition(": ")[2]) for line in lines
                if line.startswith("environment: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "environment": env, "result": result,
            "stderr_tail": proc.stderr[-2000:]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="base commit")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    args = p.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        record = {
            "base": {"rev": args.base,
                     "commit": _git("rev-parse", args.base)},
            "change": _identity(Path(tmp)),
            "command": spec["command"], "seconds": seconds,
            "pairs_per_workload": args.pairs,
            "workloads": {w: {"pairs": []} for w in workloads},
        }
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        _unpack(args.base, trees["base"])
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                command = [*spec["command"], "--workload", w, "--seed",
                           str(i + 1), "--seconds", str(seconds)]
                pair = {"seed": i + 1, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], command,
                                          timeout=4 * seconds + 300)
                record["workloads"][w]["pairs"].append(pair)
                print(f"pair {i} {w}: exits {pair['base']['exit']} (base), "
                      f"{pair['change']['exit']} (change)", file=sys.stderr)
    for entry in record["workloads"].values():
        entry["summary"] = summarize(entry["pairs"], better)
    first = record["workloads"][workloads[0]]["pairs"]
    record["environment"] = first[0]["change"]["environment"] if first else None
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

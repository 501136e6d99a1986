"""The README walkthrough's outputs stay what ``tests/golden/`` holds.

The walkthrough of ``test_readme.walkthrough`` runs once per focus mode,
with ``--focus`` added to ``beamform`` and ``xample``.  Each file under
``tests/golden/<focus>/`` is compared with the rerun's file at the same
path.  Two bounds allow for
a LAPACK other than the one the files were written with:

- CSV: the same rows and columns, text cells equal, and each number within
  1e-6 of the largest magnitude in its column (infinities equal);
- PGM: the same header, and each pixel within one grey level.

The URF1 channel files are not kept.  Regenerate
the files from the current code with ``python tests/test_golden.py``.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from test_readme import walkthrough
from xampus.cli import main
from xampus.imaging import read_pgm

GOLDEN = Path(__file__).resolve().parent / "golden"
FOCUS_MODES = ("dynamic", "infinity")
CSV_RTOL = 1e-6
PGM_GREY_LEVELS = 1


def run_walkthrough(focus: str) -> None:
    """Run the README walkthrough in the current directory."""
    scene, commands = walkthrough()
    Path("scene.json").write_text(scene)
    for argv in commands:
        if argv[0] in ("beamform", "xample"):
            argv += ["--focus", focus]
        assert main(argv) == 0, argv


def golden_files(focus: str) -> list[Path]:
    return sorted(p.relative_to(GOLDEN / focus)
                  for p in (GOLDEN / focus).rglob("*") if p.is_file())


def _cells(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def assert_csv_close(got: Path, want: Path) -> None:
    rows, ref = _cells(got), _cells(want)
    assert [len(r) for r in rows] == [len(r) for r in ref], got.name
    assert rows[:1] == ref[:1], got.name
    for j in range(len(ref[0])):
        column, expected = ([r[j] for r in table[1:]] for table in (rows, ref))
        try:
            a = np.array(column, dtype=float)
            b = np.array(expected, dtype=float)
        except ValueError:
            assert column == expected, (got.name, ref[0][j])
            continue
        finite = np.isfinite(b)
        assert np.array_equal(a[~finite], b[~finite]), (got.name, ref[0][j])
        scale = np.max(np.abs(b[finite]), initial=0.0)
        err = np.abs(a[finite] - b[finite])
        assert np.all(err <= CSV_RTOL * scale), (got.name, ref[0][j],
                                                 err.max() / scale)


def assert_pgm_close(got: Path, want: Path) -> None:
    a, b = read_pgm(got), read_pgm(want)
    assert a.shape == b.shape, got.name
    diff = np.abs(a.astype(int) - b.astype(int))
    assert diff.max(initial=0) <= PGM_GREY_LEVELS, (got.name, diff.max())


@pytest.mark.parametrize("focus", FOCUS_MODES)
def test_walkthrough_outputs_match_golden(tmp_path, monkeypatch, focus):
    files = golden_files(focus)
    assert len(files) == 7, files
    monkeypatch.chdir(tmp_path)
    run_walkthrough(focus)
    for rel in files:
        check = assert_pgm_close if rel.suffix == ".pgm" else assert_csv_close
        check(tmp_path / rel, GOLDEN / focus / rel)


if __name__ == "__main__":
    import os
    import shutil
    import tempfile

    for focus in FOCUS_MODES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            run_walkthrough(focus)
            shutil.rmtree(GOLDEN / focus, ignore_errors=True)
            for path in Path(tmp).rglob("*"):
                if path.suffix in (".csv", ".pgm"):
                    dest = GOLDEN / focus / path.relative_to(tmp)
                    dest.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(path, dest)
            os.chdir(GOLDEN)

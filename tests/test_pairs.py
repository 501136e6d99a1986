"""The pairs runner's summary, on canned benchmark results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def _run(wall_s, lines_per_s, failed=0, correct=True):
    return {"exit": 0 if correct else 1, "result": {
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                    "lines_per_s": {"value": lines_per_s, "unit": "1/s"}}}}


def test_summary_of_canned_pairs():
    canned = [
        {"base": _run(2.0, 10.0), "change": _run(1.0, 10.0)},
        {"base": _run(3.0, 20.0), "change": _run(3.0, 30.0)},
        {"base": _run(4.0, 30.0), "change": _run(5.0, 40.0, failed=2)},
        {"base": _run(5.0, 40.0, correct=False), "change": _run(2.0, 50.0)},
        # a run that printed no result is left out of every metric
        {"base": _run(1.0, 1.0), "change": {"exit": 2, "result": None}},
    ]
    summary = pairs.summarize(canned, {"wall_s": "lower",
                                       "lines_per_s": "higher",
                                       "peak_rss_mb": "lower"})
    metrics = summary["metrics"]
    wall = metrics["wall_s"]
    assert (wall["pairs"], wall["change_wins"], wall["ties"]) == (4, 2, 1)
    assert wall["base"] == pytest.approx({"q1": 2.75, "median": 3.5,
                                          "q3": 4.25})
    assert wall["change"] == pytest.approx({"q1": 1.75, "median": 2.5,
                                            "q3": 3.5})
    rate = metrics["lines_per_s"]
    assert (rate["pairs"], rate["change_wins"], rate["ties"]) == (4, 3, 1)
    assert rate["change"]["median"] == pytest.approx(35.0)
    # no run reports it, so it has no entry
    assert "peak_rss_mb" not in metrics
    assert summary["lines"]["base"] == {"attempted": 500, "failed": 0,
                                     "gate_failed_runs": 1,
                                     "runs_without_result": 0}
    assert summary["lines"]["change"] == {"attempted": 400, "failed": 2,
                                       "gate_failed_runs": 0,
                                       "runs_without_result": 1}

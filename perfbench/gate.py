"""Correctness gate: estimates against the scene's ground truth.

The gate is untimed.  Its bounds are fixed here from the pulse and the
acceptance suite, never fitted to a run.  They catch a broken path (lost,
mirrored or shifted echoes, a lost scale), not a small loss of accuracy;
the per-layer accuracy metrics show that.

* Every true echo of a line with the true echo count has an estimate within
  one pulse support (6 sigma = 600 ns of the benchmark's pulse): an
  estimate farther from it overlaps it nowhere.  Noise alone can move an
  estimate by about half a carrier period (~100 ns) and flip its sign, so
  a single amplitude is not bounded.
* Over the run, the median delay error is at most one envelope sigma
  (100 ns) and the median amplitude error, divided by the element count as
  ``xampus compare`` does, at most half the true reflectivity.
* At most a tenth of the lines may raise, and at least nine tenths must
  carry the true echo count.
* Direct per-element sampling and sampling the materialized beamformed line
  agree to 1e-3 relative l2 at 16x oversampling (acceptance criterion 1).

The annihilating filter is the one exception to the per-echo bounds: plain
Prony estimation is not noise-robust at L = 30 (its delays land microseconds
off at 40 dB), so only its model order is gated and its delay error is
reported as a metric.  Lines that raise are counted, never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DELAY_BOUND_S = 600e-9
MEDIAN_DELAY_BOUND_S = 100e-9
MEDIAN_AMP_REL_BOUND = 0.5
MAX_FAILED_RATIO = 0.1
MIN_ORDER_OK_RATIO = 0.9
IDENTITY_BOUND = 1e-3


@dataclass
class Outcome:
    """One estimate of one line, matched against the truth."""

    method: str
    order_ok: bool
    delay_err: np.ndarray  # seconds, one per true echo
    amp_err: np.ndarray    # relative, one per true echo


@dataclass
class LineResult:
    seconds: float
    outcomes: list[Outcome] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # exception kinds raised

    @property
    def failed(self) -> bool:
        return bool(self.errors)

    @property
    def order_ok(self) -> bool:
        return (not self.errors and bool(self.outcomes)
                and all(o.order_ok for o in self.outcomes))


def score(method, trips, refl, delays, amps, num_elements) -> Outcome:
    """Match each true echo to the nearest estimate, as ``compare`` does."""
    trips = np.asarray(trips, dtype=float)
    refl = np.asarray(refl, dtype=float)
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0:
        inf = np.full(trips.size, np.inf)
        return Outcome(method, trips.size == 0, inf, inf)
    j = np.argmin(np.abs(delays[None, :] - trips[:, None]), axis=1)
    amps = np.asarray(amps, dtype=float)[j] / num_elements
    return Outcome(method, delays.size == trips.size,
                   np.abs(delays[j] - trips), np.abs(amps - refl) / refl)


def check(lines: list[LineResult], identity: float | None = None) -> list[str]:
    """Every bound the run's lines break, as readable problems."""
    problems = []
    n = len(lines)
    failed = sum(line.failed for line in lines)
    if n == 0:
        return ["no line was attempted"]
    if failed > MAX_FAILED_RATIO * n:
        problems.append(f"{failed}/{n} lines raised")
    order_ok = sum(line.order_ok for line in lines)
    if order_ok < MIN_ORDER_OK_RATIO * n:
        problems.append(f"only {order_ok}/{n} lines have the true echo count")
    delay_err, amp_err = [], []
    for i, line in enumerate(lines):
        for o in line.outcomes:
            if not o.order_ok or o.method == "annihilating":
                continue
            delay_err += list(o.delay_err)
            amp_err += list(o.amp_err)
            if not np.max(o.delay_err, initial=0.0) <= DELAY_BOUND_S:
                problems.append(
                    f"line {i} ({o.method}): an echo is "
                    f"{np.max(o.delay_err) * 1e9:.0f} ns from every estimate")
    if delay_err and not np.median(delay_err) <= MEDIAN_DELAY_BOUND_S:
        problems.append(f"median delay error {np.median(delay_err) * 1e9:.1f}"
                        f" ns > {MEDIAN_DELAY_BOUND_S * 1e9:.0f} ns")
    if amp_err and not np.median(amp_err) <= MEDIAN_AMP_REL_BOUND:
        problems.append(f"median amplitude error {np.median(amp_err):.2f} > "
                        f"{MEDIAN_AMP_REL_BOUND}")
    if identity is not None and not identity <= IDENTITY_BOUND:
        problems.append(f"kernel identity {identity:.2e} > {IDENTITY_BOUND:g}")
    return problems

"""In-memory spans around the benchmark's calls into xampus.

A span is ``(name, start, end, parent, line)``: ``parent`` is the index of
the enclosing span (or -1) and ``line`` the id of the image line, image pass
or start-up probe the work belongs to.  Spans stay in a list until the run
ends; ``dump`` writes them out.  With tracing off the benchmark calls the
library functions directly, so the untraced run carries no wrapper at all.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

# Sub-stages of recover_line, wrapped where recover_line looks them up: the
# ``xampus.recover`` module namespace.  Span names are the layer names.
RECOVER_STAGES = {
    "recover_fourier": "recover.fourier",
    "matrix_pencil": "recover.pencil",
    "annihilating_filter": "recover.annihilating",
    "least_squares_amplitudes": "recover.amplitudes",
    "build_H": "pulse.build_H",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.line = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.line))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name, start, _, parent, line = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter(), parent, line)

    def add(self, name: str, duration: float, line: str) -> None:
        """Record a span measured elsewhere (e.g. in a child process)."""
        now = time.perf_counter()
        self.spans.append((name, now - duration, now, -1, line))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def per_line(self, name: str) -> float:
        """Median over lines of the time the layer spent on each line."""
        totals: dict[str, float] = {}
        for n, start, end, _, line in self.spans:
            if n == name:
                totals[line] = totals.get(line, 0.0) + (end - start)
        return statistics.median(totals.values()) if totals else 0.0

    def count_total(self, name: str) -> tuple[int, float]:
        """Number of spans of a layer and their summed duration."""
        durations = [e - s for n, s, e, _, _ in self.spans if n == name]
        return len(durations), sum(durations)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump([{"name": n, "start": s, "end": e, "parent": p,
                        "line": ln} for n, s, e, p, ln in self.spans], f)


@contextmanager
def traced_recover(tracer: Tracer | None):
    """Wrap recover_line's sub-stages in ``xampus.recover`` for the block."""
    if tracer is None:
        yield
        return
    import xampus.recover as recover
    saved = {attr: getattr(recover, attr) for attr in RECOVER_STAGES}
    for attr, name in RECOVER_STAGES.items():
        setattr(recover, attr, tracer.wrap(name, saved[attr]))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(recover, attr, fn)

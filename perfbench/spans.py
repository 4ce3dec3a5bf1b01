"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code, around its calls into
the program's public functions; nothing inside the program is touched.
They stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager


class Tracer:
    """Records (name, start, end, parent) spans on one monotonic clock.

    A disabled tracer still times the block (callers read the span's
    duration in both modes) but keeps nothing, so untraced runs pay one
    ``perf_counter`` pair per call and hold no span list.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter() - self._t0,
               "end": None, "dur": 0.0,
               "parent": self._stack[-1] if self._stack else None}
        if self.enabled:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
            self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            rec["dur"] = rec["end"] - rec["start"]
            if self.enabled:
                self._stack.pop()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump({"clock": "perf_counter seconds since run start",
                       "spans": self.spans}, f)
        os.replace(path + ".tmp", path)

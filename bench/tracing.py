"""In-memory spans and counters for the benchmark's traced passes.

Spans nest as pass -> setup | unit -> layer call.  A layer call is a
span opened by ``Tracer.call`` around one call into ``ordsem``; it is
always a leaf, because the benchmark records spans only at its own call
sites.  Counters hold work figures read from return values.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

# Spans that belong to the benchmark itself rather than to a layer.
FRAME_SPANS = ("pass", "setup", "unit")


class NullTracer:
    """Tracing off: layer calls go straight through, nothing is kept."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return nullcontext()

    def count(self, name, amount=1):
        pass


class Tracer:
    """Tracing on: every span is kept as (id, parent, name, start, end)."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self._stack: list[int | None] = [None]

    def call(self, name, fn, *args):
        sid = len(self.spans)
        self.spans.append(None)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[sid] = (sid, self._stack[-1], name, start, perf_counter())

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, perf_counter())

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def layer_seconds(self) -> dict[str, float]:
        """Total seconds per layer-call name."""
        out: dict[str, float] = {}
        for _, _, name, start, end in self.spans:
            if name not in FRAME_SPANS:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its children cover.

        Children of one span run one after another on one thread, so the
        time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[sid] for sid, _, _, start, end in self.spans]

    def unattributed_seconds(self) -> float:
        """Time inside the pass that no layer call covers."""
        own = self.self_seconds()
        return sum(own[span[0]] for span in self.spans if span[2] in FRAME_SPANS)

    def write_ndjson(self, path) -> None:
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                        }
                    )
                    + "\n"
                )

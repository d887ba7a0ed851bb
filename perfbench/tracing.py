"""In-memory spans recorded by the benchmark around calls into the program.

A span is ``(id, name, start, end, parent, run_id, thread)``.  Spans are
kept in a list while the run goes and written as JSON lines once it
ends, so recording costs one ``perf_counter`` pair and an append.  A
disabled tracer hands back the wrapped callables unchanged, so the
untraced runs execute exactly the calls a user would make.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict):
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[span_id] = {
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "run_id": self.run_id,
                "thread": threading.current_thread().name, **attrs,
            }

    def span(self, name: str, **attrs):
        """Context manager timing one layer call (no-op when disabled)."""
        if not self.enabled:
            return contextlib.nullcontext(attrs)
        return self._span(name, attrs)

    def wrap(self, name: str, fn):
        """``fn`` run inside a ``name`` span; ``fn`` itself when disabled."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self._span(name, {}):
                return fn(*args, **kwargs)

        return traced

    def finished(self) -> list:
        return [span for span in self.spans if span is not None]

    def self_times(self, root_names=None) -> dict:
        """Layer name -> summed self time (duration minus child spans).

        With ``root_names`` given, only spans under a root of one of
        those names count.
        """
        spans = self.finished()
        by_id = {span["id"]: span for span in spans}
        child_time = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals = defaultdict(float)
        for span in spans:
            if root_names is not None:
                root = span
                while root["parent"] is not None:
                    root = by_id[root["parent"]]
                if root["name"] not in root_names:
                    continue
            own = span["end"] - span["start"] - child_time[span["id"]]
            totals[span["name"]] += own
        return dict(totals)

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.finished() if s["name"] == name)


def write_spans(spans, path: str) -> None:
    """Write finished spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as sink:
        for span in spans:
            sink.write(json.dumps(span, sort_keys=True) + "\n")

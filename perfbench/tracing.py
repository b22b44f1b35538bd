"""In-memory spans around calls into the program's layers.

A span is ``(name, start, end, parent)``; spans nest on one stack, so a
span's *self time* is its duration minus the durations of its direct
children.  Calls made hundreds of thousands of times per run (one radio
slot each) are *folded*: they count calls and total time under their
name and charge that time to the enclosing span, instead of keeping one
record per call.

Spans are written out as JSON lines when the traced run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Span recorder plus the attribute wrappers that feed it."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, time covered by children]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.folded_calls: dict[str, int] = defaultdict(int)
        self.folded_s: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, _clock(), 0.0, parent, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = _clock()
            if parent >= 0:
                self.spans[parent][4] += record[2] - record[1]

    def wrap(self, owner: object, attr: str, name: str, fold: bool = False) -> None:
        """Replace ``owner.attr`` with a spanning wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        tracer = self
        if fold:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                started = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = _clock() - started
                    tracer.folded_calls[name] += 1
                    tracer.folded_s[name] += elapsed
                    if tracer._stack:
                        tracer.spans[tracer._stack[-1]][4] += elapsed

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _parent, children in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        for name, calls in self.folded_calls.items():
            out[name] = {
                "calls": calls,
                "total_s": self.folded_s[name],
                "self_s": self.folded_s[name],
            }
        return out

    def write(self, path: str) -> None:
        """Write every span, then every folded aggregate, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, _children) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent if parent >= 0 else None,
                }
                fh.write(json.dumps(record) + "\n")
            for name, calls in sorted(self.folded_calls.items()):
                record = {"name": name, "folded_calls": calls, "total_s": self.folded_s[name]}
                fh.write(json.dumps(record) + "\n")

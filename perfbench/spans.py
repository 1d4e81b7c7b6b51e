"""Spans and counters recorded by wrapping public functions at their module attributes.

The wrappers are installed only for the traced pass and removed afterwards;
no source file of the package is touched. A span's self time is its duration
minus the durations of the wrapped spans it called directly.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Per-name span totals (calls, seconds, self seconds) plus free counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)
        self._child_time = []  # one accumulator per open span
        self._patches = []

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += dt
                self.calls[name] += 1
                self.seconds[name] += dt
                self.self_seconds[name] += dt - children
            if count is not None:
                count(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span named ``name`` until :meth:`restore`."""
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, self._wrap(name, original, count))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                # the attribute came from the class; drop the instance override
                delattr(owner, attr)

    @contextmanager
    def installed(self, plan):
        """Install every ``(owner, attr, name, count)`` of ``plan`` for the block."""
        try:
            for owner, attr, name, count in plan:
                self.patch(owner, attr, name, count)
            yield self
        finally:
            self.restore()

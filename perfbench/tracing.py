"""Spans around the calls between helssvr's modules, recorded from outside.

A :class:`Tracer` rebinds a name in the module that calls it (for example
``helssvr.model.train_adam``, the trainer as ``fit`` sees it) to a wrapper
that records one span per call: name, start, end and the span that was open
when the call began.  The source of the library is never edited; restoring
the tracer puts every original function back.

Spans stay in memory while the workload runs.  :meth:`Tracer.layer_metrics`
derives per-name call counts, inclusive seconds and self seconds (a span's
duration minus the time its child spans cover), and :meth:`Tracer.write`
saves the spans as CSV when the run ends.

A wrapped name that the library no longer defines is recorded as absent; its
metrics are left out of the report instead of failing the run.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict

# Probes run after a call has returned (they inspect its arguments and
# result).  Their time is recorded as a span of this name under the same
# parent, so it counts as the parent's child time, not its self time.
PROBE = "trace.probe"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []  # wrapped names the library lacks
        self._keys: dict[str, set] = {}  # span -> metric keys it yields
        self._found: set[str] = set()
        self._broken: set[str] = set()
        self._stack = [-1]
        self._restore: list = []

    def wrap(self, namespace, attr: str, span: str, probe=None, probe_keys=()) -> None:
        """Rebind ``namespace.attr`` to a wrapper that records ``span``.

        ``probe(counters, args, kwargs, result)`` runs after each call and
        updates the counters named in ``probe_keys``.
        """
        self._keys.setdefault(span, {f"{span}.calls", f"{span}.s", f"{span}.self_s"}).update(probe_keys)
        for key in probe_keys:
            self.counters.setdefault(key, 0)
        fn = getattr(namespace, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(namespace, '__name__', 'api')}.{attr}")
            return
        self._found.add(span)
        broken = self._broken
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (span, t0, t1, parent)
            if probe is not None:
                try:
                    probe(counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the call's arguments or result changed shape
                    broken.update(probe_keys)
                spans.append((PROBE, t1, clock(), parent))
            return result

        setattr(namespace, attr, traced)
        self._restore.append((namespace, attr, fn))

    def restore(self) -> None:
        while self._restore:
            namespace, attr, fn = self._restore.pop()
            setattr(namespace, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    @property
    def absent_keys(self) -> set[str]:
        """Metric keys of spans whose every wrapped name is missing, and of broken probes."""
        out = set(self._broken)
        for span, keys in self._keys.items():
            if span not in self._found:
                out |= keys
        return out

    def layer_metrics(self, span_names) -> dict[str, float]:
        """``<name>.calls``, ``<name>.s`` and ``<name>.self_s`` per span name."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, t0, t1, parent in self.spans:
            d = t1 - t0
            total[name] += d
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += d
        out = {}
        for name in span_names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = total[name] - child[name]
        return out

    def write(self, path) -> None:
        """Save every span as CSV: index, name, start, end, parent index."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "start_s", "end_s", "parent"])
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                w.writerow([i, name, repr(t0), repr(t1), parent])

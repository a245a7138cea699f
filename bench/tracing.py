"""In-memory spans around calls into hoptree's modules.

Spans are recorded from the benchmark's own files; no hoptree source is
touched.  Calls the benchmark makes itself go through `Tracer.call`.  Calls
one hoptree module makes into another are reached by rebinding the name in
the importing module (`from x import f` copies `f` into the importer), and
`restore` puts every original binding back.

Two kinds of span:
  * coarse spans (one per call to run_grid, run, optimum, ...) are kept as
    records (name, id, parent id, start, end) and written out at the end;
  * hot leaf calls (flip_mask, dominates, ...), which run once per
    evaluation, are aggregated per name (calls, time) and charged to the
    enclosing span, so memory stays flat.

A span's self time is its duration minus the time its direct children
cover.  With one process and one thread the spans nest, so the self times
of all spans under a root add up to the root's duration exactly.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Span:
    __slots__ = ("name", "id", "parent", "start", "end", "child_ns")

    def __init__(self, name: str, id_: int, parent: int | None):
        self.name = name
        self.id = id_
        self.parent = parent
        self.start = 0
        self.end = 0
        self.child_ns = 0

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # name -> [calls, total ns, zero results]
        self.leaves: dict[str, list[int]] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(name, len(self.spans), parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_ns += span.end - span.start

    @contextmanager
    def root(self, name: str):
        """Top-level span; its self time is the untimed remainder."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def call(self, name: str, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _coarse(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _leaf(self, name: str, fn):
        agg = self.leaves.setdefault(name, [0, 0, 0])
        stack = self._stack

        def traced(*args, **kwargs):
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            dt = perf_counter_ns() - t0
            agg[0] += 1
            agg[1] += dt
            if not result:
                agg[2] += 1
            stack[-1].child_ns += dt
            return result

        return traced

    # --- rebinding ---------------------------------------------------------

    def patch(self, module, attr: str, name: str, leaf: bool = False) -> None:
        """Rebind `module.attr` to a traced wrapper recorded as `name`."""
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        wrap = self._leaf if leaf else self._coarse
        setattr(module, attr, wrap(name, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms, self ms and zero results."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            t = out.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "zero": 0})
            t["calls"] += 1
            t["ms"] += (span.end - span.start) / 1e6
            t["self_ms"] += span.self_ns / 1e6
        for name, (calls, ns, zero) in self.leaves.items():
            out[name] = {"calls": calls, "ms": ns / 1e6, "self_ms": ns / 1e6, "zero": zero}
        return out

    def dump(self, path) -> None:
        """Write coarse spans, then leaf aggregates, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"name": s.name, "id": s.id, "parent": s.parent, "start_ns": s.start, "end_ns": s.end}
                fh.write(json.dumps(rec) + "\n")
            for name, (calls, ns, zero) in self.leaves.items():
                fh.write(json.dumps({"name": name, "calls": calls, "ns": ns, "zero": zero}) + "\n")

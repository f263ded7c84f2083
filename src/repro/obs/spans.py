"""Wall-time spans: where a run's time went, layer by layer.

Every :class:`repro.obs.Telemetry` owns one :class:`SpanRecorder`.
Spans nest by call, and the recorder aggregates them per path (the
enclosing open spans' names, then the span's own) into seconds and
calls, so its size depends on the number of distinct paths, not on how
many queries ran.  Span names follow the simulator's layers
(``docs/observability.md`` lists them).

A snapshot is a JSON-able tree, ``{name: {"seconds", "calls",
"children"}}``, in first-call order; snapshots merge path by path, which
is how worker chunks fold into one tree.  ``calls`` count work (a span
around a chunk of queries counts one call per query) and are
deterministic; ``seconds`` are wall-clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

__all__ = ["SpanRecorder"]


class _Node:
    __slots__ = ("children", "seconds", "calls")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.seconds = 0.0
        self.calls = 0

    def child(self, name: str) -> "_Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node()
        return node


def _tree(node: _Node) -> dict[str, Any]:
    return {
        name: {
            "seconds": child.seconds,
            "calls": child.calls,
            "children": _tree(child),
        }
        for name, child in node.children.items()
    }


def _merge(node: _Node, tree: Mapping[str, Any]) -> None:
    for name, entry in tree.items():
        child = node.child(name)
        child.seconds += float(entry["seconds"])
        child.calls += int(entry["calls"])
        _merge(child, entry.get("children", {}))


class SpanRecorder:
    """Seconds and calls per span path, for one process.

    Hook sites reach the recorder only behind their ``telemetry is not
    None`` guard, so a simulator without telemetry runs no timer at all.
    """

    def __init__(self) -> None:
        self._root = _Node()
        self._current = self._root

    @contextmanager
    def span(self, name: str, calls: int = 1) -> Iterator[None]:
        """Time the enclosed block as ``name`` under the open span.

        ``calls`` is how many calls the block stands for: a span around
        a chunk of ``n`` queries passes ``n``.
        """
        parent = self._current
        self._current = parent.child(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._current = parent
            self.add(name, time.perf_counter() - start, calls)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record a caller-timed call of ``name`` under the open span."""
        node = self._current.child(name)
        node.seconds += seconds
        node.calls += calls

    @contextmanager
    def capture(self, name: str) -> Iterator["SpanRecorder"]:
        """Open span ``name`` in a tree of its own, then fold it in here.

        Yields a recorder that, once the block ends, holds this one call
        of ``name`` and the spans nested in it; the call also merges
        here at the open position, as if opened with :meth:`span`.
        """
        outer = self._current
        call = SpanRecorder()
        self._current = call._root
        try:
            with self.span(name):
                yield call
        finally:
            self._current = outer
            _merge(outer, call.snapshot())

    def merge(self, tree: Mapping[str, Any]) -> None:
        """Add a snapshot's seconds and calls, path by path, at the root."""
        _merge(self._root, tree)

    def snapshot(self) -> dict[str, Any]:
        """The recorded tree, ``{name: {"seconds", "calls", "children"}}``."""
        return _tree(self._root)

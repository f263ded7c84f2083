"""Timeline exports: Chrome ``trace_event`` JSON and flamegraphs.

Converts the JSONL trace records written by
:class:`repro.obs.trace.TraceWriter` (query records, session records
with their span trees, engine retry events) into two standard offline
formats:

* :func:`chrome_trace` — the Chrome tracing / Perfetto ``trace_event``
  JSON object format (load via ``chrome://tracing`` or
  https://ui.perfetto.dev).  Query cycles become complete (``"X"``)
  events laid end-to-end on simulated time; the sessions' span tree
  becomes nested complete events on a track of its own; retry records
  become instant (``"i"``) events.
* :func:`flamegraph_lines` — Brendan Gregg's collapsed-stack text
  (``core.session;phy.error_model;csi <microseconds>`` per line),
  ready for ``flamegraph.pl`` or speedscope.  Each line carries its
  span path's self time, so the lines sum to the tree's root total.

Both are pure functions of the record stream, so ``repro trace
export`` output is as deterministic as the trace itself.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from .spans import SpanRecorder

__all__ = [
    "chrome_trace",
    "flamegraph_lines",
    "trace_spans",
]

_US = 1e6  # trace_event timestamps are microseconds


def trace_spans(records: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """The span trees of a trace's ``session`` records, merged.

    Each session record carries the spans of its own run only, so the
    merge covers every recorded run once.
    """
    spans = SpanRecorder()
    for record in records:
        if record.get("kind") == "session":
            spans.merge(record.get("spans", {}))
    return spans.snapshot()


def flamegraph_lines(spans: Mapping[str, Any]) -> list[str]:
    """Collapsed-stack flamegraph lines from a span tree.

    One line per span path (``a;b;c``), weighted by its self time —
    its seconds less its children's — in integer microseconds
    (collapsed-stack counts must be integers).  The weights sum to the
    roots' total seconds to within half a microsecond per line.
    """
    lines: list[str] = []

    def visit(tree: Mapping[str, Any], prefix: str) -> None:
        for name, entry in tree.items():
            path = f"{prefix}{name}"
            children = entry.get("children", {})
            self_s = float(entry["seconds"]) - sum(
                float(child["seconds"]) for child in children.values()
            )
            lines.append(f"{path} {int(round(max(self_s, 0.0) * _US))}")
            visit(children, f"{path};")

    visit(spans, "")
    return lines


def _metadata(kind: str, tid: int, name: str) -> dict[str, Any]:
    """A ``process_name`` / ``thread_name`` metadata event."""
    return {
        "name": kind,
        "ph": "M",
        "pid": 1,
        "tid": tid,
        "ts": 0,
        "args": {"name": name},
    }


def _span_events(
    tree: Mapping[str, Any], ts: float
) -> Iterator[dict[str, Any]]:
    """Nested complete events for a span tree, starting at ``ts``.

    Siblings lie end to end; children start where their parent does,
    and since they ran inside it they end before it does.
    """
    for name, entry in tree.items():
        dur_us = float(entry["seconds"]) * _US
        yield {
            "name": name,
            "cat": "span",
            "ph": "X",
            "ts": ts,
            "dur": dur_us,
            "pid": 1,
            "tid": 4,
            "args": {"calls": int(entry["calls"])},
        }
        yield from _span_events(entry.get("children", {}), ts)
        ts += dur_us


def chrome_trace(
    records: Iterable[Mapping[str, Any]],
) -> dict[str, Any]:
    """Convert trace records into a ``trace_event`` JSON object.

    Layout:

    * ``tid 1`` (*queries*) — one complete event per ``query`` record,
      laid end-to-end on the simulated clock (each spans its
      ``cycle_s``); detection, bit and subframe outcomes ride in
      ``args``.
    * ``tid 2`` (*sessions*) — one instant event per ``session``
      record at the simulated time it closed.
    * ``tid 3`` (*engine*) — instant events for ``retry`` records.
    * ``tid 4`` (*spans*) — the sessions' merged span tree
      (:func:`trace_spans`) in wall-clock microseconds: one complete
      event per span path, nested inside its parent's event, so the
      track reads like an icicle graph.

    Returns the standard ``{"traceEvents": [...], "displayTimeUnit":
    "ms"}`` object; ``json.dump`` it to produce a file Chrome tracing
    and Perfetto load directly.
    """
    events: list[dict[str, Any]] = [
        _metadata("process_name", 0, "repro"),
        _metadata("thread_name", 1, "queries"),
    ]
    records = list(records)
    now_us = 0.0
    for record in records:
        kind = record.get("kind")
        if kind == "query":
            dur_us = float(record["cycle_s"]) * _US
            events.append(
                {
                    "name": f"query {record['index']}",
                    "cat": "query",
                    "ph": "X",
                    "ts": now_us,
                    "dur": dur_us,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        key: record[key]
                        for key in (
                            "ssn",
                            "detected",
                            "bits_sent",
                            "bit_errors",
                            "subframes",
                            "subframes_failed",
                            "bitmap",
                        )
                        if key in record
                    },
                }
            )
            now_us += dur_us
        elif kind == "session":
            events.append(
                {
                    "name": "session",
                    "cat": "session",
                    "ph": "i",
                    "s": "t",
                    "ts": now_us,
                    "pid": 1,
                    "tid": 2,
                    "args": {
                        key: record[key]
                        for key in (
                            "queries",
                            "bits_sent",
                            "bit_errors",
                            "elapsed_s",
                            "ber",
                        )
                        if key in record
                    },
                }
            )
        elif kind == "retry":
            events.append(
                {
                    "name": f"retry chunk {record['chunk']}",
                    "cat": "engine",
                    "ph": "i",
                    "s": "t",
                    "ts": now_us,
                    "pid": 1,
                    "tid": 3,
                    "args": {
                        key: record[key]
                        for key in ("attempt", "reason", "action")
                        if key in record
                    },
                }
            )
    events.extend(_span_events(trace_spans(records), 0.0))
    for tid, name in ((2, "sessions"), (3, "engine"), (4, "spans")):
        if any(e["tid"] == tid for e in events):
            events.append(_metadata("thread_name", tid, name))
    return {"traceEvents": events, "displayTimeUnit": "ms"}

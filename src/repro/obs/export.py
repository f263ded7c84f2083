"""Timeline exports: Chrome ``trace_event`` JSON and flamegraphs.

Converts the JSONL trace records written by
:class:`repro.obs.trace.TraceWriter` (query spans, session stage
timings, engine retry events) into two standard offline
formats:

* :func:`chrome_trace` — the Chrome tracing / Perfetto ``trace_event``
  JSON object format (load via ``chrome://tracing`` or
  https://ui.perfetto.dev).  Query cycles become complete (``"X"``)
  events laid end-to-end on simulated time; per-group stage timings
  become complete events on their own tracks; retry records become
  instant (``"i"``) events.
* :func:`flamegraph_lines` — Brendan Gregg's collapsed-stack text
  (``group;stage <microseconds>`` per line), ready for
  ``flamegraph.pl`` or speedscope.  Lines sum to the total stage time
  recorded in the trace (to rounding, one microsecond per stage).

Both are pure functions of the record stream, so ``repro trace
export`` output is as deterministic as the trace itself.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

__all__ = [
    "chrome_trace",
    "flamegraph_lines",
    "merge_stage_timings",
]

_US = 1e6  # trace_event timestamps are microseconds


def merge_stage_timings(
    records: Iterable[Mapping[str, Any]],
) -> dict[str, dict[str, dict[str, float]]]:
    """Sum ``session`` records' stage timings across a trace.

    Returns the merged ``{group: {stage: {"seconds", "calls"}}}``
    mapping (the :meth:`repro.perf.StageCounters.as_dict` shape).
    """
    merged: dict[str, dict[str, dict[str, float]]] = {}
    for record in records:
        if record.get("kind") != "session":
            continue
        for group, stages in record.get("stage_timings", {}).items():
            group_out = merged.setdefault(group, {})
            for stage, values in stages.items():
                slot = group_out.setdefault(
                    stage, {"seconds": 0.0, "calls": 0}
                )
                slot["seconds"] += float(values.get("seconds", 0.0))
                slot["calls"] += int(values.get("calls", 0))
    return merged


def flamegraph_lines(
    stage_timings: Mapping[str, Mapping[str, Mapping[str, Any]]],
) -> list[str]:
    """Collapsed-stack flamegraph lines from merged stage timings.

    One line per ``group;stage`` frame, weighted by its recorded
    seconds in integer microseconds (collapsed-stack counts must be
    integers).  The line weights sum to the total stage time to within
    half a microsecond per stage.
    """
    lines: list[str] = []
    for group in sorted(stage_timings):
        for stage in sorted(stage_timings[group]):
            seconds = float(stage_timings[group][stage]["seconds"])
            lines.append(f"{group};{stage} {int(round(seconds * _US))}")
    return lines


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
      ``transport`` records, which older versions wrote, are skipped.
    * one stage track per stage-timing group (``tid >= 4``) — each
      stage a complete event, stages laid end-to-end per group, so
      relative widths read like a flamegraph row.

    Returns the standard ``{"traceEvents": [...], "displayTimeUnit":
    "ms"}`` object; ``json.dump`` it to produce a file Chrome tracing
    and Perfetto load directly.
    """
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "ts": 0,
            "args": {"name": "repro"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "ts": 0,
            "args": {"name": "queries"},
        },
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
    if any(e["tid"] == 2 for e in events):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": 2,
                "ts": 0,
                "args": {"name": "sessions"},
            }
        )
    if any(e["tid"] == 3 for e in events):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": 3,
                "ts": 0,
                "args": {"name": "engine"},
            }
        )
    timings = merge_stage_timings(records)
    for offset, group in enumerate(sorted(timings)):
        tid = 4 + offset
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "ts": 0,
                "args": {"name": f"stages:{group}"},
            }
        )
        cursor = 0.0
        for stage in sorted(timings[group]):
            values = timings[group][stage]
            dur_us = float(values["seconds"]) * _US
            events.append(
                {
                    "name": stage,
                    "cat": "stage",
                    "ph": "X",
                    "ts": cursor,
                    "dur": dur_us,
                    "pid": 1,
                    "tid": tid,
                    "args": {"calls": int(values["calls"])},
                }
            )
            cursor += dur_us
    return {"traceEvents": events, "displayTimeUnit": "ms"}

"""``repro top``: a terminal status view of the sweep service.

The text sibling of the ``/dash`` HTML page: one snapshot of the
service (health census, jobs, metrics registry) rendered as plain
text, either once (``--once``) or refreshed in place on an interval.

Split so every piece is testable without a network:

* :func:`fetch_status` — pull ``/healthz`` + ``/metrics?format=json``
  + ``/jobs`` from a running server (stdlib ``urllib`` only);
* :func:`load_status` — build the same status dict from a metrics
  JSON file (either a bare registry snapshot or the aggregated
  payload ``repro sweep --metrics-out`` writes);
* :func:`render_status` — pure snapshot -> text;
* :func:`run_top` — the loop the CLI drives.

Refreshing uses ANSI clear-screen rather than curses: same visual
result, no terminal-capability dance, and the output stays capturable
by tests and ``| head``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Mapping, TextIO
from urllib.request import urlopen

__all__ = ["fetch_status", "load_status", "render_status", "run_top"]

#: Width of the largest histogram-bucket bar, in characters.
_BAR_WIDTH = 30


def _get_json(url: str, timeout: float) -> Any:
    with urlopen(url, timeout=timeout) as response:  # noqa: S310 - http status URL from the operator
        return json.loads(response.read().decode("utf-8"))


def fetch_status(
    base_url: str, *, timeout: float = 5.0
) -> dict[str, Any]:
    """One status snapshot from a running ``repro serve`` instance."""
    base = base_url.rstrip("/")
    return {
        "source": base,
        "health": _get_json(f"{base}/healthz", timeout),
        "metrics": _get_json(f"{base}/metrics?format=json", timeout),
        "jobs": _get_json(f"{base}/jobs", timeout),
    }


def load_status(path: str) -> dict[str, Any]:
    """The same status dict from a metrics JSON file (no server).

    Accepts either a bare registry snapshot (``{"schema": 1,
    "metrics": {...}}``, what ``/metrics?format=json`` serves) or the
    aggregated telemetry payload ``--metrics-out`` writes (snapshot
    nested under its ``"metrics"`` key; any other key, such as the
    ``"transport"`` section older versions wrote, is ignored).
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, Mapping):
        raise ValueError(f"{path}: not a JSON object")
    nested = payload.get("metrics")
    if isinstance(nested, Mapping) and "schema" in nested:
        # Aggregated telemetry payload: the registry snapshot nests
        # under "metrics".
        snapshot: Any = nested
    elif "schema" in payload:
        snapshot = payload
    else:
        raise ValueError(
            f"{path}: holds no metrics snapshot (collected with "
            "metrics disabled?)"
        )
    return {
        "source": path,
        "health": None,
        "metrics": snapshot,
        "jobs": None,
    }


def _format_value(value: Any) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    if isinstance(value, float):
        return str(int(value))
    return str(value)


def _label_text(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f"{key}={labels[key]}" for key in sorted(labels)
    )
    return "{" + inner + "}"


def _edge_text(edge: float) -> str:
    return f"{edge:.3g}"


def render_status(status: Mapping[str, Any]) -> str:
    """Render one status snapshot as plain text."""
    lines: list[str] = []
    health = status.get("health")
    if health is not None:
        census = health.get("jobs", {})
        census_text = " ".join(
            f"{state}={census[state]}" for state in sorted(census)
        )
        lines.append(
            f"repro serve v{health.get('version', '?')} @ "
            f"{status.get('source', '?')} -- "
            f"slots {health.get('slots', '?')}, "
            f"queue depth {health.get('queue_depth', '?')}"
        )
        lines.append(f"jobs: {census_text or '(none)'}")
    else:
        lines.append(f"metrics snapshot: {status.get('source', '?')}")
    jobs = status.get("jobs")
    if jobs:
        lines.append("")
        lines.append(
            f"{'ID':<14} {'KIND':<14} {'STATE':<10} "
            f"{'CHUNKS':>8} {'ERROR'}"
        )
        for job in jobs:
            done = job.get("chunks_done", 0)
            total = job.get("n_chunks")
            chunks = f"{done}/{total}" if total else str(done)
            lines.append(
                f"{str(job.get('id', '?')):<14} "
                f"{str(job.get('kind', '?')):<14} "
                f"{str(job.get('state', '?')):<10} "
                f"{chunks:>8} {job.get('error') or ''}".rstrip()
            )
    metrics = status.get("metrics") or {}
    families = metrics.get("metrics", {})
    scalars: list[tuple[str, Any]] = []
    histograms: list[tuple[str, Mapping[str, Any]]] = []
    for name in sorted(families):
        family = families[name]
        for entry in family.get("series", []):
            series_name = name + _label_text(entry.get("labels", {}))
            if family.get("type") == "histogram":
                histograms.append((series_name, entry))
            else:
                scalars.append((series_name, entry.get("value")))
    if scalars:
        lines.append("")
        width = max(len(name) for name, _ in scalars)
        for name, value in scalars:
            lines.append(f"{name:<{width}}  {_format_value(value)}")
    for series_name, entry in histograms:
        counts = entry.get("counts", [])
        edges = entry.get("edges", [])
        lines.append("")
        lines.append(
            f"{series_name}: count {_format_value(entry.get('count', 0))}"
            f", sum {_format_value(entry.get('sum', 0.0))}"
        )
        peak = max(counts, default=0)
        for i, count in enumerate(counts):
            if not count:
                continue
            lo = "-inf" if i == 0 else _edge_text(edges[i - 1])
            hi = (
                _edge_text(edges[i]) if i < len(edges) else "+inf"
            )
            bar = "#" * max(
                1, round(_BAR_WIDTH * count / peak) if peak else 0
            )
            lines.append(
                f"  {lo:>10} .. {hi:<10} {count:>10}  {bar}"
            )
    return "\n".join(lines) + "\n"


def run_top(
    *,
    url: str | None = None,
    input_path: str | None = None,
    once: bool = False,
    interval_s: float = 2.0,
    stream: TextIO | None = None,
    clock: Callable[[], None] | None = None,
) -> int:
    """Drive the top loop; returns the CLI exit code.

    Exactly one of ``url`` / ``input_path`` must be given.  A file
    source implies ``--once`` (its contents cannot change usefully
    between refreshes of the same read).  ``clock`` replaces the
    inter-refresh sleep in tests.
    """
    if (url is None) == (input_path is None):
        raise ValueError("exactly one of url/input_path is required")
    out = stream if stream is not None else sys.stdout
    sleep = clock if clock is not None else (
        lambda: time.sleep(interval_s)
    )
    if interval_s <= 0:
        raise ValueError("interval_s must be > 0")
    while True:
        status = (
            load_status(input_path)
            if input_path is not None
            else fetch_status(url)  # type: ignore[arg-type]
        )
        text = render_status(status)
        if not once and input_path is None:
            out.write("\x1b[2J\x1b[H")
        out.write(text)
        out.flush()
        if once or input_path is not None:
            return 0
        sleep()

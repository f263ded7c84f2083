"""Per-layer span tracer that wraps the program's entry points from outside.

The program is not edited: :meth:`Tracer.install` replaces each target
callable with a wrapper that records a span (lane, target, start, end)
and a few counts.  A module-level function is replaced in every loaded
module that holds it by name (``repro.phy.kernels`` imports
``coded_bit_error_rate_batch`` from ``repro.phy.coding``, so patching
only the defining module would miss the caller); a method is replaced
on its class.  A target path that no longer exists is listed in
:attr:`Tracer.missing` and the run goes on.

Spans cross the fork: pool workers inherit the wrappers, start with an
empty buffer (``os.register_at_fork``), and append their spans to a
per-pid spool file each time their outermost span closes.
:meth:`Tracer.report` merges the spool files into the owner's spans.

Wall time is attributed, instant by instant, to the innermost open
span of each active lane (a lane is one thread of one process).  When
worker processes have open spans, the instant is split evenly among
them and the coordinator, which is only waiting, gets none; otherwise
it is split among the coordinator's open lanes; with no open span it
is ``unattributed``.  The per-layer ``self_s`` figures and
``unattributed_s`` therefore sum to the traced wall time exactly.  With
one active lane this is the usual self time: span duration minus the
child spans of the same process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = (
    "serve",
    "runner",
    "core.session",
    "core.system",
    "core.query",
    "mac.security",
    "mac.csma",
    "tag.state_machine",
    "phy.error_model",
    "phy.coding",
    "core.fleet",
    "sim.network",
)


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    Attributes:
        layer: the layer its time is attributed to.
        path: ``"module:Qualname"`` of the callable.
        pre: optional ``(tracer, args) -> state`` run before the call.
        post: optional ``(tracer, args, result, state, start, end)`` run
            after a call that returned; updates :attr:`Tracer.counts`.
        units: the first argument is a work function, wrapped so that
            each unit it runs, in any process, is a :data:`UNIT` span.
    """

    layer: str
    path: str
    pre: Callable | None = None
    post: Callable | None = None
    units: bool = False


def _count(name: str, amount: Callable = lambda args, result: 1):
    def post(tracer, args, result, state, start, end):
        tracer.counts[name] += amount(args, result)

    return post


def _size(result: Any) -> int:
    size = getattr(result, "size", None)
    return int(size) if size is not None else len(result)


def _on_submit(tracer, args, result, state, start, end):
    tracer.submitted[id(args[1])] = end


def _on_execute(tracer, args, result, state, start, end):
    submitted = tracer.submitted.pop(id(args[0]), None)
    if submitted is not None:
        tracer.counts["serve.queue_wait_s"] += start - submitted


def _on_run_units(tracer, args, result, state, start, end):
    tracer.counts["runner.retries"] += len(getattr(result, "retries", ()))


def _fleet_rows(tracer, args):
    return args[0].invalidated_rows


def _on_update_positions(tracer, args, result, state, start, end):
    tracer.counts["core.fleet.rows_invalidated"] += (
        args[0].invalidated_rows - state
    )


def _network_state(tracer, args):
    return args[0].handoffs, args[0].mobility_ticks


def _on_run_rounds(tracer, args, result, state, start, end):
    network = args[0]
    tracer.counts["sim.network.rounds"] += len(result)
    tracer.counts["sim.network.handoffs"] += network.handoffs - state[0]
    tracer.counts["sim.network.mobility_ticks"] += (
        network.mobility_ticks - state[1]
    )


def _on_encrypt(tracer, args, result, state, start, end):
    tracer.counts["mac.security.mpdus"] += 1
    tracer.counts["mac.security.bytes"] += len(args[1])


_decode = _count("phy.error_model.subframes", lambda a, r: _size(r))

#: The calls wrapped, and nothing deeper.
TARGETS = (
    Target("serve", "repro.serve.jobs:JobStore.submit", post=_on_submit),
    Target("serve", "repro.serve.jobs:execute_request", post=_on_execute),
    Target("serve", "repro.serve.jobs:JobStore.complete"),
    Target(
        "runner",
        "repro.runner.engine:run_units",
        post=_on_run_units,
        units=True,
    ),
    Target("core.session", "repro.core.session:MeasurementSession.run_for"),
    Target(
        "core.session", "repro.core.session:MeasurementSession.run_queries"
    ),
    Target(
        "core.system",
        "repro.core.system:WiTagSystem.run_query",
        post=_count("core.system.scalar_queries"),
    ),
    Target(
        "core.system",
        "repro.core.system:WiTagSystem.run_queries_batch",
        post=_count("core.system.batch_queries", lambda a, r: len(r)),
    ),
    Target("core.query", "repro.core.query:QueryBuilder.build"),
    Target("core.query", "repro.core.query:QueryBuilder.build_fast"),
    Target(
        "mac.security",
        "repro.mac.security.ccmp:CcmpContext.encrypt",
        post=_on_encrypt,
    ),
    Target(
        "mac.security",
        "repro.mac.security.wep:WepContext.encrypt",
        post=_on_encrypt,
    ),
    Target(
        "mac.csma", "repro.mac.csma:ContentionModel.sample_access_delay_s"
    ),
    Target(
        "tag.state_machine",
        "repro.tag.state_machine:TagStateMachine.process_query",
    ),
    Target(
        "tag.state_machine",
        "repro.tag.state_machine:TagStateMachine.process_query_fast",
    ),
    Target(
        "phy.error_model",
        "repro.phy.error_model:LinkErrorModel.subframe_outcomes",
        post=_decode,
    ),
    Target(
        "phy.error_model",
        "repro.phy.error_model:LinkErrorModel.subframe_outcomes_batch2d",
        post=_decode,
    ),
    Target(
        "phy.error_model", "repro.phy.error_model:LinkErrorModel.sample_fading"
    ),
    Target(
        "phy.error_model",
        "repro.phy.error_model:LinkErrorModel.sample_fading_batch",
    ),
    Target("phy.coding", "repro.phy.coding:coded_bit_error_rate_batch"),
    Target("core.fleet", "repro.core.fleet:TagFleet.build"),
    Target(
        "core.fleet",
        "repro.core.fleet:TagFleet.poll_tags",
        post=_count("core.fleet.tags_polled", lambda a, r: len(a[1])),
    ),
    Target(
        "core.fleet",
        "repro.core.fleet:TagFleet.update_positions",
        pre=_fleet_rows,
        post=_on_update_positions,
    ),
    Target(
        "sim.network",
        "repro.sim.network:FleetNetwork.run_rounds",
        pre=_network_state,
        post=_on_run_rounds,
    ),
)

#: Pseudo-target for one work unit inside a runner worker (see
#: :class:`TracedUnit`); it is recorded, never patched.
UNIT = Target("runner", "runner.unit")

#: The tracer of this process, reached by :class:`TracedUnit` after the
#: unit has been pickled into a worker.
_active: "Tracer | None" = None


class TracedUnit:
    """A picklable work-function wrapper that records a unit span.

    ``run_units`` is traced by handing the engine this wrapper instead
    of the caller's work function, so the time a worker spends on a
    unit outside the wrapped layers (scenario build, result packing) is
    runner time, not dispatch time.
    """

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, ctx: Any) -> Any:
        tracer = _active
        if tracer is None or not tracer.enabled:
            return self.fn(ctx)
        return tracer.call(len(tracer.targets), self.fn, (ctx,), {})


class Tracer:
    """Wraps :data:`TARGETS`; records spans while :attr:`enabled`."""

    def __init__(self, spool_dir: str, targets=TARGETS) -> None:
        self.spool_dir = spool_dir
        self.targets = tuple(targets)
        self.all_targets = self.targets + (UNIT,)
        self.enabled = False
        self.owner = os.getpid()
        self.pid = self.owner
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.submitted: dict[int, float] = {}
        self._local = threading.local()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Patch every target that exists; list the others as missing."""
        global _active
        _active = self
        os.register_at_fork(
            before=self._before_fork, after_in_child=self._after_fork
        )
        for index, target in enumerate(self.targets):
            try:
                self._patch(index, target)
            except (ImportError, AttributeError, ValueError):
                self.missing.append(target.path)

    def _patch(self, index: int, target: Target) -> None:
        module_name, qualname = target.path.split(":")
        module = importlib.import_module(module_name)
        *owners, name = qualname.split(".")
        owner: Any = module
        for part in owners:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = inspect.getattr_static(owner, name)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(index, raw.__func__))
            else:
                wrapped = self._wrap(index, raw)
            setattr(owner, name, wrapped)
            return
        original = getattr(owner, name)
        wrapped = self._wrap(index, original)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped

    def _wrap(self, index: int, fn: Callable) -> Callable:
        tracer = self
        adapt = self.targets[index].units
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                return await tracer.acall(index, fn, args, kwargs)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if adapt and args:
                args = (TracedUnit(args[0]),) + args[1:]
            return tracer.call(index, fn, args, kwargs)

        return wrapper

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, index: int, fn: Callable, args: tuple, kwargs: dict):
        target = self.all_targets[index]
        stack = self._stack()
        state = target.pre(self, args) if target.pre is not None else None
        stack.append(index)
        try:
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (self.pid, threading.get_ident(), index, start, end)
                )
            if target.post is not None:
                target.post(self, args, result, state, start, end)
            return result
        finally:
            # A worker's outermost span closing is the last point its
            # spans are sure to be reachable: workers may be killed
            # or exit without running finalizers.
            if not stack and self.pid != self.owner:
                self._flush()

    async def acall(self, index: int, fn: Callable, args: tuple, kwargs):
        target = self.all_targets[index]
        stack = self._stack()
        state = target.pre(self, args) if target.pre is not None else None
        stack.append(index)
        start = time.perf_counter()
        try:
            result = await fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (self.pid, threading.get_ident(), index, start, end)
            )
        if target.post is not None:
            target.post(self, args, result, state, start, end)
        return result

    def _before_fork(self) -> None:
        if self.enabled:
            self.counts["runner.processes_started"] += 1

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.counts = defaultdict(float)
        self.submitted = {}
        self._local = threading.local()

    def _flush(self) -> None:
        """Append this worker's spans and counts to its spool file."""
        record = {"spans": self.spans, "counts": dict(self.counts)}
        path = os.path.join(self.spool_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = defaultdict(float)

    # -- report -----------------------------------------------------------

    def collect(self) -> tuple[list[tuple], dict[str, float]]:
        """The owner's spans and counts merged with every spool file."""
        spans = list(self.spans)
        counts: defaultdict[str, float] = defaultdict(float, self.counts)
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.startswith("spans-"):
                continue
            with open(
                os.path.join(self.spool_dir, name), encoding="utf-8"
            ) as handle:
                for line in handle:
                    record = json.loads(line)
                    spans.extend(tuple(span) for span in record["spans"])
                    for key, value in record["counts"].items():
                        counts[key] += value
        return spans, counts

    def report(self, windows: list[tuple[float, float]]) -> dict[str, Any]:
        """Per-layer metrics over the traced op ``windows``.

        Returns ``{"metrics": {name: (value, unit)}, "missing": [...]}``.
        """
        spans, counts = self.collect()
        layer_of = [target.layer for target in self.all_targets]
        self_s, unattributed = attribute(spans, windows, self.owner, layer_of)
        traced_wall = sum(end - start for start, end in windows)

        calls: defaultdict[str, int] = defaultdict(int)
        busy: defaultdict[str, float] = defaultdict(float)
        for _, _, index, start, end in spans:
            path = self.all_targets[index].path
            calls[path] += 1
            busy[path] += end - start

        def total(*methods: str, of=busy) -> float:
            return sum(
                value
                for path, value in of.items()
                if path.rsplit(":", 1)[-1] in methods
            )

        execute_s = total("execute_request")
        batch = counts["core.system.batch_queries"]
        scalar = counts["core.system.scalar_queries"]
        metrics: dict[str, tuple[float, str]] = {
            "serve.jobs": (total("JobStore.complete", of=calls), "count"),
            "serve.queue_wait_s": (counts["serve.queue_wait_s"], "s"),
            "serve.execute_s": (execute_s, "s"),
            "serve.overhead_s": (
                traced_wall - execute_s if execute_s else 0.0, "s"
            ),
            "runner.calls": (total("run_units", of=calls), "count"),
            "runner.wall_s": (total("run_units"), "s"),
            "runner.worker_busy_s": (total("runner.unit"), "s"),
            "runner.dispatch_s": (self._dispatch_s(spans), "s"),
            "runner.processes_started": (
                counts["runner.processes_started"], "count"
            ),
            "runner.retries": (counts["runner.retries"], "count"),
            "core.system.batch_queries": (batch, "count"),
            "core.system.scalar_queries": (scalar, "count"),
            "core.system.fast_path_share": (
                batch / (batch + scalar) if batch + scalar else 0.0, "ratio"
            ),
            "core.query.builds": (
                total("QueryBuilder.build", "QueryBuilder.build_fast",
                      of=calls),
                "count",
            ),
            "core.query.build_s": (
                total("QueryBuilder.build", "QueryBuilder.build_fast"), "s"
            ),
            "mac.security.mpdus": (counts["mac.security.mpdus"], "count"),
            "mac.security.bytes": (counts["mac.security.bytes"], "bytes"),
            "mac.security.encrypt_s": (
                total("CcmpContext.encrypt", "WepContext.encrypt"), "s"
            ),
            "mac.csma.draws": (
                total("ContentionModel.sample_access_delay_s", of=calls),
                "count",
            ),
            "phy.error_model.decode_calls": (
                total(
                    "LinkErrorModel.subframe_outcomes",
                    "LinkErrorModel.subframe_outcomes_batch2d",
                    of=calls,
                ),
                "count",
            ),
            "phy.error_model.subframes": (
                counts["phy.error_model.subframes"], "count"
            ),
            "phy.error_model.decode_s": (
                total(
                    "LinkErrorModel.subframe_outcomes",
                    "LinkErrorModel.subframe_outcomes_batch2d",
                ),
                "s",
            ),
            "phy.error_model.fading_s": (
                total(
                    "LinkErrorModel.sample_fading",
                    "LinkErrorModel.sample_fading_batch",
                ),
                "s",
            ),
            "phy.coding.calls": (
                total("coded_bit_error_rate_batch", of=calls), "count"
            ),
            "core.fleet.build_s": (total("TagFleet.build"), "s"),
            "core.fleet.poll_s": (total("TagFleet.poll_tags"), "s"),
            "core.fleet.tags_polled": (
                counts["core.fleet.tags_polled"], "count"
            ),
            "core.fleet.rows_invalidated": (
                counts["core.fleet.rows_invalidated"], "count"
            ),
            "sim.network.rounds": (counts["sim.network.rounds"], "count"),
            "sim.network.handoffs": (counts["sim.network.handoffs"], "count"),
            "sim.network.mobility_ticks": (
                counts["sim.network.mobility_ticks"], "count"
            ),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        metrics["unattributed_s"] = (unattributed, "s")
        metrics["traced_wall_s"] = (traced_wall, "s")
        return {"metrics": metrics, "missing": list(self.missing)}

    def _dispatch_s(self, spans: list[tuple]) -> float:
        """``run_units`` time during which no work unit was running."""
        unit = len(self.targets)
        coordinators = {
            index for index, target in enumerate(self.targets)
            if target.units
        }
        units = sorted(
            (start, end) for _, _, index, start, end in spans
            if index == unit
        )
        dispatch = 0.0
        for _, _, index, start, end in spans:
            if index not in coordinators:
                continue
            covered = 0.0
            cursor = start
            for unit_start, unit_end in units:
                lo, hi = max(unit_start, cursor), min(unit_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            dispatch += (end - start) - covered
        return dispatch


def _innermost_segments(items: list[tuple[float, float, str]]):
    """Split one lane's nested spans into innermost-span segments."""
    items.sort(key=lambda span: (span[0], -span[1]))
    stack: list[tuple[float, str]] = []
    cursor = 0.0
    for start, end, layer in items:
        while stack and stack[-1][0] <= start:
            close, owner = stack.pop()
            yield cursor, close, owner
            cursor = close
        if stack:
            yield cursor, start, stack[-1][1]
        stack.append((end, layer))
        cursor = start
    while stack:
        close, owner = stack.pop()
        yield cursor, close, owner
        cursor = close


def attribute(
    spans: list[tuple],
    windows: list[tuple[float, float]],
    owner: int,
    layer_of: list[str],
) -> tuple[dict[str, float], float]:
    """Attribute the wall time inside ``windows`` to layers.

    Returns ``(self seconds per layer, unattributed seconds)``; see the
    module docstring for the rule.
    """
    lanes: defaultdict[tuple, list] = defaultdict(list)
    for pid, tid, index, start, end in spans:
        lanes[(pid, tid)].append((start, end, layer_of[index]))
    # Event kinds sort ends before starts at equal times, so a lane
    # handing over between adjacent segments stays consistent.
    events: list[tuple[float, int, Any, str]] = []
    for lane, items in lanes.items():
        for start, end, layer in _innermost_segments(items):
            if end > start:
                events.append((start, 1, lane, layer))
                events.append((end, 0, lane, layer))
    for start, end in windows:
        events.append((start, 2, None, ""))
        events.append((end, 3, None, ""))
    events.sort(key=lambda event: (event[0], event[1]))

    self_s: defaultdict[str, float] = defaultdict(float)
    unattributed = 0.0
    active: dict[tuple, str] = {}
    in_window = False
    previous = None
    for time_s, kind, lane, layer in events:
        if in_window and previous is not None and time_s > previous:
            span_s = time_s - previous
            workers = [
                name for key, name in active.items() if key[0] != owner
            ]
            sharing = workers or list(active.values())
            if sharing:
                for name in sharing:
                    self_s[name] += span_s / len(sharing)
            else:
                unattributed += span_s
        previous = time_s
        if kind == 0:
            active.pop(lane, None)
        elif kind == 1:
            active[lane] = layer
        elif kind == 2:
            in_window = True
        else:
            in_window = False
    return dict(self_s), unattributed

"""One workload process: set up, run ops in a closed loop, report.

Started by ``run.py``; not meant to be run by hand.  It speaks JSON
lines on its original standard output (the program's own prints are
sent to standard error) and, before it exits, closes everything it or
the program started: pools end with each op, the server and its event
loop in ``close()``, and multiprocessing's resource tracker last.

Modes: ``setup`` (report ready and exit: one set-up sample),
``measure`` (ops for ``--seconds`` of op time), ``trace`` (ops for
half of ``--seconds`` untraced, then the same ops traced) and
``record`` (one op per input of the seed's cycle, for ``pins.json``).

For a workload whose op times follow the speed of pure-Python code
(``scaled``), it also times a fixed loop of its own (the yardstick, see
:func:`yardstick_s`) right after set-up and before each op, so that
``run.py`` can scale times measured at different moments to one CPU
speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback


def digest(output) -> str:
    """Exact digest of an op's output (floats keep all their digits)."""
    blob = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


#: Times the yardstick loop runs per measurement; the median is kept.
YARDSTICK_REPEATS = 3


def _yardstick_loop() -> int:
    """Fixed pure-Python work that calls nothing of the program."""
    table = bytes((i * 167 + 13) & 0xFF for i in range(256))
    state = bytearray(range(16))
    acc = 0
    for i in range(1500):
        for j in range(16):
            state[j] = table[state[j] ^ (i & 0xFF)]
        acc = (acc * 31 + state[i & 15]) & 0xFFFFFFFF
    return acc


def yardstick_s() -> float:
    """Wall time of the yardstick loop here and now (median of repeats).

    On a shared VM a vCPU's speed for pure-Python code can drift by
    up to ~1.8x from one second or minute to the next, with no steal
    time visible to the guest; this loop slows with it.
    """
    times = []
    for _ in range(YARDSTICK_REPEATS):
        start = time.perf_counter()
        _yardstick_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stop_resource_tracker() -> None:
    """Close and reap multiprocessing's resource tracker, if running.

    The runner starts the tracker for shared-memory transport.  It
    outlives this process unless stopped here, and then lingers
    re-parented, first running and then as a zombie.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


class Runner:
    def __init__(self, workload, emit, tracer=None) -> None:
        self.workload = workload
        self.emit = emit
        self.tracer = tracer
        self.inputs_seen: set[int] = set()

    @contextlib.contextmanager
    def untraced(self):
        tracer = self.tracer
        was = tracer is not None and tracer.enabled
        if was:
            tracer.enabled = False
        try:
            yield
        finally:
            if was:
                tracer.enabled = True

    def restart(self) -> None:
        """Bring a stateful workload back to input 0 (untimed)."""
        with self.untraced():
            self.workload.rebuild()
            self.workload.warm_up()

    def run_pass(self, label: str, *, seconds=None, n_ops=None):
        """Closed loop of ops; returns the ``(start, end)`` of each."""
        workload = self.workload
        windows = []
        busy = 0.0
        index = 0
        while (busy < seconds) if n_ops is None else (index < n_ops):
            k = index % workload.cycle
            if k == 0 and index > 0 and workload.stateful:
                self.restart()
            record = {"event": "op", "pass": label, "index": index,
                      "input": k}
            if workload.scaled:
                record["yardstick_s"] = yardstick_s()
            end = None
            cpu_before = cpu_s()
            start = time.perf_counter()
            try:
                raw = workload.run(k)
                end = time.perf_counter()
                record["cpu_s"] = cpu_s() - cpu_before
                queries, output = workload.finish(k, raw)
                record["queries"] = queries
                record["digest"] = digest(output)
                record["error"] = workload.check(output)
            except Exception:  # noqa: BLE001 - an op failure is data
                if end is None:
                    end = time.perf_counter()
                record["error"] = traceback.format_exc(limit=4)
            record["wall_s"] = end - start
            self.emit(record)
            self.inputs_seen.add(k)
            windows.append((start, end))
            busy += end - start
            index += 1
            if record["error"] and workload.stateful:
                break
        return windows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "trace", "record"),
        required=True,
    )
    parser.add_argument("--spool", default=None)
    args = parser.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)

    def emit(record) -> None:
        proto.write(json.dumps(record) + "\n")

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    status = 0
    try:
        workload.setup()
        workload.warm_up()
        emit({"event": "ready"})
        if workload.scaled:
            emit({"event": "yardstick", "s": yardstick_s()})
        if args.mode != "setup":
            status = run_mode(args, workload, emit)
    except Exception:  # noqa: BLE001 - reported, then cleaned up
        emit({"event": "error", "message": traceback.format_exc(limit=6)})
        status = 1
    finally:
        workload.close()
        stop_resource_tracker()
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    emit({"event": "end", "rss_self_kb": own.ru_maxrss,
          "rss_children_kb": reaped.ru_maxrss})
    proto.close()
    return status


def run_mode(args, workload, emit) -> int:
    runner = Runner(workload, emit)
    if args.mode == "record":
        runner.run_pass("record", n_ops=workload.cycle)
        return 0
    if args.mode == "measure":
        runner.run_pass("measure", seconds=args.seconds)
    else:
        untraced = runner.run_pass("untraced", seconds=args.seconds / 2)
        from tracer import Tracer

        tracer = Tracer(args.spool)
        tracer.install()
        runner.tracer = tracer
        tracer.enabled = True
        if workload.stateful:
            workload.rebuild()
            with runner.untraced():
                workload.warm_up()
        traced = runner.run_pass("traced", n_ops=len(untraced))
        tracer.enabled = False
        report = tracer.report(traced)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report["metrics"].items()
        }
        metrics["trace_overhead"] = {
            "value": sum(e - s for s, e in traced)
            / sum(e - s for s, e in untraced),
            "unit": "ratio",
        }
        emit({"event": "trace", "metrics": metrics,
              "missing": report["missing"]})
    reference = getattr(workload, "reference", None)
    if reference is not None:
        for k in sorted(runner.inputs_seen):
            emit({"event": "reference", "input": k,
                  "digest": digest(reference(k))})
    return 0


if __name__ == "__main__":
    sys.exit(main())

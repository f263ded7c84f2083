r"""Run one canonical workload and print its metrics.

Usage, from the root of a checkout::

    python3 canonbench/run.py \
        --workload fig5-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``canonbench/README.md`` for the workloads, metrics and hazards.

The workload runs in a child process (``workload.py``).  This process
times its set-up, checks every op's output, enforces the op deadline,
and -- as a child subreaper -- kills and reaps whatever the run leaves
behind, counting any such process as a failure.  Shared-memory chunk
segments the run leaves are removed with the program's own
``repro.runner.transport`` helpers.

For a workload whose op times follow the speed of pure-Python code
(all but the warehouse), every time metric is scaled to one CPU speed:
the workload times a fixed loop of the benchmark's own (the yardstick)
after set-up and before each op, and each time is multiplied by
``NOMINAL_YARDSTICK_S / yardstick``.  The raw values are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKLOADS = (
    "fig5-sweep",
    "session-contended",
    "session-ccmp-contended",
    "warehouse-2000x4",
    "serve-job",
)
SETUP_DEADLINE_S = 120.0
#: Seconds an op may take before the run's process tree is killed.
OP_DEADLINE_S = 60.0
#: Fresh processes timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: The yardstick's time at the CPU speed every time metric is scaled to.
NOMINAL_YARDSTICK_S = 0.004

sys.path.insert(0, str(HERE))
import proctree  # noqa: E402
from workload import stop_resource_tracker  # noqa: E402


def live_segments() -> set[str]:
    """The runner's shared-memory chunk segments that exist now."""
    from repro.runner.transport import leaked_segments

    return set(leaked_segments())


def remove_segments(names) -> None:
    """Unlink chunk segments whose creators were killed mid-chunk.

    Attaching to a segment to unlink it registers it with this
    process's resource tracker, so the tracker that starts is stopped
    again (hazard 1).
    """
    from repro.runner.transport import cleanup_segment

    for name in names:
        cleanup_segment(name)
    stop_resource_tracker()


class Lines:
    """Line reader over a pipe with a per-line deadline."""

    def __init__(self, stream) -> None:
        self.fd = stream.fileno()
        self.buffer = b""
        self.eof = False

    def next(self, timeout_s: float) -> str | None:
        """The next line, ``None`` at end of stream; raises TimeoutError."""
        deadline = time.monotonic() + timeout_s
        while b"\n" not in self.buffer:
            if self.eof:
                return None
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError
            ready, _, _ = select.select([self.fd], [], [], remaining)
            if not ready:
                raise TimeoutError
            chunk = os.read(self.fd, 65536)
            if chunk:
                self.buffer += chunk
            else:
                self.eof = True
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line.decode("utf-8")


def run_child(args, mode: str, spool: str | None = None) -> dict:
    """Run ``workload.py`` in ``mode``; kill its tree past a deadline."""
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if spool is not None:
        command += ["--spool", spool]
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    child = {"setup_s": None, "events": [], "missed": False}
    segments_before = live_segments()
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    lines = Lines(proc.stdout)
    timeout_s = SETUP_DEADLINE_S
    try:
        while True:
            try:
                line = lines.next(timeout_s)
            except TimeoutError:
                child["missed"] = True
                proctree.kill_tree(proc.pid)
                break
            if line is None:
                break
            event = json.loads(line)
            if event["event"] == "ready":
                child["setup_s"] = time.perf_counter() - started
            child["events"].append(event)
            timeout_s = OP_DEADLINE_S
    except BaseException:
        proctree.kill_tree(proc.pid)
        raise
    finally:
        proc.stdout.close()
        proc.wait()
    child["returncode"] = proc.returncode
    # Anything still alive now outlived the workload process; a missed
    # deadline already killed the tree, so there it only needs reaping.
    orphans = proctree.reap_orphans()
    child["killed" if child["missed"] else "left_behind"] = orphans
    child.setdefault("left_behind", [])
    child["segments"] = sorted(live_segments() - segments_before)
    remove_segments(child["segments"])
    return child


def at_nominal(seconds: float, yardstick_s: float | None) -> float:
    """``seconds`` measured while the yardstick took ``yardstick_s``,
    scaled to the speed at which it takes ``NOMINAL_YARDSTICK_S``;
    unscaled for a workload that times no yardstick."""
    if yardstick_s is None:
        return seconds
    return seconds * NOMINAL_YARDSTICK_S / yardstick_s


def setup_sample(child: dict) -> tuple[float, float | None] | None:
    """A child's raw set-up time and the yardstick timed right after."""
    if child["setup_s"] is None:
        return None
    yardstick = next(
        (e["s"] for e in child["events"] if e["event"] == "yardstick"), None
    )
    return child["setup_s"], yardstick


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Below 21 samples no percentile above the median has ten samples
    beyond it, so the median is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"
    return statistics.median(ordered), (
        f"median of {n} samples: fewer than 21, so no higher percentile "
        "has ten samples beyond it"
    )


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def check_ops(
    events: list[dict], pinned: list[str] | None
) -> tuple[int, list]:
    """Failed-op count and messages, comparing every op's digest.

    ``pinned`` holds the seed's recorded digest per input, or ``None``
    for a seed outside ``pins.json``.
    """
    ops = [e for e in events if e["event"] == "op"]
    first: dict[int, str] = {}
    bad = [False] * len(ops)
    problems = []
    for i, op in enumerate(ops):
        k = op["input"]
        problem = op.get("error")
        if not problem:
            want = pinned[k] if pinned else first.get(k)
            if want is not None and op["digest"] != want:
                source = "pinned" if pinned else "first run of this input"
                problem = (
                    f"input {k}: output {op['digest']} != {source} {want}"
                )
            first.setdefault(k, op["digest"])
        if problem:
            bad[i] = True
            problems.append(f"op {op['pass']}#{op['index']}: {problem}")
    for event in events:
        if event["event"] != "reference":
            continue
        k = event["input"]
        if first.get(k) not in (None, event["digest"]):
            problems.append(
                f"input {k}: served {first[k]} != direct {event['digest']}"
            )
            for i, op in enumerate(ops):
                if op["input"] == k:
                    bad[i] = True
    return sum(bad), problems


def end_to_end(
    setup_samples: list[tuple[float, float | None]], child: dict
) -> dict:
    """The end-to-end metrics over the ops that completed.

    ``setup_samples`` holds each set-up's raw time and yardstick.  Times
    are scaled to nominal CPU speed by :func:`at_nominal`, each op's by
    the yardstick timed just before it (if the workload times one).  An
    op that raised has no query count; it is counted in ``ops_failed``
    by :func:`check_ops` and left out of the metrics.
    """
    ops = [
        e for e in child["events"]
        if e["event"] == "op" and "queries" in e
    ]
    end = next((e for e in child["events"] if e["event"] == "end"), None)
    latencies = [
        at_nominal(op["wall_s"], op.get("yardstick_s")) for op in ops
    ]
    wall = sum(latencies)
    raw_wall = sum(op["wall_s"] for op in ops)
    queries = sum(op["queries"] for op in ops)
    cpu = sum(at_nominal(op["cpu_s"], op.get("yardstick_s")) for op in ops)
    ops_note = f"{queries} queries in {wall:.3f} s of ops"
    if wall != raw_wall:
        ops_note += f" (raw {raw_wall:.3f} s, scaled by the yardstick)"
    tail_s, tail_note = tail(latencies) if latencies else (0.0, "no samples")
    rss_kb = end["rss_self_kb"] + end["rss_children_kb"] if end else 0
    setups = [at_nominal(s, y) for s, y in setup_samples]
    setup_note = f"median of {len(setups)} set-ups: " + ", ".join(
        f"{s:.3f}" for s in setups
    )
    if any(y is not None for _, y in setup_samples):
        setup_note += "; raw " + ", ".join(
            f"{s:.3f}" for s, _ in setup_samples
        )
    return {
        "setup_s": (statistics.median(setups), "s", setup_note),
        "queries_per_s": (queries / wall if wall else 0.0, "1/s", ops_note),
        "cpu_ms_per_query": (1e3 * cpu / queries if queries else 0.0, "ms",
                             "workload process plus reaped children"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB",
                        "workload process plus its largest child"),
        "job_latency_p50_s": (
            statistics.median(latencies) if latencies else 0.0, "s",
            f"median of {len(latencies)} samples"),
        "job_latency_tail_s": (tail_s, "s", tail_note),
    }


def record_pins(args) -> int:
    """Re-record one seed's pinned output digests into ``pins.json``."""
    child = run_child(args, "record")
    ops = [e for e in child["events"] if e["event"] == "op"]
    failed, problems = check_ops(child["events"], None)
    errors = [e for e in child["events"] if e["event"] == "error"]
    if (failed or errors or child["missed"] or child["left_behind"]
            or child["segments"]):
        print("\n".join(problems + [e["message"] for e in errors]),
              file=sys.stderr)
        return 1
    pins = load_pins()
    pins.setdefault(args.workload, {})[str(args.seed)] = [
        op["digest"] for op in sorted(ops, key=lambda op: op["input"])
    ]
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(ops)} inputs of {args.workload} seed {args.seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-pins", action="store_true",
        help="record this seed's output digests into pins.json",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"canonbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    proctree.become_subreaper()
    if args.record_pins:
        return record_pins(args)

    spool = None
    setup_samples: list[tuple[float, float | None]] = []
    failures = 0
    problems: list[str] = []
    if args.trace:
        spool = HERE / ".spool" / str(os.getpid())
        spool.mkdir(parents=True)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            probe = run_child(args, "setup")
            sample = setup_sample(probe)
            if sample is not None:
                setup_samples.append(sample)
            if probe["missed"] or probe["left_behind"] or probe["returncode"]:
                failures += 1
                problems.append(
                    f"set-up probe failed: exit {probe['returncode']}, "
                    f"deadline missed {probe['missed']}, "
                    f"left behind {probe['left_behind']}"
                )
    try:
        child = run_child(
            args, "trace" if args.trace else "measure",
            str(spool) if spool else None,
        )
    finally:
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)
    sample = setup_sample(child)
    if sample is not None:
        setup_samples.append(sample)

    pinned = load_pins().get(args.workload, {}).get(str(args.seed))
    failed_ops, op_problems = check_ops(child["events"], pinned)
    failures += failed_ops
    problems += op_problems
    attempted = sum(1 for e in child["events"] if e["event"] == "op")
    for event in child["events"]:
        if event["event"] == "error":
            failures += 1
            problems.append(event["message"])
    if child["missed"]:
        attempted += 1
        failures += 1
        problems.append(
            f"op missed its {OP_DEADLINE_S:g} s deadline; killed and "
            f"reaped {len(child['killed'])} process(es)"
        )
    elif child["returncode"]:
        failures += 1
        problems.append(f"workload process exited {child['returncode']}")
    for pid, state, cmd in child["left_behind"]:
        failures += 1
        problems.append(f"process left behind: {pid} [{state}] {cmd}")
    if not child["missed"]:
        for name in child["segments"]:
            failures += 1
            problems.append(f"shared-memory segment left behind: {name}")

    print(f"canonbench {args.workload} seed={args.seed} "
          f"(outputs {'pinned' if pinned else 'checked for repeatability'})"
          f" ops={attempted} ops_failed={failures}")
    for problem in problems:
        print(f"  FAILED: {problem}")

    metrics: dict[str, dict] = {}
    if args.trace:
        trace = next(
            (e for e in child["events"] if e["event"] == "trace"), None
        )
        if trace is not None:
            metrics = trace["metrics"]
            for path in trace["missing"]:
                print(f"  missing: {path} (not wrapped; its metrics read 0)")
        for name, metric in metrics.items():
            print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    elif setup_samples:
        for name, (value, unit, note) in end_to_end(
            setup_samples, child
        ).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:20s} {value:.6g} {unit}  ({note})")
    print(json.dumps({
        "correct": failures == 0,
        "attempted": max(attempted, 1),
        "failed": failures,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

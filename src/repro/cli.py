"""Command-line interface: run WiTAG experiments without writing code.

Usage::

    python -m repro sweep [--distances 1,2,...] [--workers 4] [--seed 0]
                          [--metrics-out M.json] [--trace-out T.jsonl]
                          [--retries 3] [--timeout 30] [--backoff 0.1]
                          [--checkpoint C.jsonl] [--resume]
    python -m repro metrics [--sessions 4] [--queries 50] [--workers 2]
                            [--format table|json|prometheus] [--out PATH]
                            [--input M1.json --input M2.json]
    python -m repro trace run OUT.jsonl [--queries 200] [--every-n 1]
    python -m repro trace summary TRACE.jsonl [--json]
    python -m repro trace tail TRACE.jsonl [--records 10] [--kind query]
    python -m repro trace export TRACE.jsonl [--format chrome|flamegraph]
                                             [--output OUT]
    python -m repro top [--url http://127.0.0.1:8750 | --input M.json]
                        [--once] [--interval 2.0]
    python -m repro fig5 [--seconds 1.0] [--seed 0]
    python -m repro fig6 [--runs 8] [--seconds 0.5]
    python -m repro quickstart [--distance 2.0] [--message TEXT]
    python -m repro power
    python -m repro compare
    python -m repro throughput [--subframes 64] [--clock-khz 50]
    python -m repro interference [--rate 600]
    python -m repro pcap OUTPUT.pcap [--queries 3]
    python -m repro serve [--port 8750] [--slots 2] [--spill-dir DIR]

Each subcommand prints the same tables the corresponding benchmark
produces; see benchmarks/ for the asserted versions.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .analysis.reporting import Table
from .baselines.comparison import render_requirement_table
from .core.arq import ArqTransfer
from .core.config import WiTagConfig
from .core.session import MeasurementSession
from .core.throughput import analytic_throughput_bps, query_cycle
from .sim.scenario import los_scenario, nlos_scenario
from .tag.power import (
    channel_shift_precision_budget,
    channel_shift_ring_budget,
    witag_budget,
)


def _write_metrics_payload(payload: dict, path: str) -> None:
    """Write an aggregated-telemetry payload as indented JSON."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote metrics to {path}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    import functools

    from .obs import (
        Telemetry,
        TelemetryAggregate,
        TelemetrySpec,
        TraceSampler,
        TraceWriter,
        activate,
    )
    from .runner import (
        RetryPolicy,
        SweepError,
        SweepSpec,
        WorkUnitError,
        run_sweep,
    )
    from .runner.workers import los_ber_point

    try:
        distances = [float(d) for d in args.distances.split(",") if d]
    except ValueError:
        print(f"bad --distances value: {args.distances!r}", file=sys.stderr)
        return 2
    if not distances:
        print("--distances must name at least one point", file=sys.stderr)
        return 2
    retry = None
    if (
        args.retries is not None
        or args.timeout is not None
        or args.backoff is not None
    ):
        try:
            retry = RetryPolicy(
                max_attempts=(
                    args.retries if args.retries is not None else 3
                ),
                timeout_s=args.timeout,
                backoff_s=args.backoff if args.backoff is not None else 0.0,
            )
        except ValueError as error:
            print(f"bad retry options: {error}", file=sys.stderr)
            return 2
    # Tracing needs one live writer, so it forces the serial executor;
    # metrics-only runs stay parallel (snapshots merge across workers).
    live: Telemetry | None = None
    n_workers = args.workers
    telemetry_spec: TelemetrySpec | None = None
    if args.trace_out:
        if args.workers > 1:
            print(
                "--trace-out forces the serial executor (one trace "
                "writer); ignoring --workers",
                file=sys.stderr,
            )
            n_workers = 1
        try:
            live = Telemetry(
                metrics=bool(args.metrics_out),
                writer=TraceWriter(args.trace_out),
                sampler=TraceSampler(every_n=args.trace_every_n),
            )
        except (OSError, ValueError) as error:
            print(f"bad --trace-out: {error}", file=sys.stderr)
            return 2
    elif args.metrics_out:
        telemetry_spec = TelemetrySpec(metrics=True)
    try:
        spec = SweepSpec(
            axes={"distance_m": distances},
            seed=args.seed,
            chunk_size=args.chunk,
        )
        fn = functools.partial(los_ber_point, sim_seconds=args.seconds)
        run = functools.partial(
            run_sweep,
            fn,
            spec,
            n_workers=n_workers,
            retry=retry,
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
        if live is not None:
            with activate(live):
                result = run(telemetry=None)
            live.close()
        else:
            result = run(telemetry=telemetry_spec)
    except ValueError as error:
        print(f"bad sweep options: {error}", file=sys.stderr)
        return 2
    except WorkUnitError as error:
        summary: dict[str, int] = {}
        for event in error.retries:
            summary[event.reason] = summary.get(event.reason, 0) + 1
        print(
            f"sweep failed: work unit {error.index} (chunk "
            f"{error.chunk_index}, parameters {error.parameters}) gave "
            f"up after {error.attempts} attempt(s): {error.cause}",
            file=sys.stderr,
        )
        if summary:
            print(
                "retry summary: "
                + ", ".join(
                    f"{reason}={count}"
                    for reason, count in sorted(summary.items())
                ),
                file=sys.stderr,
            )
        if args.checkpoint:
            print(
                f"completed chunks are checkpointed in {args.checkpoint}; "
                f"re-run with --resume to keep them",
                file=sys.stderr,
            )
        return 1
    except SweepError as error:
        print(f"sweep failed: {error}", file=sys.stderr)
        return 1
    print(
        result.table(
            f"LOS sweep: {args.seconds:g}s per point, seed {args.seed}, "
            f"{result.n_workers} worker(s) [{result.executor}]"
        ).render()
    )
    print(
        f"wall {result.wall_s:.2f}s, busy {result.busy_s:.2f}s across "
        f"{len(result.worker_timings)} worker(s), "
        f"chunk size {result.chunk_size}"
    )
    for timing in result.worker_timings:
        print(
            f"  worker {timing.worker}: {timing.n_units} unit(s) in "
            f"{timing.n_chunks} chunk(s), {timing.busy_s:.2f}s busy"
        )
    if result.retries:
        print(
            "fault tolerance: "
            + ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(
                    result.retry_summary().items()
                )
            )
            + f" event(s); finished on the {result.executor} executor"
        )
    if args.checkpoint:
        print(
            f"checkpoint: {args.checkpoint} "
            f"({result.resumed_chunks} chunk(s) resumed)"
        )
    if args.metrics_out:
        if live is not None:
            aggregate = TelemetryAggregate.from_chunks(
                [live.chunk_snapshot()]
            )
        else:
            aggregate = result.telemetry
        _write_metrics_payload(aggregate.as_dict(), args.metrics_out)
    if live is not None:
        print(
            f"wrote trace ({live.writer.records_written} records) to "
            f"{args.trace_out}"
        )
    return 0


def _metrics_table(snapshot: dict, title: str) -> Table:
    """Render a metrics snapshot as a one-row-per-series table."""
    table = Table(title, ["metric", "labels", "type", "value"])
    for name, family in snapshot["metrics"].items():
        for entry in family["series"]:
            labels = ",".join(
                f"{key}={value}"
                for key, value in entry["labels"].items()
            )
            if family["type"] == "histogram":
                value = (
                    f"count={int(entry['count'])} "
                    f"sum={entry['sum']:.6g}"
                )
            else:
                value = entry["value"]
            table.add_row([name, labels or "-", family["type"], value])
    return table


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Collect (or re-render) an aggregated metrics payload."""
    import json

    from .obs import render_prometheus

    if args.input:
        payloads = []
        for path in args.input:
            try:
                with open(path, encoding="utf-8") as handle:
                    payloads.append(json.load(handle))
            except (OSError, ValueError) as error:
                print(f"bad --input {path}: {error}", file=sys.stderr)
                return 2
        if len(payloads) == 1:
            payload = payloads[0]
        else:
            # Several payloads merge additively — the same label-series
            # algebra workers' chunk snapshots already use — so shards
            # of one experiment re-render as a single aggregate.
            from .obs import merge_metric_snapshots

            snapshots = []
            for path, item in zip(args.input, payloads):
                snap = (
                    item.get("metrics")
                    if isinstance(item, dict)
                    else None
                )
                if not (isinstance(snap, dict) and "schema" in snap):
                    print(
                        f"{path}: holds no metrics snapshot (collected "
                        "with metrics disabled?)",
                        file=sys.stderr,
                    )
                    return 2
                snapshots.append(snap)
            try:
                payload = {
                    "metrics": merge_metric_snapshots(snapshots),
                    "chunks": sum(
                        int(item.get("chunks") or 0) for item in payloads
                    ),
                    "version": payloads[0].get("version"),
                }
            except ValueError as error:
                print(
                    f"cannot merge --input payloads: {error}",
                    file=sys.stderr,
                )
                return 2
    else:
        from .runner import SessionSpec, TelemetrySpec, run_sessions

        try:
            result = run_sessions(
                SessionSpec(distance_m=args.distance),
                args.sessions,
                queries=args.queries,
                seed=args.seed,
                n_workers=args.workers,
                chunk_size=args.chunk,
                telemetry=TelemetrySpec(metrics=True),
            )
        except ValueError as error:
            print(f"bad metrics options: {error}", file=sys.stderr)
            return 2
        payload = result.telemetry.as_dict()
    snapshot = payload.get("metrics")
    if not isinstance(snapshot, dict) or "schema" not in snapshot:
        print(
            "payload holds no metrics snapshot (collected with metrics "
            "disabled?)",
            file=sys.stderr,
        )
        return 2
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    elif args.format == "prometheus":
        try:
            text = render_prometheus(snapshot)
        except ValueError as error:
            print(f"bad snapshot: {error}", file=sys.stderr)
            return 2
    else:
        table = _metrics_table(
            snapshot,
            f"aggregated metrics ({payload.get('chunks', '?')} chunk(s), "
            f"repro {payload.get('version', '?')})",
        )
        text = table.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    """Run one traced LOS session, writing a JSONL trace file."""
    from .obs import (
        Telemetry,
        TelemetryAggregate,
        TraceSampler,
        TraceWriter,
    )

    if args.queries < 1:
        print("--queries must be >= 1", file=sys.stderr)
        return 2
    try:
        telemetry = Telemetry(
            metrics=bool(args.metrics_out),
            writer=TraceWriter(args.out),
            sampler=TraceSampler(
                every_n=args.every_n, head=args.head, tail=args.tail
            ),
        )
    except (OSError, ValueError) as error:
        print(f"bad trace options: {error}", file=sys.stderr)
        return 2
    system, info = los_scenario(args.distance, seed=args.seed)
    telemetry.attach(system)
    session = MeasurementSession(
        system, rng=np.random.default_rng(args.seed + 1)
    )
    stats = session.run_queries(args.queries)
    telemetry.close()
    print(
        f"{info.name}: {stats.queries} queries, BER {stats.ber:.4g}, "
        f"{telemetry.writer.records_written} trace record(s) -> {args.out}"
    )
    if args.metrics_out:
        aggregate = TelemetryAggregate.from_chunks(
            [telemetry.chunk_snapshot()]
        )
        _write_metrics_payload(aggregate.as_dict(), args.metrics_out)
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    """Validate and aggregate one or more JSONL trace files."""
    import json

    from .obs import summarize_trace

    try:
        summary = summarize_trace(*args.paths)
    except (OSError, ValueError) as error:
        print(f"bad trace: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    queries = summary["queries"]
    table = Table(
        f"trace summary: {', '.join(args.paths)}",
        ["field", "value"],
    )
    for kind in ("header", "query", "session", "retry"):
        table.add_row(
            [f"{kind} records", summary["records"].get(kind, 0)]
        )
    table.add_row(["producer versions", ", ".join(summary["versions"])])
    for reason, count in sorted(summary.get("retries", {}).items()):
        table.add_row([f"retries.{reason}", count])
    for key in (
        "count",
        "bits_sent",
        "bit_errors",
        "ber",
        "subframes",
        "subframes_failed",
        "missed_triggers",
    ):
        table.add_row([f"queries.{key}", queries[key]])
    print(table.render())
    for i, session in enumerate(summary["sessions"]):
        print(
            f"  session {i}: {session['queries']} queries, "
            f"BER {session['ber']:.4g}, "
            f"{session['bits_sent']} bits / {session['bit_errors']} "
            f"errors, {session['missed_triggers']} missed trigger(s)"
        )
    return 0


def _cmd_trace_tail(args: argparse.Namespace) -> int:
    """Print the last N records of a trace as JSON lines."""
    import json
    from collections import deque

    from .obs import read_trace

    try:
        stream = read_trace(*args.paths, validate=not args.no_validate)
        if args.kind:
            stream = (
                record
                for record in stream
                if record.get("kind") == args.kind
            )
        records = deque(stream, maxlen=args.records)
    except (OSError, ValueError) as error:
        print(f"bad trace: {error}", file=sys.stderr)
        return 2
    for record in records:
        print(json.dumps(record, separators=(",", ":")))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    """Convert a trace to Chrome tracing JSON or a flamegraph."""
    import json

    from .obs import chrome_trace, flamegraph_lines, read_trace
    from .obs.export import trace_spans

    try:
        records = list(
            read_trace(*args.paths, validate=not args.no_validate)
        )
    except (OSError, ValueError) as error:
        print(f"bad trace: {error}", file=sys.stderr)
        return 2
    if args.format == "chrome":
        text = json.dumps(chrome_trace(records), indent=2)
    else:
        lines = flamegraph_lines(trace_spans(records))
        if not lines:
            print(
                "trace holds no session spans to export "
                "(flamegraphs need session records)",
                file=sys.stderr,
            )
            return 2
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Terminal status view of a running serve (or a metrics file)."""
    from .obs.top import run_top

    try:
        return run_top(
            url=None if args.input else args.url,
            input_path=args.input,
            once=args.once,
            interval_s=args.interval,
        )
    except KeyboardInterrupt:
        return 0
    except (OSError, ValueError) as error:
        print(f"repro top: {error}", file=sys.stderr)
        return 2


def _cmd_fig5(args: argparse.Namespace) -> int:
    table = Table(
        f"Figure 5 sweep ({args.seconds:g}s per point, seed {args.seed})",
        ["tag distance (m)", "BER", "throughput (Kbps)"],
    )
    for d in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
        system, _ = los_scenario(d, seed=args.seed + int(d))
        stats = MeasurementSession(
            system, rng=np.random.default_rng(args.seed + int(d))
        ).run_for(args.seconds)
        table.add_row([d, stats.ber, stats.throughput_bps / 1e3])
    print(table.render())
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    table = Table(
        f"Figure 6 NLOS runs ({args.runs} x {args.seconds:g}s)",
        ["location", "median BER", "p90 BER"],
    )
    for location in ("A", "B"):
        bers = []
        for run in range(args.runs):
            system, _ = nlos_scenario(location, seed=args.seed + run)
            stats = MeasurementSession(
                system, rng=np.random.default_rng(run)
            ).run_for(args.seconds)
            bers.append(stats.ber)
        table.add_row(
            [
                location,
                float(np.median(bers)),
                float(np.percentile(bers, 90)),
            ]
        )
    print(table.render())
    return 0


def _cmd_quickstart(args: argparse.Namespace) -> int:
    system, info = los_scenario(args.distance, seed=args.seed)
    print(
        f"{info.name}: link SNR {info.link_snr_db:.1f} dB, "
        f"MCS {info.mcs_index}, tag clock {info.tag_clock_hz / 1e3:g} kHz"
    )
    report = ArqTransfer(system).send(args.message.encode())
    if report.delivered:
        print(
            f"delivered {args.message!r} in {report.queries} queries "
            f"({report.attempts} attempt(s), "
            f"{report.effective_rate_bps / 1e3:.1f} Kbps effective)"
        )
        return 0
    print(f"transfer failed after {report.attempts} attempts")
    return 1


def _cmd_power(_args: argparse.Namespace) -> int:
    table = Table(
        "tag power budgets (paper Section 7)",
        ["system", "total (uW)", "battery-free feasible"],
    )
    for budget in (
        witag_budget(),
        channel_shift_ring_budget(),
        channel_shift_precision_budget(),
    ):
        table.add_row(
            [budget.name, budget.total_uw, budget.battery_free_feasible]
        )
    print(table.render())
    return 0


def _cmd_compare(_args: argparse.Namespace) -> int:
    print(render_requirement_table())
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    config = WiTagConfig(
        n_subframes=args.subframes, tag_clock_hz=args.clock_khz * 1e3
    )
    cycle = query_cycle(config)
    print(
        f"cycle: access {cycle.access_s * 1e6:.0f} us + query "
        f"{cycle.query_s * 1e6:.0f} us + SIFS {cycle.sifs_s * 1e6:.0f} us "
        f"+ BA {cycle.block_ack_s * 1e6:.0f} us = {cycle.total_s * 1e3:.2f} ms"
    )
    print(
        f"tag throughput: {analytic_throughput_bps(config) / 1e3:.1f} Kbps "
        f"({config.bits_per_query} bits / cycle)"
    )
    return 0


def _cmd_interference(args: argparse.Namespace) -> int:
    from .baselines.interference import (
        VictimNetwork,
        channel_shift_emitter,
        collision_probability,
        victim_goodput_fraction,
        witag_emitter,
    )

    victim = VictimNetwork()
    shift = channel_shift_emitter(queries_per_second=args.rate)
    table = Table(
        f"secondary-channel victim (1.5 ms frames) at {args.rate:g} "
        "excitations/s",
        ["emitter", "P(frame collision)", "victim goodput"],
    )
    table.add_row(
        [
            "channel-shift tag",
            collision_probability(victim, shift),
            victim_goodput_fraction(victim, shift),
        ]
    )
    table.add_row(
        [
            "WiTAG",
            collision_probability(victim, witag_emitter()),
            victim_goodput_fraction(victim, witag_emitter()),
        ]
    )
    print(table.render())
    return 0


def _cmd_pcap(args: argparse.Namespace) -> int:
    from .sim.pcap import PcapWriter

    system, info = los_scenario(args.distance, seed=args.seed)
    system.load_tag_bits(
        [int(b) for b in np.random.default_rng(args.seed).integers(
            0, 2, 62 * args.queries
        )]
    )
    writer = PcapWriter()
    clock = 0.0
    for _ in range(args.queries):
        result = system.run_query()
        clock = writer.add_query_result(clock, result)
    size = writer.write(args.output)
    print(
        f"wrote {writer.n_frames} frames ({size} bytes) from "
        f"{args.queries} query cycles to {args.output}"
    )
    print("open in Wireshark: the block-ACK bitmaps carry the tag's bits")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import signal

    from .serve import ServeConfig, SweepService

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            slots=args.slots,
            spill_dir=args.spill_dir,
            max_jobs=args.max_jobs,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.print_config:
        print(json.dumps(config.to_json(), sort_keys=True))
        return 0
    service = SweepService(config)
    # SIGTERM takes Ctrl-C's path: a running job stops at its next
    # chunk boundary, its pool workers are joined, and the server
    # exits 0.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        service.run_forever()
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WiTAG (HotNets 2018) reproduction experiments",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="parallel LOS distance sweep (repro.runner engine)"
    )
    sweep.add_argument(
        "--distances",
        type=str,
        default="1,2,3,4,5,6,7",
        help="comma-separated tag distances from the client (m)",
    )
    sweep.add_argument("--seconds", type=float, default=0.5)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument(
        "--chunk", type=int, default=None, help="work units per task"
    )
    sweep.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="write the aggregated telemetry payload (JSON) here",
    )
    sweep.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help="write a JSONL query/session trace here (forces serial)",
    )
    sweep.add_argument(
        "--trace-every-n",
        type=int,
        default=1,
        help="keep every Nth query record in the trace",
    )
    sweep.add_argument(
        "--retries",
        type=int,
        default=None,
        help="enable fault tolerance: attempts per chunk (RetryPolicy "
        "max_attempts)",
    )
    sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-chunk deadline in seconds (enables fault tolerance)",
    )
    sweep.add_argument(
        "--backoff",
        type=float,
        default=None,
        help="base backoff sleep in seconds between chunk retries "
        "(enables fault tolerance)",
    )
    sweep.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="spill completed chunks to this JSONL file",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="resume from --checkpoint, skipping completed chunks "
        "(without this flag an existing checkpoint is overwritten)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    metrics = sub.add_parser(
        "metrics",
        help="collect or re-render aggregated telemetry metrics",
    )
    metrics.add_argument("--sessions", type=int, default=4)
    metrics.add_argument("--queries", type=int, default=50)
    metrics.add_argument("--distance", type=float, default=4.0)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--workers", type=int, default=1)
    metrics.add_argument(
        "--chunk",
        type=int,
        default=1,
        help="sessions per chunk; the default of 1 makes serial and "
        "parallel runs aggregate identically",
    )
    metrics.add_argument(
        "--format",
        choices=("table", "json", "prometheus"),
        default="table",
    )
    metrics.add_argument(
        "--input",
        type=str,
        action="append",
        default=None,
        metavar="PAYLOAD",
        help="re-render an existing payload (from --metrics-out) "
        "instead of running sessions; repeat to merge several "
        "payloads additively",
    )
    metrics.add_argument(
        "--out",
        type=str,
        default=None,
        help="write the rendered output here instead of stdout",
    )
    metrics.set_defaults(func=_cmd_metrics)

    trace = sub.add_parser(
        "trace", help="query/session JSONL trace tooling"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_run = trace_sub.add_parser(
        "run", help="run one traced LOS session"
    )
    trace_run.add_argument("out", type=str, help="JSONL output path")
    trace_run.add_argument("--queries", type=int, default=200)
    trace_run.add_argument("--distance", type=float, default=4.0)
    trace_run.add_argument("--seed", type=int, default=0)
    trace_run.add_argument(
        "--every-n",
        type=int,
        default=1,
        help="keep every Nth query record",
    )
    trace_run.add_argument(
        "--head",
        type=int,
        default=0,
        help="always keep the first N query records",
    )
    trace_run.add_argument(
        "--tail",
        type=int,
        default=0,
        help="also keep the last N dropped query records per session",
    )
    trace_run.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="also write the run's aggregated metrics (JSON) here",
    )
    trace_run.set_defaults(func=_cmd_trace_run)
    trace_summary = trace_sub.add_parser(
        "summary", help="validate and aggregate trace files"
    )
    trace_summary.add_argument("paths", nargs="+", type=str)
    trace_summary.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    trace_summary.set_defaults(func=_cmd_trace_summary)
    trace_tail = trace_sub.add_parser(
        "tail", help="print the last records of a trace"
    )
    trace_tail.add_argument("paths", nargs="+", type=str)
    trace_tail.add_argument("--records", type=int, default=10)
    trace_tail.add_argument(
        "--kind",
        choices=("header", "query", "session", "retry"),
        default=None,
        help="only show records of this kind",
    )
    trace_tail.add_argument(
        "--no-validate",
        action="store_true",
        help="skip per-record schema validation",
    )
    trace_tail.set_defaults(func=_cmd_trace_tail)
    trace_export = trace_sub.add_parser(
        "export",
        help="convert a trace to Chrome tracing JSON or a "
        "collapsed-stack flamegraph",
    )
    trace_export.add_argument("paths", nargs="+", type=str)
    trace_export.add_argument(
        "--format",
        choices=("chrome", "flamegraph"),
        default="chrome",
        help="chrome: trace_event JSON for chrome://tracing / "
        "Perfetto; flamegraph: collapsed stacks for flamegraph.pl "
        "/ speedscope",
    )
    trace_export.add_argument(
        "--output",
        "-o",
        type=str,
        default=None,
        help="write here instead of stdout",
    )
    trace_export.add_argument(
        "--no-validate",
        action="store_true",
        help="skip per-record schema validation",
    )
    trace_export.set_defaults(func=_cmd_trace_export)

    fig5 = sub.add_parser("fig5", help="BER/throughput vs tag position")
    fig5.add_argument("--seconds", type=float, default=1.0)
    fig5.add_argument("--seed", type=int, default=0)
    fig5.set_defaults(func=_cmd_fig5)

    fig6 = sub.add_parser("fig6", help="NLOS BER distribution")
    fig6.add_argument("--runs", type=int, default=8)
    fig6.add_argument("--seconds", type=float, default=0.5)
    fig6.add_argument("--seed", type=int, default=0)
    fig6.set_defaults(func=_cmd_fig6)

    quick = sub.add_parser("quickstart", help="send one tag message")
    quick.add_argument("--distance", type=float, default=2.0)
    quick.add_argument("--message", type=str, default="hello-witag")
    quick.add_argument("--seed", type=int, default=7)
    quick.set_defaults(func=_cmd_quickstart)

    power = sub.add_parser("power", help="tag power budgets")
    power.set_defaults(func=_cmd_power)

    compare = sub.add_parser("compare", help="system requirements matrix")
    compare.set_defaults(func=_cmd_compare)

    throughput = sub.add_parser("throughput", help="analytic rate model")
    throughput.add_argument("--subframes", type=int, default=64)
    throughput.add_argument("--clock-khz", type=float, default=50.0)
    throughput.set_defaults(func=_cmd_throughput)

    interference = sub.add_parser(
        "interference", help="secondary-channel interference comparison"
    )
    interference.add_argument("--rate", type=float, default=600.0)
    interference.set_defaults(func=_cmd_interference)

    pcap = sub.add_parser("pcap", help="capture query exchanges to pcap")
    pcap.add_argument("output", type=str)
    pcap.add_argument("--queries", type=int, default=3)
    pcap.add_argument("--distance", type=float, default=2.0)
    pcap.add_argument("--seed", type=int, default=0)
    pcap.set_defaults(func=_cmd_pcap)

    serve = sub.add_parser(
        "serve",
        help="run the async sweep job service (HTTP + SSE)",
    )
    serve.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port", type=int, default=8750, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--slots", type=int, default=2, help="concurrent job slots"
    )
    serve.add_argument(
        "--spill-dir",
        type=str,
        default=None,
        help="directory for job state + engine checkpoints "
        "(enables restart resume)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=1024,
        help="cap on active (non-terminal) jobs",
    )
    serve.add_argument(
        "--print-config",
        action="store_true",
        help="print the resolved config as JSON and exit",
    )
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="terminal status view of a running repro serve "
        "(or a metrics JSON file)",
    )
    top.add_argument(
        "--url",
        type=str,
        default="http://127.0.0.1:8750",
        help="base URL of the serve instance to poll",
    )
    top.add_argument(
        "--input",
        type=str,
        default=None,
        metavar="PAYLOAD",
        help="render a metrics JSON file instead of polling a server "
        "(implies --once)",
    )
    top.add_argument(
        "--once", action="store_true", help="print one snapshot and exit"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes",
    )
    top.set_defaults(func=_cmd_top)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

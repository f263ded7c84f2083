"""Command-line interface: run WiTAG experiments without writing code.

Usage::

    python -m repro sweep [--distances 1,2,...] [--workers 4] [--seed 0]
                          [--metrics-out M.json] [--trace-out T.jsonl]
                          [--retries 3] [--timeout 30] [--backoff 0.1]
                          [--inject-faults crash:0] [--checkpoint C.jsonl]
                          [--resume]
    python -m repro bench [--queries 300] [--distance 4.0] [--json OUT.json]
                          [--update-baseline] [--trajectory PATH.json]
                          [--fleet] [--fleet-tags 2000]
                          [--fleet-rounds 1] [--fleet-aps 4]
                          [--metrics-out M.json] [--trace-out T.jsonl]
    python -m repro bench check [--trajectory PATH.json] [--threshold 0.8]
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
        FaultSpec,
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
    faults = None
    if args.inject_faults:
        try:
            faults = FaultSpec.parse(
                args.inject_faults, hang_s=args.hang_seconds
            )
        except ValueError as error:
            print(f"bad --inject-faults: {error}", file=sys.stderr)
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
            faults=faults,
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


def _print_fleet_network_demo(args: argparse.Namespace) -> None:
    """Run and report the multi-AP warehouse scenario (not baselined).

    ``args.fleet_aps`` reader cells spread along a 30 m x 20 m floor,
    polling ``args.fleet_tags`` tags for ``args.fleet_rounds``
    event-driven rounds with mobility and nearest-AP selection — the
    docs' "warehouse scenario" walkthrough, runnable from the bench
    CLI.  Diagnostic output only; the gated number is the single-cell
    fleet-vs-scalar speedup.
    """
    import numpy as np

    from .sim.network import (
        FleetNetwork,
        RandomWalkMobility,
        ReaderCell,
        TrafficStation,
    )

    width, height = 30.0, 20.0
    n_aps = args.fleet_aps
    cells = [
        ReaderCell(
            f"ap{k}",
            ap_xy=(width * (k + 0.5) / n_aps, 0.0),
            stations=(TrafficStation(f"bg{k}"),),
        )
        for k in range(n_aps)
    ]
    rng = np.random.default_rng(
        np.random.SeedSequence(args.seed, spawn_key=(0xF100,))
    )
    positions = np.column_stack(
        [
            rng.uniform(0.0, width, args.fleet_tags),
            rng.uniform(1.0, height, args.fleet_tags),
        ]
    )
    network = FleetNetwork(
        cells,
        positions,
        seed=args.seed,
        mobility=RandomWalkMobility(
            bounds=(0.0, 1.0, width, height), seed=args.seed
        ),
    )
    data_rng = np.random.default_rng(
        np.random.SeedSequence(args.seed, spawn_key=(0xF101,))
    )
    for name in network.names:
        network.load_bits(
            name, [int(b) for b in data_rng.integers(0, 2, args.fleet_bits)]
        )
    rounds = network.run_rounds(args.fleet_rounds)
    table = Table(
        f"warehouse scenario: {args.fleet_tags} tags x {n_aps} APs x "
        f"{args.fleet_rounds} round(s), mobility + CSMA contention",
        ["AP", "rounds", "queries", "responded", "bits", "BER", "busy (s)"],
    )
    for k, cell in enumerate(cells):
        mine = [s for s in rounds if s.ap == cell.name]
        bits = sum(s.bits_sent for s in mine)
        errors = sum(s.bit_errors for s in mine)
        table.add_row(
            [
                cell.name,
                len(mine),
                sum(s.n_queries for s in mine),
                sum(s.n_responded for s in mine),
                bits,
                (errors / bits) if bits else 0.0,
                sum(s.duration_s for s in mine),
            ]
        )
    print(table.render())
    print(
        f"mobility ticks: {network.mobility_ticks}, handoffs: "
        f"{network.handoffs}, incrementally refreshed link rows: "
        f"{network.invalidated_rows}"
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    """Three-tier fast-path benchmark with stage timings."""
    import json

    from .bench import (
        TIERS,
        adaptive_bench,
        bench_payload,
        fleet_bench,
        record_bench_trajectory,
        three_tier_bench,
        update_baseline,
    )

    if args.queries < 1:
        print("--queries must be >= 1", file=sys.stderr)
        return 2
    result = three_tier_bench(
        args.queries,
        distance_m=args.distance,
        seed=args.seed,
        repeats=args.repeats,
    )
    speedups = result["speedups"]
    table = Table(
        f"fast-path tiers: {args.queries} queries, "
        f"LOS tag@{args.distance:g}m, seed {args.seed}",
        ["path", "wall (s)", "queries/s", "BER"],
    )
    for label, _phy, _session in TIERS:
        tier = result["tiers"][label]
        table.add_row(
            [label, tier["wall_s"], tier["queries_per_s"], tier["ber"]]
        )
    print(table.render())
    print(
        f"speedup vectorized/scalar: "
        f"{speedups['vectorized_vs_scalar']:.2f}x, "
        f"session-batch/scalar: {speedups['session_vs_scalar']:.2f}x, "
        f"session-batch/vectorized: "
        f"{speedups['session_vs_vectorized']:.2f}x"
    )
    stages = Table(
        "session-batch stage timings (cumulative seconds)",
        ["group", "stage", "seconds", "units", "us/unit"],
    )
    batch_session = result["tiers"]["session-batch"]["session"]
    for group, counters in (
        ("system", batch_session.system.counters),
        ("error_model", batch_session.system.error_model.counters),
    ):
        for stage, seconds, calls, per_call_us in (
            counters.as_rows_with_rate()
        ):
            stages.add_row([group, stage, seconds, calls, per_call_us])
    print(stages.render())
    fl = None
    if args.fleet:
        fl = fleet_bench(
            args.fleet_tags,
            args.fleet_rounds,
            seed=args.seed,
            bits_per_tag=args.fleet_bits,
            repeats=args.repeats,
        )
        fl_table = Table(
            f"fleet engine: {fl['n_tags']} tags x {fl['rounds']} "
            f"round(s), {fl['bits_per_tag']} bits/tag",
            ["mode", "wall (s)", "queries/s"],
        )
        for mode in ("scalar", "fleet"):
            leg = fl["legs"][mode]
            fl_table.add_row([mode, leg["wall_s"], leg["queries_per_s"]])
        print(fl_table.render())
        print(
            f"speedup fleet/scalar: "
            f"{fl['speedup_fleet_vs_scalar']:.2f}x "
            f"(equivalence gate on {fl['equivalence_tags']} tags, "
            f"exact coding: {'passed' if fl['identical'] else 'FAILED'})"
        )
        if args.fleet_aps > 0:
            _print_fleet_network_demo(args)
    ad = None
    if args.adaptive:
        ad = adaptive_bench(
            args.adaptive_units,
            args.adaptive_rounds,
            args.adaptive_windows,
            seed=args.seed,
        )
        ad_table = Table(
            f"adaptive FEC + scheduling: {ad['units']} deployment(s) x "
            f"{ad['rounds']} rounds x {ad['windows_per_round']} windows, "
            "bursty ON/OFF traffic",
            [
                "scheme",
                "delivered bits",
                "goodput (bps)",
                "energy/bit (uJ)",
            ],
        )
        for scheme in ("static", "adaptive"):
            leg = ad["legs"][scheme]
            ad_table.add_row(
                [
                    scheme,
                    leg["delivered_bits"],
                    leg["mean_goodput_bps"],
                    leg["mean_energy_per_bit_uj"],
                ]
            )
        print(ad_table.render())
        print(
            f"goodput adaptive/static: "
            f"{ad['goodput_ratio_adaptive_vs_static']:.2f}x, "
            f"energy-per-bit static/adaptive: "
            f"{ad['energy_ratio_static_vs_adaptive']:.2f}x "
            f"(adaptive wins {ad['adaptive_wins']}/{ad['units']} "
            f"deployments; tier equivalence gate: "
            f"{'passed' if ad['identical'] else 'FAILED'})"
        )
    payload = bench_payload(result, fleet=fl, adaptive=ad)
    entry = record_bench_trajectory(args.trajectory, payload)
    print(f"recorded trajectory entry ({entry['recorded_at']}) in "
          f"{args.trajectory}")
    if args.update_baseline:
        tiers = payload["tiers"]
        update_baseline(
            "session_batch",
            {
                "recorded": entry["recorded_at"],
                "queries": args.queries,
                "distance_m": args.distance,
                "seed": args.seed,
                "scalar_queries_per_s": tiers["scalar"]["queries_per_s"],
                "vectorized_queries_per_s": tiers["vectorized"][
                    "queries_per_s"
                ],
                "session_batch_queries_per_s": tiers["session-batch"][
                    "queries_per_s"
                ],
                "speedup_session_vs_vectorized": speedups[
                    "session_vs_vectorized"
                ],
                "note": (
                    "Reference machine numbers from `repro bench "
                    "--update-baseline`. benchmarks/test_session_batch.py "
                    "asserts session-batch >= max(2.0, 0.8 * "
                    "speedup_session_vs_vectorized) over the vectorized "
                    "tier; absolute queries/s are trajectory data only."
                ),
            },
            args.baselines,
        )
        print(f"updated session_batch baseline in {args.baselines}")
        if fl is not None:
            update_baseline(
                "fleet",
                {
                    "recorded": entry["recorded_at"],
                    "n_tags": fl["n_tags"],
                    "rounds": fl["rounds"],
                    "bits_per_tag": fl["bits_per_tag"],
                    "seed": args.seed,
                    "scalar_queries_per_s": fl["legs"]["scalar"][
                        "queries_per_s"
                    ],
                    "fleet_queries_per_s": fl["legs"]["fleet"][
                        "queries_per_s"
                    ],
                    "speedup_fleet_vs_scalar": fl[
                        "speedup_fleet_vs_scalar"
                    ],
                    "note": (
                        "Reference machine numbers from `repro bench "
                        "--fleet --update-baseline`. "
                        "benchmarks/test_fleet.py asserts fleet >= "
                        "max(5.0, 0.8 * speedup_fleet_vs_scalar) over "
                        "the scalar MultiTagCell reference after the "
                        "bit-identity equivalence gate; absolute rates "
                        "are trajectory data only."
                    ),
                },
                args.baselines,
            )
            print(f"updated fleet baseline in {args.baselines}")
        if ad is not None:
            update_baseline(
                "adaptive",
                {
                    "recorded": entry["recorded_at"],
                    "units": ad["units"],
                    "rounds": ad["rounds"],
                    "windows_per_round": ad["windows_per_round"],
                    "seed": args.seed,
                    "static_goodput_bps": ad["legs"]["static"][
                        "mean_goodput_bps"
                    ],
                    "adaptive_goodput_bps": ad["legs"]["adaptive"][
                        "mean_goodput_bps"
                    ],
                    "goodput_ratio_adaptive_vs_static": ad[
                        "goodput_ratio_adaptive_vs_static"
                    ],
                    "energy_ratio_static_vs_adaptive": ad[
                        "energy_ratio_static_vs_adaptive"
                    ],
                    "note": (
                        "Reference numbers from `repro bench --adaptive "
                        "--update-baseline`. Quality ratio, not a timing: "
                        "adaptive goodput over static-paper goodput under "
                        "bursty traffic, after the execution-tier "
                        "equivalence gate. `repro bench check` fails when "
                        "the measured ratio drops below threshold x this "
                        "value; the deterministic seeds make the measured "
                        "ratio reproducible."
                    ),
                },
                args.baselines,
            )
            print(f"updated adaptive baseline in {args.baselines}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")
    if args.metrics_out or args.trace_out:
        # One extra instrumented session-batch run; the bench numbers
        # above stay un-instrumented so baselines are comparable.
        from .bench import timed_session
        from .obs import (
            Telemetry,
            TelemetryAggregate,
            TraceSampler,
            TraceWriter,
        )

        try:
            telemetry = Telemetry(
                metrics=bool(args.metrics_out),
                writer=(
                    TraceWriter(args.trace_out) if args.trace_out else None
                ),
                sampler=TraceSampler(every_n=args.trace_every_n),
            )
        except (OSError, ValueError) as error:
            print(f"bad telemetry options: {error}", file=sys.stderr)
            return 2
        capture = timed_session(
            args.queries,
            distance_m=args.distance,
            seed=args.seed,
            telemetry=telemetry,
        )
        telemetry.close()
        print(
            f"telemetry capture run: {capture['queries_per_s']:.0f} "
            "queries/s instrumented"
        )
        if args.metrics_out:
            aggregate = TelemetryAggregate.from_chunks(
                [telemetry.chunk_snapshot()]
            )
            _write_metrics_payload(aggregate.as_dict(), args.metrics_out)
        if args.trace_out:
            print(
                f"wrote trace ({telemetry.writer.records_written} "
                f"records) to {args.trace_out}"
            )
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    """The regression watchdog: latest trajectory vs pinned baselines."""
    from .bench import bench_check

    try:
        report = bench_check(
            args.trajectory, args.baselines, threshold=args.threshold
        )
    except ValueError as error:
        print(f"bad bench check options: {error}", file=sys.stderr)
        return 2
    table = Table(
        f"bench regression check: floor = {report['threshold']:g} x "
        f"baseline ({args.trajectory})",
        ["gate", "measured", "baseline", "floor", "recorded", "status"],
    )
    for check in report["checks"]:
        table.add_row(
            [
                check["name"],
                check["measured"],
                check["baseline"],
                check["floor"],
                check["recorded_at"] or "-",
                "ok" if check["ok"] else "REGRESSION",
            ]
        )
    print(table.render())
    for item in report["skipped"]:
        print(f"skipped {item['name']}: {item['reason']}")
    if not report["checks"]:
        print("no gates checked (nothing measured or pinned yet)")
        return 0
    if not report["ok"]:
        failed = [c["name"] for c in report["checks"] if not c["ok"]]
        print(
            f"REGRESSION: {', '.join(failed)} below "
            f"{report['threshold']:g} x baseline",
            file=sys.stderr,
        )
        return 1
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
            transports = []
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
                transport = item.get("transport")
                if isinstance(transport, dict) and "schema" in transport:
                    transports.append(transport)
            try:
                payload = {
                    "metrics": merge_metric_snapshots(snapshots),
                    "chunks": sum(
                        int(item.get("chunks") or 0) for item in payloads
                    ),
                    "version": payloads[0].get("version"),
                }
                if transports:
                    payload["transport"] = merge_metric_snapshots(
                        transports
                    )
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
    # Chunk-transport metrics (payload bytes / encode times) ride in a
    # separate operational snapshot so they never perturb the
    # deterministic physics aggregate; fold them into the human-facing
    # renderings here.
    transport = payload.get("transport")
    if not (isinstance(transport, dict) and "schema" in transport):
        transport = None
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    elif args.format == "prometheus":
        from .obs import merge_metric_snapshots

        try:
            exposed = (
                merge_metric_snapshots([snapshot, transport])
                if transport is not None
                else snapshot
            )
            text = render_prometheus(exposed)
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
        if transport is not None:
            text += "\n\n" + _metrics_table(
                transport, "chunk transport (coordinator-side)"
            ).render()
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
    from .obs.export import merge_stage_timings

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
        lines = flamegraph_lines(merge_stage_timings(records))
        if not lines:
            print(
                "trace holds no session stage timings to export "
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
    # SIGTERM takes Ctrl-C's path: the running job's thread finishes,
    # its pool workers are joined, and the server exits 0.
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
        "--inject-faults",
        type=str,
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. 'crash:0,3;corrupt:2' "
        "(kinds: crash, hang, corrupt, exit; indices are work units)",
    )
    sweep.add_argument(
        "--hang-seconds",
        type=float,
        default=0.05,
        help="how long an injected hang sleeps",
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

    bench = sub.add_parser(
        "bench",
        help="three-tier benchmark: scalar vs vectorized vs session-batch",
    )
    bench.add_argument("--queries", type=int, default=300)
    bench.add_argument("--distance", type=float, default=4.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of-N wall clock per tier (robust to machine noise)",
    )
    bench.add_argument(
        "--json", type=str, default=None, help="write results to this file"
    )
    bench.add_argument(
        "--fleet",
        action="store_true",
        help="also benchmark the struct-of-arrays fleet engine against "
        "the scalar MultiTagCell reference (equivalence-gated)",
    )
    bench.add_argument(
        "--fleet-tags",
        type=int,
        default=2000,
        help="fleet size for the warehouse benchmark",
    )
    bench.add_argument(
        "--fleet-rounds",
        type=int,
        default=1,
        help="addressed polling rounds per fleet leg",
    )
    bench.add_argument(
        "--fleet-bits",
        type=int,
        default=64,
        help="queued data bits per tag per round",
    )
    bench.add_argument(
        "--fleet-aps",
        type=int,
        default=0,
        help="with --fleet, also run the multi-AP warehouse scenario "
        "with this many reader cells (diagnostic, not baselined)",
    )
    bench.add_argument(
        "--adaptive",
        action="store_true",
        help="also benchmark adaptive scheduling + FEC against the "
        "static-paper scheme under bursty traffic (equivalence-gated)",
    )
    bench.add_argument(
        "--adaptive-units",
        type=int,
        default=3,
        help="independent deployments per adaptive leg",
    )
    bench.add_argument(
        "--adaptive-rounds",
        type=int,
        default=6,
        help="feedback rounds per adaptive unit",
    )
    bench.add_argument(
        "--adaptive-windows",
        type=int,
        default=100,
        help="transmission-opportunity windows per feedback round",
    )
    bench.add_argument(
        "--trajectory",
        type=str,
        default="benchmarks/BENCH_session_batch.json",
        help="JSON list appended to on every run (timestamped)",
    )
    bench.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the session_batch entry of the baselines file "
        "with this run's numbers",
    )
    bench.add_argument(
        "--baselines",
        type=str,
        default="benchmarks/baselines.json",
        help="baselines file updated by --update-baseline",
    )
    bench.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        help="run one extra instrumented session and write its "
        "aggregated metrics (JSON) here",
    )
    bench.add_argument(
        "--trace-out",
        type=str,
        default=None,
        help="run one extra instrumented session and write its JSONL "
        "trace here",
    )
    bench.add_argument(
        "--trace-every-n",
        type=int,
        default=100,
        help="keep every Nth query record in the bench trace",
    )
    bench.set_defaults(func=_cmd_bench)
    bench_sub = bench.add_subparsers(
        dest="bench_command", metavar="{check}"
    )
    bench_check_p = bench_sub.add_parser(
        "check",
        help="regression watchdog: latest trajectory entries vs "
        "pinned baselines (exit 1 on regression)",
    )
    bench_check_p.add_argument(
        "--trajectory",
        type=str,
        default="benchmarks/BENCH_session_batch.json",
        help="trajectory file written by `repro bench`",
    )
    bench_check_p.add_argument(
        "--baselines",
        type=str,
        default="benchmarks/baselines.json",
        help="pinned baselines file",
    )
    bench_check_p.add_argument(
        "--threshold",
        type=float,
        default=0.8,
        help="failure floor as a fraction of the baseline speedup",
    )
    bench_check_p.set_defaults(func=_cmd_bench_check)

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

"""The five canonical workloads, each a closed loop of one op at a time.

Every workload derives its inputs from the run's seed alone.  Input
``k`` (``0 <= k < cycle``) of seed ``s`` is the same op on every run,
so ops that repeat an input must repeat its output exactly, and the
first ``cycle`` inputs of the seeds in ``pins.json`` are pinned.  Each
cycle is shorter than the ops a 15 s run completes, so every such run
repeats inputs, on a seed outside the pins too.

The interface, as :mod:`workload` drives it:

* ``setup()`` imports and builds what the first op needs (timed as
  set-up); ``warm_up()`` runs one untimed op for in-process workloads
  (also set-up); ``rebuild()`` restarts a stateful workload at input 0.
* ``run(k)`` is the timed op; ``finish(k, raw)`` turns its raw result
  into ``(queries, output)`` outside the timer; ``check(output)``
  returns a message when an invariant of the output fails.
* ``reference(k)`` (serve-job only) recomputes input ``k`` directly,
  for comparison with the served result.
* ``scaled`` is set where op times follow the speed of pure-Python
  code, which on a shared VM drifts with the yardstick's (see
  ``workload.yardstick_s``); only such a workload's times are scaled
  to nominal speed.  The warehouse's numpy-bound ops do not follow it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import socket
import threading
from typing import Any

import numpy as np

DISTANCES_M = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


def derive(seed: int, *keys: int) -> int:
    """A 32-bit sub-seed of ``seed`` for the given keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


class Workload:
    name = ""
    cycle = 1
    stateful = False
    scaled = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def rebuild(self) -> None:
        pass

    def run(self, k: int) -> Any:
        raise NotImplementedError

    def finish(self, k: int, raw: Any) -> tuple[int, Any]:
        raise NotImplementedError

    def check(self, output: Any) -> str | None:
        return None

    def close(self) -> None:
        pass


class Fig5Sweep(Workload):
    """E1 as users run it: seven distances through ``run_sweep``."""

    name = "fig5-sweep"
    cycle = 3
    scaled = True

    def setup(self) -> None:
        from repro.runner import SweepSpec, run_sweep
        from repro.runner.workers import los_ber_point

        self._spec = SweepSpec
        self._run_sweep = run_sweep
        self._fn = functools.partial(los_ber_point, sim_seconds=1.0)

    def run(self, k: int) -> Any:
        spec = self._spec(
            axes={"distance_m": DISTANCES_M}, seed=derive(self.seed, 5, k)
        )
        return self._run_sweep(self._fn, spec, n_workers=2)

    def finish(self, k: int, raw: Any) -> tuple[int, Any]:
        points = [
            {
                "parameters": dict(point.parameters),
                "seed": point.seed,
                "value": point.value,
            }
            for point in raw.points
        ]
        return sum(p["value"]["queries"] for p in points), points

    def check(self, output: Any) -> str | None:
        if len(output) != len(DISTANCES_M):
            return f"expected {len(DISTANCES_M)} points, got {len(output)}"
        for point in output:
            value = point["value"]
            if value["queries"] < 1 or not 0.0 <= value["ber"] <= 1.0:
                return f"implausible point {value}"
        return None


class ContendedSession(Workload):
    """One contended measurement session per op, in-process."""

    name = "session-contended"
    cycle = 16
    duration_s = 1.0
    encrypted = False
    scaled = True

    def setup(self) -> None:
        from repro.core.config import EncryptionMode
        from repro.core.session import MeasurementSession
        from repro.sim.scenario import los_scenario

        self._session = MeasurementSession
        self._scenario = los_scenario
        self._kwargs: dict[str, Any] = {"n_contenders": 3}
        if self.encrypted:
            self._kwargs["encryption"] = EncryptionMode.WPA2_CCMP

    def warm_up(self) -> None:
        self.run(0)

    def run(self, k: int) -> Any:
        system, _ = self._scenario(
            4.0, seed=derive(self.seed, 6, k), **self._kwargs
        )
        rng = np.random.default_rng(derive(self.seed, 7, k))
        return self._session(system, rng=rng).run_for(self.duration_s)

    def finish(self, k: int, raw: Any) -> tuple[int, Any]:
        return raw.queries, dataclasses.asdict(raw)

    def check(self, output: Any) -> str | None:
        if output["queries"] < 1 or output["bit_errors"] > output["bits_sent"]:
            return f"implausible session stats {output}"
        return None


class CcmpContendedSession(ContendedSession):
    """The contended session with WPA2-CCMP, E8's encryption mode.

    ``run_for(0.001)`` is shorter than any query cycle, so each op is
    exactly one query.  Longer sessions run 1 to 5 queries at ~0.3 s
    each, depending on the contention draws; op latency would then
    measure those draws more than the code.
    """

    name = "session-ccmp-contended"
    cycle = 16
    duration_s = 0.001
    encrypted = True


class Warehouse(Workload):
    """2,000 mobile tags under four reader cells; two rounds per op.

    Built as ``repro bench --fleet --fleet-aps 4`` builds its demo, but
    each op queues 64 fresh bits per tag and runs ``run_rounds(2)``
    with mobility ticking every 0.25 simulated seconds.  Under
    ``run_rounds(1)`` every cell's round runs at simulated time 0 and
    the run ends before the first tick is due, so no tag would ever
    move or hand off; the ticks fire between the two rounds.  Input
    ``k`` is op ``k + 1``, op 0 being the warm-up.
    """

    name = "warehouse-2000x4"
    cycle = 3
    stateful = True
    n_tags = 2000
    n_aps = 4
    bits_per_tag = 64
    width_m, height_m = 30.0, 20.0

    def setup(self) -> None:
        from repro.sim.network import (
            FleetNetwork,
            RandomWalkMobility,
            ReaderCell,
            TrafficStation,
        )

        self._classes = (
            FleetNetwork, RandomWalkMobility, ReaderCell, TrafficStation
        )
        self.rebuild()

    def rebuild(self) -> None:
        network_cls, mobility_cls, cell_cls, station_cls = self._classes
        self.network = None  # free the old network before the new one
        seed = derive(self.seed, 8)
        width, height = self.width_m, self.height_m
        cells = [
            cell_cls(
                f"ap{k}",
                ap_xy=(width * (k + 0.5) / self.n_aps, 0.0),
                stations=(station_cls(f"bg{k}"),),
            )
            for k in range(self.n_aps)
        ]
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(0xF100,))
        )
        positions = np.column_stack(
            [
                rng.uniform(0.0, width, self.n_tags),
                rng.uniform(1.0, height, self.n_tags),
            ]
        )
        self.network = network_cls(
            cells,
            positions,
            seed=seed,
            mobility=mobility_cls(
                bounds=(0.0, 1.0, width, height), seed=seed
            ),
            mobility_dt_s=0.25,
        )
        self._network_seed = seed
        self._op = 0

    def warm_up(self) -> None:
        self._next_op()

    def run(self, k: int) -> Any:
        if k + 1 != self._op:
            raise RuntimeError(
                f"input {k} needs op {k + 1}, network is at op {self._op}"
            )
        return self._next_op()

    def _next_op(self) -> Any:
        rng = np.random.default_rng(
            [self._network_seed, 0xF101, self._op]
        )
        bits = rng.integers(0, 2, size=(self.n_tags, self.bits_per_tag))
        for name, row in zip(self.network.names, bits.tolist()):
            self.network.load_bits(name, row)
        self._op += 1
        return self.network.run_rounds(2)

    def finish(self, k: int, raw: Any) -> tuple[int, Any]:
        rounds = [dataclasses.asdict(stats) for stats in raw]
        return sum(r["n_queries"] for r in rounds), rounds

    def check(self, output: Any) -> str | None:
        # Every cell runs its first round at simulated time 0, before any
        # tag moves, so together those rounds poll each tag once.
        first = sum(r["n_queries"] for r in output if r["round_index"] == 0)
        if len(output) != 2 * self.n_aps or first != self.n_tags:
            return f"{len(output)} cell rounds, first ones polled {first}"
        return None


def http_request(port: int, method: str, path: str, body: Any = None,
                 timeout_s: float = 120.0) -> tuple[int, bytes]:
    """One HTTP/1.1 exchange; the server closes after each response."""
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("latin-1")
    with socket.create_connection(("127.0.0.1", port), timeout_s) as sock:
        sock.sendall(head + payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    status_head, _, content = raw.partition(b"\r\n\r\n")
    return int(status_head.split(b" ", 2)[1]), content


class ServeJob(Workload):
    """An in-process job server and one client, POST to last SSE event.

    One client only: two concurrent ``n_workers=2`` jobs can deadlock
    the default server (see README, hazard 2).
    """

    name = "serve-job"
    cycle = 8
    scaled = True

    def setup(self) -> None:
        from repro.serve import (
            ServeConfig,
            SweepService,
            execute_request,
            job_request_from_json,
            parse_events,
            result_to_json,
        )

        self._parse_events = parse_events
        self._direct = (execute_request, job_request_from_json, result_to_json)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="serve-loop"
        )
        self._thread.start()
        self._service = SweepService(ServeConfig())
        asyncio.run_coroutine_threadsafe(
            self._service.start(), self._loop
        ).result(60.0)
        self.port = self._service.port

    def body(self, k: int) -> dict[str, Any]:
        return {
            "kind": "sweep",
            "fn": "los_ber_point",
            "fn_kwargs": {"sim_seconds": 0.05},
            "sweep": {
                "axes": {"distance_m": DISTANCES_M},
                "seed": derive(self.seed, 9, k),
            },
            "n_workers": 2,
        }

    def run(self, k: int) -> Any:
        status, content = http_request(
            self.port, "POST", "/jobs", self.body(k)
        )
        if status != 202:
            raise RuntimeError(f"POST /jobs answered {status}: {content!r}")
        job_id = json.loads(content)["id"]
        status, stream = http_request(
            self.port, "GET", f"/jobs/{job_id}/events"
        )
        if status != 200:
            raise RuntimeError(f"GET events answered {status}")
        return job_id, stream

    def finish(self, k: int, raw: Any) -> tuple[int, Any]:
        job_id, stream = raw
        events = self._parse_events(stream)
        states = [e.data.get("state") for e in events if e.event == "state"]
        if not events or events[-1].event != "done" or (
            states[-1:] != ["completed"]
        ):
            raise RuntimeError(
                f"job {job_id} stream ended {[e.event for e in events][-3:]}"
                f" in state {states[-1:]}"
            )
        status, content = http_request(
            self.port, "GET", f"/jobs/{job_id}/result"
        )
        if status != 200:
            raise RuntimeError(f"GET result answered {status}")
        result = json.loads(content)
        queries = sum(p["value"]["queries"] for p in result["points"])
        return queries, result

    def check(self, output: Any) -> str | None:
        if len(output["points"]) != len(DISTANCES_M):
            return f"served {len(output['points'])} points"
        return None

    def reference(self, k: int) -> Any:
        """The job's result from a direct ``execute_request`` call."""
        execute_request, from_json, to_json = self._direct
        return json.loads(
            json.dumps(to_json(execute_request(from_json(self.body(k)))))
        )

    def close(self) -> None:
        service = getattr(self, "_service", None)
        if service is not None:
            asyncio.run_coroutine_threadsafe(
                service.stop(), self._loop
            ).result(60.0)
        loop = getattr(self, "_loop", None)
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join(60.0)
            loop.close()


WORKLOADS = {
    cls.name: cls
    for cls in (
        Fig5Sweep,
        ContendedSession,
        CcmpContendedSession,
        Warehouse,
        ServeJob,
    )
}

#!/usr/bin/env python3
"""Farm-monitoring sensor network: many tags, one reader, FEC on messages.

The paper motivates backscatter with applications "ranging from implantable
body sensors to farm monitoring" (Section 1).  This example deploys several
moisture sensors at different distances from the reader, polls them
round-robin, and protects each reading with message-level redundancy — the
error control the paper defers to future work (Section 4.1).

Run:
    python examples/sensor_network.py
"""

import numpy as np

from repro.core import TagEncoder, TagMessage, TagReader
from repro.sim import TagPoller, los_scenario

SENSORS = {
    "field-north": 1.5,  # metres from the reader (client)
    "field-east": 3.0,
    "field-middle": 4.0,  # worst spot: reflection minimum
    "field-south": 6.5,
}


def poll_all_sensors() -> None:
    """Round-robin BER/throughput check across all sensor positions."""
    systems = {
        name: los_scenario(distance, seed=index)[0]
        for index, (name, distance) in enumerate(SENSORS.items())
    }
    poller = TagPoller(systems, dwell_s=0.2, seed=1)
    print("polling all sensors (0.2 s dwell, 2 rounds)...\n")
    results = poller.run_rounds(2)
    print(f"{'sensor':14s} {'BER':>8s} {'rate (Kbps)':>12s} {'queries':>8s}")
    for result in results:
        stats = result.stats
        print(
            f"{result.tag_name:14s} {stats.ber:8.4f} "
            f"{stats.throughput_bps / 1e3:12.1f} {stats.queries:8d}"
        )


def transfer_protected_readings() -> None:
    """Send framed readings, protected by ARQ-style retransmission.

    WiTAG's errors arrive as whole-query bursts (a deep fade of the tag's
    reflected path kills corruption for one A-MPDU at a time), so the
    effective protection is to send each CRC-framed reading twice and let
    the reader's frame scanner pick a clean copy — see
    benchmarks/test_ablation_fec.py for the measurement behind this
    choice.
    """
    encoder = TagEncoder()
    print("\ntransferring readings (ARQ: retransmit until CRC-clean)...\n")
    for name, distance in SENSORS.items():
        system, _ = los_scenario(distance, seed=500 + int(distance * 10))
        reading = f"{name}:moisture=0.{np.random.default_rng(0).integers(10, 99)}"
        message = TagMessage(payload=reading.encode())
        reader = TagReader(encoder=encoder)
        queries = 0
        delivered = False
        attempts = 0
        while not delivered and attempts < 8:
            attempts += 1
            system.load_tag_bits(encoder.encode(message.to_bits()))
            while system.tag.pending_bits and not delivered:
                result = system.run_query()
                reader.ingest(result.block_ack, result.query)
                queries += 1
                delivered = any(
                    m.payload == message.payload for m in reader.messages()
                )
        status = reading if delivered else "LOST"
        print(
            f"  {name:14s} ({distance:g} m): {status} after {queries} "
            f"queries ({attempts} attempts)"
        )


def main() -> None:
    poll_all_sensors()
    transfer_protected_readings()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Inventory wall: many tags, one reader, addressed triggers.

Extends the paper's single-tag design the way its trigger mechanism (§7)
invites: different known trigger patterns select different tags, so a
reader can inventory a shelf of battery-free tags one addressed query at
a time.  Also demonstrates what goes wrong *without* addressing — every
tag answers a broadcast query at once and their corruption collides.

Run:
    python examples/multitag_inventory.py
"""

import numpy as np

from repro.core import TagFleet
from repro.core.framing import TagMessage

#: Tag name -> distance (m) from the reader's client, on the line to its
#: AP 8 m away.
SHELF = {
    "pallet-01": 1.2,
    "pallet-02": 2.8,
    "pallet-03": 4.5,
    "pallet-04": 6.3,
}


def build_fleet() -> TagFleet:
    """The shelf as one reader cell's fleet of tags."""
    return TagFleet.build(
        [(distance, 0.0) for distance in SHELF.values()],
        names=list(SHELF),
        client_xy=(0.0, 0.0),
        ap_xy=(8.0, 0.0),
        seed=1,
    )


def inventory_round(fleet: TagFleet) -> None:
    print("addressed inventory round:\n")
    for i, name in enumerate(sorted(SHELF)):
        payload = f"{name}:count={17 + i}".encode()
        bits = TagMessage(payload=payload).to_bits()
        fleet.load_bits(name, bits + [1] * (62 - len(bits) % 62))
    for name, result in fleet.poll_round().items():
        sent = result.per_tag_sent.get(name, ())
        errors = sum(a != b for a, b in zip(sent, result.raw_bits))
        print(
            f"  {name}: {len(sent)} bits, {errors} errors, "
            f"responders={list(result.responded)}"
        )


def broadcast_collision(fleet: TagFleet) -> None:
    print("\nwhat happens without addressing (broadcast query):\n")
    rng = np.random.default_rng(600)
    for name in SHELF:
        # Each tag wants to send its own (random) data simultaneously.
        fleet.load_bits(name, [int(b) for b in rng.integers(0, 2, 62)])
    result = fleet.run_query()  # broadcast: everyone answers
    total_errors = 0
    observed = 0
    for name, sent in result.per_tag_sent.items():
        errors = sum(a != b for a, b in zip(sent, result.raw_bits))
        total_errors += errors
        observed += len(sent)
    print(
        f"  responders: {list(result.responded)}; "
        f"{total_errors}/{observed} bits garbled by collision"
    )
    print("  -> a deployment polls tags with addressed triggers instead")


def main() -> None:
    inventory_round(build_fleet())
    # A fresh shelf, so no tag still holds bits from the round above.
    broadcast_collision(build_fleet())


if __name__ == "__main__":
    main()

"""``/dev/shm`` audit helpers left from the retired ``shm`` chunk codec.

Pooled chunks return through the executor's own result pickle, and
nothing in the runner creates shared memory.  :func:`leaked_segments`
and :func:`cleanup_segment` audit ``/dev/shm`` for ``rpr-*`` entries,
the segments the retired ``shm`` codec created; ``canonbench/run.py``
imports both in every run.
"""

from __future__ import annotations

import os

__all__ = [
    "SEGMENT_PREFIX",
    "cleanup_segment",
    "leaked_segments",
]

#: Name prefix of the shared-memory segments the retired ``shm`` codec
#: created; :func:`leaked_segments` scans ``/dev/shm`` for it.
SEGMENT_PREFIX = "rpr-"

_SHM_DIR = "/dev/shm"


def cleanup_segment(name: str) -> bool:
    """Unlink the ``/dev/shm`` entry ``name`` if it exists; True if it did.

    Nothing in the runner creates segments any more.  This stays for
    ``canonbench/run.py``, which imports it in every run to remove what
    :func:`leaked_segments` reports.  Unlinking the file directly (not
    through ``multiprocessing.shared_memory``) needs no mapping, so an
    empty entry unlinks as well as a full one.
    """
    if "/" in name:
        raise ValueError(f"segment name must not contain '/': {name!r}")
    try:
        os.unlink(os.path.join(_SHM_DIR, name))
    except FileNotFoundError:
        return False
    return True


def leaked_segments(token: str | None = None) -> list[str]:
    """Names of live ``rpr-*`` segments (test/audit helper).

    Scans ``/dev/shm`` for :data:`SEGMENT_PREFIX` entries, optionally
    narrowed to names that continue with ``token`` and a dash.  Returns
    an empty list on platforms without a visible shm filesystem.
    ``canonbench/run.py`` imports this in every run; the tier-1 chaos
    tests use it to assert a pooled run leaves nothing behind.
    """
    prefix = SEGMENT_PREFIX if token is None else f"{SEGMENT_PREFIX}{token}-"
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(name for name in entries if name.startswith(prefix))

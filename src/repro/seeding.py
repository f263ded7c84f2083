"""Deterministic random-stream derivation (dependency-free substrate).

The public seeding module.  It lives at the package root, importing
nothing but ``numpy``, so that every layer (``phy``, ``mac``, ``tag``,
``core``) can route its default randomness through one audited
derivation point without creating import cycles through ``repro.sim``.

Three rules keep experiments reproducible and fork-safe:

1. every stochastic component draws from its own generator, never a
   shared or module-level one;
2. generators derive from a root seed via ``SeedSequence`` spawning, so
   streams are independent and a child depends only on the root entropy
   and its spawn key — not on sibling count, process id, or import
   order;
3. parallel work units derive per-unit substreams with
   :func:`child_sequence` / :func:`substream`, which is what makes the
   runner's results bit-identical for any worker count.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = [
    "child_sequence",
    "component_rng",
    "derived_seed",
    "named_rngs",
    "spawn_rngs",
    "substream",
]


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Create ``count`` independent generators from one seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def named_rngs(seed: int, *names: str) -> dict[str, np.random.Generator]:
    """Create independent generators keyed by component name.

    Example:
        >>> rngs = named_rngs(7, "channel", "tag", "data")
        >>> sorted(rngs)
        ['channel', 'data', 'tag']
    """
    if not names:
        raise ValueError("provide at least one stream name")
    if len(set(names)) != len(names):
        raise ValueError("stream names must be unique")
    generators = spawn_rngs(seed, len(names))
    return dict(zip(names, generators))


def child_sequence(seed: int, index: int) -> np.random.SeedSequence:
    """The ``index``-th SeedSequence child of a root seed.

    Equivalent to ``np.random.SeedSequence(seed).spawn(n)[index]`` for
    any ``n > index``: a child's stream depends only on the root entropy
    and its own spawn key, never on how many siblings were spawned.
    This is the property the parallel runner's determinism contract
    rests on — work unit ``index`` draws the same bits no matter how
    units are batched or scheduled across workers.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    return np.random.SeedSequence(seed, spawn_key=(index,))


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for work unit ``index`` of root ``seed``."""
    return np.random.default_rng(child_sequence(seed, index))


def derived_seed(seed: int, index: int) -> int:
    """A plain integer seed for work unit ``index`` of root ``seed``.

    For APIs that take ``seed: int`` (scenario builders, legacy helpers)
    rather than a Generator.  Stable across processes and worker counts.
    """
    return int(child_sequence(seed, index).generate_state(1)[0])


def component_rng(name: str, seed: int = 0) -> np.random.Generator:
    """Deterministic default stream for a named component.

    Default-constructed ``np.random.default_rng(<literal>)`` fields are
    a cross-process seeding hazard: every instance (and every forked
    worker that builds one) replays the identical stream.  Components
    that want a reproducible *default* should instead derive it here,
    keyed by the component name, so distinct components never collide
    and the derivation is auditable in one place.  Parallel code must
    still pass explicit per-unit generators (see :func:`substream`).
    """
    if not name:
        raise ValueError("component name must be non-empty")
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(0x5EED, key))
    )

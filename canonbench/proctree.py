"""Find, kill and reap every process a benchmark run started.

The run's root process marks itself a *child subreaper* (Linux
``PR_SET_CHILD_SUBREAPER``): a descendant orphaned by its parent's exit
is re-parented to the root instead of to PID 1, so the root can see it
and reap it.  Nothing here moves a process into a new session or
process group; descendants are found by walking ``/proc`` parent links.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt this process's orphaned descendants (Linux only)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, os.strerror(errno), "prctl(SUBREAPER)")


def _stat(pid: int) -> tuple[int, str] | None:
    """``(ppid, state)`` of a live or zombie process, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("latin-1")
    except OSError:
        return None
    # The command name may hold spaces or parentheses; the fields we
    # need follow the last ')'.
    fields = raw[raw.rindex(")") + 2:].split()
    return int(fields[1]), fields[0]


def _all_pids() -> list[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def children(pid: int) -> list[tuple[int, str]]:
    """``(pid, state)`` of every direct child of ``pid``, zombies too."""
    found = []
    for candidate in _all_pids():
        info = _stat(candidate)
        if info is not None and info[0] == pid:
            found.append((candidate, info[1]))
    return found


def descendants(pid: int) -> list[int]:
    """Every live or zombie descendant of ``pid`` (one /proc pass)."""
    parent_of = {}
    for candidate in _all_pids():
        info = _stat(candidate)
        if info is not None:
            parent_of[candidate] = info[0]
    out: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in parent_of.items():
            if ppid == parent:
                out.append(child)
                frontier.append(child)
    return out


def command(pid: int) -> str:
    """The command line of ``pid`` (empty for zombies or gone pids)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(
                "utf-8", "replace"
            ).strip()
    except OSError:
        return ""


def kill_tree(root: int) -> list[int]:
    """SIGKILL ``root`` and all its descendants; returns the pids hit."""
    doomed = descendants(root) + [root]
    for pid in doomed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return doomed


def reap_orphans(timeout_s: float = 10.0) -> list[tuple[int, str, str]]:
    """Kill and reap every child this (subreaper) process still has.

    Called once the run's own direct children have been waited for, so
    any child left is a descendant that outlived its parent.  Returns
    ``(pid, state, command)`` for each one found; an empty list means
    the run left nothing behind.
    """
    me = os.getpid()
    left = []
    deadline = time.monotonic() + timeout_s
    while True:
        found = children(me)
        if not found:
            return left
        for pid, state in found:
            left.append((pid, state, command(pid)))
            for victim in descendants(pid) + [pid]:
                try:
                    os.kill(victim, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for pid, _ in found:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        if time.monotonic() > deadline:
            return left


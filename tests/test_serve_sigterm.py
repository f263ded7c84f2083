"""``repro serve`` as a real process: SIGTERM is a clean shutdown.

The server runs in a new session, so its process group id is its pid
and every pool worker it forks shares that group.  SIGTERM must end
the server with status 0 and leave the group empty: no pool worker
outlives it.  A running job stops at its next chunk boundary, not at
the end of its pool round, and stays resumable.  The port comes from
the server's own banner line, which ``--port 0`` makes the only way to
find it.
"""

import contextlib
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

pytestmark = [
    pytest.mark.serve,
    pytest.mark.skipif(
        not os.path.isdir("/proc"),
        reason="lists the server's process group through /proc",
    ),
]

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: A pooled Fig. 5-style job, still running when SIGTERM lands.
POOLED_JOB = {
    "kind": "sweep",
    "fn": "los_ber_point",
    "fn_kwargs": {"sim_seconds": 2.0},
    "sweep": {"axes": {"distance_m": [1.0, 2.0, 3.0, 4.0]}, "seed": 1},
    "n_workers": 2,
}

#: Sixteen one-point chunks of about 0.2 s each on two workers: one
#: pool round of about 1.6 s.
CHUNKED_JOB = {
    "kind": "sweep",
    "fn": "los_ber_point",
    "fn_kwargs": {"sim_seconds": 0.5},
    "sweep": {
        "axes": {"distance_m": [round(0.4 * i, 1) for i in range(1, 17)]},
        "seed": 1,
        "chunk_size": 1,
    },
    "n_workers": 2,
}

BANNER = re.compile(rb"^repro serve: \S+:(\d+) ", re.MULTILINE)

#: SIGTERM to an exited server and an empty group, in seconds.
SHUTDOWN_S = 10.0


def group_members(pgid):
    """Pids of the live (non-zombie) processes in group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:  # exited while we listed
            continue
        # "pid (comm) state ppid pgrp ...": comm may hold spaces.
        state, _ppid, pgrp = stat.rsplit(b")", 1)[1].split()[:3]
        if state != b"Z" and int(pgrp) == pgid:
            members.append(int(entry))
    return members


def wait_for(predicate, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


@contextlib.contextmanager
def running_server(*extra_args):
    """A ``repro serve --port 0`` process group; yields (proc, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        fd = proc.stderr.fileno()
        seen = b""
        match = None
        deadline = time.monotonic() + 30.0
        while match is None and time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break  # the server exited before binding
            seen += chunk
            match = BANNER.search(seen)
        assert match, f"no banner in the server's stderr: {seen!r}"
        port = int(match.group(1))
        assert port, f"the banner names no bound port: {seen!r}"
        yield proc, port
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stderr.close()


@pytest.fixture
def server():
    with running_server() as running:
        yield running


def submit(port, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/jobs",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.status == 202
        return json.loads(response.read())


def assert_clean_sigterm(proc):
    """SIGTERM ``proc``: status 0 and an empty group within SHUTDOWN_S."""
    deadline = time.monotonic() + SHUTDOWN_S
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=SHUTDOWN_S) == 0
    assert wait_for(
        lambda: not group_members(proc.pid),
        max(0.0, deadline - time.monotonic()),
    ), f"left running: {group_members(proc.pid)}"


class TestSigterm:
    def test_sigterm_mid_pooled_job_exits_0_and_leaves_no_worker(
        self, server
    ):
        proc, port = server
        submit(port, POOLED_JOB)
        assert wait_for(
            lambda: set(group_members(proc.pid)) - {proc.pid}, 30.0
        ), "the pooled job never forked a worker"

        assert_clean_sigterm(proc)

    def test_sigterm_when_idle_exits_0(self, server):
        proc, _port = server
        assert_clean_sigterm(proc)

    def test_sigterm_stops_the_job_at_a_chunk_boundary(self, tmp_path):
        spill = tmp_path / "spill"
        with running_server("--spill-dir", str(spill)) as (proc, port):
            job_id = submit(port, CHUNKED_JOB)["id"]
            checkpoint = spill / f"{job_id}.ckpt.jsonl"

            def spilled():
                if not checkpoint.exists():
                    return 0
                return checkpoint.read_text().count('"kind":"chunk"')

            assert wait_for(spilled, 30.0), "no chunk was ever spilled"
            assert_clean_sigterm(proc)

        # The round stopped early: some chunks spilled, not all, and
        # the job stays resumable rather than cancelled.
        assert 1 <= spilled() < 16
        job = json.loads((spill / f"{job_id}.job.json").read_text())
        assert job["state"] == "running"

"""Reproduce hazard 2: two concurrent clients hang the default server.

Starts the serve-job workload's in-process ``SweepService(ServeConfig())``
and runs two client threads, each posting ``--jobs`` fig5-style
``n_workers=2`` jobs one after another and reading each job's events to
the end.  Prints ``done`` when every job finished; under the defect it
never does, so run it under a deadline (``test_canonbench.py`` does).
"""

from __future__ import annotations

import argparse
import json
import threading

from workload import stop_resource_tracker
from workloads import ServeJob, http_request


def client(serve: ServeJob, first: int, n_jobs: int) -> None:
    for k in range(first, first + n_jobs):
        _, content = http_request(serve.port, "POST", "/jobs", serve.body(k))
        job_id = json.loads(content)["id"]
        http_request(serve.port, "GET", f"/jobs/{job_id}/events")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=12)
    args = parser.parse_args()
    serve = ServeJob(seed=1)
    serve.setup()
    try:
        threads = [
            threading.Thread(target=client, args=(serve, c * 100, args.jobs))
            for c in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        serve.close()
        stop_resource_tracker()
    print("done", flush=True)


if __name__ == "__main__":
    main()

"""Server process of a socket workload.

Builds the workload's service and server ``--setup-repeats`` times,
timing each build from the service constructor until a probe
connection has been accepted; all but the last build are torn down
again.  It then prints one JSON line (port, setup times, shard worker
pids) and serves until a line arrives on stdin or stdin closes, while a
thread times the host speed reference (``hostspeed.py``) every 50 ms.
Once the server has stopped it times ``--setup-repeats`` more builds
the same way, so set-up is sampled at both ends of the run, and prints
them with the reference samples as a second JSON line.  With ``--spans
PATH`` it installs the tracing wrappers after set-up and writes the
spans there on exit.

Run by ``run.py``; standalone::

    python3 pipebench/server.py --workload keyed_batch --setup-repeats 1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import paths  # noqa: E402  (puts the checkout's src/ on sys.path)

import hostspeed  # noqa: E402
from workloads import LATENESS, SERVICE_BATCH_SIZE, WORKLOADS, Workload  # noqa: E402

#: Probe-acceptance polling period while timing set-up.
_ACCEPT_POLL = 0.00005


def build_service(workload: Workload):
    """The workload's :class:`AggregationService`, freshly built."""
    from repro.operators.registry import get_operator
    from repro.service.service import AggregationService
    from repro.windows.query import Query
    from repro.windows.timebased import TimeQuery

    options = {}
    if workload.mode == "time":
        queries = [TimeQuery(r, s) for r, s in workload.queries]
        options = {"lateness": LATENESS, "late_policy": "drop"}
    else:
        queries = [Query(int(r), int(s)) for r, s in workload.queries]
    if workload.transport == "process":
        options["data_plane"] = "shm"
    return AggregationService(
        queries,
        get_operator(workload.operator),
        num_shards=workload.shards,
        mode=workload.mode,
        transport=workload.transport,
        batch_size=SERVICE_BATCH_SIZE,
        **options,
    )


def start_server(workload: Workload, max_inflight_records):
    """Build, start and probe one server.

    Returns ``(thread, service, seconds)``.
    """
    from repro.net.client import AggregationClient
    from repro.net.server import AggregationServer, ServerThread

    started = time.perf_counter()
    options = {}
    if max_inflight_records is not None:
        options["max_inflight_records"] = max_inflight_records
    service = build_service(workload)
    server = AggregationServer(service, **options)
    thread = ServerThread(server).start()
    probe = AggregationClient("127.0.0.1", thread.port)
    while server.connections_total == 0:
        time.sleep(_ACCEPT_POLL)
    elapsed = time.perf_counter() - started
    probe.close()
    return thread, service, elapsed


def timed_builds(workload: Workload, builds: int, max_inflight_records):
    """Build ``builds`` servers, stopping all but the last.

    Returns ``(thread, service, build seconds)``.
    """
    setups = []
    thread = None
    for _ in range(builds):
        if thread is not None:
            thread.stop()
        thread, service, elapsed = start_server(workload, max_inflight_records)
        setups.append(elapsed)
    return thread, service, setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--setup-repeats", type=int, default=1)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--max-inflight-records", type=int, default=None)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    thread, service, setups = timed_builds(
        workload, args.setup_repeats, args.max_inflight_records
    )
    patches = recorder = None
    if args.spans is not None:
        import tracing

        recorder = tracing.SpanRecorder()
        patches = tracing.install_server(recorder)
    print(
        json.dumps(
            {
                "port": thread.port,
                "setup_s": setups,
                "worker_pids": [pid for pid in service.shard_pids() if pid],
            }
        ),
        flush=True,
    )
    sampler = hostspeed.Sampler().start()
    try:
        sys.stdin.readline()
    finally:
        sampler.stop()
        thread.stop()
        if recorder is not None:
            patches.undo()
            recorder.write(args.spans)
    thread, _, setups = timed_builds(
        workload, args.setup_repeats, args.max_inflight_records
    )
    thread.stop()
    print(
        json.dumps(
            {
                "setup_s": setups,
                "samples": sampler.samples,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

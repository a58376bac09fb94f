"""Integration tests for the event-time sharded service.

The chaos scenario the watermark checkpointing exists for: a worker is
SIGKILLed while the ingress reorder buffer still holds unreleased
records, the supervisor restarts it from its checkpoint, and the
restored shard's watermark never regresses — replayed outputs carry
stale slice watermarks, which the merger's monotone per-shard
watermark must ignore, so the final answers are still byte-identical
to a fault-free single-node run.

The kill tests are marked ``chaos`` (real processes, SIGKILL, restart
backoffs); the in-process equivalence tests live in
``tests/property/test_prop_event_time.py``.  One inline test here pins
the completeness model both service modes share: count mode is event
time with record ``i`` stamped ``float(i)``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.operators.registry import get_operator
from repro.service import AggregationService
from repro.stream.engine import EventTimeEngine
from repro.windows.query import Query
from repro.windows.timebased import TimeQuery

pytestmark = pytest.mark.timeout(120)

QUERIES = (TimeQuery(2.0, 1.0), TimeQuery(5.0, 2.0))
NUM_SHARDS = 3
LATENESS = 1.0


def _event_stream(count):
    """A bounded-disorder (key, timestamp, value) stream.

    Timestamps are strictly increasing on a 0.1s grid before the
    shuffle; the deterministic jitter stays under the lateness bound,
    so every record is releasable and the sorted oracle is exact.
    """
    records = [
        (
            f"sensor-{i % 7}",
            i / 10 + 0.011,
            (i * 37 + 5) % 203 - 101,
        )
        for i in range(count)
    ]
    return sorted(
        records, key=lambda r: r[1] + ((hash(r[0]) ^ int(r[1] * 10)) % 9) / 10
    )


def _expected(records):
    oracle = EventTimeEngine(
        list(QUERIES), get_operator("sum"), lateness=LATENESS
    )
    answers = []
    for _, timestamp, value in records:
        answers.extend(oracle.feed(timestamp, value))
    answers.extend(oracle.finish())
    return answers


def _wait_pid_dead(pid, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat", "rb") as stat:
                line = stat.read().decode("ascii", "replace")
        except (FileNotFoundError, ProcessLookupError):
            if not os.path.isdir("/proc"):
                time.sleep(0.05)
            return
        state = line.rpartition(")")[2].split()
        if state and state[0] in ("Z", "X", "x"):
            return
        time.sleep(0.005)
    raise AssertionError(
        f"pid {pid} still running {timeout}s after SIGKILL"
    )


@pytest.mark.chaos
def test_worker_kill_mid_reorder_keeps_watermark_monotone():
    """SIGKILL a worker while the reorder buffer is occupied.

    The restored worker replays from its checkpoint; its outputs echo
    a slice watermark that must never regress below what the
    supervisor had already absorbed, and the final answers must equal
    the single-node sorted oracle exactly.
    """
    records = _event_stream(600)
    expected = _expected(records)
    head, tail = records[:300], records[300:]

    service = AggregationService(
        list(QUERIES),
        get_operator("sum"),
        num_shards=NUM_SHARDS,
        mode="time",
        transport="process",
        lateness=LATENESS,
        batch_size=10,
        checkpoint_interval=2,
        restart_backoff=0.0,
        stall_timeout=10.0,
        heartbeat_interval=0.1,
    )
    answers = []
    try:
        for key, timestamp, value in head:
            service.submit_event(key, value, timestamp)
        answers.extend(service.poll())
        # Mid-reorder: the lateness bound keeps the tail of the stream
        # buffered at all times, so the buffer is provably occupied.
        stats = service.event_time_stats()
        assert stats["pending_reorder"] > 0

        watermarks_before = [
            handle.watermark for handle in service._transport.handles
        ]
        victim = service.shard_pids()[1]
        os.kill(victim, signal.SIGKILL)
        _wait_pid_dead(victim)

        for key, timestamp, value in tail:
            service.submit_event(key, value, timestamp)
            answers.extend(service.poll())
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise

    answers.extend(service.poll())

    # The worker recovered (restart budget not exhausted) ...
    assert result.stats.failed_shards == ()
    # ... its watermark only ever advanced across the crash ...
    watermarks_after = [
        handle.watermark for handle in service._transport.handles
    ]
    for before, after in zip(watermarks_before, watermarks_after):
        assert after >= before
    # ... every per-shard merge watermark is monotone by construction,
    # and the replayed outputs did not perturb the answers:
    assert answers == expected
    assert result.stats.late_records == 0


@pytest.mark.chaos
def test_repeated_kills_still_exact():
    """Two kills of different shards; answers stay byte-identical."""
    records = _event_stream(600)
    expected = _expected(records)

    service = AggregationService(
        list(QUERIES),
        get_operator("sum"),
        num_shards=NUM_SHARDS,
        mode="time",
        transport="process",
        lateness=LATENESS,
        batch_size=10,
        checkpoint_interval=2,
        restart_backoff=0.0,
        stall_timeout=10.0,
        heartbeat_interval=0.1,
    )
    answers = []
    try:
        for index, (key, timestamp, value) in enumerate(records):
            service.submit_event(key, value, timestamp)
            if index in (200, 400):
                answers.extend(service.poll())
                victim = service.shard_pids()[(index // 200) % NUM_SHARDS]
                os.kill(victim, signal.SIGKILL)
                _wait_pid_dead(victim)
        result = service.close(timeout=60.0)
    except BaseException:
        service.abort()
        raise

    answers.extend(service.poll())
    assert result.stats.failed_shards == ()
    assert answers == expected


@pytest.mark.parametrize("operator_name", ["sum", "max"])
@pytest.mark.parametrize(
    "num_shards, batch_size", [(1, 5), (3, 16), (4, 64)]
)
def test_count_mode_is_time_mode_at_timestamp_position(
    operator_name, num_shards, batch_size
):
    """A ``mode="global"`` service over ``Query(r, s)`` answers exactly
    like a ``mode="time"`` service over ``TimeQuery(r, s)`` fed the
    same records with record ``i`` stamped ``float(i)``: the count
    answer at position ``p`` is the time answer for the window ending
    at ``float(p)``.  Time mode may add answers only past the last
    record, from the slice ``close`` closes."""
    shapes = [(12, 4), (6, 2), (8, 8)]
    records = [
        (f"key-{(i * 7) % 11}", (i * 37 + 5) % 203 - 101)
        for i in range(997)
    ]

    def run(mode, queries, submit):
        service = AggregationService(
            queries,
            get_operator(operator_name),
            num_shards=num_shards,
            batch_size=batch_size,
            transport="inline",
            mode=mode,
            resolution=1.0,
        )
        for start in range(0, len(records), 50):
            submit(service, start, records[start : start + 50])
        return service.close().answers

    count_answers = run(
        "global",
        [Query(r, s) for r, s in shapes],
        lambda service, start, chunk: service.submit_many(chunk),
    )
    time_answers = run(
        "time",
        [TimeQuery(float(r), float(s)) for r, s in shapes],
        lambda service, start, chunk: service.submit_events(
            (key, float(start + offset), value)
            for offset, (key, value) in enumerate(chunk)
        ),
    )
    assert count_answers
    expected = [
        (float(position), (query.range_size, query.slide), answer)
        for position, query, answer in count_answers
    ]
    observed = [
        (end, (int(query.range_seconds), int(query.slide_seconds)), answer)
        for end, query, answer in time_answers
    ]
    assert observed[: len(expected)] == expected
    assert all(end > len(records) for end, _, _ in observed[len(expected) :])

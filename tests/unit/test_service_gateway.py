"""Unit tests for the thread-safe :class:`ServiceGateway` seam."""

from __future__ import annotations

import threading

import pytest

from repro import AggregationService, Query, get_operator
from repro.errors import ServiceError
from repro.service.gateway import ServiceGateway

QUERIES = [Query(8, 4), Query(6, 2)]


def make_gateway(**kwargs) -> ServiceGateway:
    service = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=8,
        **kwargs,
    )
    return ServiceGateway(service)


def test_submit_and_poll_pass_through():
    gateway = make_gateway()
    assert gateway.submit("a", 1) == 1
    assert gateway.submit_many([("a", 2), ("b", 3), ("a", 4)]) == 3
    gateway.submit_many([("b", v) for v in range(5, 45)])
    answers = gateway.poll()
    assert answers, "inline transport should release answers"
    result = gateway.close()
    reference = AggregationService(
        QUERIES,
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=8,
    )
    reference.submit_many(
        [("a", 1), ("a", 2), ("b", 3), ("a", 4)]
        + [("b", v) for v in range(5, 45)]
    )
    # close() reports the complete answer set; poll() saw a prefix.
    assert result.answers == reference.close().answers
    assert result.answers[: len(answers)] == answers


def test_snapshot_counts_without_closing():
    gateway = make_gateway()
    gateway.submit_many([("a", 1), ("b", 2)])
    gateway.submit("c", 3)
    snapshot = gateway.snapshot()
    assert snapshot["records_submitted"] == 3
    assert snapshot["batches_submitted"] == 2
    assert snapshot["num_shards"] == 2
    assert snapshot["mode"] == "global"
    assert snapshot["closed"] is False
    assert not gateway.closed
    gateway.close()
    assert gateway.snapshot()["closed"] is True


def test_close_is_idempotent_and_caches_the_result():
    gateway = make_gateway()
    gateway.submit_many([("a", v) for v in range(10)])
    first = gateway.close()
    second = gateway.close()
    assert first is second


def test_submit_after_close_raises():
    gateway = make_gateway()
    gateway.close()
    with pytest.raises(ServiceError, match="closed"):
        gateway.submit("a", 1)
    with pytest.raises(ServiceError, match="closed"):
        gateway.poll()


def test_abort_marks_closed_without_result():
    gateway = make_gateway()
    gateway.abort()
    assert gateway.closed
    with pytest.raises(ServiceError, match="aborted"):
        gateway.close()


def test_concurrent_submitters_interleave_batches_atomically():
    """Threads race whole batches; every record lands exactly once."""
    gateway = make_gateway()
    per_thread = 40
    threads = [
        threading.Thread(
            target=lambda name=name: gateway.submit_many(
                [(name, 1) for _ in range(per_thread)]
            ),
        )
        for name in ("a", "b", "c", "d")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    snapshot = gateway.snapshot()
    assert snapshot["records_submitted"] == 4 * per_thread
    result = gateway.close()
    assert result.stats.records_submitted == 4 * per_thread
    assert result.stats.records_processed == 4 * per_thread


def test_late_record_mid_batch_counts_the_records_taken_before_it():
    """A batch that raises at a late record still counts the records
    the service accepted ahead of it."""
    from repro.errors import LateRecordError
    from repro.windows.timebased import TimeQuery

    service = AggregationService(
        [TimeQuery(4.0, 2.0)],
        get_operator("sum"),
        num_shards=2,
        transport="inline",
        batch_size=8,
        mode="time",
        lateness=0.5,
        late_policy="raise",
    )
    gateway = ServiceGateway(service)
    with pytest.raises(LateRecordError):
        gateway.submit_events(
            [("a", 1.0, 1), ("a", 5.0, 1), ("a", 2.0, 1), ("a", 6.0, 1)]
        )
    assert gateway.snapshot()["records_submitted"] == 2
    assert gateway.close().stats.records_submitted == 2

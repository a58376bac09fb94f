"""Integration: the columnar record-list codec is wire-compatible.

The SUBMIT_BATCH / SUBMIT_EVENT_BATCH fast paths in
:mod:`repro.net.protocol` must be invisible on the wire.  Each test
runs a real client and server on localhost with the *generic* tagged
codec forced on one side — the codec peers without the fast paths
speak — and checks that the answers equal those of the fast codec on
both sides.
"""

from __future__ import annotations

import pytest

from repro import AggregationService, Query, get_operator
from repro.net import protocol, server
from repro.net.client import AggregationClient
from repro.net.protocol import FrameType
from repro.net.server import AggregationServer, ServerThread
from repro.service.gateway import ServiceGateway
from repro.stream.records import RecordColumns
from repro.windows.timebased import TimeQuery

pytestmark = pytest.mark.timeout(120)

QUERIES = [Query(16, 8), Query(12, 4)]
TIME_QUERIES = [TimeQuery(4.0, 2.0)]
KEYS = [f"sensor-{i}" for i in range(7)]


def keyed_records(count):
    # Mixed value types ride along: the fast path must hand any
    # non-int64 item to the generic codec without changing its bytes.
    records = [
        (KEYS[(i * i) % len(KEYS)], (i * 37 + 5) % 211 - 105)
        for i in range(count)
    ]
    records[7] = (KEYS[0], 2**70)
    records[11] = (KEYS[1], 2.5)
    return records


def event_records(count):
    return [
        (KEYS[i % len(KEYS)], i * 0.25 + (0.5 if i % 5 == 0 else 0.0), i)
        for i in range(count)
    ]


def generic_encode_value(value):
    out = bytearray()
    protocol._encode_into(out, value)
    return bytes(out)


@pytest.fixture(params=["fast", "generic-client", "generic-server"])
def codec(request, monkeypatch):
    """Which side, if any, speaks only the generic tagged codec."""
    if request.param == "generic-client":
        monkeypatch.setattr(protocol, "encode_value", generic_encode_value)
    elif request.param == "generic-server":
        monkeypatch.setattr(protocol, "_RECORD_ARITY", {})
    return request.param


def run_batches(make_service, submit, batches):
    with ServerThread(AggregationServer(make_service())) as thread:
        with AggregationClient("127.0.0.1", thread.port) as client:
            accepted = [submit(client, batch) for batch in batches]
            answers, final = client.drain()
    return accepted, answers, final


def count_service():
    return AggregationService(
        QUERIES, get_operator("sum"), num_shards=2, transport="inline",
        batch_size=16,
    )


def time_service():
    return AggregationService(
        TIME_QUERIES, get_operator("sum"), num_shards=2,
        transport="inline", mode="time", lateness=1.0,
    )


def test_submit_batch_answers_match_across_codecs(codec):
    records = keyed_records(300)
    batches = [records[start : start + 40] for start in range(0, 300, 40)]
    accepted, answers, _ = run_batches(
        count_service, AggregationClient.submit_batch, batches
    )
    service = count_service()
    service.submit_many(records)
    expected = service.close().answers
    assert accepted == [len(batch) for batch in batches]
    assert answers == expected


def test_submit_event_batch_answers_match_across_codecs(codec):
    records = event_records(200)
    batches = [records[start : start + 32] for start in range(0, 200, 32)]
    accepted, answers, _ = run_batches(
        time_service, AggregationClient.submit_event_batch, batches
    )
    service = time_service()
    service.submit_events(records)
    expected = service.close().answers
    assert accepted == [len(batch) for batch in batches]
    assert answers == expected


def test_wrong_arity_record_is_a_bad_request_not_a_teardown():
    with ServerThread(AggregationServer(count_service())) as thread:
        with AggregationClient("127.0.0.1", thread.port) as client:
            client.send_frame(
                FrameType.SUBMIT_BATCH, [("a", 1), ("b", 2, 3)]
            )
            reply_type, reply = client.read_reply()
            assert reply_type is FrameType.ERROR
            assert "(key, value) pair" in reply["message"]
            # The connection survives and keeps ingesting.
            assert client.submit_batch([("a", 1), ("b", 2)]) == 2


def test_decoded_batches_reach_the_router_as_columns(monkeypatch):
    """Decode happens inside the server's module-global decoder call,
    and the gateway receives the decoded columns unrebuilt."""
    decoded = []
    submitted = []
    real_decode = server.try_decode_frame_traced
    real_submit = ServiceGateway.submit_many

    def counting_decode(buffer, offset=0):
        result = real_decode(buffer, offset)
        if result is not None:
            decoded.append(result[0].frame_type)
        return result

    def recording_submit(self, records, trace_id=None):
        submitted.append(records)
        return real_submit(self, records, trace_id)

    monkeypatch.setattr(server, "try_decode_frame_traced", counting_decode)
    monkeypatch.setattr(ServiceGateway, "submit_many", recording_submit)
    records = keyed_records(50)
    with ServerThread(AggregationServer(count_service())) as thread:
        with AggregationClient("127.0.0.1", thread.port) as client:
            assert client.submit_batch(records) == 50
    assert FrameType.SUBMIT_BATCH in decoded
    [batch] = submitted
    assert type(batch) is RecordColumns
    assert batch == records

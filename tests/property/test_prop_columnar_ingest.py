"""Property tests: the columnar ingest fast paths change nothing.

* **encode** — :func:`~repro.net.protocol.encode_value` (with its
  record-list fast path) emits exactly the bytes of the generic tagged
  encoder, for record lists of every shape and for any other value;
* **decode** — those bytes decode back to the value, through the
  columnar record decoder for batch frames too;
* **scatter** — the router's one batch scatter frames exactly the
  batches a per-record reference router frames: positions, sequence
  numbers, watermarks, keys, values, value-buffer typing and traces.
"""

from __future__ import annotations

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.protocol import (
    FrameType,
    _encode_into,
    decode_records,
    decode_value,
    encode_frame,
    encode_value,
    try_decode_frame_traced,
)
from repro.service.partition import Router, shard_of
from repro.service.slices import SliceClock
from repro.stream.records import RecordColumns
from repro.windows.plan import build_shared_plan
from repro.windows.query import Query


def generic_encode(value):
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


# -- codec ----------------------------------------------------------

# NaN breaks == comparison; the codec's NaN handling has a unit test.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: int64 and the bigint fallback
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
)
nested = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
    ),
    max_leaves=6,
)
keys = st.one_of(
    st.sampled_from(["a", "b", "sensor-1", "é"]),
    st.text(max_size=6),
    scalars,
)
items = st.one_of(scalars, nested)


def rows_of(arity):
    return st.tuples(keys, *[items] * (arity - 1))


def record_lists(row_type=tuple):
    return st.lists(
        st.one_of(
            rows_of(2), rows_of(3), rows_of(1), rows_of(4), items
        ).map(lambda row: row_type(row) if type(row) is tuple else row),
        max_size=12,
    )


uniform_rows = st.sampled_from([2, 3]).flatmap(
    lambda arity: st.tuples(
        st.just(arity),
        st.sampled_from([tuple, list]).flatmap(
            lambda row_type: st.lists(
                rows_of(arity).map(row_type), min_size=1, max_size=12
            )
        ),
    )
)


@given(st.one_of(record_lists(tuple), record_lists(list), items))
def test_fast_encoder_emits_the_generic_bytes(value):
    assert encode_value(value) == generic_encode(value)


@given(st.one_of(record_lists(tuple), record_lists(list), items))
def test_record_lists_round_trip_through_both_decoders(value):
    payload = encode_value(value)
    assert decode_value(payload) == value
    for arity in (2, 3):
        assert decode_records(payload, arity) == value


@given(uniform_rows)
def test_uniform_rows_decode_column_major(case):
    arity, rows = case
    decoded = decode_records(encode_value(rows), arity)
    assert type(decoded) is RecordColumns
    assert decoded == rows
    assert list(decoded) == rows
    assert decoded.keys == [row[0] for row in rows]
    assert decoded.values == [row[-1] for row in rows]
    assert len(decoded) == len(rows)
    assert decoded[-1] == rows[-1]


@given(
    st.sampled_from([FrameType.SUBMIT_BATCH, FrameType.SUBMIT_EVENT_BATCH]),
    st.one_of(record_lists(tuple), record_lists(list), items),
    st.one_of(st.none(), st.integers(min_value=1, max_value=2**64 - 1)),
)
def test_batch_frames_round_trip(frame_type, payload, trace_id):
    frame = encode_frame(frame_type, payload, trace_id=trace_id)
    decoded, consumed = try_decode_frame_traced(frame)
    assert consumed == len(frame)
    assert decoded.payload == payload
    assert decoded.trace_id == trace_id


# -- router scatter -------------------------------------------------


class ReferenceRouter:
    """Routes one record at a time, as the router did before the scatter.

    Flush rounds come from the real :meth:`Router.flush`, which the
    scatter does not touch; everything a record does to the buffers
    is reimplemented here.
    """

    def __init__(self, router: Router):
        self.router = router

    def put(self, key, value, trace, typecode=None):
        router = self.router
        router.position += 1
        shard = shard_of(key, router.num_shards)
        router._positions[shard].append(router.position)
        router._keys[shard].append(key)
        buffer = router._values[shard]
        if typecode is not None and type(buffer) is list and not buffer:
            buffer = array(typecode)
        if type(buffer) is array and (
            type(value) is (int if buffer.typecode == "q" else float)
        ):
            try:
                buffer.append(value)
            except OverflowError:
                buffer = list(buffer) + [value]
        elif type(buffer) is array:
            buffer = list(buffer) + [value]
        else:
            buffer.append(value)
        router._values[shard] = buffer
        if trace is not None and router._traces is None:
            router._traces = [
                [None] * len(positions) for positions in router._positions
            ]
            router._traces[shard][-1] = trace
        elif router._traces is not None:
            router._traces[shard].append(trace)
        if len(router._positions[shard]) >= router.batch_size:
            return router.flush()
        return []


def _batch_state(batch):
    return (
        batch.shard,
        batch.seq,
        batch.watermark,
        type(batch.positions),
        list(batch.positions),
        batch.keys,
        type(batch.values),
        getattr(batch.values, "typecode", None),
        [(type(value), value) for value in batch.values],
        batch.traces,
    )


route_keys = st.one_of(
    st.sampled_from(["a", "b", "c", "d", "e"]), st.integers(0, 9)
)
route_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=2**63, max_value=2**65),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)
traces = st.one_of(st.none(), st.integers(min_value=1, max_value=2**63))
operations = st.one_of(
    st.tuples(
        st.just("many"),
        st.lists(st.tuples(route_keys, route_values), max_size=40),
        traces,
    ),
    st.tuples(
        st.just("columns"),
        st.lists(
            st.tuples(route_keys, route_values), min_size=1, max_size=40
        ),
        traces,
    ),
    st.tuples(
        st.just("column"),
        st.tuples(
            route_keys,
            st.one_of(
                st.lists(
                    st.integers(min_value=-(2**63), max_value=2**63 - 1),
                    max_size=30,
                ).map(lambda values: array("q", values)),
                st.lists(
                    st.floats(allow_nan=False), max_size=30
                ).map(lambda values: array("d", values)),
                st.lists(route_values, max_size=30),
            ),
        ),
        traces,
    ),
    st.tuples(st.just("one"), st.tuples(route_keys, route_values), traces),
)


@settings(max_examples=150, deadline=None)
@given(
    num_shards=st.integers(min_value=1, max_value=5),
    batch_size=st.integers(min_value=1, max_value=12),
    merged=st.booleans(),
    ops=st.lists(operations, max_size=12),
)
def test_scatter_matches_per_record_reference(
    num_shards, batch_size, merged, ops
):
    def make():
        clock = (
            SliceClock(build_shared_plan([Query(6, 2), Query(4, 3)]))
            if merged
            else None
        )
        return Router(num_shards, batch_size, clock)

    router, reference = make(), ReferenceRouter(make())
    got, expected, all_rows = [], [], []
    for kind, data, trace in ops:
        if kind == "many":
            got.extend(router.put_many(iter(data), trace))
            rows = [(key, value, None) for key, value in data]
        elif kind == "columns":
            columns = RecordColumns(
                [[key for key, _ in data], [value for _, value in data]]
            )
            got.extend(router.put_many(columns, trace))
            rows = [(key, value, None) for key, value in data]
        elif kind == "column":
            key, values = data
            got.extend(router.put_column(key, values, trace))
            typecode = getattr(values, "typecode", None)
            rows = [(key, value, typecode) for value in values]
        else:
            key, value = data
            got.extend(router.put(key, value, trace))
            rows = [(key, value, None)]
        all_rows.extend(rows)
        for key, value, typecode in rows:
            expected.extend(reference.put(key, value, trace, typecode))
        assert router.position == reference.router.position
    got.extend(router.flush())
    expected.extend(reference.router.flush())
    assert [_batch_state(b) for b in got] == [
        _batch_state(b) for b in expected
    ]
    assert router.flush_rounds == reference.router.flush_rounds
    routed = {key for key, _, _ in all_rows}
    assert router.seen_keys == [
        {key for key in routed if shard_of(key, num_shards) == shard}
        for shard in range(num_shards)
    ]

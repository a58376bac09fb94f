"""Length-prefixed binary wire protocol for the network serving layer.

One frame per request or reply.  Version 1 framing::

    0        2        3        4            8
    +--------+--------+--------+------------+----------------+
    | magic  | version| type   | length (BE)| payload ...    |
    | 2 B    | 1 B    | 1 B    | 4 B        | length bytes   |
    +--------+--------+--------+------------+----------------+

Version 2 adds a fixed trace-id field between header and payload::

    0        2        3        4            8                16
    +--------+--------+--------+------------+----------------+---------+
    | magic  | version| type   | length (BE)| trace id (BE)  | payload |
    | 2 B    | 1 B    | 1 B    | 4 B        | 8 B            | len B   |
    +--------+--------+--------+------------+----------------+---------+

Version 3 adds a fixed event-time field (big-endian f64 seconds) after
the trace id, carrying a record's event timestamp out-of-band so the
payload codec never has to disambiguate it from record values::

    0        2        3        4            8          16         24
    +--------+--------+--------+------------+----------+----------+---------+
    | magic  | version| type   | length (BE)| trace id | evt time | payload |
    | 2 B    | 1 B    | 1 B    | 4 B        | 8 B      | f64 (BE) | len B   |
    +--------+--------+--------+------------+----------+----------+---------+

``magic`` is ``b"SD"`` (SlickDeque), ``version`` is one of
:data:`SUPPORTED_VERSIONS`, ``type`` is one of :class:`FrameType`, and
the payload is one value in the tagged binary encoding of
:func:`encode_value` (None, bools, ints of any size, floats, strings,
bytes, lists, tuples, and string-or-scalar-keyed dicts).  The v2
trace id correlates a request with the work it causes downstream (see
:mod:`repro.telemetry.trace`); 0 means "no trace" and decodes as
``None``.  :func:`encode_frame` emits the *minimal* version for what
it is asked to carry — v1 when there is no trace id, v2 when there is
— so untraced traffic is byte-identical to protocol version 1 and old
peers keep interoperating; the decoder accepts both versions either
way.  Requests and replies share the framing; a request's reply is the
next reply frame on the connection, so clients may pipeline freely.

Anything the codec cannot interpret — bad magic, unsupported version,
unknown frame type or value tag, declared lengths that exceed
:data:`MAX_PAYLOAD_BYTES` or run past the payload — raises
:class:`~repro.errors.ProtocolError`.  Incomplete input is *not* an
error: the streaming :class:`FrameDecoder` simply waits for more
bytes, which is what lets the server read frames off a TCP stream
chunk by chunk.
"""

from __future__ import annotations

import enum
import struct
import sys
from typing import (
    Any,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ProtocolError
from repro.stream.records import RecordColumns

#: Frame preamble identifying this protocol on the wire.
MAGIC = b"SD"

#: Current protocol version (v2 added the optional trace-id header
#: field, v3 the event-time field).  :func:`encode_frame` still emits
#: the *minimal* version for what a frame carries — v1 bytes for plain
#: frames, v2 for traced ones — so the bump is invisible to peers that
#: never send event time.
PROTOCOL_VERSION = 2

#: Version carrying the event-time header field.
EVENT_TIME_PROTOCOL_VERSION = 3

#: The newest version *before* the trace-id field existed.
LEGACY_PROTOCOL_VERSION = 1

#: Versions this side decodes.
SUPPORTED_VERSIONS = frozenset({1, 2, 3})

#: Frame header: magic(2) + version(1) + type(1) + payload length(4).
HEADER = struct.Struct(">2sBBI")

#: v2 trace-id field, following the base header (0 = no trace).
_TRACE_FIELD = struct.Struct(">Q")

#: v3 event-time field (f64 seconds), following the trace id.
_EVENT_FIELD = struct.Struct(">d")

#: Largest trace id the 8-byte wire field can carry.
MAX_TRACE_ID = 2**64 - 1

#: Hard upper bound on a single frame's payload (16 MiB).  Guards the
#: server against a hostile or corrupt length field committing it to
#: an unbounded read.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024


class FrameType(enum.IntEnum):
    """Request (< 0x80) and reply (>= 0x80) frame types."""

    #: One keyed record: payload ``(key, value)``.
    SUBMIT = 0x01
    #: Many keyed records: payload ``[(key, value), ...]``.
    SUBMIT_BATCH = 0x02
    #: Collect answers released since the last poll: payload ``None``.
    POLL = 0x03
    #: Server + service instrumentation snapshot: payload ``None``.
    STATS = 0x04
    #: Flush the service and return every remaining answer: ``None``.
    DRAIN = 0x05
    #: End this connection (the server stays up): payload ``None``.
    CLOSE = 0x06
    #: One key's value column: payload ``(key, kind, body)`` where
    #: ``kind`` is ``"q"`` (body = packed little-endian int64s),
    #: ``"d"`` (packed float64s), or ``"o"`` (body = a list of tagged
    #: values, the fallback for non-numeric columns).  Packed columns
    #: decode server-side into a zero-copy typed view that feeds the
    #: router's single-lookup column path — no per-record tuples on
    #: the wire, no per-record decode loop on the server.
    SUBMIT_COLUMN = 0x07
    #: One event-timestamped record: payload ``(key, value)``, with
    #: the event timestamp in the v3 header field.
    SUBMIT_EVENT = 0x08
    #: Many event-timestamped records: payload
    #: ``[(key, timestamp, value), ...]`` (timestamps in-payload; the
    #: v3 header field is unused and the frame may travel as v1/v2).
    SUBMIT_EVENT_BATCH = 0x09

    #: Success without answers: payload ``{"accepted": n}``-style dict.
    OK = 0x81
    #: Answers released: payload ``[(position, (range, slide), value)]``.
    ANSWERS = 0x82
    #: Stats snapshot: payload dict (see ``docs/serving.md``).
    STATS_REPLY = 0x83
    #: Admission control shed the request; retry after backoff.
    RETRY = 0x84
    #: The request failed; payload ``{"error": ..., "message": ...}``.
    ERROR = 0x85


#: Frame types a client may send.
REQUEST_TYPES = frozenset(
    {
        FrameType.SUBMIT,
        FrameType.SUBMIT_BATCH,
        FrameType.SUBMIT_COLUMN,
        FrameType.SUBMIT_EVENT,
        FrameType.SUBMIT_EVENT_BATCH,
        FrameType.POLL,
        FrameType.STATS,
        FrameType.DRAIN,
        FrameType.CLOSE,
    }
)

#: Frame types a server may send.
REPLY_TYPES = frozenset(
    {
        FrameType.OK,
        FrameType.ANSWERS,
        FrameType.STATS_REPLY,
        FrameType.RETRY,
        FrameType.ERROR,
    }
)

# -- value codec ----------------------------------------------------
#
# One-byte tag, then a fixed- or length-prefixed body.  Collections
# nest arbitrarily.  Ints outside signed-64 fall back to a
# length-prefixed two's-complement encoding so Python's bigints round
# trip exactly.

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT64 = 0x03
_TAG_BIGINT = 0x04
_TAG_FLOAT = 0x05
_TAG_STR = 0x06
_TAG_BYTES = 0x07
_TAG_LIST = 0x08
_TAG_TUPLE = 0x09
_TAG_DICT = 0x0A

_INT64 = struct.Struct(">q")
_FLOAT64 = struct.Struct(">d")
_U32 = struct.Struct(">I")
#: Row tag, row length, key tag, key length: the 10 bytes that open
#: every ``(str key, ...)`` row of a record list.
_ROW_HEAD = struct.Struct(">BIBI")
#: Zero bytes the row decoder appends so no fixed-size read of a short
#: final row runs off the payload.
_ROW_PADDING = bytes(_ROW_HEAD.size)
_TAGGED_INT64 = struct.Struct(">Bq")
_TAGGED_FLOAT = struct.Struct(">Bd")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def encode_value(value: Any) -> bytes:
    """Encode one supported Python value to its tagged binary form.

    Supported: ``None``, ``bool``, ``int`` (any magnitude), ``float``,
    ``str``, ``bytes``, ``list``, ``tuple``, and ``dict`` (keys and
    values each themselves supported).  Anything else raises
    :class:`~repro.errors.ProtocolError` — the wire format is a closed
    set on purpose, so a server never unpickles arbitrary objects.
    """
    out = bytearray()
    if type(value) is list:
        _encode_rows(out, value)
    else:
        _encode_into(out, value)
    return bytes(out)


def _encode_rows(out: bytearray, rows: List[Any]) -> None:
    """Encode a list, fast for rows like ``(str, int)`` / ``(str, float,
    int)``.

    The bytes are exactly those of :func:`_encode_into`: row headers
    and tagged keys are built once per distinct shape and key, and
    ``str``/int64/``float`` items are packed inline; any other row or
    item takes the generic encoder.
    """
    out.append(_TAG_LIST)
    out += _U32.pack(len(rows))
    heads: dict = {}
    keys: dict = {}
    pack_int = _TAGGED_INT64.pack
    pack_float = _TAGGED_FLOAT.pack
    for row in rows:
        kind = type(row)
        if kind is not tuple and kind is not list:
            _encode_into(out, row)
            continue
        shape = (kind, len(row))
        head = heads.get(shape)
        if head is None:
            head = heads[shape] = bytes(
                [_TAG_TUPLE if kind is tuple else _TAG_LIST]
            ) + _U32.pack(len(row))
        out += head
        for item in row:
            item_type = type(item)
            if item_type is str:
                tagged = keys.get(item)
                if tagged is None:
                    tagged = keys[item] = encode_value(item)
                out += tagged
            elif item_type is int and _INT64_MIN <= item <= _INT64_MAX:
                out += pack_int(_TAG_INT64, item)
            elif item_type is float:
                out += pack_float(_TAG_FLOAT, item)
            else:
                _encode_into(out, item)


def _encode_into(out: bytearray, value: Any) -> None:
    # bool must be tested before int (bool is an int subclass).
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, bool):  # pragma: no cover - numpy bools etc.
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    elif isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            out.append(_TAG_INT64)
            out += _INT64.pack(value)
        else:
            body = value.to_bytes(
                (value.bit_length() + 8) // 8, "big", signed=True
            )
            out.append(_TAG_BIGINT)
            out += _U32.pack(len(body))
            out += body
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _FLOAT64.pack(value)
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(_TAG_STR)
        out += _U32.pack(len(body))
        out += body
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST if isinstance(value, list) else _TAG_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            _encode_into(out, key)
            _encode_into(out, item)
    else:
        raise ProtocolError(
            f"cannot encode {type(value).__name__!s} on the wire; "
            "supported types are None/bool/int/float/str/bytes/"
            "list/tuple/dict"
        )


def decode_value(payload: bytes) -> Any:
    """Decode one tagged value, requiring the payload be fully consumed.

    Trailing bytes after the value are a framing bug (the length field
    promised exactly one value) and raise
    :class:`~repro.errors.ProtocolError`, as do truncated bodies and
    unknown tags.
    """
    value, offset = _decode_at(payload, 0)
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing bytes after payload value"
        )
    return value


def decode_records(payload: bytes, arity: int) -> Any:
    """Decode a record-list payload column-major when it has the shape.

    A list of ``arity``-item rows (all tuples or all lists) decodes in
    one pass over the bytes into a :class:`~repro.stream.records.
    RecordColumns` — equal to the rows :func:`decode_value` would
    return — with ``str`` keys memoised per payload and int64/float
    items unpacked inline; any other item takes :func:`_decode_at`.
    Every other payload, and every malformed one (so the error is the
    generic decoder's own), goes through :func:`decode_value`.
    """
    try:
        columns = _decode_rows(payload + _ROW_PADDING, len(payload), arity)
    except (ProtocolError, IndexError, struct.error, UnicodeDecodeError):
        columns = None
    if columns is None:
        return decode_value(payload)
    return columns


def _decode_rows(
    padded: bytes, end: int, arity: int
) -> Optional[RecordColumns]:
    # ``padded`` is the payload plus zero bytes, so the fixed-size
    # reads below never run off a short final row; anything read past
    # ``end`` leaves ``offset != end`` and sends the payload back to
    # the generic decoder.
    if end < 10 or padded[0] != _TAG_LIST:
        return None
    count = _U32.unpack_from(padded, 1)[0]
    row_tag = padded[5]
    if not count or row_tag not in (_TAG_LIST, _TAG_TUPLE):
        return None
    columns: List[List[Any]] = [[] for _ in range(arity)]
    keys = columns[0]
    items = columns[1:]
    names: dict = {}
    head = _ROW_HEAD.unpack_from
    tagged_int = _TAGGED_INT64.unpack_from
    tagged_float = _TAGGED_FLOAT.unpack_from
    offset = 5
    for _ in range(count):
        tag, length, key_tag, size = head(padded, offset)
        if tag != row_tag or length != arity:
            return None
        if key_tag == _TAG_STR:
            start = offset + 10
            offset = start + size
            if offset > end:
                return None
            raw = padded[start:offset]
            key = names.get(raw)
            if key is None:
                key = names[raw] = raw.decode("utf-8")
        else:
            key, offset = _decode_at(padded, offset + 5)
        keys.append(key)
        for column in items:
            tag = padded[offset]
            if tag == _TAG_INT64:
                column.append(tagged_int(padded, offset)[1])
                offset += 9
            elif tag == _TAG_FLOAT:
                column.append(tagged_float(padded, offset)[1])
                offset += 9
            else:
                item, offset = _decode_at(padded, offset)
                column.append(item)
    if offset != end:
        return None
    return RecordColumns(columns, tuple if row_tag == _TAG_TUPLE else list)


def _need(payload: bytes, offset: int, count: int) -> None:
    if offset + count > len(payload):
        raise ProtocolError(
            f"truncated payload: needed {count} bytes at offset "
            f"{offset}, have {len(payload) - offset}"
        )


def _decode_at(payload: bytes, offset: int) -> Tuple[Any, int]:
    _need(payload, offset, 1)
    tag = payload[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT64:
        _need(payload, offset, 8)
        return _INT64.unpack_from(payload, offset)[0], offset + 8
    if tag == _TAG_BIGINT:
        _need(payload, offset, 4)
        size = _U32.unpack_from(payload, offset)[0]
        offset += 4
        _need(payload, offset, size)
        body = payload[offset : offset + size]
        return int.from_bytes(body, "big", signed=True), offset + size
    if tag == _TAG_FLOAT:
        _need(payload, offset, 8)
        return _FLOAT64.unpack_from(payload, offset)[0], offset + 8
    if tag in (_TAG_STR, _TAG_BYTES):
        _need(payload, offset, 4)
        size = _U32.unpack_from(payload, offset)[0]
        offset += 4
        _need(payload, offset, size)
        body = payload[offset : offset + size]
        offset += size
        if tag == _TAG_BYTES:
            return bytes(body), offset
        try:
            return body.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise ProtocolError(
                f"invalid UTF-8 in string body: {exc}"
            ) from exc
    if tag in (_TAG_LIST, _TAG_TUPLE):
        _need(payload, offset, 4)
        count = _U32.unpack_from(payload, offset)[0]
        offset += 4
        items: List[Any] = []
        for _ in range(count):
            item, offset = _decode_at(payload, offset)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), offset
    if tag == _TAG_DICT:
        _need(payload, offset, 4)
        count = _U32.unpack_from(payload, offset)[0]
        offset += 4
        mapping = {}
        for _ in range(count):
            key, offset = _decode_at(payload, offset)
            item, offset = _decode_at(payload, offset)
            try:
                mapping[key] = item
            except TypeError as exc:
                # Corruption can rewrite a key's tag into a container
                # tag; an unhashable key is a framing error, not a bug.
                raise ProtocolError(f"unhashable dict key: {exc}") from exc
        return mapping, offset
    raise ProtocolError(f"unknown value tag 0x{tag:02x}")


# -- column packing -------------------------------------------------


def pack_column(values: Sequence[Any]) -> Optional[Tuple[str, bytes]]:
    """Pack a homogeneous numeric column for ``SUBMIT_COLUMN``.

    Returns ``(kind, body)`` — ``("q", <packed int64s>)`` or
    ``("d", <packed float64s>)`` — or ``None`` when the column is not
    eligible (mixed types, bools, ints outside int64, or a big-endian
    host, where native packing would not match the little-endian wire
    layout).  Eligibility intentionally matches the shm transport's
    columnar capability check (:func:`repro.service.transport.frame.
    encode_values`), so a column that packs here also rides the shard
    rings columnar end to end.
    """
    if sys.byteorder != "little":  # pragma: no cover - LE hosts only
        return None
    from repro.service.transport.frame import encode_values

    encoded = encode_values(values)
    if encoded is None:
        return None
    body, is_float = encoded
    return ("d" if is_float else "q", body)


# -- frame codec ----------------------------------------------------

#: Frame types whose payload is a record list, by row arity; their
#: payloads decode through :func:`decode_records`.
_RECORD_ARITY = {FrameType.SUBMIT_BATCH: 2, FrameType.SUBMIT_EVENT_BATCH: 3}


class Frame(NamedTuple):
    """A decoded frame: type, payload, trace id, and event time."""

    frame_type: FrameType
    payload: Any
    trace_id: Optional[int]
    #: v3 event-time header field, ``None`` on v1/v2 frames.
    event_time: Optional[float] = None


def encode_frame(
    frame_type: FrameType,
    payload: Any = None,
    trace_id: Optional[int] = None,
    event_time: Optional[float] = None,
) -> bytes:
    """Frame one value as ``header [+ trace id [+ event time]] + payload``.

    The minimal version for the frame's content is emitted: v1 without
    a trace id — byte-identical to what this function produced before
    the trace field existed — v2 with one, and v3 only when an event
    timestamp must travel in the header.  Old peers therefore keep
    interoperating with clients that never send event-timestamped
    records.
    """
    body = encode_value(payload)
    if len(body) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload of {len(body)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    if trace_id is not None and not 1 <= trace_id <= MAX_TRACE_ID:
        raise ProtocolError(
            f"trace id {trace_id!r} outside [1, 2**64 - 1] "
            "(0 is reserved for 'no trace')"
        )
    if event_time is not None:
        return (
            HEADER.pack(
                MAGIC,
                EVENT_TIME_PROTOCOL_VERSION,
                int(frame_type),
                len(body),
            )
            + _TRACE_FIELD.pack(trace_id or 0)
            + _EVENT_FIELD.pack(event_time)
            + body
        )
    if trace_id is None:
        return (
            HEADER.pack(
                MAGIC, LEGACY_PROTOCOL_VERSION, int(frame_type),
                len(body),
            )
            + body
        )
    return (
        HEADER.pack(
            MAGIC, PROTOCOL_VERSION, int(frame_type), len(body)
        )
        + _TRACE_FIELD.pack(trace_id)
        + body
    )


def try_decode_frame_traced(
    buffer: bytes, offset: int = 0
) -> Optional[Tuple[Frame, int]]:
    """Decode one frame starting at ``offset``, if fully buffered.

    Returns ``(frame, next_offset)``, or ``None`` when the buffer
    holds only a prefix of a frame (read more bytes and try again).
    Accepts every version in :data:`SUPPORTED_VERSIONS`: v1 frames
    decode with ``trace_id=None``, as do v2 frames carrying the
    reserved trace id 0.  Malformed bytes raise
    :class:`~repro.errors.ProtocolError`.
    """
    if len(buffer) - offset < HEADER.size:
        return None
    magic, version, type_byte, length = HEADER.unpack_from(
        buffer, offset
    )
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r})"
        )
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this side speaks {sorted(SUPPORTED_VERSIONS)})"
        )
    try:
        frame_type = FrameType(type_byte)
    except ValueError as exc:
        raise ProtocolError(
            f"unknown frame type 0x{type_byte:02x}"
        ) from exc
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    start = offset + HEADER.size
    trace_id: Optional[int] = None
    event_time: Optional[float] = None
    if version >= 2:
        if len(buffer) - start < _TRACE_FIELD.size:
            return None
        raw_trace = _TRACE_FIELD.unpack_from(buffer, start)[0]
        trace_id = raw_trace or None
        start += _TRACE_FIELD.size
    if version >= 3:
        if len(buffer) - start < _EVENT_FIELD.size:
            return None
        event_time = _EVENT_FIELD.unpack_from(buffer, start)[0]
        start += _EVENT_FIELD.size
    if len(buffer) - start < length:
        return None
    body = bytes(buffer[start : start + length])
    arity = _RECORD_ARITY.get(frame_type)
    payload = (
        decode_value(body) if arity is None else decode_records(body, arity)
    )
    return (
        Frame(frame_type, payload, trace_id, event_time),
        start + length,
    )


def try_decode_frame(
    buffer: bytes, offset: int = 0
) -> Optional[Tuple[FrameType, Any, int]]:
    """Decode one frame starting at ``offset``, if fully buffered.

    Returns ``(frame_type, payload, next_offset)``, or ``None`` when
    the buffer holds only a prefix of a frame (read more bytes and try
    again).  Trace ids are decoded and discarded — call
    :func:`try_decode_frame_traced` to keep them.  Malformed bytes
    raise :class:`~repro.errors.ProtocolError`.
    """
    decoded = try_decode_frame_traced(buffer, offset)
    if decoded is None:
        return None
    frame, next_offset = decoded
    return frame.frame_type, frame.payload, next_offset


class FrameDecoder:
    """Incremental frame decoder over a byte stream.

    Feed it whatever chunks the transport hands you; iterate
    :meth:`frames` for every complete frame.  Partial frames stay
    buffered across calls.  A malformed frame raises
    :class:`~repro.errors.ProtocolError` and poisons the decoder —
    after a framing error the stream offset is unknowable, so the
    connection must be torn down rather than resynchronised.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> None:
        """Append raw bytes received from the transport."""
        if self._poisoned:
            raise ProtocolError(
                "decoder previously hit a framing error; the stream "
                "offset is unknown and the connection must be closed"
            )
        self._buffer += data

    def frames(self) -> Iterator[Tuple[FrameType, Any]]:
        """Yield ``(frame_type, payload)`` for each buffered frame."""
        for frame in self.frames_traced():
            yield frame.frame_type, frame.payload

    def frames_traced(self) -> Iterator[Frame]:
        """Yield a :class:`Frame` (with trace id) per buffered frame."""
        offset = 0
        try:
            while True:
                decoded = try_decode_frame_traced(self._buffer, offset)
                if decoded is None:
                    break
                frame, offset = decoded
                yield frame
        except ProtocolError:
            self._poisoned = True
            raise
        finally:
            if offset:
                del self._buffer[:offset]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet consumed by a complete frame."""
        return len(self._buffer)


# -- answer marshalling ---------------------------------------------
#
# Global-mode answers are (position, Query, value) triples; Query does
# not travel on the wire, its (range, slide, name) does.


def encode_answers(answers) -> List[Tuple[Any, ...]]:
    """Marshal engine/service answers into wire-friendly tuples.

    Each ``(position, query, value)`` triple becomes ``(position,
    (range_size, slide, name), value)``; per-key four-tuples keep the
    leading key.  Time-query answers marshal the query as the tagged
    4-tuple ``("time", range_seconds, slide_seconds, name)`` — count
    specs stay 3-tuples, so pre-v3 answer bytes are unchanged.
    """
    marshalled = []
    for answer in answers:
        *prefix, query, value = answer
        if hasattr(query, "range_seconds"):
            spec: Tuple[Any, ...] = (
                "time",
                query.range_seconds,
                query.slide_seconds,
                query.name,
            )
        else:
            spec = (query.range_size, query.slide, query.name)
        marshalled.append((*prefix, spec, value))
    return marshalled


def decode_answers(rows) -> List[Tuple[Any, ...]]:
    """Rebuild :class:`~repro.windows.query.Query` (or
    :class:`~repro.windows.timebased.TimeQuery`) objects client-side."""
    from repro.windows.query import Query
    from repro.windows.timebased import TimeQuery

    rebuilt = []
    for row in rows:
        *prefix, spec, value = row
        if (
            isinstance(spec, (list, tuple))
            and len(spec) == 4
            and spec[0] == "time"
        ):
            _, range_seconds, slide_seconds, name = spec
            rebuilt.append(
                (
                    *prefix,
                    TimeQuery(range_seconds, slide_seconds, name=name),
                    value,
                )
            )
            continue
        try:
            range_size, slide, name = spec
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed query spec in answer row: {spec!r}"
            ) from exc
        rebuilt.append(
            (*prefix, Query(range_size, slide, name=name), value)
        )
    return rebuilt

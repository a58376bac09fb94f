"""Unit tests for the wire-protocol frame and value codec."""

from __future__ import annotations

import math

import pytest

from repro.errors import ProtocolError
from repro.net.protocol import (
    EVENT_TIME_PROTOCOL_VERSION,
    HEADER,
    LEGACY_PROTOCOL_VERSION,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MAX_TRACE_ID,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    FrameDecoder,
    FrameType,
    decode_answers,
    decode_value,
    encode_answers,
    encode_frame,
    encode_value,
    try_decode_frame,
    try_decode_frame_traced,
)
from repro.windows.query import Query


class TestValueCodec:
    """encode_value / decode_value round trips and rejections."""

    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**63 - 1,
            -(2**63),
            2**63,  # bigint fallback
            -(2**200),
            10**50,
            0.0,
            -2.5,
            1e300,
            "",
            "héllo wörld",
            "☃" * 100,
            b"",
            b"\x00\xff" * 10,
            [],
            [1, 2, 3],
            (),
            ("a", 1),
            {},
            {"k": [1, (2, None)], 5: b"x", None: True},
            [[[("deep",)]]],
        ],
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_round_trip_preserves_types(self):
        assert isinstance(decode_value(encode_value((1, 2))), tuple)
        assert isinstance(decode_value(encode_value([1, 2])), list)
        assert isinstance(decode_value(encode_value(True)), bool)
        assert isinstance(decode_value(encode_value(1)), int)
        assert isinstance(decode_value(encode_value(1.0)), float)

    def test_nan_and_infinities_round_trip(self):
        assert decode_value(encode_value(math.inf)) == math.inf
        assert decode_value(encode_value(-math.inf)) == -math.inf
        assert math.isnan(decode_value(encode_value(math.nan)))

    def test_unsupported_type_is_rejected(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_value(object())
        with pytest.raises(ProtocolError):
            encode_value({1, 2, 3})

    def test_unknown_tag_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown value tag"):
            decode_value(b"\x7f")

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(ProtocolError, match="trailing"):
            decode_value(encode_value(1) + b"\x00")

    def test_truncated_bodies_are_rejected(self):
        for value in (12345, "hello", b"bytes", [1, 2, 3], 2**100):
            encoded = encode_value(value)
            for cut in range(1, len(encoded)):
                with pytest.raises(ProtocolError):
                    decode_value(encoded[:cut])

    def test_invalid_utf8_in_string_body_is_rejected(self):
        encoded = bytearray(encode_value("ab"))
        encoded[-1] = 0xFF  # break the UTF-8 body
        with pytest.raises(ProtocolError, match="UTF-8"):
            decode_value(bytes(encoded))


class TestFrameCodec:
    """Framing: header validation, length limits, streaming decode."""

    def test_round_trip_every_frame_type(self):
        for frame_type in FrameType:
            frame = encode_frame(frame_type, {"n": 1})
            decoded = try_decode_frame(frame)
            assert decoded == (frame_type, {"n": 1}, len(frame))

    def test_incomplete_frames_return_none(self):
        frame = encode_frame(FrameType.SUBMIT, ("key", 42))
        for cut in range(len(frame)):
            assert try_decode_frame(frame[:cut]) is None

    def test_bad_magic_is_rejected(self):
        frame = bytearray(encode_frame(FrameType.POLL))
        frame[0] = ord("X")
        with pytest.raises(ProtocolError, match="magic"):
            try_decode_frame(bytes(frame))

    def test_unsupported_version_is_rejected(self):
        frame = bytearray(encode_frame(FrameType.POLL))
        frame[2] = max(SUPPORTED_VERSIONS) + 1
        with pytest.raises(ProtocolError, match="version"):
            try_decode_frame(bytes(frame))

    def test_unknown_frame_type_is_rejected(self):
        frame = bytearray(encode_frame(FrameType.POLL))
        frame[3] = 0x7F
        with pytest.raises(ProtocolError, match="frame type"):
            try_decode_frame(bytes(frame))

    def test_oversized_declared_length_is_rejected(self):
        header = HEADER.pack(
            MAGIC, PROTOCOL_VERSION, int(FrameType.POLL),
            MAX_PAYLOAD_BYTES + 1,
        )
        with pytest.raises(ProtocolError, match="frame limit"):
            try_decode_frame(header)

    def test_decoder_streams_split_frames(self):
        frames = [
            encode_frame(FrameType.SUBMIT, ("k", 1)),
            encode_frame(FrameType.POLL),
            encode_frame(FrameType.SUBMIT_BATCH, [("k", 2)]),
        ]
        stream = b"".join(frames)
        decoder = FrameDecoder()
        seen = []
        # Feed one byte at a time: worst-case fragmentation.
        for index in range(len(stream)):
            decoder.feed(stream[index : index + 1])
            seen.extend(decoder.frames())
        assert seen == [
            (FrameType.SUBMIT, ("k", 1)),
            (FrameType.POLL, None),
            (FrameType.SUBMIT_BATCH, [("k", 2)]),
        ]
        assert decoder.pending_bytes == 0

    def test_decoder_poisons_after_framing_error(self):
        decoder = FrameDecoder()
        decoder.feed(b"XX" + b"\x00" * 10)
        with pytest.raises(ProtocolError):
            list(decoder.frames())
        with pytest.raises(ProtocolError, match="must be closed"):
            decoder.feed(b"more")

    def test_multiple_frames_in_one_buffer(self):
        buffer = encode_frame(FrameType.POLL) + encode_frame(
            FrameType.STATS
        )
        first = try_decode_frame(buffer)
        assert first[0] is FrameType.POLL
        second = try_decode_frame(buffer, first[2])
        assert second[0] is FrameType.STATS
        assert second[2] == len(buffer)


class TestRecordBatchBodies:
    """Malformed batch bodies fail exactly as on the generic decoder."""

    ROWS = [("alpha", 1), ("beta", -2), ("alpha", 3)]

    def _frame(self, body: bytes) -> bytes:
        return (
            HEADER.pack(
                MAGIC, LEGACY_PROTOCOL_VERSION,
                int(FrameType.SUBMIT_BATCH), len(body),
            )
            + body
        )

    def test_well_formed_body_decodes_to_columns(self):
        _, payload, _ = try_decode_frame(
            encode_frame(FrameType.SUBMIT_BATCH, self.ROWS)
        )
        assert payload == self.ROWS
        assert payload.keys == ["alpha", "beta", "alpha"]
        assert payload.values == [1, -2, 3]
        assert payload.keys[0] is payload.keys[2]  # one str per key

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda body: body[:-3], "truncated"),
            (lambda body: body + b"\x00", "trailing"),
            (
                lambda body: body.replace(b"beta", b"b\xffta"),
                "UTF-8",
            ),
        ],
        ids=["truncated", "trailing", "bad-utf8"],
    )
    def test_malformed_body_raises_protocol_error(self, mangle, message):
        body = mangle(encode_value(self.ROWS))
        with pytest.raises(ProtocolError, match=message):
            try_decode_frame(self._frame(body))


class TestTracedFrames:
    """The v2 trace-id field: minimal-version emission, back-compat."""

    def test_version_constants_are_consistent(self):
        assert PROTOCOL_VERSION == 2
        assert LEGACY_PROTOCOL_VERSION == 1
        assert EVENT_TIME_PROTOCOL_VERSION == 3
        assert SUPPORTED_VERSIONS == frozenset({1, 2, 3})

    def test_untraced_frame_is_byte_identical_v1(self):
        frame = encode_frame(FrameType.POLL, None)
        assert frame[2] == LEGACY_PROTOCOL_VERSION
        assert len(frame) == HEADER.size + len(encode_value(None))

    def test_traced_round_trip(self):
        trace = 0x1234_5678_9ABC_DEF0
        frame = encode_frame(FrameType.SUBMIT, ("k", 1), trace_id=trace)
        assert frame[2] == PROTOCOL_VERSION
        decoded, consumed = try_decode_frame_traced(frame)
        assert consumed == len(frame)
        assert decoded.frame_type is FrameType.SUBMIT
        assert decoded.payload == ("k", 1)
        assert decoded.trace_id == trace

    def test_traced_frame_is_header_plus_eight_bytes_larger(self):
        untraced = encode_frame(FrameType.POLL, None)
        traced = encode_frame(FrameType.POLL, None, trace_id=1)
        assert len(traced) == len(untraced) + 8

    def test_v1_frame_decodes_with_no_trace(self):
        frame = encode_frame(FrameType.STATS, None)
        decoded, consumed = try_decode_frame_traced(frame)
        assert consumed == len(frame)
        assert decoded.trace_id is None

    def test_zero_trace_field_on_the_wire_decodes_as_none(self):
        """A v2 peer may send an explicit 'no trace' zero field."""
        body = encode_value(None)
        frame = (
            HEADER.pack(
                MAGIC, PROTOCOL_VERSION, int(FrameType.POLL), len(body)
            )
            + (0).to_bytes(8, "big")
            + body
        )
        decoded, consumed = try_decode_frame_traced(frame)
        assert consumed == len(frame)
        assert decoded.trace_id is None

    def test_trace_id_bounds_are_enforced_at_encode_time(self):
        encode_frame(FrameType.POLL, None, trace_id=1)
        encode_frame(FrameType.POLL, None, trace_id=MAX_TRACE_ID)
        for bad in (0, -1, MAX_TRACE_ID + 1):
            with pytest.raises(ProtocolError, match="trace id"):
                encode_frame(FrameType.POLL, None, trace_id=bad)

    def test_truncated_v2_header_waits_for_more_bytes(self):
        frame = encode_frame(FrameType.SUBMIT, ("k", 1), trace_id=7)
        for cut in range(len(frame)):
            assert try_decode_frame_traced(frame[:cut]) is None

    def test_legacy_api_discards_the_trace(self):
        frame = encode_frame(FrameType.SUBMIT, ("k", 1), trace_id=7)
        assert try_decode_frame(frame) == (
            FrameType.SUBMIT, ("k", 1), len(frame),
        )

    def test_decoder_streams_mixed_version_frames(self):
        frames = [
            encode_frame(FrameType.SUBMIT, ("a", 1)),
            encode_frame(FrameType.SUBMIT, ("b", 2), trace_id=42),
            encode_frame(FrameType.POLL, None),
        ]
        blob = b"".join(frames)
        decoder = FrameDecoder()
        collected = []
        for cut in range(0, len(blob), 3):
            decoder.feed(blob[cut : cut + 3])
            collected.extend(decoder.frames_traced())
        assert [frame.trace_id for frame in collected] == [None, 42, None]
        assert [frame.payload for frame in collected] == [
            ("a", 1), ("b", 2), None,
        ]

    def test_oversized_traced_length_is_rejected(self):
        header = HEADER.pack(
            MAGIC, PROTOCOL_VERSION, int(FrameType.POLL),
            MAX_PAYLOAD_BYTES + 1,
        )
        with pytest.raises(ProtocolError, match="frame limit"):
            try_decode_frame_traced(header + (1).to_bytes(8, "big"))


class TestAnswerMarshalling:
    """Queries travel as (range, slide, name) specs, not objects."""

    def test_global_answers_round_trip(self):
        answers = [
            (4, Query(8, 4), 10),
            (8, Query(8, 4, name="custom"), -3),
        ]
        rows = encode_answers(answers)
        assert decode_answers(rows) == answers
        # The marshalled form itself must be wire-encodable.
        assert decode_value(encode_value(rows)) == rows

    def test_per_key_answers_keep_their_key(self):
        answers = [("sensor-1", 4, Query(6, 2), 7.5)]
        assert decode_answers(encode_answers(answers)) == answers

    def test_malformed_query_spec_is_rejected(self):
        with pytest.raises(ProtocolError, match="query spec"):
            decode_answers([(4, "not-a-spec", 10)])

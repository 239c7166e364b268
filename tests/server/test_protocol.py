"""Unit tests for the wire format."""

from functools import partial

import pytest

from repro.server import protocol as P
from repro.server.client import _Client
from repro.server.protocol import ProtocolError

#: The client's hello-reply decoder.
_answered = _Client(0, None)._answered


class TestFraming:
    def test_roundtrip(self):
        payload = b"hello frame"
        frame = P.encode_frame(payload)
        length = P.frame_length(frame[:4])
        assert length == len(payload)
        assert P.decode_frame(length, frame[4:]) == payload

    def test_empty_payload(self):
        frame = P.encode_frame(b"")
        assert P.decode_frame(P.frame_length(frame[:4]), frame[4:]) == b""

    def test_corrupt_payload_detected(self):
        frame = bytearray(P.encode_frame(b"some payload bytes"))
        frame[6] ^= 0xFF
        with pytest.raises(ProtocolError, match="checksum"):
            P.decode_frame(P.frame_length(bytes(frame[:4])), bytes(frame[4:]))

    def test_corrupt_crc_detected(self):
        frame = bytearray(P.encode_frame(b"other payload"))
        frame[-1] ^= 0x01
        with pytest.raises(ProtocolError, match="checksum"):
            P.decode_frame(P.frame_length(bytes(frame[:4])), bytes(frame[4:]))

    def test_truncated_frame(self):
        frame = P.encode_frame(b"payload")
        with pytest.raises(ProtocolError, match="truncated"):
            P.decode_frame(P.frame_length(frame[:4]), frame[4:-2])

    def test_oversized_frame_refused(self):
        header = P.encode_frame(b"x" * 100)[:4]
        with pytest.raises(ProtocolError, match="exceeds"):
            P.frame_length(header, limit=10)

    def test_iter_frames_splits_concatenation(self):
        blob = b"".join(P.encode_frame(p) for p in [b"a", b"bb", b"", b"ccc"])
        assert list(P.iter_frames(blob)) == [b"a", b"bb", b"", b"ccc"]


class TestLengthPrefixed:
    def test_roundtrip(self):
        buf = P.encode_lp(b"abc") + P.encode_lp(b"") + P.encode_lp(b"x" * 300)
        first, pos = P.decode_lp(buf)
        second, pos = P.decode_lp(buf, pos)
        third, pos = P.decode_lp(buf, pos)
        assert (first, second, third) == (b"abc", b"", b"x" * 300)
        assert pos == len(buf)

    def test_overrun_detected(self):
        with pytest.raises(ProtocolError, match="overruns"):
            P.decode_lp(P.encode_lp(b"abcdef")[:-2])


class TestRequestResponse:
    def test_request_roundtrip(self):
        frame = P.encode_request(P.OP_GET, 42, b"body")
        payload = next(P.iter_frames(frame))
        request = P.decode_request(payload)
        assert request.opcode == P.OP_GET
        assert request.request_id == 42
        assert request.body == b"body"
        assert request.opcode_name == "GET"

    def test_response_roundtrip(self):
        frame = P.encode_response(P.ST_STALLED, 7, b"\x19")
        response = P.decode_response(next(P.iter_frames(frame)))
        assert response.status == P.ST_STALLED
        assert response.request_id == 7
        assert not response.ok
        assert response.status_name == "STALLED"

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ProtocolError, match="opcode"):
            P.encode_request(0x7F, 1)
        with pytest.raises(ProtocolError, match="opcode"):
            P.decode_request(bytes([0x7F, 0x01]))

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError, match="status"):
            P.decode_response(bytes([0x7F, 0x01]))

    def test_empty_payload_rejected(self):
        with pytest.raises(ProtocolError, match="empty"):
            P.decode_request(b"")

    def test_large_request_ids_survive(self):
        frame = P.encode_request(P.OP_PING, 2**53, b"")
        assert P.decode_request(next(P.iter_frames(frame))).request_id == 2**53


class TestBodies:
    def test_batch_roundtrip(self):
        ops = [("put", b"k1", b"v1"), ("delete", b"k2"), ("put", b"k3", b"")]
        assert P.decode_batch_body(P.encode_batch_body(ops)) == ops

    def test_batch_empty(self):
        assert P.decode_batch_body(P.encode_batch_body([])) == []

    def test_batch_bad_op_kind(self):
        with pytest.raises(ProtocolError, match="unknown batch op"):
            P.encode_batch_body([("merge", b"k", b"v")])

    def test_batch_trailing_garbage(self):
        body = P.encode_batch_body([("delete", b"k")]) + b"junk"
        with pytest.raises(ProtocolError, match="trailing"):
            P.decode_batch_body(body)

    @pytest.mark.parametrize(
        "start,end,limit,reverse",
        [
            (None, None, 0, False),
            (b"a", None, 10, False),
            (None, b"z", 0, True),
            (b"a", b"z", 123456, True),
        ],
    )
    def test_scan_body_roundtrip(self, start, end, limit, reverse):
        body = P.encode_scan_body(start, end, limit, reverse)
        assert P.decode_scan_body(body) == (start, end, limit, reverse)

    def test_scan_result_roundtrip(self):
        pairs = [(b"a", b"1"), (b"b", b""), (b"c" * 100, b"3" * 1000)]
        body = P.encode_scan_result(pairs, truncated=True)
        assert P.decode_scan_result(body) == (pairs, True)
        body = P.encode_scan_result([], truncated=False)
        assert P.decode_scan_result(body) == ([], False)

    @pytest.mark.parametrize(
        "decode,body",
        [
            (P.decode_batch_body, b""),
            (P.decode_batch_body, b"\xff"),
            (P.decode_scan_body, b"\x00"),
            (P.decode_scan_body, b"\x00\xff"),
            (P.decode_scan_result, b"\x00"),
            (P.decode_scan_result, b"\x01\x80"),
        ],
    )
    def test_truncated_varint_is_a_protocol_error(self, decode, body):
        with pytest.raises(ProtocolError, match="truncated varint"):
            decode(body)


class TestTraceContext:
    """Protocol 2.1: optional trace-context varints behind TRACE_FLAG."""

    def test_traced_request_roundtrip(self):
        frame = P.encode_request(
            P.OP_PUT, 9, b"body", trace_id=0xABCDEF, span_id=77
        )
        request = P.decode_request(next(P.iter_frames(frame)))
        assert request.opcode == P.OP_PUT
        assert request.opcode_name == "PUT"
        assert request.body == b"body"
        assert (request.trace_id, request.span_id) == (0xABCDEF, 77)

    def test_untraced_request_has_none_context(self):
        frame = P.encode_request(P.OP_PUT, 9, b"body")
        request = P.decode_request(next(P.iter_frames(frame)))
        assert request.trace_id is None and request.span_id is None
        # No TRACE_FLAG → no extra varints on the wire.
        assert len(frame) < len(
            P.encode_request(P.OP_PUT, 9, b"body", trace_id=1, span_id=1)
        )

    def test_trace_id_without_span_id_defaults_zero(self):
        frame = P.encode_request(P.OP_GET, 1, b"k", trace_id=5)
        request = P.decode_request(next(P.iter_frames(frame)))
        assert (request.trace_id, request.span_id) == (5, 0)

    def test_truncated_trace_context_rejected(self):
        # TRACE_FLAG set but the varints are missing entirely.
        payload = bytes([P.OP_PING | P.TRACE_FLAG, 0x01, 0x80])
        with pytest.raises(ProtocolError, match="trace context"):
            P.decode_request(payload)

    def test_flagged_unknown_opcode_still_rejected(self):
        with pytest.raises(ProtocolError, match="opcode"):
            P.decode_request(bytes([0x7F | P.TRACE_FLAG, 0x01, 0x00, 0x00]))

    def test_no_opcode_uses_the_flag_bit(self):
        assert all(op & P.TRACE_FLAG == 0 for op in P.OPCODE_NAMES)


class TestMetricsTraceOpcodes:
    def test_opcodes_registered(self):
        assert P.OPCODE_NAMES[P.OP_METRICS] == "METRICS"
        assert P.OPCODE_NAMES[P.OP_TRACE] == "TRACE"
        assert P.OP_METRICS not in P.WRITE_OPCODES
        assert P.OP_TRACE not in P.WRITE_OPCODES

    def test_metrics_body_roundtrip(self):
        for fmt in (P.METRICS_FMT_JSON, P.METRICS_FMT_PROMETHEUS):
            body = P.encode_body(P.METRICS, fmt)
            assert P.decode_body(P.METRICS, body) == (fmt,)

    def test_metrics_body_bad_format_rejected(self):
        import socket

        from repro.db import DB
        from repro.devices import MemStorage
        from repro.lsm import Options
        from repro.server.server import ServerThread

        # The table holds the shape: exactly one format byte.
        with pytest.raises(ProtocolError, match="malformed"):
            P.decode_body(P.METRICS, b"")
        with pytest.raises(ProtocolError, match="trailing"):
            P.decode_body(P.METRICS, b"\x00\x00")
        # The server's dispatch holds the value: an unknown format is a
        # BAD_REQUEST, and an empty body asks for JSON.
        with ServerThread(DB(MemStorage(), Options())) as handle:
            sock = socket.create_connection((handle.host, handle.port), 5.0)
            frames = P.FrameReader()
            try:
                for rid, body in ((1, b"\x09"), (2, b"")):
                    sock.sendall(P.encode_request(P.OP_METRICS, rid, body))
                bad = P.decode_response(frames.read_frame(sock))
                empty = P.decode_response(frames.read_frame(sock))
            finally:
                sock.close()
        assert bad.status == P.ST_BAD_REQUEST
        assert b"unknown metrics format 9" in bad.body
        assert empty.ok and P.decode_lp(empty.body)[0].startswith(b"{")


# ------------------------------------------------------- wire golden
# Every cold-path body as the hand-written encoders that the layout
# table replaced wrote it: (hex, encode, decode, decoded values).
def _hello(hexed, ack_level):
    encode = partial(P.encode_hello_body, ack_level=ack_level)
    return hexed, encode, P.decode_hello_body, (3, 0, ack_level)


def _hello_ack():
    return P.HELLO_MAGIC + P.encode_body(P.HELLO_ACK, 3, 0, P.HELLO_ACK_MARKER)


def _ship(hexed, kind, *fields):
    encode = partial(P.encode_ship, kind, *fields)
    return hexed, encode, P.decode_ship_body, (kind, *fields)


def _row(hexed, layout, *values):
    encode = partial(P.encode_body, layout, *values)
    return hexed, encode, partial(P.decode_body, layout), values


GOLDEN = {
    "hello": _hello("00524550524f030000", None),
    "hello_acks_0": _hello("00524550524f03000101", 0),
    "hello_acks_majority": _hello("00524550524f03000100", -1),
    "hello_ack": ("00524550524f030001", _hello_ack, _answered, (3, 0)),
    "subscribe": _row(
        "d209070a666f6c6c6f7765722d39", P.SUBSCRIBE, 1234, 7, b"follower-9"
    ),
    "subscribe_ack": _row("0207e707", P.SUBSCRIBE_ACK, P.SUB_MODE_SNAPSHOT, 7, 999),
    "ship_records": _ship(
        "0103087265636f72642d6100026262",
        P.SHIP_RECORDS,
        [b"record-a", b"", b"bb"],
    ),
    "ship_snap_begin": _ship("023703", P.SHIP_SNAP_BEGIN, 55, 3),
    "ship_snap_file": _ship(
        "03020a3030303030352e73737480200461616100047a7a7a01",
        P.SHIP_SNAP_FILE, 2, "000005.sst", 4096, b"aaa\x00", b"zzz\x01",
    ),
    "ship_snap_chunk": _ship("0406000164617461", P.SHIP_SNAP_CHUNK, b"\x00\x01data"),
    "ship_snap_end": _ship("05ac02", P.SHIP_SNAP_END, 300),
    "ship_goodbye": _ship(
        "060d7368757474696e6720646f776e", P.SHIP_GOODBYE, "shutting down"
    ),
    "ship_heartbeat": _ship("07808080808020", P.SHIP_HEARTBEAT, 2**40),
    "repl_ack": _row("808080808020", P.REPL_ACK, 2**40),
    "promote": _row("05", P.PROMOTE, 5),
    "promote_ack": _row("06", P.PROMOTE_ACK, 6),
    "metrics_json": _row("00", P.METRICS, P.METRICS_FMT_JSON),
    "metrics_prom": _row("01", P.METRICS, P.METRICS_FMT_PROMETHEUS),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wire_golden(name):
    hexed, encode, decode, values = GOLDEN[name]
    assert encode().hex() == hexed
    assert decode(bytes.fromhex(hexed)) == values


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_strict_prefix_of_a_golden_body_is_rejected(name):
    hexed, _, decode, _ = GOLDEN[name]
    body = bytes.fromhex(hexed)
    for n in range(len(body)):
        if decode is P.decode_hello_body and n < len(P.HELLO_MAGIC):
            assert decode(body[:n]) is None  # echo data, not a hello
            continue
        # pytest.raises lets any other exception type through: it fails.
        with pytest.raises(P.ProtocolError):
            decode(body[:n])

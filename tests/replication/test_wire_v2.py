"""Protocol v2 codecs and version negotiation."""

import pytest

from repro.server import protocol as P
from repro.server.client import _Client

#: The client's hello-reply decoder.
_answered = _Client(0, None)._answered


# ------------------------------------------------------------- codecs
def test_hello_roundtrip():
    body = P.encode_hello_body()
    assert P.decode_hello_body(body) == (P.PROTOCOL_MAJOR, P.PROTOCOL_MINOR, None)


@pytest.mark.parametrize("ack_level", [0, 1, 3, -1])
def test_hello_ack_level_roundtrip(ack_level):
    major, minor, acks = P.decode_hello_body(
        P.encode_hello_body(ack_level=ack_level)
    )
    assert (major, minor, acks) == (P.PROTOCOL_MAJOR, P.PROTOCOL_MINOR, ack_level)


def test_hello_without_magic_is_not_a_hello():
    assert P.decode_hello_body(b"") is None
    assert P.decode_hello_body(b"just a ping payload") is None


def test_hello_ack_roundtrip_and_echo_detection():
    reply = P.HELLO_MAGIC + P.encode_body(
        P.HELLO_ACK, P.PROTOCOL_MAJOR, P.PROTOCOL_MINOR, P.HELLO_ACK_MARKER
    )
    assert _answered(reply) == (P.PROTOCOL_MAJOR, P.PROTOCOL_MINOR)
    # An echo of the hello body is not a reply: it lacks the marker.
    with pytest.raises(P.ProtocolError):
        _answered(P.encode_hello_body())


def test_subscribe_roundtrip():
    body = P.encode_body(P.SUBSCRIBE, 1234, 7, b"follower-9")
    assert P.decode_body(P.SUBSCRIBE, body) == (1234, 7, b"follower-9")
    ack = P.encode_body(P.SUBSCRIBE_ACK, P.SUB_MODE_SNAPSHOT, 7, 999)
    assert P.decode_body(P.SUBSCRIBE_ACK, ack) == (P.SUB_MODE_SNAPSHOT, 7, 999)


def test_ship_records_roundtrip():
    records = [b"record-a", b"record-bb", b""]
    kind, decoded = P.decode_ship_body(P.encode_ship(P.SHIP_RECORDS, records))
    assert kind == P.SHIP_RECORDS
    assert decoded == records


def test_ship_snapshot_message_roundtrips():
    begin = P.decode_ship_body(P.encode_ship(P.SHIP_SNAP_BEGIN, 55, 3))
    assert begin == (P.SHIP_SNAP_BEGIN, 55, 3)
    file_msg = P.decode_ship_body(
        P.encode_ship(
            P.SHIP_SNAP_FILE, 2, "000005.sst", 4096, b"aaa\x00", b"zzz\x01"
        )
    )
    assert file_msg == (
        P.SHIP_SNAP_FILE, 2, "000005.sst", 4096, b"aaa\x00", b"zzz\x01",
    )
    chunk = P.decode_ship_body(P.encode_ship(P.SHIP_SNAP_CHUNK, b"\x00\x01data"))
    assert chunk == (P.SHIP_SNAP_CHUNK, b"\x00\x01data")
    end = P.decode_ship_body(P.encode_ship(P.SHIP_SNAP_END, 55))
    assert end == (P.SHIP_SNAP_END, 55)
    goodbye = P.decode_ship_body(P.encode_ship(P.SHIP_GOODBYE, "shutting down"))
    assert goodbye == (P.SHIP_GOODBYE, "shutting down")


def test_repl_ack_roundtrip():
    body = P.encode_body(P.REPL_ACK, 2**40)
    assert P.decode_body(P.REPL_ACK, body) == (2**40,)


def test_ship_body_rejects_unknown_kind():
    with pytest.raises(P.ProtocolError):
        P.decode_ship_body(bytes([99]))


# One well-formed body of each ship kind, written out byte by byte.
_RAW_SHIP = {
    "records": b"\x01\x01\x01r",
    "snap_begin": b"\x02\x37\x03",
    "snap_file": b"\x03\x02\x05a.sst\x80\x20\x01a\x01z",
    "snap_chunk": b"\x04\x02ab",
    "snap_end": b"\x05\x09",
    "goodbye": b"\x06\x03bye",
    "heartbeat": b"\x07\x09",
}


@pytest.mark.parametrize("name", sorted(_RAW_SHIP))
def test_ship_body_rejects_trailing_bytes(name):
    body = _RAW_SHIP[name]
    assert P.decode_ship_body(body)[0] == body[0]
    with pytest.raises(P.ProtocolError):
        P.decode_ship_body(body + b"junk")


def test_hello_without_has_acks_byte_is_malformed():
    with pytest.raises(P.ProtocolError):
        P.decode_hello_body(P.HELLO_MAGIC + b"\x03\x00")


def test_v2_server_rejects_future_major(tmp_path):
    from repro.db import DB
    from repro.devices import OSStorage
    from repro.lsm import Options
    from repro.server.client import ClientError, SyncClient
    from repro.server.server import ServerThread

    db = DB(OSStorage(str(tmp_path)), Options())
    with ServerThread(db) as handle:
        client = SyncClient(handle.host, handle.port)
        try:
            with pytest.raises(ClientError, match="unsupported protocol"):
                client.ping(P.encode_hello_body(major=99))
            # The connection survives the rejection.
            assert client.hello() == (P.PROTOCOL_MAJOR, P.PROTOCOL_MINOR)
        finally:
            client.close()

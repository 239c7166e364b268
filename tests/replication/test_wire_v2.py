"""Protocol v2 codecs and version negotiation."""

import pytest

from repro.server import protocol as P


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
    assert P.decode_hello_ack(P.encode_hello_ack()) == (
        P.PROTOCOL_MAJOR,
        P.PROTOCOL_MINOR,
    )
    # An echo of the hello body is not a reply: it lacks the marker.
    with pytest.raises(P.ProtocolError):
        P.decode_hello_ack(P.encode_hello_body())


def test_subscribe_roundtrip():
    body = P.encode_subscribe_body(1234, 7, b"follower-9")
    assert P.decode_subscribe_body(body) == (1234, 7, b"follower-9")
    ack = P.encode_subscribe_ack(P.SUB_MODE_SNAPSHOT, 7, 999)
    assert P.decode_subscribe_ack(ack) == (P.SUB_MODE_SNAPSHOT, 7, 999)


def test_ship_records_roundtrip():
    records = [b"record-a", b"record-bb", b""]
    kind, decoded = P.decode_ship_body(P.encode_ship_records(records))
    assert kind == P.SHIP_RECORDS
    assert decoded == records


def test_ship_snapshot_message_roundtrips():
    begin = P.decode_ship_body(P.encode_ship_snap_begin(55, 3))
    assert begin == (P.SHIP_SNAP_BEGIN, 55, 3)
    file_msg = P.decode_ship_body(
        P.encode_ship_snap_file(2, "000005.sst", 4096, b"aaa\x00", b"zzz\x01")
    )
    assert file_msg == (
        P.SHIP_SNAP_FILE, 2, "000005.sst", 4096, b"aaa\x00", b"zzz\x01",
    )
    chunk = P.decode_ship_body(P.encode_ship_snap_chunk(b"\x00\x01data"))
    assert chunk == (P.SHIP_SNAP_CHUNK, b"\x00\x01data")
    end = P.decode_ship_body(P.encode_ship_snap_end(55))
    assert end == (P.SHIP_SNAP_END, 55)
    goodbye = P.decode_ship_body(P.encode_ship_goodbye("shutting down"))
    assert goodbye == (P.SHIP_GOODBYE, "shutting down")


def test_repl_ack_roundtrip():
    assert P.decode_repl_ack_body(P.encode_repl_ack_body(2**40)) == 2**40


def test_ship_body_rejects_unknown_kind():
    with pytest.raises(P.ProtocolError):
        P.decode_ship_body(bytes([99]))


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

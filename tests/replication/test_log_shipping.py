"""Primary/follower log shipping over the loopback wire.

The acceptance scenario: a 1-primary/2-follower cluster sustains
writes at ack=1, keeps flowing when one follower is killed, and the
restarted follower catches back up — via the in-memory ring, the
retained-WAL bridge, or a full SST snapshot, whichever its lag
demands.  Fencing is checked both at the hub and over the raw wire.
"""

import socket
import time

import pytest

from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options
from repro.replication import FencedError, Follower, ReplicationHub
from repro.server import protocol as P
from repro.server.client import SyncClient
from repro.server.server import ServerConfig, ServerThread

from tests.helpers import small_options


def _wait(predicate, timeout=10.0, interval=0.01, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


def _start_follower(handle, follower_id, db=None):
    if db is None:
        db = DB(MemStorage(), Options())
    storage = db.storage

    def factory():
        return DB(storage, Options())

    follower = Follower(
        db, storage, factory, handle.host, handle.port, follower_id,
        retry_interval_s=0.05,
    )
    return follower.start()


def test_one_primary_two_followers_end_to_end():
    primary = DB(MemStorage(), Options(wal_retain_bytes=8 * 1024 * 1024))
    hub = ReplicationHub(primary)
    config = ServerConfig(repl_acks=1, repl_ack_timeout_s=5.0)
    followers = []
    with ServerThread(
        primary, config, own_db=False, hub=hub
    ) as handle:
        a = _start_follower(handle, "follower-a")
        b = _start_follower(handle, "follower-b")
        followers += [a, b]
        try:
            _wait(lambda: hub.n_followers == 2, what="both followers")

            # Phase 1: writes flow at ack=1 and reach both followers.
            client = SyncClient(handle.host, handle.port)
            assert client.hello() == (P.PROTOCOL_MAJOR, P.PROTOCOL_MINOR)
            for i in range(100):
                client.put(f"key{i:04d}".encode(), f"val{i}".encode())
            target = primary.last_sequence
            _wait(
                lambda: a.db.last_sequence >= target
                and b.db.last_sequence >= target,
                what="both followers caught up",
            )
            assert a.db.get(b"key0000") == b"val0"
            assert b.db.get(b"key0099") == b"val99"
            status = hub.followers_status()
            assert {s["id"] for s in status} == {
                "follower-a", "follower-b",
            }

            # Phase 2: kill one follower; ack=1 writes keep flowing
            # (the survivor's ack satisfies the barrier) and the dead
            # subscriber is reaped when the next push hits its socket.
            b.stop()
            for i in range(100, 150):
                client.put(f"key{i:04d}".encode(), f"val{i}".encode())
            assert primary.get(b"key0149") == b"val149"
            _wait(lambda: hub.n_followers == 1, what="dead follower reaped")
            target = primary.last_sequence
            _wait(
                lambda: a.db.last_sequence >= target,
                what="survivor caught up",
            )

            # Phase 3: the restarted follower bridges the records it
            # missed — zero lost acked writes.
            b2 = _start_follower(handle, "follower-b", db=b.db)
            followers.append(b2)
            _wait(lambda: hub.n_followers == 2, what="follower-b rejoined")
            _wait(
                lambda: b2.db.last_sequence >= target,
                what="rejoined follower caught up",
            )
            for i in range(150):
                assert b2.db.get(f"key{i:04d}".encode()) == (
                    f"val{i}".encode()
                ), f"acked write key{i:04d} lost across follower restart"

            client.close()
        finally:
            pass

    # Server shut down while followers were tailing: each live tail
    # receives a clean GOODBYE instead of a dropped socket.
    _wait(
        lambda: a.goodbyes >= 1 and followers[-1].goodbyes >= 1,
        timeout=5.0, what="clean goodbyes",
    )
    assert a.last_error is None
    for follower in followers:
        follower.stop()
        follower.db.close()
    primary.close()


def test_fresh_follower_catches_up_via_snapshot():
    # Writes land *before* the hub exists, so neither the ring nor any
    # retained WAL covers them: the join must stream a snapshot.
    primary = DB(MemStorage(), small_options())
    for i in range(300):
        primary.put(f"snap{i:04d}".encode(), b"v" * 40)
    primary.flush()
    hub = ReplicationHub(primary)
    with ServerThread(primary, own_db=False, hub=hub) as handle:
        empty_db = DB(MemStorage(), Options())
        follower = _start_follower(handle, "late-joiner", db=empty_db)
        try:
            _wait(
                lambda: follower.db.last_sequence >= primary.last_sequence,
                what="snapshot install",
            )
            # Snapshot install reopens the store: the serving DB was
            # swapped out, proving the SST-streaming path ran.
            assert follower.db is not empty_db
            assert follower.db.get(b"snap0000") == b"v" * 40
            assert follower.db.get(b"snap0299") == b"v" * 40

            # The stream continues live after the snapshot.
            primary.put(b"post-snap", b"live")
            _wait(
                lambda: follower.db.get(b"post-snap") == b"live",
                what="live tail after snapshot",
            )
        finally:
            follower.stop()
            follower.db.close()
    primary.close()


def test_fresh_follower_bridges_via_retained_wal():
    # A tiny ring forgets the early records, but retention keeps the
    # retired WAL files: the join replays them instead of snapshotting.
    primary = DB(
        MemStorage(), small_options(wal_retain_bytes=8 * 1024 * 1024)
    )
    hub = ReplicationHub(primary, buffer_bytes=2048)
    for i in range(300):
        primary.put(f"wal{i:04d}".encode(), b"v" * 40)
    primary.flush()  # retention ceiling reaches the present
    assert primary.wal_retention.file_names()
    with ServerThread(primary, own_db=False, hub=hub) as handle:
        empty_db = DB(MemStorage(), Options())
        follower = _start_follower(handle, "bridger", db=empty_db)
        try:
            _wait(
                lambda: follower.db.last_sequence >= primary.last_sequence,
                what="retained-WAL bridge",
            )
            # No snapshot was needed: same DB object, mode stayed WAL.
            assert follower.db is empty_db
            assert follower.mode == "wal"
            for i in range(0, 300, 37):
                assert follower.db.get(f"wal{i:04d}".encode()) == b"v" * 40
        finally:
            follower.stop()
            follower.db.close()
    primary.close()


def test_ack_majority_resolution():
    primary = DB(MemStorage(), Options())
    hub = ReplicationHub(primary)
    try:
        # majority of (followers + primary): 0 followers → 0 acks
        # needed, 1 → 1, 2 → 1, 3 → 2, 4 → 2.
        assert hub.resolve_need(-1) == 0
        assert hub.resolve_need(0) == 0
        assert hub.resolve_need(2) == 2
        for n in (1, 2, 3, 4):
            hub.subscribe(f"f{n}", primary.last_sequence + 1, 0)
            expected = (n + 1) // 2
            assert hub.resolve_need(-1) == expected, f"{n} followers"
    finally:
        hub.detach()
        primary.close()


def test_unacked_write_stalls_at_ack1():
    primary = DB(MemStorage(), Options())
    hub = ReplicationHub(primary)
    config = ServerConfig(repl_acks=1, repl_ack_timeout_s=0.2)
    with ServerThread(primary, config, own_db=False, hub=hub) as handle:
        client = SyncClient(handle.host, handle.port, max_retries=1)
        from repro.server.client import ServerBusyError

        with pytest.raises(ServerBusyError):
            client.put(b"k", b"v")  # no follower will ever ack
        # The write itself is locally durable; only the ack barrier
        # failed — retrying once a follower joins is idempotent.
        assert primary.get(b"k") == b"v"
        client.close()
    primary.close()


def test_hub_fences_stale_primary():
    primary = DB(MemStorage(), Options())
    hub = ReplicationHub(primary)
    try:
        with pytest.raises(FencedError, match="superseded"):
            hub.subscribe("f1", 1, follower_epoch=primary.repl_epoch + 1)
    finally:
        hub.detach()
        primary.close()


def test_wire_subscribe_fenced_status():
    primary = DB(MemStorage(), Options())
    hub = ReplicationHub(primary)
    with ServerThread(primary, own_db=False, hub=hub) as handle:
        sock = socket.create_connection((handle.host, handle.port), 5.0)
        try:
            sock.sendall(
                P.encode_request(
                    P.OP_REPL_SUBSCRIBE,
                    7,
                    P.encode_subscribe_body(1, 99, b"usurper"),
                )
            )
            header = _recv_exact(sock, 4)
            length = P.frame_length(header)
            payload = P.decode_frame(length, _recv_exact(sock, length + 4))
            response = P.decode_response(payload)
            assert response.status == P.ST_FENCED
            assert response.request_id == 7
        finally:
            sock.close()
    primary.close()


def _recv_exact(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise AssertionError("connection closed early")
        buf += chunk
    return buf


def test_stop_wakes_a_follower_blocked_on_a_silent_primary():
    """A promotion stops the follower inside its request, so stop() must
    not wait out the follower's socket receive timeout: a primary that
    accepted the connection and never answers must not delay it."""
    listener = socket.create_server(("127.0.0.1", 0))
    db = DB(MemStorage(), Options())
    follower = Follower(
        db, db.storage, lambda: db, "127.0.0.1", listener.getsockname()[1],
        "silent-primary", retry_interval_s=0.05,
    ).start()
    conn = None
    try:
        listener.settimeout(10)
        conn, _ = listener.accept()
        conn.settimeout(10)
        assert conn.recv(1)  # the hello arrived; the follower now waits
        time.sleep(0.05)
        t0 = time.monotonic()
        follower.stop()
        assert time.monotonic() - t0 < 0.25
    finally:
        follower.stop()
        if conn is not None:
            conn.close()
        listener.close()
        db.close()

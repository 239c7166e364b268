"""One op script, three ways to send it: the op set is written once.

The same put/get/delete/batch/scan/stats/compact/flush/ping/hello
sequence runs through :class:`SyncClient`, :class:`AsyncClient` and —
for the ops it queues — :class:`SyncPipeline`, against one server.
Each must return the same results and put the same request
frames on the wire, byte for byte the frames pinned below.
"""

import asyncio

import pytest

from repro.db import DB
from repro.devices import MemStorage
from repro.server import AsyncClient, ServerThread, SyncClient
from repro.server import protocol as P

# (op, args, request frame as hex with request ids 1, 2, ... in order)
SCRIPT = [
    ("ping", (b"x",), "03000000010178645d5899"),
    ("put", (b"k1", b"v1"), "080000000302026b310276313964ac18"),
    ("get", (b"k1",), "050000000203026b31e0ded97d"),
    ("get", (b"missing",), "0a0000000204076d697373696e670ca6762c"),
    ("delete", (b"k1",), "050000000405026b31378b3232"),
    (
        "batch",
        ([("put", b"a", b"1"), ("put", b"b", b"2"), ("delete", b"a")],),
        "1000000005060300016101310001620132010161ae4fae79",
    ),
    ("scan", (b"a", b"z", 10), "080000000607030161017a0a5ebf1d05"),
    ("stats", (), "0200000007085eeb96ba"),
    ("compact", (), "02000000080990cc2ae3"),
    ("flush", (), "020000000c0a4b065d0c"),
    ("hello", (), "0b000000010b00524550524f03000042a42456"),
]
PIPELINED = 5  # the pipeline queues ping/put/get/delete: the first five

EXPECTED = [
    b"x",
    None,
    b"v1",
    None,
    None,
    3,
    ([(b"b", b"2")], False),
    "stats",
    int,
    None,
    (P.PROTOCOL_MAJOR, P.PROTOCOL_MINOR),
]


class _Tap:
    """Records every frame written through a socket or stream writer."""

    def __init__(self, real, sent: list) -> None:
        self._real = real
        self._sent = sent

    def sendall(self, data) -> None:
        self._sent.append(bytes(data))
        self._real.sendall(data)

    def write(self, data) -> None:
        self._sent.append(bytes(data))
        self._real.write(data)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _check(results) -> None:
    for (op, _, _), got, want in zip(SCRIPT, results, EXPECTED):
        if want == "stats":
            assert {"server", "db", "engine"} <= set(got), op
        elif want is int:
            assert isinstance(got, int), op
        else:
            assert got == want, op


@pytest.fixture(scope="module")
def handle():
    with ServerThread(DB(MemStorage())) as handle:
        yield handle


def test_sync_client(handle):
    sent = []
    with SyncClient(handle.host, handle.port) as client:
        client._sock = _Tap(client._sock, sent)
        results = [getattr(client, op)(*args) for op, args, _ in SCRIPT]
    _check(results)
    assert [frame.hex() for frame in sent] == [hex_ for _, _, hex_ in SCRIPT]


def test_async_client(handle):
    async def run():
        sent = []
        reader, writer = await asyncio.open_connection(handle.host, handle.port)
        async with AsyncClient(reader, _Tap(writer, sent)) as client:
            results = [await getattr(client, op)(*args) for op, args, _ in SCRIPT]
        return sent, results

    sent, results = asyncio.run(run())
    _check(results)
    assert [frame.hex() for frame in sent] == [hex_ for _, _, hex_ in SCRIPT]


def test_sync_pipeline(handle):
    sent = []
    with SyncClient(handle.host, handle.port) as client:
        client._sock = _Tap(client._sock, sent)
        with client.pipeline() as pipe:
            for op, args, _ in SCRIPT[:PIPELINED]:
                getattr(pipe, op)(*args)
    assert pipe.results == EXPECTED[:PIPELINED]
    # One write for the whole pipeline.
    assert [frame.hex() for frame in sent] == [
        "".join(hex_ for _, _, hex_ in SCRIPT[:PIPELINED])
    ]

"""Networked KV service over the LSM engine.

This package turns the embedded :class:`repro.db.DB` into a TCP
service so the paper's headline effect — pipelined compaction
shortening the write pauses clients observe — can be measured
end-to-end across a socket, the way Pome (arXiv:2307.16693) and the
compaction-design-space survey (arXiv:2202.04522) evaluate policies.

Modules
=======

``protocol``  length-prefixed, CRC-32C-framed binary wire format
``server``    asyncio TCP server with thread-pool dispatch, bounded
              per-connection pipelining, and explicit ``STALLED``
              backpressure when the engine's L0 backs up; it counts
              requests, bytes and latency per opcode in its
              ``metrics`` registry, read over the wire by STATS
``client``    blocking and asyncio clients with pipelining and
              bounded stall retry
``retry``     client resilience policy: jittered-backoff retries and
              per-endpoint circuit breakers

Quick start
===========

>>> from repro.db import DB
>>> from repro.devices import MemStorage
>>> from repro.server import ServerThread, SyncClient
>>> handle = ServerThread(DB(MemStorage(), background=True)).start()
>>> with SyncClient(handle.host, handle.port) as client:
...     client.put(b"hello", b"world")
...     client.get(b"hello")
b'world'
>>> handle.stop()
"""

from .client import (
    AsyncClient,
    ClientError,
    ProtocolError,
    ServerBusyError,
    ServerError,
    SyncClient,
)
from .retry import CircuitBreaker, CircuitOpenError, RetryPolicy
from .server import KVServer, ServerConfig, ServerThread, serve_forever

__all__ = [
    "AsyncClient",
    "CircuitBreaker",
    "CircuitOpenError",
    "ClientError",
    "KVServer",
    "ProtocolError",
    "RetryPolicy",
    "ServerBusyError",
    "ServerConfig",
    "ServerError",
    "ServerThread",
    "SyncClient",
    "serve_forever",
]

"""Wire format of the networked KV service.

The protocol is a length-prefixed binary framing that reuses the
engine's own primitives — :mod:`repro.codec` varints for
length-prefixed strings and the LevelDB-masked CRC-32 (IEEE, zlib's —
the engine's default block checksum) for frame integrity — so a server
frame is checked exactly like an SSTable block:

.. code-block:: none

    +-----------------+------------------------+------------------+
    | fixed32 length  |  payload (length bytes)|  fixed32 masked  |
    | (little endian) |                        |  CRC-32(payload) |
    +-----------------+------------------------+------------------+

Up to protocol 2.2 the trailer was the pure-Python CRC-32C, which cost
more per request than the engine did; major 3 is that one change, so a
major-2 peer fails at the first frame with "frame checksum mismatch"
instead of negotiating.

Request payload::

    opcode:u8  request_id:varint64  body

A request may carry *trace context*: when its opcode byte has
:data:`TRACE_FLAG` set (the high bit — no real opcode uses it), two
extra varints follow before the body::

    opcode|0x80:u8  request_id:varint64  trace_id:varint64
    span_id:varint64  body

Clients set the flag only once the server has answered their hello; the
server accepts both shapes on every connection.  The ids let the server
stamp its dispatch/DB/replication spans with the client's trace id
(:func:`repro.obs.trace_context`), so one merged Chrome trace links the
request across processes.

Response payload::

    status:u8  request_id:varint64  body

``request_id`` is assigned by the client and echoed back verbatim;
responses on one connection are written in request order (Redis-style
pipelining), the id exists so clients can *assert* the pairing.

Bodies use ``lp`` (length-prefixed) byte strings: varint32 length then
the raw bytes.  The hot-path bodies (GET/PUT, BATCH, SCAN) have their
own codecs; every other body is a row of the layout table below.  Both
are documented in ``docs/SERVER.md``.

The ``STALLED`` status is how the server surfaces the engine's write
pauses (paper §I): instead of silently blocking inside
``DB._maybe_stall`` while L0 is backed up, the server refuses the
write with a suggested retry delay so the *client* observes the
compaction pause explicitly and can back off.
"""

from __future__ import annotations

import struct
import time
from typing import Iterator, Optional
from zlib import crc32

from ..codec.checksum import mask_crc
from ..codec.varint import (
    decode_varint64,
    encode_varint32,
    encode_varint64,
    get_fixed32,
    put_fixed32,
)

__all__ = [
    "OP_PING",
    "OP_GET",
    "OP_PUT",
    "OP_DELETE",
    "OP_BATCH",
    "OP_SCAN",
    "OP_STATS",
    "OP_COMPACT",
    "OP_REPL_SUBSCRIBE",
    "OP_REPL_SHIP",
    "OP_REPL_ACK",
    "OP_FLUSH",
    "OP_METRICS",
    "OP_TRACE",
    "OP_PROMOTE",
    "TRACE_FLAG",
    "METRICS_FMT_JSON",
    "METRICS_FMT_PROMETHEUS",
    "OPCODE_NAMES",
    "WRITE_OPCODES",
    "ST_OK",
    "ST_NOT_FOUND",
    "ST_STALLED",
    "ST_BAD_REQUEST",
    "ST_SERVER_ERROR",
    "ST_SHUTTING_DOWN",
    "ST_FENCED",
    "STATUS_NAMES",
    "PROTOCOL_MAJOR",
    "PROTOCOL_MINOR",
    "HELLO_MAGIC",
    "SUB_MODE_WAL",
    "SUB_MODE_SNAPSHOT",
    "SHIP_RECORDS",
    "SHIP_SNAP_BEGIN",
    "SHIP_SNAP_FILE",
    "SHIP_SNAP_CHUNK",
    "SHIP_SNAP_END",
    "SHIP_GOODBYE",
    "SHIP_HEARTBEAT",
    "FRAME_OVERHEAD",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "Request",
    "Response",
    "encode_frame",
    "decode_frame",
    "frame_length",
    "FrameReader",
    "read_frame",
    "encode_lp",
    "decode_lp",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "encode_batch_body",
    "decode_batch_body",
    "write_request_keys",
    "encode_scan_body",
    "decode_scan_body",
    "encode_scan_result",
    "decode_scan_result",
    "encode_body",
    "decode_body",
    "HELLO",
    "HELLO_ACK",
    "HELLO_ACK_MARKER",
    "SUBSCRIBE",
    "SUBSCRIBE_ACK",
    "REPL_ACK",
    "SHIP",
    "METRICS",
    "PROMOTE",
    "PROMOTE_ACK",
    "encode_hello_body",
    "decode_hello_body",
    "encode_ship",
    "decode_ship_body",
]

# ------------------------------------------------------------- opcodes
OP_PING = 0x01
OP_GET = 0x02
OP_PUT = 0x03
OP_DELETE = 0x04
OP_BATCH = 0x05
OP_SCAN = 0x06
OP_STATS = 0x07
OP_COMPACT = 0x08
OP_REPL_SUBSCRIBE = 0x09
OP_REPL_SHIP = 0x0A
OP_REPL_ACK = 0x0B
OP_FLUSH = 0x0C
OP_METRICS = 0x0D
OP_TRACE = 0x0E
OP_PROMOTE = 0x0F

#: High bit of the request opcode byte: set when the request head
#: carries trace-context varints before the body.
TRACE_FLAG = 0x80

OPCODE_NAMES = {
    OP_PING: "PING",
    OP_GET: "GET",
    OP_PUT: "PUT",
    OP_DELETE: "DELETE",
    OP_BATCH: "BATCH",
    OP_SCAN: "SCAN",
    OP_STATS: "STATS",
    OP_COMPACT: "COMPACT",
    OP_REPL_SUBSCRIBE: "REPL_SUBSCRIBE",
    OP_REPL_SHIP: "REPL_SHIP",
    OP_REPL_ACK: "REPL_ACK",
    OP_FLUSH: "FLUSH",
    OP_METRICS: "METRICS",
    OP_TRACE: "TRACE",
    OP_PROMOTE: "PROMOTE",
}

#: Opcodes that mutate the tree and are therefore subject to the
#: write-stall backpressure check.
WRITE_OPCODES = frozenset({OP_PUT, OP_DELETE, OP_BATCH})

# ------------------------------------------------------------ statuses
ST_OK = 0x00
ST_NOT_FOUND = 0x01
ST_STALLED = 0x02
ST_BAD_REQUEST = 0x03
ST_SERVER_ERROR = 0x04
ST_SHUTTING_DOWN = 0x05
ST_FENCED = 0x06

STATUS_NAMES = {
    ST_OK: "OK",
    ST_NOT_FOUND: "NOT_FOUND",
    ST_STALLED: "STALLED",
    ST_BAD_REQUEST: "BAD_REQUEST",
    ST_SERVER_ERROR: "SERVER_ERROR",
    ST_SHUTTING_DOWN: "SHUTTING_DOWN",
    ST_FENCED: "FENCED",
}

# ------------------------------------------------- protocol versioning
#: The PING hello reports each side's version; a server rejects a hello
#: whose *major* it does not know.  A peer that answers the hello at all
#: speaks 3.0 (see above) and has every feature — trace context,
#: METRICS/TRACE, PROMOTE, heartbeats on the replication stream.
PROTOCOL_MAJOR = 3
PROTOCOL_MINOR = 0

#: A PING body opening with this magic is a version hello rather than
#: opaque echo data.  The leading NUL keeps it out of the plausible
#: space of hand-typed echo payloads.
HELLO_MAGIC = b"\x00REPRO"

# ------------------------------------------------- replication consts
#: Subscribe-ack modes: the primary either tails its WAL from the
#: requested sequence or forces a full snapshot first.
SUB_MODE_WAL = 1
SUB_MODE_SNAPSHOT = 2

#: Ship-message kinds (first byte of a REPL_SHIP body).
SHIP_RECORDS = 1
SHIP_SNAP_BEGIN = 2
SHIP_SNAP_FILE = 3
SHIP_SNAP_CHUNK = 4
SHIP_SNAP_END = 5
SHIP_GOODBYE = 6
SHIP_HEARTBEAT = 7

#: Bytes around the payload: 4-byte length prefix + 4-byte CRC trailer.
FRAME_OVERHEAD = 8

#: Default refusal threshold for a single frame (requests *and*
#: responses); a peer that announces more is treated as corrupt.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Starting size of a :class:`FrameReader`'s buffer.
_RECV_BYTES = 64 * 1024

_BATCH_PUT = 0
_BATCH_DELETE = 1

_SCAN_HAS_START = 0x01
_SCAN_HAS_END = 0x02
_SCAN_REVERSE = 0x04


class ProtocolError(ValueError):
    """Malformed frame: bad length, bad checksum, or bad payload."""


# ------------------------------------------------------------- framing
def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` with the length prefix and masked CRC-32 trailer."""
    return b"".join(
        (
            put_fixed32(len(payload)),
            payload,
            put_fixed32(mask_crc(crc32(payload))),
        )
    )


def frame_length(header: bytes, limit: int = MAX_FRAME_BYTES) -> int:
    """Payload length announced by a 4-byte frame header."""
    if len(header) != 4:
        raise ProtocolError(f"short frame header: {len(header)} bytes")
    return _admitted(get_fixed32(header, 0), limit)


def decode_frame(length: int, rest: bytes) -> bytes:
    """Verify payload + CRC trailer (``rest``); returns the payload."""
    if len(rest) != length + 4:
        raise ProtocolError(
            f"truncated frame: expected {length + 4} bytes, got {len(rest)}"
        )
    return _verified(rest[:length], get_fixed32(rest, length))


def _admitted(length: int, limit: int) -> int:
    if length > limit:
        raise ProtocolError(f"frame of {length} bytes exceeds limit {limit}")
    return length


def _verified(payload, masked_crc: int):
    if mask_crc(crc32(payload)) != masked_crc:
        raise ProtocolError("frame checksum mismatch")
    return payload


class FrameReader:
    """Frames off one blocking socket, received into one buffer.

    The buffer lives as long as the connection and ``recv_into`` fills
    it, so a read allocates only the payload it returns, and frames that
    arrive together come out of one receive.  The sync client and the
    replication follower read this way; :func:`read_frame` is the
    asyncio counterpart.
    """

    __slots__ = ("limit", "buf", "_view", "_start", "_end")

    def __init__(self, limit: int = MAX_FRAME_BYTES) -> None:
        self.limit = limit
        self.buf = bytearray(_RECV_BYTES)
        self._view = memoryview(self.buf)
        self._start = self._end = 0  # the unread bytes: buf[_start:_end]

    def read_frame(self, sock, deadline: Optional[float] = None) -> bytes:
        """The next frame's verified payload.

        A socket timeout propagates, unless there is a ``deadline`` (a
        ``time.monotonic()`` value): then the read waits through
        timeouts until it passes.  The short timeout notices a socket
        closed under the reader; the deadline bounds the peer's silence.
        """
        if self._end - self._start < 4:
            self._fill(sock, 4, deadline)
        length = _admitted(get_fixed32(self.buf, self._start), self.limit)
        if self._end - self._start < length + 8:
            self._fill(sock, length + 8, deadline)
        start = self._start
        end = self._start = start + length + 8
        if end == self._end:
            self._start = self._end = 0
        payload = bytes(self._view[start + 4 : end - 4])
        return _verified(payload, get_fixed32(self.buf, end - 4))

    def _fill(self, sock, n: int, deadline: Optional[float]) -> None:
        """Receive until at least ``n`` unread bytes are buffered."""
        if self._start + n > len(self.buf):
            # Move the unread tail (less than one frame) to the front,
            # of a larger buffer when one frame needs more room.
            tail = self.buf[self._start : self._end]
            if n > len(self.buf):
                self.buf = bytearray(n)
                self._view = memoryview(self.buf)
            self.buf[: len(tail)] = tail
            self._start, self._end = 0, len(tail)
        while self._end - self._start < n:
            try:
                got = sock.recv_into(self._view[self._end :])
            except TimeoutError:
                if deadline is None:
                    raise
                if time.monotonic() >= deadline:
                    raise ConnectionError("peer silent past its deadline") from None
                continue
            if not got:
                raise ConnectionError("peer closed the connection")
            self._end += got


async def read_frame(reader, limit: int = MAX_FRAME_BYTES) -> bytes:
    """The next frame's verified payload off an asyncio ``StreamReader``."""
    try:
        length = frame_length(await reader.readexactly(4), limit)
        return decode_frame(length, await reader.readexactly(length + 4))
    except EOFError:  # asyncio.IncompleteReadError
        raise ConnectionError("peer closed the connection") from None


# ------------------------------------------------- length-prefixed str
def encode_lp(data: bytes) -> bytes:
    """Varint length prefix + raw bytes."""
    return encode_varint32(len(data)) + data


def decode_lp(buf: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Decode one length-prefixed string → ``(data, next_offset)``."""
    try:
        length, pos = decode_varint64(buf, offset)
    except ValueError as exc:
        raise ProtocolError(f"bad length prefix: {exc}") from None
    end = pos + length
    if end > len(buf):
        raise ProtocolError("length prefix overruns payload")
    return buf[pos:end], end


# ------------------------------------------------- request / response
class Request:
    """One decoded request frame.

    ``trace_id``/``span_id`` are the trace context (None when the frame
    carried none): the client's trace id and the id of the client span
    that sent this request.
    """

    __slots__ = ("opcode", "request_id", "body", "trace_id", "span_id")

    def __init__(
        self,
        opcode: int,
        request_id: int,
        body: bytes = b"",
        trace_id: Optional[int] = None,
        span_id: Optional[int] = None,
    ) -> None:
        self.opcode = opcode
        self.request_id = request_id
        self.body = body
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return (
            f"Request({self.opcode_name}, id={self.request_id}, "
            f"body={self.body!r}, trace_id={self.trace_id}, "
            f"span_id={self.span_id})"
        )

    @property
    def opcode_name(self) -> str:
        return OPCODE_NAMES.get(self.opcode, f"0x{self.opcode:02x}")


class Response:
    """One decoded response frame."""

    __slots__ = ("status", "request_id", "body")

    def __init__(self, status: int, request_id: int, body: bytes = b"") -> None:
        self.status = status
        self.request_id = request_id
        self.body = body

    def __repr__(self) -> str:
        return (
            f"Response({self.status_name}, id={self.request_id}, "
            f"body={self.body!r})"
        )

    @property
    def status_name(self) -> str:
        return STATUS_NAMES.get(self.status, f"0x{self.status:02x}")

    @property
    def ok(self) -> bool:
        return self.status == ST_OK


# One struct per head length: the first byte, then a request id of one,
# two or three varint bytes (ids below 2**21; a connection that lives
# longer falls through to the generic varint encoder).
_HEAD2 = struct.Struct("<BB").pack
_HEAD3 = struct.Struct("<BBB").pack
_HEAD4 = struct.Struct("<BBBB").pack


def _head(first_byte: int, request_id: int) -> bytes:
    """``first_byte  request_id:varint64`` — what opens every payload."""
    if request_id < 0x80:
        return _HEAD2(first_byte, request_id)
    if request_id < 0x4000:
        return _HEAD3(first_byte, request_id & 0x7F | 0x80, request_id >> 7)
    if request_id < 0x200000:
        return _HEAD4(
            first_byte,
            request_id & 0x7F | 0x80,
            request_id >> 7 & 0x7F | 0x80,
            request_id >> 14,
        )
    return bytes((first_byte,)) + encode_varint64(request_id)


def _decode_head(payload: bytes) -> tuple[int, int, int]:
    """``(first_byte, request_id, body_offset)`` of a payload."""
    if not payload:
        raise ProtocolError("empty payload")
    try:
        request_id, pos = decode_varint64(payload, 1)
    except ValueError as exc:
        raise ProtocolError(f"bad request id: {exc}") from None
    return payload[0], request_id, pos


def encode_request(
    opcode: int,
    request_id: int,
    body: bytes = b"",
    trace_id: Optional[int] = None,
    span_id: Optional[int] = None,
) -> bytes:
    """Full request frame (framing included).

    Passing ``trace_id`` (only to a server that answered the hello)
    sets :data:`TRACE_FLAG` and puts the trace-context varints between
    the head and the body.
    """
    if opcode not in OPCODE_NAMES:
        raise ProtocolError(f"unknown opcode 0x{opcode:02x}")
    if trace_id is None:
        return encode_frame(_head(opcode, request_id) + body)
    return encode_frame(
        b"".join(
            (
                _head(opcode | TRACE_FLAG, request_id),
                encode_varint64(trace_id),
                encode_varint64(span_id if span_id is not None else 0),
                body,
            )
        )
    )


def decode_request(payload: bytes) -> Request:
    first, request_id, pos = _decode_head(payload)
    opcode = first & ~TRACE_FLAG
    if opcode not in OPCODE_NAMES:
        raise ProtocolError(f"unknown opcode 0x{opcode:02x}")
    if not first & TRACE_FLAG:
        return Request(opcode, request_id, payload[pos:])
    try:
        trace_id, pos = decode_varint64(payload, pos)
        span_id, pos = decode_varint64(payload, pos)
    except ValueError as exc:
        raise ProtocolError(f"bad trace context: {exc}") from None
    return Request(opcode, request_id, payload[pos:], trace_id, span_id)


def encode_response(status: int, request_id: int, body: bytes = b"") -> bytes:
    """Full response frame (framing included)."""
    if status not in STATUS_NAMES:
        raise ProtocolError(f"unknown status 0x{status:02x}")
    return encode_frame(_head(status, request_id) + body)


def decode_response(payload: bytes) -> Response:
    status, request_id, pos = _decode_head(payload)
    if status not in STATUS_NAMES:
        raise ProtocolError(f"unknown status 0x{status:02x}")
    return Response(status, request_id, payload[pos:])


# ------------------------------------------------------ opcode bodies
# PING    body: empty           → OK, body echoed back
# GET     body: lp key          → OK lp value | NOT_FOUND
# PUT     body: lp key lp value → OK
# DELETE  body: lp key          → OK
# BATCH   body: see below       → OK varint n_applied
# SCAN    body: see below       → OK scan result
# STATS   body: empty           → OK lp utf-8 JSON
# COMPACT body: empty           → OK varint n_compactions
def encode_batch_body(ops) -> bytes:
    """``ops`` is an iterable of ("put", key, value) / ("delete", key)."""
    ops = list(ops)
    out = bytearray(encode_varint32(len(ops)))
    for op in ops:
        if op[0] == "put":
            _, key, value = op
            out.append(_BATCH_PUT)
            out += encode_lp(key)
            out += encode_lp(value)
        elif op[0] == "delete":
            out.append(_BATCH_DELETE)
            out += encode_lp(op[1])
        else:
            raise ProtocolError(f"unknown batch op {op[0]!r}")
    return bytes(out)


def decode_batch_body(body: bytes) -> list[tuple]:
    try:
        count, pos = decode_varint64(body, 0)
    except ValueError as exc:
        raise ProtocolError(f"bad batch count: {exc}") from None
    ops: list[tuple] = []
    for _ in range(count):
        if pos >= len(body):
            raise ProtocolError("truncated batch body")
        kind = body[pos]
        pos += 1
        key, pos = decode_lp(body, pos)
        if kind == _BATCH_PUT:
            value, pos = decode_lp(body, pos)
            ops.append(("put", key, value))
        elif kind == _BATCH_DELETE:
            ops.append(("delete", key))
        else:
            raise ProtocolError(f"unknown batch op kind {kind}")
    if pos != len(body):
        raise ProtocolError("trailing bytes after batch body")
    return ops


def write_request_keys(request: Request) -> list[bytes]:
    """The user keys a write request touches (for shard-aware routing).

    PUT/DELETE contribute their single key, BATCH every op's key;
    non-write opcodes contribute none.  Raises :class:`ProtocolError`
    on a malformed body, same as full decoding would.
    """
    op, body = request.opcode, request.body
    if op in (OP_PUT, OP_DELETE):
        key, _ = decode_lp(body)
        return [key]
    if op == OP_BATCH:
        return [entry[1] for entry in decode_batch_body(body)]
    return []


def encode_scan_body(
    start: Optional[bytes],
    end: Optional[bytes],
    limit: int = 0,
    reverse: bool = False,
) -> bytes:
    """``limit`` 0 means "no client limit" (the server still caps)."""
    flags = 0
    if start is not None:
        flags |= _SCAN_HAS_START
    if end is not None:
        flags |= _SCAN_HAS_END
    if reverse:
        flags |= _SCAN_REVERSE
    out = bytearray([flags])
    if start is not None:
        out += encode_lp(start)
    if end is not None:
        out += encode_lp(end)
    out += encode_varint64(limit)
    return bytes(out)


def decode_scan_body(
    body: bytes,
) -> tuple[Optional[bytes], Optional[bytes], int, bool]:
    if not body:
        raise ProtocolError("empty scan body")
    flags = body[0]
    pos = 1
    start = end = None
    if flags & _SCAN_HAS_START:
        start, pos = decode_lp(body, pos)
    if flags & _SCAN_HAS_END:
        end, pos = decode_lp(body, pos)
    try:
        limit, pos = decode_varint64(body, pos)
    except ValueError as exc:
        raise ProtocolError(f"bad scan limit: {exc}") from None
    if pos != len(body):
        raise ProtocolError("trailing bytes after scan body")
    return start, end, limit, bool(flags & _SCAN_REVERSE)


def encode_scan_result(pairs, truncated: bool) -> bytes:
    """``truncated`` flags that the server cap cut the result short."""
    pairs = list(pairs)
    out = bytearray([1 if truncated else 0])
    out += encode_varint32(len(pairs))
    for key, value in pairs:
        out += encode_lp(key)
        out += encode_lp(value)
    return bytes(out)


def decode_scan_result(body: bytes) -> tuple[list[tuple[bytes, bytes]], bool]:
    if not body:
        raise ProtocolError("empty scan result")
    truncated = bool(body[0])
    try:
        count, pos = decode_varint64(body, 1)
    except ValueError as exc:
        raise ProtocolError(f"bad scan result count: {exc}") from None
    pairs: list[tuple[bytes, bytes]] = []
    for _ in range(count):
        key, pos = decode_lp(body, pos)
        value, pos = decode_lp(body, pos)
        pairs.append((key, value))
    if pos != len(body):
        raise ProtocolError("trailing bytes after scan result")
    return pairs, truncated


# ------------------------------------------------- cold-path bodies
# Every body off the request hot path is a row of one layout table: a
# string of field codes, in wire order, that one codec pair reads.
#
#   v  varint64                    b  u8
#   l  lp bytes                    s  lp UTF-8 string
#   L  varint count, then that many lp byte strings
#   ?  optional varint: u8 flag, then value + 1 when the flag is set
#      (so -1 fits)
#
# The codec checks only the shape; a value from outside that must be one
# of a few (a mode, a format, a marker) is checked where it is decoded.


def encode_body(layout: str, *values) -> bytes:
    """The body that ``layout`` lays ``values`` out as."""
    out = bytearray()
    for code, value in zip(layout, values, strict=True):
        if code == "v":
            out += encode_varint64(value)
        elif code == "b":
            out.append(value)
        elif code in "ls":
            out += encode_lp(value.encode("utf-8") if code == "s" else value)
        elif code == "L":
            out += encode_varint32(len(value))
            for item in value:
                out += encode_lp(item)
        elif value is None:  # "?"
            out.append(0)
        else:
            out.append(1)
            out += encode_varint64(value + 1)
    return bytes(out)


def decode_body(layout: str, body: bytes, pos: int = 0) -> tuple:
    """``body[pos:]`` read as ``layout``: the tuple of its values.  A
    truncated field, an overrun or a trailing byte is a ProtocolError."""
    values: tuple = ()  # grown with +=, which makes no call per field
    try:
        for code in layout:
            if code == "v":
                value, pos = decode_varint64(body, pos)
            elif code == "b":
                value = body[pos]
                pos += 1
            elif code in "ls":
                value, pos = decode_lp(body, pos)
                if code == "s":
                    value = value.decode("utf-8")
            elif code == "L":
                count, pos = decode_varint64(body, pos)
                value = []
                for _ in range(count):
                    item, pos = decode_lp(body, pos)
                    value.append(item)
            elif body[pos]:  # "?", set
                value, pos = decode_varint64(body, pos + 1)
                value -= 1
            else:  # "?", unset
                value = None
                pos += 1
            values += (value,)
    except (IndexError, ValueError) as exc:
        raise ProtocolError(f"malformed {layout!r} body: {exc}") from None
    if pos != len(body):
        raise ProtocolError(f"{len(body) - pos} trailing bytes after body")
    return values


# PING (hello)  body: HELLO_MAGIC HELLO → OK HELLO_MAGIC HELLO_ACK
#   A PING body without the magic is opaque echo data.  ack_level pins
#   the follower acks the connection's writes collect (-1 = majority);
#   the reply's marker byte tells it apart from an echo of the hello.
HELLO = "vv?"  # major, minor, ack_level
HELLO_ACK = "vvb"  # major, minor, marker
HELLO_ACK_MARKER = 0x01
# REPL_SUBSCRIBE body: SUBSCRIBE → OK SUBSCRIBE_ACK | FENCED (the
#   follower's epoch is newer); then the primary pushes REPL_SHIP (u8
#   kind, then SHIP[kind]) and the follower pushes REPL_ACK.
SUBSCRIBE = "vvl"  # start_seq, follower_epoch, follower_id
SUBSCRIBE_ACK = "bvv"  # mode, primary_epoch, primary_seq
REPL_ACK = "v"  # acked_seq
SHIP = {
    SHIP_RECORDS: "L",  # encoded WriteBatch records, each with its seq
    SHIP_SNAP_BEGIN: "vv",  # last_seq, n_files
    SHIP_SNAP_FILE: "vsvll",  # level, name, size, smallest, largest
    SHIP_SNAP_CHUNK: "l",  # data
    SHIP_SNAP_END: "v",  # last_seq
    SHIP_GOODBYE: "s",  # reason
    SHIP_HEARTBEAT: "v",  # the primary's last_seq, sent while idle
}
# METRICS body: METRICS (empty = JSON) → OK lp exposition bytes
#   format 0 = JSON envelope (repro.obs.export.render_json)
#   format 1 = Prometheus text exposition
# TRACE   body: empty → OK lp utf-8 Chrome-trace JSON (the serving DB's
#   tracer, exported with Tracer.chrome_trace; empty when it is off)
METRICS = "b"  # format
METRICS_FMT_JSON = 0
METRICS_FMT_PROMETHEUS = 1
# PROMOTE body: PROMOTE (empty = 0) → OK PROMOTE_ACK
#   Promotes the serving node to primary online: its epoch becomes
#   max(current + 1, min_epoch) and it takes writes.  A failover
#   coordinator passes highest-epoch-seen + 1, which fences the old
#   primary and makes a retry idempotent (no second bump).
PROMOTE = "v"  # min_epoch (0 = "just bump")
PROMOTE_ACK = "v"  # new_epoch


def encode_hello_body(
    major: int = PROTOCOL_MAJOR,
    minor: int = PROTOCOL_MINOR,
    ack_level: Optional[int] = None,
) -> bytes:
    """Client hello: magic, version and the optional write ack level."""
    return HELLO_MAGIC + encode_body(HELLO, major, minor, ack_level)


def decode_hello_body(body: bytes) -> Optional[tuple[int, int, Optional[int]]]:
    """``(major, minor, ack_level)`` if ``body`` is a hello, else None."""
    if not body.startswith(HELLO_MAGIC):
        return None
    return decode_body(HELLO, body, len(HELLO_MAGIC))


def encode_ship(kind: int, *fields) -> bytes:
    """A REPL_SHIP body: the kind byte, then ``fields`` as ``SHIP[kind]``."""
    return bytes((kind,)) + encode_body(SHIP[kind], *fields)


def decode_ship_body(body: bytes) -> tuple:
    """One REPL_SHIP body → ``(kind, *fields)``."""
    kind = body[0] if body else None
    if kind not in SHIP:
        raise ProtocolError(f"unknown ship kind {kind}")
    return (kind,) + decode_body(SHIP[kind], body, 1)


# ------------------------------------------------------ stream helper
def iter_frames(data: bytes, limit: int = MAX_FRAME_BYTES) -> Iterator[bytes]:
    """Split a byte string of concatenated frames into payloads.

    Offline helper (tests, trace analysis); the server and clients read
    incrementally from their sockets instead.
    """
    pos = 0
    while pos < len(data):
        length = frame_length(data[pos : pos + 4], limit)
        pos += 4
        payload = decode_frame(length, data[pos : pos + length + 4])
        pos += length + 4
        yield payload

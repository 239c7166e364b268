"""Write-ahead log: LevelDB's record-oriented log format.

The log is a sequence of 32 KiB blocks.  A record is split into
fragments, each with a 7-byte header: masked CRC-32 (4), payload
length (2), fragment type (1) — FULL, FIRST, MIDDLE, or LAST.  A block
tail shorter than a header is zero-padded.  The reader tolerates a
truncated final record (a crash mid-append) but reports corruption in
the interior.

What goes *into* records is the engine's write-batch encoding
(:class:`WriteBatch`): a 8-byte sequence, 4-byte count, then per-op
``kind`` byte and length-prefixed key/value.
"""

from __future__ import annotations

import struct
from typing import Iterator

from ..codec.checksum import crc32, mask_crc, unmask_crc
from ..codec.varint import (
    decode_varint32,
    encode_varint32,
    get_fixed32,
    get_fixed64,
    put_fixed32,
    put_fixed64,
)
from ..devices.vfs import ReadableFile, WritableFile
from .ikey import KIND_DELETE, KIND_VALUE

__all__ = [
    "BLOCK_SIZE",
    "HEADER_SIZE",
    "LogWriter",
    "LogReader",
    "LogCorruption",
    "WriteBatch",
    "WalRetention",
    "batch_seq_bounds",
    "iter_wal_batches",
]

BLOCK_SIZE = 32 * 1024
HEADER_SIZE = 7

_FULL, _FIRST, _MIDDLE, _LAST = 1, 2, 3, 4
_HEADER = struct.Struct("<IHB")


class LogCorruption(ValueError):
    """Raised on interior log corruption (bad CRC, bad fragment type)."""


class LogWriter:
    """Appends records to a log file.

    ``metrics`` (an optional :class:`repro.obs.MetricsRegistry`) gets
    ``wal.records`` / ``wal.bytes`` (payload bytes, before framing) per
    append and ``wal.syncs`` per durability barrier.
    """

    def __init__(self, file: WritableFile, metrics=None) -> None:
        self._file = file
        self._block_offset = 0
        self._m_records = metrics.counter("wal.records") if metrics else None
        self._m_bytes = metrics.counter("wal.bytes") if metrics else None
        self._m_syncs = metrics.counter("wal.syncs") if metrics else None

    def add_record(self, payload: bytes) -> None:
        """Append one record, fragmenting across block boundaries."""
        if self._m_records is not None:
            self._m_records.inc()
            self._m_bytes.inc(len(payload))
        left = memoryview(payload)
        begin = True
        while True:
            leftover = BLOCK_SIZE - self._block_offset
            if leftover < HEADER_SIZE:
                # Pad the block tail with zeros and start a new block.
                if leftover > 0:
                    self._file.append(b"\x00" * leftover)
                self._block_offset = 0
                leftover = BLOCK_SIZE
            avail = leftover - HEADER_SIZE
            fragment = left[:avail]
            left = left[avail:]
            end = len(left) == 0
            if begin and end:
                ftype = _FULL
            elif begin:
                ftype = _FIRST
            elif end:
                ftype = _LAST
            else:
                ftype = _MIDDLE
            self._emit(ftype, bytes(fragment))
            begin = False
            if end:
                return

    def _emit(self, ftype: int, data: bytes) -> None:
        crc = mask_crc(crc32(bytes([ftype]) + data))
        self._file.append(_HEADER.pack(crc, len(data), ftype))
        self._file.append(data)
        self._block_offset += HEADER_SIZE + len(data)

    def sync(self) -> None:
        self._file.sync()
        if self._m_syncs is not None:
            self._m_syncs.inc()

    def close(self) -> None:
        self._file.close()


class LogReader:
    """Iterates records from a log file.

    ``torn_tail`` becomes True once iteration observes a truncated
    final record or a dangling FIRST/MIDDLE fragment at EOF — the
    (tolerated) signature of a crash mid-append; recovery counts it.
    """

    def __init__(self, file: ReadableFile, verify_checksums: bool = True) -> None:
        self._data = file.read_all()
        self._verify = verify_checksums
        self.torn_tail = False

    def __iter__(self) -> Iterator[bytes]:
        data = self._data
        size = len(data)
        pos = 0
        pending: list[bytes] = []
        in_record = False
        while pos + HEADER_SIZE <= size:
            block_left = BLOCK_SIZE - (pos % BLOCK_SIZE)
            if block_left < HEADER_SIZE:
                pos += block_left  # skip zero padding
                continue
            crc, length, ftype = _HEADER.unpack_from(data, pos)
            if ftype == 0 and length == 0 and crc == 0:
                # Zero fill (preallocated tail); skip to next block.
                pos += block_left
                continue
            frag_end = pos + HEADER_SIZE + length
            if frag_end > size:
                self.torn_tail = True
                break  # truncated tail: tolerated (crash mid-append)
            payload = data[pos + HEADER_SIZE : frag_end]
            if self._verify and crc32(bytes([ftype]) + payload) != unmask_crc(crc):
                raise LogCorruption(f"bad fragment checksum at offset {pos}")
            pos = frag_end
            if ftype == _FULL:
                if in_record:
                    raise LogCorruption("FULL fragment inside open record")
                yield payload
            elif ftype == _FIRST:
                if in_record:
                    raise LogCorruption("FIRST fragment inside open record")
                pending = [payload]
                in_record = True
            elif ftype == _MIDDLE:
                if not in_record:
                    raise LogCorruption("MIDDLE fragment without FIRST")
                pending.append(payload)
            elif ftype == _LAST:
                if not in_record:
                    raise LogCorruption("LAST fragment without FIRST")
                pending.append(payload)
                in_record = False
                yield b"".join(pending)
                pending = []
            else:
                raise LogCorruption(f"unknown fragment type {ftype}")
        # A dangling FIRST/MIDDLE at EOF is a torn write: tolerated.
        if in_record:
            self.torn_tail = True


class WriteBatch:
    """An atomic group of puts/deletes with one starting sequence."""

    _BATCH_HEADER = 12  # 8-byte sequence + 4-byte count

    def __init__(self) -> None:
        self._ops: list[tuple[int, bytes, bytes]] = []

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("keys and values must be bytes")
        if not key:
            raise ValueError("empty keys are not allowed")
        self._ops.append((KIND_VALUE, key, value))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        if not isinstance(key, bytes):
            raise TypeError("keys must be bytes")
        if not key:
            raise ValueError("empty keys are not allowed")
        self._ops.append((KIND_DELETE, key, b""))
        return self

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[tuple[int, bytes, bytes]]:
        return iter(self._ops)

    def byte_size(self) -> int:
        """Approximate encoded size (for memtable accounting)."""
        return self._BATCH_HEADER + sum(
            1 + 10 + len(k) + len(v) for _, k, v in self._ops
        )

    def encode(self, sequence: int) -> bytes:
        """Serialize with the batch's starting sequence number."""
        out = bytearray(put_fixed64(sequence))
        out += put_fixed32(len(self._ops))
        for kind, key, value in self._ops:
            out.append(kind)
            out += encode_varint32(len(key))
            out += key
            if kind == KIND_VALUE:
                out += encode_varint32(len(value))
                out += value
        return bytes(out)

    @classmethod
    def decode(cls, blob: bytes) -> tuple["WriteBatch", int]:
        """Parse an encoded batch → ``(batch, starting_sequence)``."""
        if len(blob) < cls._BATCH_HEADER:
            raise ValueError("batch blob too short")
        sequence = get_fixed64(blob, 0)
        count = get_fixed32(blob, 8)
        batch = cls()
        pos = cls._BATCH_HEADER
        for _ in range(count):
            if pos >= len(blob):
                raise ValueError("truncated batch: missing op kind")
            kind = blob[pos]
            pos += 1
            klen, pos = decode_varint32(blob, pos)
            key = blob[pos : pos + klen]
            if len(key) != klen:
                raise ValueError("truncated batch key")
            pos += klen
            if kind == KIND_VALUE:
                vlen, pos = decode_varint32(blob, pos)
                value = blob[pos : pos + vlen]
                if len(value) != vlen:
                    raise ValueError("truncated batch value")
                pos += vlen
                batch.put(bytes(key), bytes(value))
            elif kind == KIND_DELETE:
                batch.delete(bytes(key))
            else:
                raise ValueError(f"unknown batch op kind {kind}")
        if pos != len(blob):
            raise ValueError("trailing bytes after batch ops")
        return batch, sequence


# ----------------------------------------------------- replication aids
def batch_seq_bounds(blob: bytes) -> tuple[int, int]:
    """``(base_seq, count)`` of an encoded batch without parsing ops."""
    if len(blob) < WriteBatch._BATCH_HEADER:
        raise ValueError("batch blob too short")
    return get_fixed64(blob, 0), get_fixed32(blob, 8)


def iter_wal_batches(file: ReadableFile) -> Iterator[tuple[int, int, bytes]]:
    """Yield ``(base_seq, count, record)`` for each batch in a WAL file.

    A torn tail is tolerated exactly as in recovery; interior
    corruption raises :class:`LogCorruption`.  This is the primary's
    replay path when a follower subscribes from a sequence that has
    already been rotated out of the live WAL but is still retained.
    """
    for record in LogReader(file):
        base_seq, count = batch_seq_bounds(record)
        yield base_seq, count, record


class WalRetention:
    """Byte-capped set of retired WAL files kept for log shipping.

    When the memtable flushes, the engine normally deletes the old WAL
    file — its contents are durable in an SSTable.  With replication a
    follower may still need those records, so retired logs are kept
    (up to ``retain_bytes``) and indexed by the sequence range they
    cover.  Pruning is oldest-first; a follower whose requested
    sequence falls before the retained floor must take a snapshot.

    Not thread-safe: callers hold the DB mutex.
    """

    def __init__(self, storage, retain_bytes: int) -> None:
        self._storage = storage
        self._cap = retain_bytes
        # Ordered oldest → newest: (name, first_seq, last_seq, bytes).
        self._files: list[tuple[str, int, int, int]] = []

    @property
    def total_bytes(self) -> int:
        return sum(entry[3] for entry in self._files)

    @property
    def floor_seq(self) -> int:
        """Lowest sequence any retained file covers (0 when empty)."""
        return self._files[0][1] if self._files else 0

    @property
    def ceiling_seq(self) -> int:
        """Highest sequence any retained file covers (0 when empty)."""
        return self._files[-1][2] if self._files else 0

    def file_names(self) -> list[str]:
        return [entry[0] for entry in self._files]

    def add(self, name: str, first_seq: int, last_seq: int, size: int) -> None:
        """Retain a retired WAL covering ``first_seq..last_seq``, then
        prune oldest-first back under the byte cap (always keeping the
        just-added file so a single oversized WAL still bridges)."""
        self._files.append((name, first_seq, last_seq, size))
        while len(self._files) > 1 and self.total_bytes > self._cap:
            self._drop_oldest()

    def _drop_oldest(self) -> None:
        name, *_ = self._files.pop(0)
        try:
            self._storage.delete(name)
        except FileNotFoundError:
            pass

    def covers(self, start_seq: int) -> bool:
        """True when retained files can replay from ``start_seq`` on
        (i.e. ``start_seq`` is at or above the retained floor)."""
        if not self._files:
            return False
        return start_seq >= self.floor_seq

    def records_from(self, start_seq: int) -> Iterator[tuple[int, int, bytes]]:
        """Replay ``(base_seq, count, record)`` with last sequence ≥
        ``start_seq`` from the retained files, oldest first."""
        for name, first_seq, last_seq, _ in list(self._files):
            if last_seq < start_seq:
                continue
            with self._storage.open(name) as file:
                for base_seq, count, record in iter_wal_batches(file):
                    if base_seq + count - 1 < start_seq:
                        continue
                    yield base_seq, count, record

    def clear(self) -> None:
        while self._files:
            self._drop_oldest()

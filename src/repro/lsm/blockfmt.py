"""SSTable block format: prefix-compressed sorted entries.

Layout (LevelDB-compatible in structure):

* entries: ``varint shared | varint non_shared | varint value_len |
  key_delta | value`` — each key stores only its suffix beyond the
  prefix shared with the previous key.
* every ``restart_interval`` entries a *restart point* stores the full
  key; the block tail holds the restart offsets (fixed32 array) and
  their count (fixed32), enabling binary search.

Keys are ordered by a pluggable three-way ``compare`` (default:
bytewise).  Table blocks pass the internal-key comparator, because two
internal keys with the same user key sort by *descending* sequence,
which bytewise comparison does not honour.

On disk each block is followed by a 5-byte trailer written by the table
builder: 1-byte compression type + 4-byte masked checksum of the
(compressed) payload — that trailer is handled in
:mod:`repro.lsm.table_format`, not here.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..codec.varint import (
    VarintError,
    decode_varint32,
    encode_varint32,
    get_fixed32,
    put_fixed32,
)

__all__ = ["BlockBuilder", "Block", "BlockCorruption", "bytewise_compare"]

Comparator = Callable[[bytes, bytes], int]


def bytewise_compare(a: bytes, b: bytes) -> int:
    """Default three-way bytewise comparison."""
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


class BlockCorruption(ValueError):
    """Raised when a block's structure cannot be parsed."""


class BlockBuilder:
    """Accumulates sorted entries into the block wire format."""

    def __init__(
        self,
        restart_interval: int = 16,
        compare: Optional[Comparator] = None,
    ) -> None:
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self.restart_interval = restart_interval
        self.compare = compare or bytewise_compare
        self._buf = bytearray()
        self._restarts = [0]
        self._counter = 0
        self._last_key = b""
        self._n_entries = 0

    def add(self, key: bytes, value: bytes) -> None:
        """Append an entry; keys must arrive in strictly increasing order."""
        if self._n_entries and self.compare(key, self._last_key) <= 0:
            raise ValueError(
                f"keys out of order: {key!r} after {self._last_key!r}"
            )
        if self._counter >= self.restart_interval:
            self._restarts.append(len(self._buf))
            self._counter = 0
            shared = 0
        else:
            shared = _shared_prefix_len(self._last_key, key)
        non_shared = len(key) - shared
        value_len = len(value)
        buf = self._buf
        if shared < 0x80 and non_shared < 0x80 and value_len < 0x80:
            # Three one-byte varints, written without allocating them.
            buf.append(shared)
            buf.append(non_shared)
            buf.append(value_len)
        else:
            buf += encode_varint32(shared)
            buf += encode_varint32(non_shared)
            buf += encode_varint32(value_len)
        buf += key[shared:]
        buf += value
        self._last_key = key
        self._counter += 1
        self._n_entries += 1

    def finish(self) -> bytes:
        """Seal and return the encoded block."""
        out = bytearray(self._buf)
        for r in self._restarts:
            out += put_fixed32(r)
        out += put_fixed32(len(self._restarts))
        return bytes(out)

    def reset(self) -> None:
        self._buf.clear()
        self._restarts = [0]
        self._counter = 0
        self._last_key = b""
        self._n_entries = 0

    @property
    def empty(self) -> bool:
        return self._n_entries == 0

    @property
    def num_entries(self) -> int:
        return self._n_entries

    @property
    def last_key(self) -> bytes:
        return self._last_key

    def current_size_estimate(self) -> int:
        """Encoded size if finished now."""
        return len(self._buf) + 4 * len(self._restarts) + 4


def _shared_prefix_len(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    if a == b:
        return n
    # The first differing byte is the lowest set bit of the XOR.
    diff = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    return ((diff & -diff).bit_length() - 1) >> 3


class Block:
    """A parsed, immutable block supporting iteration and seek."""

    def __init__(self, data: bytes, compare: Optional[Comparator] = None) -> None:
        if len(data) < 4:
            raise BlockCorruption("block shorter than restart count")
        self.compare = compare or bytewise_compare
        n_restarts = get_fixed32(data, len(data) - 4)
        restart_end = len(data) - 4
        restart_start = restart_end - 4 * n_restarts
        if n_restarts < 1 or restart_start < 0:
            raise BlockCorruption(f"bad restart count {n_restarts}")
        self._data = data
        self._restarts = [
            get_fixed32(data, restart_start + 4 * i) for i in range(n_restarts)
        ]
        self._entries_end = restart_start
        if self._restarts and self._restarts[0] != 0:
            raise BlockCorruption("first restart must be 0")

    def _parse_entry(self, pos: int, prev_key: bytes) -> tuple[bytes, bytes, int]:
        """Decode entry at ``pos`` → (key, value, next_pos)."""
        data = self._data
        try:
            # Each header field is a varint32; one byte is the common
            # case and is read in place.
            shared = data[pos]
            pos += 1
            if shared >= 0x80:
                shared, pos = decode_varint32(data, pos - 1)
            non_shared = data[pos]
            pos += 1
            if non_shared >= 0x80:
                non_shared, pos = decode_varint32(data, pos - 1)
            value_len = data[pos]
            pos += 1
            if value_len >= 0x80:
                value_len, pos = decode_varint32(data, pos - 1)
        except IndexError:
            raise BlockCorruption("truncated varint") from None
        except ValueError as exc:
            raise BlockCorruption(str(exc)) from None
        if shared > len(prev_key):
            raise BlockCorruption("shared prefix longer than previous key")
        key_end = pos + non_shared
        value_end = key_end + value_len
        if value_end > self._entries_end:
            raise BlockCorruption("entry overruns block")
        key = prev_key[:shared] + data[pos:key_end]
        value = data[key_end:value_end]
        return key, value, value_end

    def _iter_from(self, pos: int, key: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Stream entries from ``pos``, whose predecessor's key is ``key``."""
        while pos < self._entries_end:
            key, value, pos = self._parse_entry(pos, key)
            yield key, value

    def entries(self) -> list[tuple[bytes, bytes]]:
        """Every entry, decoded in one loop.

        :meth:`_parse_entry` inlined — no call or generator step per
        entry — with one- and two-byte varints read in place (a 1 KB
        value's length takes two); longer ones, and every error, go the
        same way as there, so a damaged block raises the same
        :class:`BlockCorruption`.  A run of keys sharing the same number
        of leading bytes shares one prefix object, sliced once.
        Compaction, scans and ``iter`` decode whole blocks; :meth:`seek`
        stays lazy.
        """
        data = self._data
        end = self._entries_end
        out: list[tuple[bytes, bytes]] = []
        append = out.append
        pos = prefix_len = 0
        key = prefix = b""
        try:
            while pos < end:
                shared = data[pos]
                if shared < 0x80:
                    pos += 1
                elif data[pos + 1] < 0x80:
                    shared = (shared & 0x7F) | data[pos + 1] << 7
                    pos += 2
                else:
                    shared, pos = decode_varint32(data, pos)
                non_shared = data[pos]
                if non_shared < 0x80:
                    pos += 1
                elif data[pos + 1] < 0x80:
                    non_shared = (non_shared & 0x7F) | data[pos + 1] << 7
                    pos += 2
                else:
                    non_shared, pos = decode_varint32(data, pos)
                value_len = data[pos]
                if value_len < 0x80:
                    pos += 1
                elif data[pos + 1] < 0x80:
                    value_len = (value_len & 0x7F) | data[pos + 1] << 7
                    pos += 2
                else:
                    value_len, pos = decode_varint32(data, pos)
                if shared != prefix_len:
                    # Otherwise the previous key was built on ``prefix``
                    # itself, and is at least that long.
                    if shared > len(key):
                        raise BlockCorruption("shared prefix longer than previous key")
                    prefix = key[:shared]
                    prefix_len = shared
                key_end = pos + non_shared
                key = prefix + data[pos:key_end]
                pos = key_end + value_len
                if pos > end:
                    raise BlockCorruption("entry overruns block")
                append((key, data[key_end:pos]))
        except IndexError:
            raise BlockCorruption("truncated varint") from None
        except VarintError as exc:
            raise BlockCorruption(str(exc)) from None
        return out

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        return iter(self.entries())

    def _restart_key(self, index: int) -> bytes:
        key, _, _ = self._parse_entry(self._restarts[index], b"")
        return key

    def seek(self, target: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate entries with key >= ``target`` (comparator order)."""
        # Binary-search restarts for the last restart key < target.
        lo, hi = 0, len(self._restarts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.compare(self._restart_key(mid), target) < 0:
                lo = mid
            else:
                hi = mid - 1
        pos = self._restarts[lo]
        key = b""
        while pos < self._entries_end:
            key, value, pos = self._parse_entry(pos, key)
            if self.compare(key, target) >= 0:
                yield key, value
                # From here just stream the rest.
                yield from self._iter_from(pos, key)
                return

    def iter_reverse(self) -> Iterator[tuple[bytes, bytes]]:
        """Entries in descending key order.

        Blocks are small (the 4 KB default holds a few dozen entries),
        so the straightforward materialise-and-reverse is cheaper and
        simpler than restart-hopping backward cursors.
        """
        return reversed(self.entries())

    def seek_reverse(self, target: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries with key <= ``target``, in descending order."""
        for key, value in self.iter_reverse():
            if self.compare(key, target) <= 0:
                yield key, value

    def num_restarts(self) -> int:
        return len(self._restarts)

    def first_key(self) -> Optional[bytes]:
        if self._entries_end == 0:
            return None
        key, _, _ = self._parse_entry(0, b"")
        return key

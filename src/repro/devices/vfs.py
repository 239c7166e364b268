"""Virtual filesystem abstraction for the LSM engine.

The engine never touches ``open()`` directly; it goes through a
:class:`Storage`, so the same code runs against real files
(:class:`OSStorage`), an in-memory store (:class:`MemStorage`, used by
tests and by the simulated experiments), or a timing-charging wrapper
(:class:`TimedStorage`, which forwards to an inner storage and charges
a device model for every I/O — how the Fig 10 system-level experiments
account virtual time).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Optional

from ..analysis.locksan import make_lock
from .base import Device

__all__ = [
    "StorageError",
    "WritableFile",
    "ReadableFile",
    "Storage",
    "MemStorage",
    "OSStorage",
    "TimedStorage",
    "MeteredStorage",
]


class StorageError(OSError):
    """Raised for missing files and other storage-level failures."""


class WritableFile(ABC):
    """Append-only output file."""

    @abstractmethod
    def append(self, data: bytes) -> None: ...

    @abstractmethod
    def flush(self) -> None: ...

    @abstractmethod
    def sync(self) -> None:
        """Durability barrier (fsync equivalent)."""

    @abstractmethod
    def close(self) -> None: ...

    @abstractmethod
    def tell(self) -> int:
        """Bytes appended so far."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ReadableFile(ABC):
    """Random-access input file."""

    @abstractmethod
    def pread(self, offset: int, length: int) -> bytes:
        """Read exactly up to ``length`` bytes at ``offset``."""

    @abstractmethod
    def size(self) -> int: ...

    @abstractmethod
    def close(self) -> None: ...

    def read_all(self) -> bytes:
        return self.pread(0, self.size())

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Storage(ABC):
    """A namespace of files."""

    @abstractmethod
    def create(self, name: str) -> WritableFile: ...

    @abstractmethod
    def open(self, name: str) -> ReadableFile: ...

    @abstractmethod
    def exists(self, name: str) -> bool: ...

    @abstractmethod
    def delete(self, name: str) -> None: ...

    @abstractmethod
    def rename(self, old: str, new: str) -> None: ...

    @abstractmethod
    def list(self) -> list[str]: ...

    def file_size(self, name: str) -> int:
        with self.open(name) as f:
            return f.size()


# ----------------------------------------------------------------- mem
class _MemWritable(WritableFile):
    """Appends to the buffer :meth:`MemStorage.create` published: readers
    hold the same buffer, so one opened mid-write (the WAL case) observes
    later appends, like a page-cache read would, and an append costs its
    own bytes, not the file's."""

    def __init__(self, buf: bytearray, name: str) -> None:
        self._buf = buf
        self._name = name
        self._closed = False

    def append(self, data: bytes) -> None:
        if self._closed:
            raise StorageError(f"append to closed file {self._name!r}")
        self._buf += data

    def flush(self) -> None:
        pass

    def sync(self) -> None:
        pass

    def tell(self) -> int:
        return len(self._buf)

    def close(self) -> None:
        self._closed = True


class _MemReadable(ReadableFile):
    def __init__(self, data: bytearray, name: str) -> None:
        self._data = data
        self._name = name

    def pread(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        # A copy of the slice only: the caller's bytes stay as read
        # whatever is appended later.
        return bytes(self._data[offset : offset + length])

    def size(self) -> int:
        return len(self._data)

    def close(self) -> None:
        pass


class MemStorage(Storage):
    """In-memory storage; thread-safe for the engine's usage pattern."""

    def __init__(self) -> None:
        self._files: dict[str, bytearray] = {}
        self._lock = make_lock("vfs.memstorage")

    def create(self, name: str) -> WritableFile:
        buf = bytearray()
        with self._lock:
            self._files[name] = buf
        return _MemWritable(buf, name)

    def open(self, name: str) -> ReadableFile:
        with self._lock:
            try:
                data = self._files[name]
            except KeyError:
                raise StorageError(f"no such file: {name!r}") from None
        return _MemReadable(data, name)

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._files

    def delete(self, name: str) -> None:
        with self._lock:
            if name not in self._files:
                raise StorageError(f"no such file: {name!r}")
            del self._files[name]

    def rename(self, old: str, new: str) -> None:
        with self._lock:
            if old not in self._files:
                raise StorageError(f"no such file: {old!r}")
            self._files[new] = self._files.pop(old)

    def list(self) -> list[str]:
        with self._lock:
            return sorted(self._files)

    def total_bytes(self) -> int:
        """Sum of all file sizes (the device 'fill level')."""
        with self._lock:
            return sum(len(v) for v in self._files.values())


# ------------------------------------------------------------------ os
class _OSWritable(WritableFile):
    def __init__(self, path: str) -> None:
        self._f = open(path, "wb")  # noqa: SIM115 - closed in close()
        self._offset = 0

    def append(self, data: bytes) -> None:
        self._f.write(data)
        self._offset += len(data)

    def flush(self) -> None:
        self._f.flush()

    def sync(self) -> None:
        self._f.flush()
        os.fsync(self._f.fileno())

    def tell(self) -> int:
        return self._offset

    def close(self) -> None:
        if not self._f.closed:
            self._f.close()


class _OSReadable(ReadableFile):
    def __init__(self, path: str) -> None:
        # ``_closed`` must exist before os.open so that __del__ of a
        # half-constructed instance (open() raised) stays silent.
        self._closed = True
        self._fd = os.open(path, os.O_RDONLY)
        self._size = os.fstat(self._fd).st_size
        self._closed = False

    def pread(self, offset: int, length: int) -> bytes:
        return os.pread(self._fd, length, offset)

    def size(self) -> int:
        return self._size

    def close(self) -> None:
        if not self._closed:
            os.close(self._fd)
            self._closed = True

    def __del__(self) -> None:  # release the fd when the last reader drops
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


class OSStorage(Storage):
    """Real files under a root directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def create(self, name: str) -> WritableFile:
        return _OSWritable(self._path(name))

    def open(self, name: str) -> ReadableFile:
        try:
            return _OSReadable(self._path(name))
        except FileNotFoundError:
            raise StorageError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def delete(self, name: str) -> None:
        try:
            os.remove(self._path(name))
        except FileNotFoundError:
            raise StorageError(f"no such file: {name!r}") from None

    def rename(self, old: str, new: str) -> None:
        try:
            os.replace(self._path(old), self._path(new))
        except FileNotFoundError:
            raise StorageError(f"no such file: {old!r}") from None

    def list(self) -> list[str]:
        return sorted(os.listdir(self.root))


# --------------------------------------------------------------- timed
class _TimedWritable(WritableFile):
    def __init__(self, inner: WritableFile, storage: "TimedStorage", name: str):
        self._inner = inner
        self._storage = storage
        self._name = name
        self._offset = 0

    def append(self, data: bytes) -> None:
        self._inner.append(data)
        self._storage._charge_write(len(data), self._name, self._offset)
        self._offset += len(data)

    def flush(self) -> None:
        self._inner.flush()

    def sync(self) -> None:
        self._inner.sync()
        self._storage._charge_sync()

    def tell(self) -> int:
        return self._inner.tell()

    def close(self) -> None:
        self._inner.close()


class _TimedReadable(ReadableFile):
    def __init__(self, inner: ReadableFile, storage: "TimedStorage", name: str):
        self._inner = inner
        self._storage = storage
        self._name = name

    def pread(self, offset: int, length: int) -> bytes:
        data = self._inner.pread(offset, length)
        self._storage._charge_read(len(data), self._name, offset)
        return data

    def size(self) -> int:
        return self._inner.size()

    def close(self) -> None:
        self._inner.close()


class TimedStorage(Storage):
    """Forward to an inner storage while charging a device model.

    Charged seconds accumulate in :attr:`io_seconds`; experiments fold
    them into a virtual-time ledger.  ``sync_s`` is a fixed durability
    cost per :meth:`WritableFile.sync`.
    """

    def __init__(self, inner: Storage, device: Device, sync_s: float = 0.0) -> None:
        self.inner = inner
        self.device = device
        self.sync_s = sync_s
        self.io_seconds = 0.0

    def _charge_read(self, size: int, name: str, offset: int) -> None:
        self.io_seconds += self.device.read_time(size, stream=name, offset=offset)

    def _charge_write(self, size: int, name: str, offset: int) -> None:
        self.io_seconds += self.device.write_time(size, stream=name, offset=offset)

    def _charge_sync(self) -> None:
        self.io_seconds += self.sync_s

    def create(self, name: str) -> WritableFile:
        return _TimedWritable(self.inner.create(name), self, name)

    def open(self, name: str) -> ReadableFile:
        return _TimedReadable(self.inner.open(name), self, name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    def rename(self, old: str, new: str) -> None:
        self.inner.rename(old, new)

    def list(self) -> list[str]:
        return self.inner.list()


# ------------------------------------------------------------- metered
class _MeteredWritable(WritableFile):
    def __init__(self, inner: WritableFile, storage: "MeteredStorage"):
        self._inner = inner
        self._storage = storage

    def append(self, data: bytes) -> None:
        self._inner.append(data)
        self._storage._m_write_ops.inc()
        self._storage._m_write_bytes.inc(len(data))

    def flush(self) -> None:
        self._inner.flush()

    def sync(self) -> None:
        self._inner.sync()
        self._storage._m_sync_ops.inc()

    def tell(self) -> int:
        return self._inner.tell()

    def close(self) -> None:
        self._inner.close()


class _MeteredReadable(ReadableFile):
    def __init__(self, inner: ReadableFile, storage: "MeteredStorage"):
        self._inner = inner
        self._storage = storage

    def pread(self, offset: int, length: int) -> bytes:
        data = self._inner.pread(offset, length)
        self._storage._m_read_ops.inc()
        self._storage._m_read_bytes.inc(len(data))
        return data

    def size(self) -> int:
        return self._inner.size()

    def close(self) -> None:
        self._inner.close()


class MeteredStorage(Storage):
    """Forward to an inner storage while counting I/O into a registry.

    The accounting sibling of :class:`TimedStorage`: every pread /
    append / sync increments ``io.<device>.{read,write}.{ops,bytes}``
    and ``io.<device>.sync.ops`` counters in a
    :class:`repro.obs.MetricsRegistry`.  ``device`` defaults to the
    inner storage's class name (``mem``, ``os``, ``timed``), so two
    devices metered into one registry stay distinguishable.
    """

    def __init__(self, inner: Storage, metrics, device: Optional[str] = None):
        self.inner = inner
        device = device or type(inner).__name__.removesuffix("Storage").lower()
        self.device = device
        self._m_read_ops = metrics.counter(f"io.{device}.read.ops")
        self._m_read_bytes = metrics.counter(f"io.{device}.read.bytes")
        self._m_write_ops = metrics.counter(f"io.{device}.write.ops")
        self._m_write_bytes = metrics.counter(f"io.{device}.write.bytes")
        self._m_sync_ops = metrics.counter(f"io.{device}.sync.ops")

    def create(self, name: str) -> WritableFile:
        return _MeteredWritable(self.inner.create(name), self)

    def open(self, name: str) -> ReadableFile:
        return _MeteredReadable(self.inner.open(name), self)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    def rename(self, old: str, new: str) -> None:
        self.inner.rename(old, new)

    def list(self) -> list[str]:
        return self.inner.list()

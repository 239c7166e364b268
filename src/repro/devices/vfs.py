"""Virtual filesystem abstraction for the LSM engine.

The engine never touches ``open()`` directly; it goes through a
:class:`Storage`, so the same code runs against real files
(:class:`OSStorage`) or an in-memory store (:class:`MemStorage`, used by
tests and by the simulated experiments).

A :class:`StorageWrapper` forwards to an inner storage and lets a
subclass interpose on each append, sync and read.  Three do:
:class:`MeteredStorage` counts I/O into a metrics registry (every
``DB`` wraps its storage in one), :class:`TimedStorage` charges a
device model and books the seconds to a ledger, and
:class:`repro.devices.faults.FaultyStorage` injects the faults of a
plan.  They stack: each one's :attr:`~StorageWrapper.inner` is the next.
"""

from __future__ import annotations

import errno
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
    "StorageWrapper",
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

    def try_pread(self, offset: int, length: int) -> Optional[bytes]:
        """The ``length`` bytes at ``offset`` if the OS can hand them
        over without waiting for the device, else None (the caller
        repeats the read with :meth:`pread` where it may wait).  A file
        that cannot tell says None."""
        return None

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
    #: ``preadv`` flag for "only what the page cache holds"; 0 where the
    #: platform lacks it or the kernel refused it once (no retry per read).
    _nowait = getattr(os, "RWF_NOWAIT", 0) if hasattr(os, "preadv") else 0

    def __init__(self, path: str) -> None:
        # ``_closed`` must exist before os.open so that __del__ of a
        # half-constructed instance (open() raised) stays silent.
        self._closed = True
        self._fd = os.open(path, os.O_RDONLY)
        self._size = os.fstat(self._fd).st_size
        self._closed = False

    def pread(self, offset: int, length: int) -> bytes:
        return os.pread(self._fd, length, offset)

    def try_pread(self, offset: int, length: int) -> Optional[bytes]:
        if not _OSReadable._nowait:
            return None
        buf = bytearray(length)
        try:
            n = os.preadv(self._fd, [buf], offset, _OSReadable._nowait)
        except BlockingIOError:  # EAGAIN: not (all) in the page cache
            return None
        except OSError as exc:
            if exc.errno not in (errno.EOPNOTSUPP, errno.EINVAL):
                raise
            _OSReadable._nowait = 0
            return None
        # A short read is a range only partly cached (or past EOF):
        # the waiting read tells the two apart.
        return bytes(buf) if n == length else None

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


# ------------------------------------------------------------- wrapper
class _WrappedWritable(WritableFile):
    def __init__(self, inner: WritableFile, storage: "StorageWrapper", name: str):
        self._inner = inner
        self._storage = storage
        self._name = name

    def append(self, data: bytes) -> None:
        self._storage._append(self._inner, self._name, data)

    def flush(self) -> None:
        self._inner.flush()

    def sync(self) -> None:
        self._storage._sync(self._inner, self._name)

    def tell(self) -> int:
        return self._inner.tell()

    def close(self) -> None:
        self._inner.close()


class _WrappedReadable(ReadableFile):
    def __init__(self, inner: ReadableFile, storage: "StorageWrapper", name: str):
        self._inner = inner
        self._storage = storage
        self._name = name

    def pread(self, offset: int, length: int) -> bytes:
        return self._storage._pread(self._inner, self._name, offset, length)

    def try_pread(self, offset: int, length: int) -> Optional[bytes]:
        return self._storage._try_pread(self._inner, self._name, offset, length)

    def size(self) -> int:
        return self._inner.size()

    def close(self) -> None:
        self._inner.close()


class StorageWrapper(Storage):
    """Forward every operation to the storage :attr:`inner`.

    A subclass interposes on file I/O by overriding the per-op hooks
    below; each is handed the inner file and the file's name, and makes
    the inner call itself.  Name operations forward unchanged unless a
    subclass overrides them.  ``_try_pread`` answers None by default: a
    wrapper that must see every read keeps reads on the waiting path.
    """

    def __init__(self, inner: Storage) -> None:
        self.inner = inner

    def _append(self, f: WritableFile, name: str, data: bytes) -> None:
        f.append(data)

    def _sync(self, f: WritableFile, name: str) -> None:
        f.sync()

    def _pread(self, f: ReadableFile, name: str, offset: int, length: int) -> bytes:
        return f.pread(offset, length)

    def _try_pread(
        self, f: ReadableFile, name: str, offset: int, length: int
    ) -> Optional[bytes]:
        return None

    def create(self, name: str) -> WritableFile:
        return _WrappedWritable(self.inner.create(name), self, name)

    def open(self, name: str) -> ReadableFile:
        return _WrappedReadable(self.inner.open(name), self, name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    def rename(self, old: str, new: str) -> None:
        self.inner.rename(old, new)

    def list(self) -> list[str]:
        return self.inner.list()


class TimedStorage(StorageWrapper):
    """Forward to an inner storage while charging a device model.

    Each append and pread is charged to ``device`` as an access of its
    size at its offset, in a stream named after the file, and each sync
    costs the fixed ``sync_s``.  The charged seconds accumulate in
    :attr:`io_seconds`, a ledger only: nothing waits for them.
    """

    def __init__(self, inner: Storage, device: Device, sync_s: float = 0.0) -> None:
        super().__init__(inner)
        self.device = device
        self.sync_s = sync_s
        self.io_seconds = 0.0

    def _append(self, f: WritableFile, name: str, data: bytes) -> None:
        offset = f.tell()
        f.append(data)
        self.io_seconds += self.device.write_time(len(data), stream=name, offset=offset)

    def _sync(self, f: WritableFile, name: str) -> None:
        f.sync()
        self.io_seconds += self.sync_s

    def _pread(self, f: ReadableFile, name: str, offset: int, length: int) -> bytes:
        data = f.pread(offset, length)
        self.io_seconds += self.device.read_time(len(data), stream=name, offset=offset)
        return data


class MeteredStorage(StorageWrapper):
    """Forward to an inner storage while counting I/O into a registry.

    Every pread (and every ``try_pread`` that returned bytes) / append /
    sync increments ``io.<device>.{read,write}.{ops,bytes}`` and
    ``io.<device>.sync.ops`` counters in a
    :class:`repro.obs.MetricsRegistry`.  ``device`` defaults to the
    inner storage's class name (``mem``, ``os``, ``faulty``, ``timed``),
    so two devices metered into one registry stay distinguishable.
    """

    def __init__(self, inner: Storage, metrics, device: Optional[str] = None):
        super().__init__(inner)
        device = device or type(inner).__name__.removesuffix("Storage").lower()
        self.device = device
        self._m_read_ops = metrics.counter(f"io.{device}.read.ops")
        self._m_read_bytes = metrics.counter(f"io.{device}.read.bytes")
        self._m_write_ops = metrics.counter(f"io.{device}.write.ops")
        self._m_write_bytes = metrics.counter(f"io.{device}.write.bytes")
        self._m_sync_ops = metrics.counter(f"io.{device}.sync.ops")

    def _append(self, f: WritableFile, name: str, data: bytes) -> None:
        f.append(data)
        self._m_write_ops.inc()
        self._m_write_bytes.inc(len(data))

    def _sync(self, f: WritableFile, name: str) -> None:
        f.sync()
        self._m_sync_ops.inc()

    def _pread(self, f: ReadableFile, name: str, offset: int, length: int) -> bytes:
        data = f.pread(offset, length)
        self._m_read_ops.inc()
        self._m_read_bytes.inc(len(data))
        return data

    def _try_pread(
        self, f: ReadableFile, name: str, offset: int, length: int
    ) -> Optional[bytes]:
        data = f.try_pread(offset, length)
        if data is not None:
            self._m_read_ops.inc()
            self._m_read_bytes.inc(len(data))
        return data

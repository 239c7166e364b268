"""Shared test helpers.

``corrupt_file`` is the canonical bit-flip seeder (it lives in
:mod:`repro.devices.faults` so the fsck/chaos tooling can use it too);
``small_options`` is the common tiny-engine configuration the db tests
use so a few hundred keys produce flushes and multi-level compactions;
``RecordingStorage`` logs every write-side call, the durability
oracle's view of a run.
"""

import threading
import time

from repro.devices.faults import corrupt_file
from repro.devices.vfs import Storage, WritableFile
from repro.lsm import Options

__all__ = ["RecordingStorage", "corrupt_file", "small_options"]


def small_options(**kw):
    defaults = dict(
        memtable_bytes=16 * 1024,
        sstable_bytes=8 * 1024,
        block_bytes=1024,
        level1_bytes=32 * 1024,
        level_multiplier=4,
        compression="lz77",
    )
    defaults.update(kw)
    return Options(**defaults)


class _RecordingWritable(WritableFile):
    def __init__(self, inner: WritableFile, storage: "RecordingStorage", name: str):
        self._inner = inner
        self._storage = storage
        self._name = name
        self._open = True

    def append(self, data: bytes) -> None:
        self._storage._log("append", self._name)
        self._inner.append(data)

    def flush(self) -> None:
        self._inner.flush()

    def sync(self) -> None:
        self._storage._log("sync", self._name)
        time.sleep(self._storage.sync_sleep_s)
        self._inner.sync()

    def tell(self) -> int:
        return self._inner.tell()

    def close(self) -> None:
        if self._open:
            self._open = False
            self._storage._log("close", self._name, opened=-1)
        self._inner.close()


class RecordingStorage(Storage):
    """Forward to ``inner``, logging each write-side call on a file.

    ``log`` holds ``(op, name)`` in call order for ``create``,
    ``append``, ``sync`` and ``close``; an append or a sync is logged
    before the inner call, so one that raises is logged too.
    ``open_files`` counts files created and not yet closed, ``max_open``
    its high-water mark.  Every sync sleeps ``sync_sleep_s`` first: a
    slow device's barrier.
    """

    def __init__(self, inner: Storage, sync_sleep_s: float = 0.0) -> None:
        self.inner = inner
        self.sync_sleep_s = sync_sleep_s
        self.log: list[tuple[str, str]] = []
        self.open_files = 0
        self.max_open = 0
        self._lock = threading.Lock()

    def _log(self, op: str, name: str, opened: int = 0) -> None:
        with self._lock:
            self.log.append((op, name))
            self.open_files += opened
            self.max_open = max(self.max_open, self.open_files)

    def create(self, name: str) -> WritableFile:
        file = self.inner.create(name)
        self._log("create", name, opened=1)
        return _RecordingWritable(file, self, name)

    def open(self, name: str):
        return self.inner.open(name)

    def exists(self, name: str) -> bool:
        return self.inner.exists(name)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    def rename(self, old: str, new: str) -> None:
        self.inner.rename(old, new)

    def list(self) -> list[str]:
        return self.inner.list()

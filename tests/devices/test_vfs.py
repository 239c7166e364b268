"""Tests for the virtual filesystem (Mem/OS/Timed storage)."""

import pytest

from repro.devices import (
    HDD,
    MemStorage,
    OSStorage,
    SSD,
    StorageError,
    TimedStorage,
)


def _roundtrip(storage):
    with storage.create("f1") as f:
        f.append(b"hello ")
        f.append(b"world")
        assert f.tell() == 11
    with storage.open("f1") as r:
        assert r.size() == 11
        assert r.pread(0, 5) == b"hello"
        assert r.pread(6, 5) == b"world"
        assert r.read_all() == b"hello world"


class TestMemStorage:
    def test_roundtrip(self):
        _roundtrip(MemStorage())

    def test_open_missing(self):
        with pytest.raises(StorageError):
            MemStorage().open("nope")

    def test_delete(self):
        s = MemStorage()
        s.create("a").close()
        assert s.exists("a")
        s.delete("a")
        assert not s.exists("a")
        with pytest.raises(StorageError):
            s.delete("a")

    def test_rename(self):
        s = MemStorage()
        with s.create("old") as f:
            f.append(b"data")
        s.rename("old", "new")  # repro: noqa[RA201] - rename semantics, not a commit
        assert not s.exists("old")
        assert s.open("new").read_all() == b"data"

    def test_rename_missing(self):
        with pytest.raises(StorageError):
            MemStorage().rename("x", "y")

    def test_list_sorted(self):
        s = MemStorage()
        for name in ("c", "a", "b"):
            s.create(name).close()
        assert s.list() == ["a", "b", "c"]

    def test_total_bytes(self):
        s = MemStorage()
        with s.create("x") as f:
            f.append(b"12345")
        assert s.total_bytes() == 5

    def test_reader_sees_published_appends(self):
        # WAL pattern: a reader opened mid-write sees flushed data.
        s = MemStorage()
        w = s.create("wal")
        w.append(b"record1")
        assert s.open("wal").read_all() == b"record1"
        w.append(b"record2")
        assert s.open("wal").read_all() == b"record1record2"
        w.close()

    def test_open_reader_sees_later_appends(self):
        # A follower tailing the live WAL keeps one reader open.
        s = MemStorage()
        w = s.create("wal")
        w.append(b"record1")
        r = s.open("wal")
        first = r.read_all()
        w.append(b"record2")
        assert r.size() == 14 and r.pread(7, 7) == b"record2"
        # What was read is the caller's: bytes, untouched by the append.
        assert type(first) is bytes and first == b"record1"

    def test_append_costs_its_own_bytes_not_the_files(self):
        # 16 MB in 4 KB appends.  Re-publishing a copy of the file per
        # append moved 32 GB here (seconds); appending in place, 16 MB.
        import time

        s = MemStorage()
        block = b"x" * 4096
        t0 = time.perf_counter()
        with s.create("big") as f:
            for _ in range(4096):
                f.append(block)
        assert time.perf_counter() - t0 < 1.0
        assert s.file_size("big") == 4096 * 4096

    def test_append_after_close_rejected(self):
        s = MemStorage()
        f = s.create("x")
        f.close()
        with pytest.raises(StorageError):
            f.append(b"more")

    def test_pread_past_end_returns_short(self):
        s = MemStorage()
        with s.create("x") as f:
            f.append(b"abc")
        assert s.open("x").pread(2, 100) == b"c"

    def test_pread_negative_rejected(self):
        s = MemStorage()
        s.create("x").close()
        with pytest.raises(ValueError):
            s.open("x").pread(-1, 5)


class TestOSStorage:
    def test_roundtrip(self, tmp_path):
        _roundtrip(OSStorage(str(tmp_path)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            OSStorage(str(tmp_path)).open("ghost")

    def test_delete_and_rename(self, tmp_path):
        s = OSStorage(str(tmp_path))
        with s.create("a") as f:
            f.append(b"1")
        s.rename("a", "b")  # repro: noqa[RA201] - rename semantics, not a commit
        assert s.list() == ["b"]
        s.delete("b")
        assert s.list() == []

    def test_delete_missing(self, tmp_path):
        with pytest.raises(StorageError):
            OSStorage(str(tmp_path)).delete("ghost")

    def test_rename_missing(self, tmp_path):
        with pytest.raises(StorageError):
            OSStorage(str(tmp_path)).rename("ghost", "x")

    def test_sync_is_durable_noop_functionally(self, tmp_path):
        s = OSStorage(str(tmp_path))
        with s.create("a") as f:
            f.append(b"xyz")
            f.sync()
        assert s.open("a").read_all() == b"xyz"

    def test_file_size(self, tmp_path):
        s = OSStorage(str(tmp_path))
        with s.create("a") as f:
            f.append(b"12345678")
        assert s.file_size("a") == 8


class TestTimedStorage:
    def test_charges_for_io(self):
        ts = TimedStorage(MemStorage(), SSD())
        with ts.create("f") as f:
            f.append(b"x" * 4096)
        assert ts.io_seconds > 0
        before = ts.io_seconds
        ts.open("f").pread(0, 4096)
        assert ts.io_seconds > before

    def test_functional_passthrough(self):
        ts = TimedStorage(MemStorage(), SSD())
        _roundtrip(ts)
        ts.rename("f1", "f2")
        assert ts.exists("f2") and not ts.exists("f1")
        assert ts.list() == ["f2"]
        ts.delete("f2")
        assert ts.list() == []

    def test_sync_charges_fixed_cost(self):
        ts = TimedStorage(MemStorage(), SSD(), sync_s=0.005)
        with ts.create("f") as f:
            f.append(b"d")
            before = ts.io_seconds
            f.sync()
        assert ts.io_seconds == pytest.approx(before + 0.005)

    def test_sequential_appends_cheaper_on_hdd(self):
        """Back-to-back appends to one file are sequential on disk."""
        hdd = HDD()
        ts = TimedStorage(MemStorage(), hdd)
        with ts.create("log") as f:
            f.append(b"a" * 1024)
            f.append(b"b" * 1024)
        assert hdd.stats.seeks <= 1  # only the first write repositions

"""Tests for the virtual filesystem: Mem/OS storage and the wrappers
(Timed, Metered, Faulty) that forward to an inner storage."""

import pytest

from repro.devices import (
    HDD,
    FaultyStorage,
    MemStorage,
    MeteredStorage,
    OSStorage,
    SSD,
    StorageError,
    TimedStorage,
)
from repro.devices.base import Device
from repro.obs import MetricsRegistry


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

    def test_second_append_is_charged_at_the_first_ones_length(self):
        device = _RecordingDevice()
        ts = TimedStorage(MemStorage(), device)
        with ts.create("log") as f:
            f.append(b"first")
            f.append(b"second!")
        ts.open("log").pread(5, 7)
        assert device.log == [
            ("write", 5, "log", 0),
            ("write", 7, "log", 5),
            ("read", 7, "log", 5),
        ]
        assert ts.io_seconds == pytest.approx(0.003)


class _RecordingDevice(Device):
    """Charges 1 ms per access and logs ``(kind, size, stream, offset)``."""

    def __init__(self) -> None:
        super().__init__("recording")
        self.log: list[tuple] = []

    def _service_time(self, kind, size, sequential):
        return 0.001

    def read_time(self, size, stream=None, offset=None):
        self.log.append(("read", size, stream, offset))
        return 0.001

    def write_time(self, size, stream=None, offset=None):
        self.log.append(("write", size, stream, offset))
        return 0.001


class _ResidentMem(MemStorage):
    """Every byte is already in memory: ``try_pread`` answers."""

    def open(self, name):
        f = super().open(name)
        f.try_pread = f.pread
        return f


def _io(registry, device="mem"):
    counters = registry.snapshot()["counters"]
    return {
        name.removeprefix(f"io.{device}."): value
        for name, value in counters.items()
        if name.startswith(f"io.{device}.")
    }


class TestMeteredStorage:
    def test_pread_counts_one_op_and_the_bytes_returned(self):
        registry = MetricsRegistry()
        ms = MeteredStorage(MemStorage(), registry)
        with ms.create("f") as f:
            f.append(b"0123456789")
        r = ms.open("f")
        assert r.pread(2, 4) == b"2345"
        assert r.pread(8, 100) == b"89"  # short at EOF: 2 bytes counted
        io = _io(registry)
        assert (io["read.ops"], io["read.bytes"]) == (2, 6)

    def test_try_pread_that_returns_none_counts_nothing(self):
        registry = MetricsRegistry()
        ms = MeteredStorage(MemStorage(), registry)
        with ms.create("f") as f:
            f.append(b"abc")
        assert ms.open("f").try_pread(0, 3) is None
        io = _io(registry)
        assert (io["read.ops"], io["read.bytes"]) == (0, 0)

    def test_try_pread_that_returns_bytes_counts_them(self):
        registry = MetricsRegistry()
        ms = MeteredStorage(_ResidentMem(), registry, device="mem")
        with ms.create("f") as f:
            f.append(b"abc")
        assert ms.open("f").try_pread(1, 2) == b"bc"
        io = _io(registry)
        assert (io["read.ops"], io["read.bytes"]) == (1, 2)

    def test_append_and_sync_count(self):
        registry = MetricsRegistry()
        ms = MeteredStorage(MemStorage(), registry)
        with ms.create("f") as f:
            f.append(b"abcd")
            f.append(b"ef")
            f.sync()
            f.flush()  # not an op
        assert _io(registry) == {
            "read.ops": 0, "read.bytes": 0,
            "write.ops": 2, "write.bytes": 6,
            "sync.ops": 1,
        }

    @pytest.mark.parametrize("inner, device", [
        (MemStorage, "mem"),
        (lambda: FaultyStorage(MemStorage()), "faulty"),
        (lambda: TimedStorage(MemStorage(), SSD()), "timed"),
    ])
    def test_default_device_is_the_inner_class_name(self, inner, device):
        ms = MeteredStorage(inner(), MetricsRegistry())
        assert ms.device == device

    def test_explicit_device_names_the_counters(self):
        registry = MetricsRegistry()
        ms = MeteredStorage(MemStorage(), registry, device="ssd0")
        assert ms.device == "ssd0"
        with ms.create("f") as f:
            f.append(b"x")
        assert _io(registry, "ssd0")["write.ops"] == 1
        assert _io(registry, "mem") == {}


def _script(storage) -> list:
    """Every name operation and file operation once; what each returned."""
    out = []
    with storage.create("a") as f:
        f.append(b"hello ")
        f.sync()
        f.append(b"world")
        out.append(f.tell())
    with storage.open("a") as r:
        out += [r.size(), r.pread(6, 5), r.pread(9, 10), r.read_all()]
    storage.create("b").close()
    out += [storage.exists("a"), storage.exists("zz"), storage.list()]
    storage.rename("a", "c")  # repro: noqa[RA201] - rename semantics, not a commit
    out += [storage.list(), storage.file_size("c")]
    storage.delete("b")
    out.append(storage.list())
    for op in (
        lambda: storage.open("ghost"),
        lambda: storage.delete("ghost"),
        lambda: storage.rename("ghost", "x"),
        lambda: storage.file_size("ghost"),
    ):
        with pytest.raises(StorageError):
            op()
    return out


_WRAPPERS = {
    "timed": lambda inner: TimedStorage(inner, SSD()),
    "metered": lambda inner: MeteredStorage(inner, MetricsRegistry()),
    "faulty": FaultyStorage,
    "metered-faulty": lambda inner: MeteredStorage(
        FaultyStorage(inner), MetricsRegistry()
    ),
}


@pytest.mark.parametrize("wrap", sorted(_WRAPPERS))
def test_a_wrapper_behaves_as_its_inner_storage(wrap):
    inner = MemStorage()
    assert _script(_WRAPPERS[wrap](inner)) == _script(MemStorage())
    assert inner.list() == ["c"]
    assert inner.open("c").read_all() == b"hello world"

"""Tests for the dbtool CLI."""

import pytest

from repro.db import DB
from repro.devices import OSStorage
from repro.lsm import Options
from repro.tools.dbtool import main


@pytest.fixture()
def db_dir(tmp_path):
    path = str(tmp_path / "db")
    db = DB(OSStorage(path), Options(memtable_bytes=8 * 1024,
                                     sstable_bytes=8 * 1024,
                                     level1_bytes=32 * 1024,
                                     level_multiplier=4))
    for i in range(500):
        db.put(b"key-%04d" % i, b"value-%d" % i)
    db.flush()
    db.close()
    return path


def test_stats(db_dir, capsys):
    assert main(["stats", db_dir]) == 0
    out = capsys.readouterr().out
    assert "live entries: 500" in out
    assert "total table bytes" in out


def test_verify_ok(db_dir, capsys):
    assert main(["verify", db_dir]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_detects_corruption(db_dir, capsys):
    import os

    victim = next(
        f for f in sorted(os.listdir(db_dir)) if f.endswith(".sst")
    )
    path = os.path.join(db_dir, victim)
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[12] ^= 0xFF
    with open(path, "wb") as f:
        f.write(bytes(data))
    assert main(["verify", db_dir]) == 1
    assert "CORRUPT" in capsys.readouterr().out


def test_repair_roundtrip(db_dir, capsys):
    import os

    os.remove(os.path.join(db_dir, "CURRENT"))
    assert main(["repair", db_dir]) == 0
    assert "salvaged" in capsys.readouterr().out
    assert main(["verify", db_dir]) == 0


def test_dump_with_range_and_limit(db_dir, capsys):
    assert main(["dump", db_dir, "--start", "key-0100",
                 "--end", "key-0200", "--limit", "5"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("key-0100 =")
    assert "(5 entries)" in captured.err


def test_dump_keys_only(db_dir, capsys):
    assert main(["dump", db_dir, "--limit", "2", "--keys-only"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["key-0000", "key-0001"]


def test_compact(db_dir, capsys):
    assert main(["compact", db_dir]) == 0
    assert "compactions" in capsys.readouterr().out
    assert main(["verify", db_dir]) == 0


def test_fsck_clean(db_dir, capsys):
    assert main(["fsck", db_dir]) == 0
    assert "OK" in capsys.readouterr().out


def test_fsck_detects_without_repair(db_dir, capsys):
    import os

    os.remove(os.path.join(db_dir, "CURRENT"))
    assert main(["fsck", db_dir]) == 1
    assert "--repair" in capsys.readouterr().out


def test_fsck_repairs_damaged_store(db_dir, capsys):
    import os

    os.remove(os.path.join(db_dir, "CURRENT"))
    assert main(["fsck", db_dir, "--repair"]) == 0
    out = capsys.readouterr().out
    assert "salvaged" in out
    assert "OK" in out
    assert main(["verify", db_dir]) == 0
    with DB(OSStorage(db_dir), Options()) as db:
        assert sum(1 for _ in db.items()) == 500


def test_fsck_unrepairable_exits_nonzero(tmp_path, capsys):
    # An empty directory has nothing to salvage, but repair builds a
    # valid empty store — so damage the rebuilt CURRENT's target.
    path = str(tmp_path / "broken")
    import os

    os.makedirs(path)
    with open(os.path.join(path, "CURRENT"), "w") as f:
        f.write("MANIFEST-nonexistent\n")
    assert main(["fsck", path]) == 1


def test_trace_with_benign_fault_plan(tmp_path, capsys):
    out = str(tmp_path / "trace.json")
    assert main([
        "trace", out, "--ops", "200", "--records", "200",
        "--fault-plan", '{"seed": 3}',
    ]) == 0
    assert "wrote" in capsys.readouterr().out


def test_trace_fault_plan_reaches_storage(tmp_path):
    from repro.devices.faults import TransientIOError

    # A hostile plan proves the flag wires into the write path: the
    # very first WAL append fails with the injected error.
    with pytest.raises(TransientIOError):
        main([
            "trace", str(tmp_path / "t.json"), "--ops", "50",
            "--records", "50", "--fault-plan", '{"fail_nth": {"write": 1}}',
        ])


def test_fault_plan_rejects_bad_json(tmp_path):
    with pytest.raises(ValueError):
        main([
            "trace", str(tmp_path / "t.json"),
            "--fault-plan", '{"crash_at": "bogus.point"}',
        ])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate", "/tmp/nope"])


def test_sst_inspect(db_dir, capsys):
    import os

    victim = next(f for f in sorted(os.listdir(db_dir)) if f.endswith(".sst"))
    assert main(["sst", db_dir, victim]) == 0
    out = capsys.readouterr().out
    assert "data blocks:" in out
    assert "key range:" in out
    assert "entries:" in out


def test_sst_prints_filter_layout(db_dir, tmp_path, capsys):
    import os

    from repro.devices import OSStorage
    from repro.lsm import KIND_VALUE, Options, TableBuilder, encode_internal_key

    victim = next(f for f in sorted(os.listdir(db_dir)) if f.endswith(".sst"))
    assert main(["sst", db_dir, victim]) == 0
    assert "filter:        per-block\n" in capsys.readouterr().out
    with OSStorage(str(tmp_path)).create("000009.sst") as f:
        builder = TableBuilder(f, Options(bloom_bits_per_key=0))
        for i in range(50):
            builder.add(encode_internal_key(b"k%03d" % i, 1, KIND_VALUE), b"v")
        builder.finish()
    assert main(["sst", str(tmp_path), "000009.sst"]) == 0
    assert "filter:        none\n" in capsys.readouterr().out


def test_table_of_another_index_layout_is_unreadable(db_dir, capsys):
    """A footer whose layout byte (31) is 0, as a table written before
    the block facts holds, raises on open; verify reports the file,
    ``sst`` names it, and repair stops without dropping it."""
    import os

    from repro.lsm.table_format import FOOTER_SIZE, TableCorruption
    from repro.lsm.table_reader import Table

    victim = next(f for f in sorted(os.listdir(db_dir)) if f.endswith(".sst"))
    path = os.path.join(db_dir, victim)
    with open(path, "r+b") as f:
        f.seek(-FOOTER_SIZE + 31, os.SEEK_END)
        assert f.read(1) == b"\x01"
        f.seek(-FOOTER_SIZE + 31, os.SEEK_END)
        f.write(b"\x00")
    with pytest.raises(TableCorruption, match="unsupported index layout"):
        Table(OSStorage(db_dir).open(victim), Options())
    assert main(["verify", db_dir]) == 1
    out = capsys.readouterr().out
    assert f"{victim}: unreadable table: unsupported index layout" in out
    assert main(["sst", db_dir, victim]) == 1
    err = capsys.readouterr().err
    assert f"{victim}: unreadable table: unsupported index layout" in err
    assert main(["repair", db_dir]) == 1
    err = capsys.readouterr().err
    assert f"repair stopped: {victim}: unsupported index layout" in err
    assert main(["fsck", db_dir, "--repair"]) == 1
    out = capsys.readouterr().out
    assert f"fsck: repair stopped: {victim}: unsupported index layout" in out
    assert os.path.exists(path)
    assert main(["verify", db_dir]) == 1  # still listed by the manifest
    assert f"{victim}: unreadable table" in capsys.readouterr().out

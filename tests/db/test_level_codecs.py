"""Each level holds its codec.

The memtable flush writes L0 with zlib (``null`` stays ``null``), every
compaction writes ``Options.compression``, and a file leaves L0 only
through a merge that re-encodes it, unless the two codecs agree.  So
under every policy and procedure L0 holds zlib, the levels below hold
lz77, and a block of either may be ``null`` where compressing did not
shrink it.
"""

import random

import pytest

from repro.core import ProcedureSpec
from repro.db import DB
from repro.devices import MemStorage
from repro.lsm.table_reader import Table

from tests.helpers import small_options

POLICIES = ["leveled", "tiered:runs=4", "lazy-leveled:runs=4"]


class _Moves:
    """Observer recording the source level of every trivial move."""

    def __init__(self):
        self.levels = []

    def on_trivial_move(self, task):
        self.levels.append(task.level)

    def on_write(self, *args):
        pass

    on_flush = on_compaction = on_write


def _codecs(db, files):
    """The set of data-block codecs over ``files`` (FileMetaData)."""
    seen = set()
    for meta in files:
        table = Table(db.storage.open(meta.name), db.options)
        seen.update(table.block_codecs())
        table.close()
    return seen


def _levels(db):
    """(codecs at L0, codecs at L >= 1)."""
    below = [m for level, m in db.version.all_files() if level > 0]
    return _codecs(db, db.version.files[0]), _codecs(db, below)


def _fill(db, start=0):
    """A shuffled fill, then a sequential one above it, then a flush."""
    order = list(range(start, start + 1000))
    random.Random(5).shuffle(order)
    for i in order + list(range(start + 1000, start + 2000)):
        db.put(b"key-%06d" % i, b"value-%06d-" % i * 8)
    db.flush()


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize(
    "spec",
    [ProcedureSpec.scp(subtask_bytes=2048), ProcedureSpec.pcp(subtask_bytes=2048)],
    ids=["scp", "pcp"],
)
def test_each_level_holds_its_codec(policy, spec):
    storage = MemStorage()
    options = small_options(compaction_policy=policy)
    moves = _Moves()
    db = DB(storage, options, compaction_spec=spec, observer=moves)
    _fill(db)
    l0, below = _levels(db)
    assert l0 and l0 <= {"zlib", "null"}
    assert below and below <= {"lz77", "null"}
    db.compact_range()  # pushes what L0 holds, a single file under tiering
    assert db.version.num_files(0) == 0
    assert _levels(db)[1] <= {"lz77", "null"}
    assert 0 not in moves.levels  # every L0 file was merged

    # The WAL-recovery flush writes L0's codec too.
    for i in range(50):
        db.put(b"wal-%04d" % i, b"replayed-%04d-" % i * 8)
    db.close()
    db = DB(storage, options, compaction_spec=spec)
    assert db.version.num_files(0) == 1
    assert _levels(db)[0] == {"zlib"}
    db.close()

    # With no compression anywhere, L0 files still move down.
    moves = _Moves()
    options = small_options(compaction_policy=policy, compression="null")
    db = DB(MemStorage(), options, compaction_spec=spec, observer=moves)
    _fill(db)
    assert _levels(db)[0] == {"null"}
    db.compact_range()
    assert 0 in moves.levels
    assert _levels(db)[1] == {"null"}
    db.close()

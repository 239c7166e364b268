"""Tests for sub-task partitioning of a compaction key range."""

import pytest

from repro.core.subtask import partition_subtasks
from repro.devices import MemStorage
from repro.lsm.ikey import KIND_VALUE, decode_internal_key, encode_internal_key
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table


def _ik(user: bytes, seq: int = 1) -> bytes:
    return encode_internal_key(user, seq, KIND_VALUE)


def make_table(storage, name, entries, options):
    with storage.create(name) as f:
        builder = TableBuilder(f, options)
        for ikey, value in entries:
            builder.add(ikey, value)
        builder.finish()
    return Table(storage.open(name), options)


@pytest.fixture()
def tables():
    storage = MemStorage()
    options = Options(block_bytes=256, compression="null")
    upper = make_table(
        storage,
        "upper.sst",
        [(_ik(b"key-%05d" % i, 2), b"U" * 40) for i in range(0, 1000, 2)],
        options,
    )
    lower = make_table(
        storage,
        "lower.sst",
        [(_ik(b"key-%05d" % i, 1), b"L" * 40) for i in range(0, 1000, 3)],
        options,
    )
    return options, upper, lower


class TestPartition:
    def test_covers_all_upper_blocks_exactly_once(self, tables):
        _, upper, lower = tables
        subtasks = partition_subtasks([upper, lower], subtask_bytes=2048)
        seen = []
        for sub in subtasks:
            seen.extend(sub.runs[0].handles)
        assert sorted(h.offset for h in seen) == sorted(
            h.offset for h in upper.block_handles()
        )
        assert len(seen) == len(set(h.offset for h in seen))

    def test_multiple_subtasks_created(self, tables):
        _, upper, lower = tables
        subtasks = partition_subtasks([upper, lower], subtask_bytes=2048)
        assert len(subtasks) > 3

    def test_bounds_are_contiguous_and_disjoint(self, tables):
        _, upper, lower = tables
        subtasks = partition_subtasks([upper, lower], subtask_bytes=2048)
        assert subtasks[0].lower is None
        assert subtasks[-1].upper is None
        for a, b in zip(subtasks, subtasks[1:]):
            assert a.upper == b.lower

    def test_every_entry_lands_in_exactly_one_subtask(self, tables):
        """The no-data-dependency invariant: union of [lower, upper)
        windows assigns each user key to exactly one sub-task."""
        _, upper, lower = tables
        subtasks = partition_subtasks([upper, lower], subtask_bytes=2048)
        all_users = set()
        for table in (upper, lower):
            for ikey, _ in table:
                all_users.add(decode_internal_key(ikey)[0])
        for user in all_users:
            owners = [
                s.index
                for s in subtasks
                if (s.lower is None or user >= s.lower)
                and (s.upper is None or user < s.upper)
            ]
            assert len(owners) == 1, f"{user!r} owned by {owners}"

    def test_subtask_blocks_cover_their_window(self, tables):
        """Blocks selected for a window contain every entry of it."""
        options, upper, lower = tables
        subtasks = partition_subtasks([upper, lower], subtask_bytes=2048)
        from repro.core.backends.threadbackend import run_subtask_read
        from repro.core.steps import step_decompress
        from repro.lsm.blockfmt import Block
        from repro.lsm.ikey import internal_compare

        total = 0
        for sub in subtasks:
            raws = step_decompress(run_subtask_read(sub))
            users = set()
            for raw in raws:
                for ikey, _ in Block(raw.raw, compare=internal_compare):
                    users.add(decode_internal_key(ikey)[0])
            in_window = {
                u
                for u in users
                if (sub.lower is None or u >= sub.lower)
                and (sub.upper is None or u < sub.upper)
            }
            total += len(in_window)
        # Every distinct user key (834 = 500 evens + 334 thirds - 167 sixths)
        all_users = set()
        for table in (upper, lower):
            for ikey, _ in table:
                all_users.add(decode_internal_key(ikey)[0])
        assert total == len(all_users)

    def test_single_giant_subtask(self, tables):
        _, upper, lower = tables
        subtasks = partition_subtasks([upper, lower], subtask_bytes=1 << 30)
        assert len(subtasks) == 1
        assert subtasks[0].lower is None and subtasks[0].upper is None

    def test_input_bytes_positive(self, tables):
        _, upper, lower = tables
        for sub in partition_subtasks([upper, lower], subtask_bytes=2048):
            assert sub.input_bytes() > 0
            assert sub.num_blocks() >= 1

    def test_window_clamping(self, tables):
        _, upper, lower = tables
        subtasks = partition_subtasks(
            [upper, lower],
            subtask_bytes=2048,
            lower=b"key-00200",
            upper=b"key-00700",
        )
        assert subtasks[0].lower == b"key-00200"
        assert subtasks[-1].upper == b"key-00700"

    def test_empty_inputs(self):
        assert partition_subtasks([], 1024) == []

    def test_invalid_subtask_bytes(self, tables):
        _, upper, lower = tables
        with pytest.raises(ValueError):
            partition_subtasks([upper, lower], 0)

    def test_single_table(self, tables):
        _, upper, _ = tables
        subtasks = partition_subtasks([upper], subtask_bytes=2048)
        assert all(len(s.runs) == 1 for s in subtasks)
        covered = sum(len(s.runs[0].handles) for s in subtasks)
        assert covered == upper.num_blocks()


def _shape(name):
    """Three input shapes whose runs do not span the same keys."""
    storage = MemStorage()
    options = Options(block_bytes=256, compression="null")

    def run(table_name, keys, seq):
        return make_table(
            storage, table_name,
            [(_ik(b"key-%05d" % i, seq), b"%c" % (65 + seq) * 40) for i in keys],
            options,
        )

    n = 600
    if name == "compact":  # perf's input: the lower run's second half is alone
        return [run("u.sst", range(n), 2), run("l.sst", range(0, 2 * n, 2), 1)]
    if name == "middle-third":  # the lower run has a head and a tail of its own
        return [run("u.sst", range(n, 2 * n), 2), run("l.sst", range(0, 3 * n, 2), 1)]
    # L0-like: four overlapping tables over an L1 run wider than all of them
    return [
        run("a.sst", range(900, 1500, 3), 5),
        run("b.sst", range(600, 1800, 5), 4),
        run("c.sst", range(1000, 1300), 3),
        run("d.sst", range(700, 1700, 4), 2),
        run("l.sst", range(0, 2400, 2), 1),
    ]


@pytest.mark.parametrize("shape", ["compact", "middle-third", "l0-over-l1"])
class TestSizeBound:
    """Every sub-task fits the executor's ``window x sub-task`` budget,
    wherever the newest run's keys happen to lie."""

    SUBTASK_BYTES = 4096

    def test_no_subtask_exceeds_the_bound(self, shape):
        tables = _shape(shape)
        subtasks = partition_subtasks(tables, self.SUBTASK_BYTES)
        one_block_per_run = sum(
            max(h.size + 5 for h in t.block_handles()) for t in tables
        )
        assert len(subtasks) > 3
        for sub in subtasks:
            assert sub.input_bytes() <= 2 * self.SUBTASK_BYTES + one_block_per_run, (
                f"sub-task {sub.index} reads {sub.num_blocks()} blocks"
            )

    def test_every_entry_lands_in_exactly_one_subtask(self, shape):
        tables = _shape(shape)
        subtasks = partition_subtasks(tables, self.SUBTASK_BYTES)
        assert subtasks[0].lower is None and subtasks[-1].upper is None
        for a, b in zip(subtasks, subtasks[1:]):
            assert a.upper == b.lower
        from repro.lsm.blockfmt import Block

        for source, table in enumerate(tables):
            for handle in table.block_handles():
                for ikey, _ in Block(table._load_block(handle)):
                    user = decode_internal_key(ikey)[0]
                    owners = [
                        s for s in subtasks
                        if (s.lower is None or user >= s.lower)
                        and (s.upper is None or user < s.upper)
                    ]
                    assert len(owners) == 1
                    # ... and that sub-task reads the block holding it
                    assert handle in owners[0].runs[source].handles

    def test_window_clamping_unchanged(self, shape):
        tables = _shape(shape)
        subtasks = partition_subtasks(
            tables, self.SUBTASK_BYTES, lower=b"key-00650", upper=b"key-01150"
        )
        assert subtasks[0].lower == b"key-00650"
        assert subtasks[-1].upper == b"key-01150"
        for a, b in zip(subtasks, subtasks[1:]):
            assert a.upper == b.lower

    def test_newest_run_blocks_are_never_split(self, shape):
        tables = _shape(shape)
        subtasks = partition_subtasks(tables, self.SUBTASK_BYTES)
        seen = [h.offset for s in subtasks for h in s.runs[0].handles]
        assert sorted(seen) == [h.offset for h in tables[0].block_handles()]


class TestSparseDriver:
    def test_size_bound_outranks_a_whole_driver_block(self):
        """One driver block spanning the whole lower run: the parent rule
        (never split a driver block) would make one giant sub-task."""
        storage = MemStorage()
        options = Options(block_bytes=256, compression="null")
        upper = make_table(
            storage, "u.sst",
            [(_ik(b"key-00000", 2), b"U"), (_ik(b"key-01999", 2), b"U")], options,
        )
        lower = make_table(
            storage, "l.sst",
            [(_ik(b"key-%05d" % i, 1), b"L" * 40) for i in range(1, 1999)], options,
        )
        subtasks = partition_subtasks([upper, lower], 4096)
        assert len(subtasks) > 10
        for sub in subtasks:
            assert sub.input_bytes() <= 2 * 4096 + 2 * (256 + 64)


class TestSnapshotKeepsBlockBehindACut:
    def test_older_versions_in_the_next_block_stay_with_their_key(self):
        """Several versions of one user key can straddle a block edge.
        When a live snapshot makes the merge keep the older ones, the
        sub-task that owns the key must read the block they are in —
        even if its boundary is that very edge."""
        storage = MemStorage()
        options = Options(block_bytes=256, compression="null")
        entries = []
        for i in range(400):
            user = b"key-%05d" % i
            entries.append((_ik(user, 1000 + i), b"new" * (3 + i % 7)))
            entries.append((_ik(user, 10 + i), b"old" * 10))
        table = make_table(storage, "t.sst", entries, options)
        from repro.lsm.blockfmt import Block

        def owned(subtasks):
            """(user, seq) pairs each sub-task reads inside its own window."""
            out = []
            for sub in subtasks:
                for handle in sub.runs[0].handles:
                    for ikey, _ in Block(table._load_block(handle)):
                        user, seq, _kind = decode_internal_key(ikey)
                        if (sub.lower is None or user >= sub.lower) and (
                            sub.upper is None or user < sub.upper
                        ):
                            out.append((user, seq))
            return out

        everything = [decode_internal_key(k)[:2] for k, _ in entries]
        kept = partition_subtasks([table], 1024, smallest_snapshot=5)
        assert sorted(owned(kept)) == sorted(everything)
        # No snapshot: the older versions are shadowed, the merge drops
        # them wherever they are, and no block is read twice for them.
        plain = partition_subtasks([table], 1024)
        assert sum(s.num_blocks() for s in plain) == table.num_blocks()
        assert sum(s.num_blocks() for s in kept) > table.num_blocks()
        newest = {(user, seq) for user, seq in everything if seq >= 1000}
        assert newest <= set(owned(plain))

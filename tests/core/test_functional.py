"""Functional compaction tests: the seven steps + procedure equivalence.

The paper's central legality argument is that sub-tasks are independent,
so any schedule produces the same merged output.  These tests compact
real tables with SCP, PCP, and C-PPCP and assert bit-identical results.
"""

import itertools
import random

import pytest

from repro.core.procedures import ProcedureSpec, compact_tables
from repro.core.steps import step_merge
from repro.devices import MemStorage
from repro.lsm.ikey import (
    KIND_DELETE,
    KIND_VALUE,
    MAX_SEQUENCE,
    decode_internal_key,
    encode_internal_key,
    lookup_key,
)
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import Table


def _ik(user, seq=1, kind=KIND_VALUE):
    return encode_internal_key(user, seq, kind)


def make_table(storage, name, entries, options):
    with storage.create(name) as f:
        builder = TableBuilder(f, options)
        for ikey, value in entries:
            builder.add(ikey, value)
        builder.finish()
    return Table(storage.open(name), options)


def _sorted_internal(entries):
    from repro.lsm.iterators import merge_iterators

    return list(merge_iterators([iter(sorted_run) for sorted_run in [entries]]))


@pytest.fixture()
def setup():
    storage = MemStorage()
    options = Options(
        block_bytes=512, sstable_bytes=2 * 1024, compression="lz77"
    )
    upper_entries = [
        (_ik(b"key-%05d" % i, 100 + i), b"new-value-%d" % i)
        for i in range(0, 600, 2)
    ]
    lower_entries = [
        (_ik(b"key-%05d" % i, 10), b"old-value-%d" % i) for i in range(0, 600, 3)
    ]
    upper = make_table(storage, "u.sst", upper_entries, options)
    lower = make_table(storage, "l.sst", lower_entries, options)
    return storage, options, upper, lower, upper_entries, lower_entries


def _expected_merge(upper_entries, lower_entries):
    """Model: newest version per user key."""
    best = {}
    for ikey, value in itertools.chain(upper_entries, lower_entries):
        user, seq, kind = decode_internal_key(ikey)
        if user not in best or best[user][0] < seq:
            best[user] = (seq, kind, value)
    out = []
    for user in sorted(best):
        seq, kind, value = best[user]
        out.append((encode_internal_key(user, seq, kind), value))
    return out


def _read_outputs(storage, options, outputs):
    entries = []
    for meta in outputs:
        table = Table(storage.open(meta.name), options)
        entries.extend(table)
    return entries


class TestSCPFunctional:
    def test_merged_output_matches_model(self, setup):
        storage, options, upper, lower, ue, le = setup
        counter = itertools.count(100)
        outputs, stats, subtasks = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=1024),
        )
        assert len(subtasks) > 2
        assert stats.n_subtasks == len(subtasks)
        got = _read_outputs(storage, options, outputs)
        assert got == _expected_merge(ue, le)

    def test_outputs_size_limited(self, setup):
        storage, options, upper, lower, *_ = setup
        counter = itertools.count(100)
        outputs, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        assert len(outputs) > 1  # paper: "multiple size-limited SSTables"
        for meta in outputs:
            # A file may exceed the limit by at most one block + metadata.
            assert meta.file_size < options.sstable_bytes + 4 * options.block_bytes

    def test_output_metadata_consistent(self, setup):
        storage, options, upper, lower, *_ = setup
        counter = itertools.count(100)
        outputs, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        from repro.lsm.ikey import internal_compare

        for meta in outputs:
            table = Table(storage.open(meta.name), options)
            entries = list(table)
            assert entries[0][0] == meta.smallest
            assert entries[-1][0] == meta.largest
        for a, b in zip(outputs, outputs[1:]):
            assert internal_compare(a.largest, b.smallest) < 0

    def test_point_lookups_work_on_outputs(self, setup):
        storage, options, upper, lower, *_ = setup
        counter = itertools.count(100)
        outputs, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        # key 4 is in both inputs: the upper (newer) value must win.
        for meta in outputs:
            if meta.smallest[:-8] <= b"key-00004" <= meta.largest[:-8]:
                table = Table(storage.open(meta.name), options)
                hit = table.get(lookup_key(b"key-00004", MAX_SEQUENCE))
                assert hit is not None
                assert hit[1] == b"new-value-4"
                return
        pytest.fail("no output file covers key-00004")


class TestProcedureEquivalence:
    @pytest.mark.parametrize(
        "spec, shared_pool",
        [
            (ProcedureSpec.pcp(subtask_bytes=2048), False),
            (ProcedureSpec.cppcp(k=3, subtask_bytes=2048), False),
            (ProcedureSpec.sppcp(k=2, subtask_bytes=2048), False),
            (ProcedureSpec.pcp(subtask_bytes=2048, queue_capacity=1), False),
            (ProcedureSpec.cppcp(k=2, subtask_bytes=2048), False),
            (ProcedureSpec.cppcp(k=4, subtask_bytes=2048), False),
            (ProcedureSpec.pcp(subtask_bytes=2048), True),
            (ProcedureSpec.cppcp(k=2, subtask_bytes=2048, backend="process"), False),
        ],
        ids=["pcp", "cppcp3", "sppcp2", "pcp-q1", "cppcp2", "cppcp4",
             "pcp-shared", "cppcp2-process"],
    )
    def test_pipelined_output_identical_to_scp(self, setup, spec, shared_pool):
        from repro.cluster import SharedComputePool

        storage, options, upper, lower, *_ = setup
        c1 = itertools.count(100)
        scp_out, scp_stats, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"scp-{next(c1):06d}.sst",
            spec=ProcedureSpec.scp(subtask_bytes=2048),
        )
        c2 = itertools.count(100)
        pool = SharedComputePool(2) if shared_pool else None
        try:
            pipe_out, pipe_stats, _ = compact_tables(
                [upper, lower], storage, options,
                file_namer=lambda: f"pipe-{next(c2):06d}.sst",
                spec=spec, compute_pool=pool,
            )
        finally:
            if pool is not None:
                pool.shutdown()
        scp_bytes = [storage.open(m.name).read_all() for m in scp_out]
        pipe_bytes = [storage.open(m.name).read_all() for m in pipe_out]
        assert scp_bytes == pipe_bytes  # bit-identical outputs
        # stage_seconds means the same under every executor: time inside
        # the stage.  Read and write run on the caller, so they fit in
        # the wall time; compute is measured where it ran.
        for stats in (scp_stats, pipe_stats):
            stages = stats.stage_seconds
            assert stages["read"] + stages["write"] <= stats.wall_seconds
            assert stages["compute"] > 0

    @pytest.mark.parametrize("shape", ["sequential-insert", "tiered-last-level"])
    def test_output_identical_where_blocks_pass_through(self, shape):
        """Inputs where some sub-tasks hold one run only, so blocks go
        to the output as stored: still SCP's bytes under every spec,
        and still the newest-wins merge."""
        storage = MemStorage()
        options = Options(block_bytes=512, sstable_bytes=2 * 1024, compression="lz77")

        def run(keys, seq, kind=KIND_VALUE):
            return [(_ik(b"key-%05d" % i, seq, kind), b"value-%d-%d" % (seq, i)) for i in keys]

        if shape == "sequential-insert":  # flushes of ascending keys: disjoint runs
            runs = [run(range(r * 200, r * 200 + 200), 9 - r) for r in range(4)]
            drop_deletes = False
        else:  # small new runs over the middle of one big old run, nothing below
            newest = run(range(250, 400), 9)
            newest[10] = (_ik(b"key-00260", 9, KIND_DELETE), b"")
            oldest = run(range(0, 1000), 1)
            oldest[700] = (_ik(b"key-00700", 1, KIND_DELETE), b"")  # dropped here
            runs = [newest, run(range(200, 300), 5), oldest]
            drop_deletes = True
        tables = [
            make_table(storage, f"in-{i}.sst", entries, options)
            for i, entries in enumerate(runs)
        ]
        specs = {
            "scp": ProcedureSpec.scp(subtask_bytes=2048),
            "pcp": ProcedureSpec.pcp(subtask_bytes=2048),
            "cppcp2": ProcedureSpec.cppcp(k=2, subtask_bytes=2048),
            "cppcp2-process": ProcedureSpec.cppcp(
                k=2, subtask_bytes=2048, backend="process"
            ),
        }
        written = {}
        for name, spec in specs.items():
            numbers = itertools.count(100)
            outputs, stats, _ = compact_tables(
                tables, storage, options,
                file_namer=lambda: f"{name}-{next(numbers):06d}.sst",
                spec=spec, drop_deletes=drop_deletes,
            )
            written[name] = [storage.open(m.name).read_all() for m in outputs]
            assert stats.passthrough_blocks > 0
            assert 0 < stats.passthrough_bytes <= stats.input_bytes
            if name == "scp":
                expected = [
                    e for e in _expected_merge(*runs[:1], itertools.chain(*runs[1:]))
                    if not (drop_deletes and decode_internal_key(e[0])[2] == KIND_DELETE)
                ]
                assert _read_outputs(storage, options, outputs) == expected
                if shape == "sequential-insert":
                    assert stats.passthrough_bytes == stats.input_bytes
        assert all(blobs == written["scp"] for blobs in written.values())

    def test_output_identical_with_long_values_and_mixed_key_lengths(self):
        """The kernel-shaped sibling of the tests above: 1 KB values (a
        two-byte ``value_len`` in every entry header), user keys of
        several lengths on both sides of the 16-byte hash lane (some
        blocks hashed in lanes, some key by key).  Every spec writes
        SCP's bytes, the newest-wins merge, and in every table — inputs
        from the flush path, outputs from S4/S7 — the filter the
        per-key reference build gives."""
        from repro.codec.checksum import get_checksummer
        from repro.lsm.table_format import (
            FOOTER_SIZE, Footer, decode_block_contents, read_block,
        )
        from tests.lsm.bloom_reference import filter_of_keys

        storage = MemStorage()
        options = Options(block_bytes=4096, sstable_bytes=16 * 1024, compression="lz77")

        def user(i):
            return b"k%d" % i if i % 50 < 25 else b"long-user-key-%012d" % i

        def value(tag, i):  # half repetitive, half noise: lz77 keeps ~60 %
            return tag + random.Random(i).randbytes(500) + bytes([i % 7]) * 500

        upper = [(_ik(user(i), 20), value(b"u", i)) for i in range(0, 300, 2)]
        lower = [(_ik(user(i), 10), value(b"l", i)) for i in range(0, 300, 3)]
        upper.sort(key=lambda e: e[0][:-8])
        lower.sort(key=lambda e: e[0][:-8])
        tables = [
            make_table(storage, "in-0.sst", upper, options),
            make_table(storage, "in-1.sst", lower, options),
        ]

        def filter_ok(name):
            with storage.open(name) as f:
                footer = Footer.decode(f.pread(f.size() - FOOTER_SIZE, FOOTER_SIZE))
                blob = decode_block_contents(
                    read_block(f, footer.filter_handle), get_checksummer(options.checksum)
                )
            users = [ikey[:-8] for ikey, _ in Table(storage.open(name), options)]
            return blob == filter_of_keys(users, options.bloom_bits_per_key)

        assert filter_ok("in-0.sst") and filter_ok("in-1.sst")
        specs = {
            "scp": ProcedureSpec.scp(subtask_bytes=8192),
            "pcp": ProcedureSpec.pcp(subtask_bytes=8192),
            "cppcp2": ProcedureSpec.cppcp(k=2, subtask_bytes=8192),
            "cppcp2-process": ProcedureSpec.cppcp(k=2, subtask_bytes=8192, backend="process"),
        }
        written = {}
        for name, spec in specs.items():
            numbers = itertools.count(100)
            outputs, _, _ = compact_tables(
                tables, storage, options,
                file_namer=lambda: f"{name}-{next(numbers):06d}.sst", spec=spec,
            )
            written[name] = [storage.open(m.name).read_all() for m in outputs]
            assert all(filter_ok(m.name) for m in outputs)
            if name == "scp":
                assert len(outputs) > 1
                assert _read_outputs(storage, options, outputs) == _expected_merge(upper, lower)
        assert all(blobs == written["scp"] for blobs in written.values())

    def test_stats_account_input_bytes(self, setup):
        storage, options, upper, lower, *_ = setup
        counter = itertools.count(100)
        _, stats, subtasks = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.pcp(subtask_bytes=2048),
        )
        # Each input block once, however many sub-tasks read it.
        from repro.lsm.table_format import BLOCK_TRAILER_SIZE

        assert stats.input_bytes == sum(
            h.size + BLOCK_TRAILER_SIZE
            for table in (upper, lower)
            for h in table.block_handles()
        )
        assert stats.input_bytes <= sum(s.input_bytes() for s in subtasks)
        assert stats.output_bytes > 0
        assert stats.wall_seconds > 0
        assert stats.bandwidth() > 0


class TestTombstones:
    def _tables_with_deletes(self):
        storage = MemStorage()
        options = Options(block_bytes=256, compression="null")
        upper = make_table(
            storage,
            "u.sst",
            [
                (_ik(b"a", 20), b"va"),
                (_ik(b"b", 21, KIND_DELETE), b""),
                (_ik(b"c", 22), b"vc"),
            ],
            options,
        )
        lower = make_table(
            storage,
            "l.sst",
            [(_ik(b"b", 5), b"old-b"), (_ik(b"c", 6), b"old-c")],
            options,
        )
        return storage, options, upper, lower

    def test_tombstone_kept_at_intermediate_level(self):
        storage, options, upper, lower = self._tables_with_deletes()
        counter = itertools.count(500)
        outputs, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(), drop_deletes=False,
        )
        entries = _read_outputs(storage, options, outputs)
        users = [(decode_internal_key(k)[0], decode_internal_key(k)[2]) for k, _ in entries]
        assert (b"b", KIND_DELETE) in users  # tombstone survives
        assert len(entries) == 3  # a, b-tombstone, c(new)

    def test_tombstone_dropped_at_bottom_level(self):
        storage, options, upper, lower = self._tables_with_deletes()
        counter = itertools.count(500)
        outputs, _, _ = compact_tables(
            [upper, lower], storage, options,
            file_namer=lambda: f"{next(counter):06d}.sst",
            spec=ProcedureSpec.scp(), drop_deletes=True,
        )
        entries = _read_outputs(storage, options, outputs)
        users = [decode_internal_key(k)[0] for k, _ in entries]
        assert users == [b"a", b"c"]


class TestStepMerge:
    def test_empty_blocks(self):
        assert step_merge([], None, None, 4096) == []

    def test_bounds_filtering(self):
        from repro.core.steps import RawBlock
        from repro.lsm.blockfmt import BlockBuilder
        from repro.lsm.ikey import internal_compare

        builder = BlockBuilder(16, compare=internal_compare)
        for user in (b"a", b"b", b"c", b"d"):
            builder.add(_ik(user), user)
        raw = RawBlock(0, builder.finish())
        merged = step_merge([raw], b"b", b"d", 4096)
        got = []
        for block in merged:
            from repro.lsm.blockfmt import Block

            got.extend(
                decode_internal_key(k)[0]
                for k, _ in Block(block.raw, compare=internal_compare)
            )
        assert got == [b"b", b"c"]

    def test_key_hashes_attached(self):
        from repro.core.steps import RawBlock
        from repro.lsm.blockfmt import BlockBuilder
        from repro.lsm.bloom import bloom_hash
        from repro.lsm.ikey import internal_compare

        builder = BlockBuilder(16, compare=internal_compare)
        builder.add(_ik(b"xyz"), b"v")
        merged = step_merge([RawBlock(0, builder.finish())], None, None, 4096)
        assert merged[0].key_hashes == (bloom_hash(b"xyz"),)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            ProcedureSpec(kind="turbo")

    def test_scp_rejects_k(self):
        with pytest.raises(ValueError):
            ProcedureSpec(kind="scp", k=2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            ProcedureSpec(kind="sppcp", k=0)

    @pytest.mark.parametrize("kw", [
        dict(kind="pcp", queue_capacity=-3),
        dict(kind="pcp", queue_capacity=0),
        dict(kind="cppcp", k=2, handoff_overhead_s=-1.0),
        dict(kind="scp", queue_capacity=0),
    ])
    def test_bad_pipeline_fields_rejected_on_construction(self, kw):
        """What the schedule would reject never reaches a DB."""
        with pytest.raises(ValueError):
            ProcedureSpec(**kw)

    def test_pipeline_config_for_scp_rejected(self):
        with pytest.raises(ValueError):
            ProcedureSpec.scp().pipeline_config()

    def test_config_mapping(self):
        assert ProcedureSpec.sppcp(4).pipeline_config().n_devices == 4
        assert ProcedureSpec.cppcp(4).pipeline_config().compute_workers == 4
        assert ProcedureSpec.pcp().pipeline_config().n_devices == 1


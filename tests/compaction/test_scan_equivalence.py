"""Policy equivalence: the compaction policy decides *where bytes
live*, never *what the store contains*.  One workload — inserts,
overwrites, deletes, re-inserts — applied identically to a store under
each policy must produce byte-identical full scans, forward and
reverse, both mid-shape (runs still stacked) and after a full manual
compaction, and identical point lookups for every key ever touched."""

import random

import pytest

from repro.cluster import ShardedDB
from repro.db import DB
from repro.devices import MemStorage
from repro.lsm import Options

POLICIES = ["leveled", "tiered:runs=2", "lazy-leveled:runs=2"]


def tiny_options(policy):
    return Options(
        memtable_bytes=4096,
        sstable_bytes=4096,
        block_bytes=1024,
        level1_bytes=16384,
        level_multiplier=4,
        l0_compaction_trigger=2,
        compaction_policy=policy,
    )


def apply_workload(db, n_keys=350, n_ops=1400, seed=7):
    """Deterministic mixed mutation stream; returns the model dict."""
    rng = random.Random(seed)
    model = {}
    for i in range(n_ops):
        key = b"key-%04d" % rng.randrange(n_keys)
        roll = rng.random()
        if roll < 0.15:
            db.delete(key)
            model.pop(key, None)
        else:
            value = b"v-%d-%d" % (i, rng.randrange(1000))
            db.put(key, value)
            model[key] = value
    return model


@pytest.fixture(scope="module")
def stores():
    """The same workload into one store per policy (module-scoped: the
    fill is the expensive part and every test reads the same state)."""
    out = {}
    for policy in POLICIES:
        db = DB(MemStorage(), tiny_options(policy))
        model = apply_workload(db)
        db.flush()
        out[policy] = (db, model)
    yield out
    for db, _ in out.values():
        db.close()


class TestScanEquivalence:
    def test_models_agree(self, stores):
        models = [model for _, model in stores.values()]
        assert models[0] == models[1] == models[2]

    def test_forward_scans_identical_mid_shape(self, stores):
        scans = {p: list(db.scan()) for p, (db, _) in stores.items()}
        _, model = stores["leveled"]
        assert scans["leveled"] == sorted(model.items())
        assert scans["leveled"] == scans["tiered:runs=2"]
        assert scans["leveled"] == scans["lazy-leveled:runs=2"]

    def test_reverse_scans_identical_mid_shape(self, stores):
        scans = {p: list(db.scan_reverse()) for p, (db, _) in stores.items()}
        _, model = stores["leveled"]
        assert scans["leveled"] == sorted(model.items(), reverse=True)
        assert len(set(map(tuple, scans.values()))) == 1

    def test_range_scans_identical(self, stores):
        lo, hi = b"key-0050", b"key-0200"
        scans = [
            list(db.scan(lo, hi)) for db, _ in stores.values()
        ]
        assert scans[0] and scans[0] == scans[1] == scans[2]

    def test_point_lookups_identical(self, stores):
        (_, model) = stores["leveled"]
        for key_id in range(350):
            key = b"key-%04d" % key_id
            want = model.get(key)
            for policy, (db, _) in stores.items():
                assert db.get(key) == want, (policy, key)

    def test_scans_identical_after_full_compaction(self, stores):
        for db, _ in stores.values():
            db.compact_all()
        _, model = stores["leveled"]
        for policy, (db, _) in stores.items():
            assert list(db.scan()) == sorted(model.items()), policy
            assert list(db.scan_reverse()) == sorted(
                model.items(), reverse=True
            ), policy

    def test_layouts_actually_differed(self, stores):
        """Guard against vacuous equivalence: the tiered store must
        have stacked multiple runs on some level at some point (the
        compaction log proves whole-tier merges ran)."""
        db, _ = stores["tiered:runs=2"]
        assert any(r["policy"] == "tiered:runs=2" for r in db.compaction_log)


def apply_sequential_workload(db, n_keys=1200, seed=11):
    """Ascending inserts (key-disjoint flushes), then overwrites and
    deletes confined to one stretch of the key space: compactions meet
    runs whose ranges barely overlap, so input blocks that nothing
    overlaps are handed to the output as stored."""
    rng = random.Random(seed)
    model = {}
    for i in range(n_keys):
        key = b"key-%04d" % i
        model[key] = b"v-%d" % i * 3
        db.put(key, model[key])
    for i in range(300):
        key = b"key-%04d" % rng.randrange(400, 520)
        if rng.random() < 0.2:
            db.delete(key)
            model.pop(key, None)
        else:
            model[key] = b"w-%d" % i * 3
            db.put(key, model[key])
    return model


@pytest.fixture(scope="module")
def sequential_stores():
    from repro.core import ProcedureSpec

    out = {}
    for policy in POLICIES:
        # Sub-tasks a few blocks long, as a store with megabyte tables has.
        db = DB(
            MemStorage(), tiny_options(policy),
            compaction_spec=ProcedureSpec.pcp(subtask_bytes=4096),
        )
        model = apply_sequential_workload(db)
        db.flush()
        out[policy] = (db, model)
    yield out
    for db, _ in out.values():
        db.close()


class TestScanEquivalenceWithPassThrough:
    """Sequential insert and tiered last-level merges: the compaction
    moves most blocks instead of rewriting them, and must still leave
    every policy with the same contents."""

    @staticmethod
    def _passed(db):
        return db.obs.metrics.snapshot()["counters"].get(
            "compaction.passthrough_blocks", 0
        )

    def test_scans_identical_mid_shape(self, sequential_stores):
        for policy, (db, model) in sequential_stores.items():
            assert list(db.scan()) == sorted(model.items()), policy
            assert list(db.scan_reverse()) == sorted(
                model.items(), reverse=True
            ), policy

    def test_scans_identical_after_full_compaction(self, sequential_stores):
        for policy, (db, model) in sequential_stores.items():
            db.compact_all()
            assert list(db.scan()) == sorted(model.items()), policy
            for key_id in range(380, 540):
                key = b"key-%04d" % key_id
                assert db.get(key) == model.get(key), (policy, key)

    def test_pass_through_actually_fired(self, sequential_stores):
        """Guard against vacuous equivalence.  Stacked runs of ascending
        keys pass through almost whole; leveled moves such files without
        a merge, and passes only the blocks beside the rewritten stretch."""
        for policy, (db, _) in sequential_stores.items():
            counters = db.obs.metrics.snapshot()["counters"]
            assert self._passed(db) > 0, policy
            if policy != "leveled":
                assert (
                    counters["compaction.passthrough_bytes"]
                    > counters["compaction.input_bytes"] // 2
                ), policy
            assert any(r["pass"] for r in db.compaction_log), policy


SPLIT_KEY = b"key-0120"


def _run_workload(db):
    """Keys 0..239, then 30 snapshot-held versions of one key, then
    overwrites and deletes: returns ``[(snapshot, model)]``, the last
    with snapshot None (the live view)."""
    rng = random.Random(5)
    model = {}
    held = []
    for i in range(240):
        key = b"key-%04d" % i
        model[key] = b"a-%d" % i * 6
        db.put(key, model[key])
    held.append((db.snapshot(), dict(model)))
    for i in range(30):
        model[SPLIT_KEY] = b"hot-%02d" % i * 5
        db.put(SPLIT_KEY, model[SPLIT_KEY])
        held.append((db.snapshot(), dict(model)))
    for i in range(120):
        key = b"key-%04d" % rng.randrange(240)
        if rng.random() < 0.3:
            db.delete(key)
            model.pop(key, None)
        else:
            model[key] = b"b-%d" % i * 6
            db.put(key, model[key])
    held.append((None, model))
    db.compact_range()
    return held


def _window(model, start, end, reverse):
    keys = sorted(
        k for k in model if (start is None or k >= start) and (end is None or k < end)
    )
    if reverse:
        keys.reverse()
    return [(k, model[k]) for k in keys]


@pytest.fixture(scope="module")
def split_run_stores():
    """One store and one 3-shard cluster fed the same workload; the
    store compacts to one sorted run of small files."""
    options = Options(sstable_bytes=512, block_bytes=128, memtable_bytes=4096)
    db = DB(MemStorage(), options)
    cluster = ShardedDB.in_memory(3, options=options)
    yield (db, _run_workload(db)), (cluster, _run_workload(cluster))
    cluster.close()
    db.close()


class TestScanEquivalenceOverOneSplitRun:
    """Scans seek each file of a sorted run: windows that open and close
    before, inside, on and after every file's range, forward and
    reverse, at held snapshots, on a store and on a cluster, against
    the dict model."""

    @staticmethod
    def _run(db):
        (files,) = [f for f in db.version.files[1:] if f]
        return files

    @classmethod
    def _windows(cls, db):
        """``(start, end)`` pairs: each bound — before, on the first key
        of, inside, on the last key of, and after every file — paired
        with the open ends and with the next few bounds."""
        bounds = set()
        for meta in cls._run(db):
            lo, hi = meta.smallest[:-8], meta.largest[:-8]
            inside = lo[:-1] + bytes([(lo[-1] + hi[-1]) // 2])
            bounds.update({lo[:-1], lo, inside, hi, hi + b"\x00"})
        bounds = sorted(bounds)
        windows = [(None, None)]
        for i, bound in enumerate(bounds):
            windows += [(bound, None), (None, bound)]
            windows += [(bound, end) for end in bounds[i : i + 7]]
        return windows

    def test_store_is_one_run_with_a_key_split_across_a_file_edge(self, split_run_stores):
        (db, _), _ = split_run_stores
        files = self._run(db)
        assert len(files) >= 10
        assert {meta.run for meta in files} == {0}
        assert any(
            a.largest[:-8] == b.smallest[:-8] == SPLIT_KEY for a, b in zip(files, files[1:])
        )

    @pytest.mark.parametrize("which", ["db", "cluster"])
    def test_windows_match_the_model(self, split_run_stores, which):
        (db, _), _ = split_run_stores
        windows = self._windows(db)
        target, held = split_run_stores[which == "cluster"]
        # Before the hot key's versions, two of them, and after.
        for snapshot, model in held[:1] + held[10:12] + held[-1:]:
            for start, end in windows:
                for reverse in (False, True):
                    scan = target.scan_reverse if reverse else target.scan
                    got = list(scan(start, end, snapshot=snapshot))
                    assert got == _window(model, start, end, reverse), (
                        which, start, end, reverse
                    )

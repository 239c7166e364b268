"""Lock-order sanitizer: seeded inversions fire (with both stacks),
the real engine stays cycle-free under a sanitizer-enabled workload."""

import threading

import pytest

from repro.analysis.locksan import (
    LOCK_SANITIZER_ENV,
    LockGraph,
    LockOrderViolation,
    OrderedLock,
    global_graph,
    make_lock,
    make_rlock,
    sanitizer_enabled,
)
from repro.analysis.racesan import RACE_SANITIZER_ENV


class TestFactories:
    def test_disabled_by_default_returns_raw_primitives(self, monkeypatch):
        monkeypatch.delenv(LOCK_SANITIZER_ENV, raising=False)
        monkeypatch.delenv(RACE_SANITIZER_ENV, raising=False)
        assert not sanitizer_enabled()
        assert isinstance(make_lock("x"), type(threading.Lock()))
        assert isinstance(make_rlock("x"), type(threading.RLock()))

    def test_zero_means_disabled(self, monkeypatch):
        monkeypatch.setenv(LOCK_SANITIZER_ENV, "0")
        assert not sanitizer_enabled()

    def test_enabled_returns_ordered_locks(self, monkeypatch):
        monkeypatch.setenv(LOCK_SANITIZER_ENV, "1")
        assert sanitizer_enabled()
        lock = make_lock("test.enabled")
        rlock = make_rlock("test.enabled.r")
        assert isinstance(lock, OrderedLock) and not lock.recursive
        assert isinstance(rlock, OrderedLock) and rlock.recursive


class TestOrderedLockSemantics:
    def test_with_and_locked(self):
        lock = OrderedLock("t.basic", graph=LockGraph())
        assert not lock.locked()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_recursive_reentry(self):
        graph = LockGraph()
        lock = OrderedLock("t.rec", recursive=True, graph=graph)
        with lock:
            with lock:
                assert lock.locked()
            assert lock.locked()
        assert not lock.locked()
        # Re-entry records no self-edge.
        assert graph.edges() == []

    def test_acquire_nonblocking_failure_leaves_no_held_state(self):
        graph = LockGraph()
        lock = OrderedLock("t.nb", graph=graph)
        other = OrderedLock("t.nb.other", graph=graph)

        def hold_and_signal(acquired, release):
            with lock:
                acquired.set()
                release.wait(timeout=5)

        acquired, release = threading.Event(), threading.Event()
        t = threading.Thread(
            target=hold_and_signal, args=(acquired, release), name="t-nb-holder"
        )
        t.start()
        try:
            assert acquired.wait(timeout=5)
            # Failed non-blocking acquire: nothing held, nothing to release.
            assert lock.acquire(blocking=False) is False  # repro: noqa[RA101]
            assert lock.locked()  # held by the other thread, not ours
            # This thread holds nothing: acquiring another lock records
            # no edge from the failed acquire.
            with other:
                pass
            assert graph.edges() == []
        finally:
            release.set()
            t.join()

    def test_owner_reacquire_of_plain_lock_raises_instead_of_hanging(self):
        graph = LockGraph()
        lock = OrderedLock("t.self", graph=graph)
        outcome = []

        def reacquire():
            with lock:
                # Non-blocking: a plain Lock says no, and so does this.
                outcome.append(lock.acquire(blocking=False))  # repro: noqa[RA101]
                try:
                    with lock:
                        outcome.append("re-acquired")
                except LockOrderViolation as exc:
                    outcome.append(exc)

        t = threading.Thread(target=reacquire, name="t-reacquire", daemon=True)
        t.start()
        t.join(timeout=5)
        assert not t.is_alive(), "blocking re-acquire hung instead of raising"
        assert outcome[0] is False
        assert isinstance(outcome[1], LockOrderViolation)
        message = str(outcome[1])
        assert "t.self" in message and "re-acquired" in message
        assert "reacquire" in message  # the stack names the caller
        assert [v["cycle"] for v in graph.violations] == [["t.self", "t.self"]]
        assert not lock.locked()

    def test_nested_acquisition_records_edge(self):
        graph = LockGraph()
        a = OrderedLock("t.a", graph=graph)
        b = OrderedLock("t.b", graph=graph)
        with a:
            with b:
                pass
        assert graph.edges() == [("t.a", "t.b")]

    def test_condition_wait_notify_roundtrip(self):
        graph = LockGraph()
        mutex = OrderedLock("t.cond", recursive=True, graph=graph)
        cond = threading.Condition(mutex)
        state = {"ready": False}

        def producer():
            with cond:
                state["ready"] = True
                cond.notify_all()

        t = threading.Thread(target=producer, name="t-cond-producer")
        with cond:
            t.start()
            while not state["ready"]:
                cond.wait(timeout=5)
            # wait() fully released and restored the lock.
            assert mutex.locked()
        t.join()
        assert not mutex.locked()


class TestInversionDetection:
    def test_seeded_inversion_raises_with_both_stacks(self):
        graph = LockGraph()
        a = OrderedLock("seed.A", graph=graph)
        b = OrderedLock("seed.B", graph=graph)

        def establish_ab():  # the stack the report must point back to
            with a:
                with b:
                    pass

        establish_ab()
        with pytest.raises(LockOrderViolation) as excinfo:
            with b:
                with a:
                    pass
        message = str(excinfo.value)
        assert "seed.A" in message and "seed.B" in message
        assert "conflicting acquisition (now)" in message
        assert "first established here" in message
        # Both stacks are real tracebacks naming this test module.
        assert message.count("test_locksan") >= 2
        assert "establish_ab" in message

        assert len(graph.violations) == 1
        record = graph.violations[0]
        assert record["acquiring"] == "seed.A"
        assert record["holding"] == "seed.B"
        assert record["cycle"] == ["seed.B", "seed.A", "seed.B"]
        assert "seed.B -> seed.A -> seed.B" in message

    def test_three_lock_cycle_detected(self):
        graph = LockGraph()
        a = OrderedLock("tri.A", graph=graph)
        b = OrderedLock("tri.B", graph=graph)
        c = OrderedLock("tri.C", graph=graph)
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with pytest.raises(LockOrderViolation):
            with c:
                with a:
                    pass
        assert graph.violations[0]["cycle"] == ["tri.C", "tri.A", "tri.B", "tri.C"]

    def test_consistent_order_never_fires(self):
        graph = LockGraph()
        a = OrderedLock("ok.A", graph=graph)
        b = OrderedLock("ok.B", graph=graph)
        for _ in range(3):
            with a:
                with b:
                    pass
        assert graph.violations == []

    def test_reset_clears_edges_and_violations(self):
        graph = LockGraph()
        a = OrderedLock("r.A", graph=graph)
        b = OrderedLock("r.B", graph=graph)
        with a:
            with b:
                pass
        assert graph.edges()
        graph.reset()
        assert graph.edges() == [] and graph.violations == []
        # Opposite order is now legal again.
        with b:
            with a:
                pass
        assert graph.edges() == [("r.B", "r.A")]


class TestSeededSubsystemInversions:
    """Real subsystem objects, seeded acquisition-order conflicts.

    Each test drives a *public* operation so the subsystem itself
    establishes its lock order in the global graph, then acquires in
    the conflicting order and asserts the violation carries both
    stacks — the conflicting acquisition and the establishing one."""

    @pytest.fixture()
    def sanitized(self, monkeypatch):
        monkeypatch.setenv(LOCK_SANITIZER_ENV, "1")
        graph = global_graph()
        graph.reset()
        yield graph
        graph.reset()

    def test_event_log_sink_inversion(self, sanitized):
        from repro.obs.events import EventLog

        probe = make_lock("test.sink_probe")

        def sink(record):
            with probe:
                pass

        log = EventLog(sink)
        log.emit("op_start")  # establishes obs.events -> test.sink_probe
        assert ("obs.events", "test.sink_probe") in sanitized.edges()
        with pytest.raises(LockOrderViolation) as excinfo:
            with probe:
                log.emit("op_end")
        message = str(excinfo.value)
        assert "obs.events" in message and "test.sink_probe" in message
        assert "conflicting acquisition (now)" in message
        assert "first established here" in message
        assert "emit" in message  # witness walks the real emit() path

    def test_db_mutex_gauge_inversion(self, sanitized):
        from repro.db.db import DB
        from repro.devices.vfs import MemStorage
        from repro.lsm.options import Options

        with DB(MemStorage(), Options()) as db:
            # A real flush: _apply_edit sets the tree-shape gauges under
            # the DB mutex, establishing db.mutex -> obs.gauge.
            db.put(b"key", b"value")
            db.flush()
            assert ("db.mutex", "obs.gauge") in sanitized.edges()
            gauge = db.obs.metrics.gauge("db.l0_files")
            with pytest.raises(LockOrderViolation) as excinfo:
                with gauge._lock:
                    with db._lock:
                        pass
        message = str(excinfo.value)
        assert "db.mutex" in message and "obs.gauge" in message
        assert "_apply_edit" in message  # the establishing stack
        assert len(sanitized.violations) == 1

    def test_replication_hub_db_inversion(self, sanitized):
        from repro.db.db import DB
        from repro.devices.vfs import MemStorage
        from repro.lsm.options import Options
        from repro.replication.hub import ReplicationHub

        with DB(MemStorage(), Options()) as db:
            hub = ReplicationHub(db)
            # The WAL listener runs under the DB lock and takes the
            # hub lock: a real put() establishes db.mutex -> repl.hub.
            db.put(b"key", b"value")
            assert ("db.mutex", "repl.hub") in sanitized.edges()
            with pytest.raises(LockOrderViolation) as excinfo:
                with hub._cond:
                    db.put(b"key-2", b"value-2")
        message = str(excinfo.value)
        assert "repl.hub" in message and "db.mutex" in message
        assert "_on_record" in message  # the establishing stack


class TestEngineUnderSanitizer:
    """The real DB + PCP backends, exercised with instrumented locks."""

    @pytest.fixture()
    def sanitized(self, monkeypatch):
        monkeypatch.setenv(LOCK_SANITIZER_ENV, "1")
        graph = global_graph()
        graph.reset()
        yield graph
        graph.reset()

    def _workload(self, db):
        for i in range(600):
            db.put(b"key-%05d" % (i % 200), b"value-%06d" % i)
        db.flush()
        db.compact_range()

    def test_background_pcp_db_reports_no_cycle(self, sanitized):
        from repro.core.procedures import ProcedureSpec
        from repro.db.db import DB
        from repro.devices.vfs import MemStorage
        from repro.lsm.options import Options

        options = Options(
            memtable_bytes=8 * 1024,
            sstable_bytes=8 * 1024,
            block_bytes=1024,
            level1_bytes=32 * 1024,
        )
        db = DB(
            MemStorage(),
            options,
            compaction_spec=ProcedureSpec.pcp(subtask_bytes=4 * 1024),
            background=True,
        )
        assert isinstance(db._lock, OrderedLock)
        try:
            self._workload(db)
            db.wait_for_compactions()
            reads = [db.get(b"key-%05d" % i) for i in range(200)]
            assert all(value is not None for value in reads)
        finally:
            db.close()
        assert sanitized.violations == []
        # The discipline the engine actually exercised was recorded.
        assert ("db.mutex", "db.file_number") in sanitized.edges()

    def test_sync_db_roundtrip_reports_no_cycle(self, sanitized):
        from repro.db.db import DB
        from repro.devices.vfs import MemStorage
        from repro.lsm.options import Options

        with DB(MemStorage(), Options(memtable_bytes=16 * 1024)) as db:
            self._workload(db)
            assert db.get(b"key-00000") is not None
        assert sanitized.violations == []


class TestEdgesOnlySeenDynamically:
    """Lock orders a static call graph cannot see: a callback, and a
    call through an attribute of unknown type.  These pin the two
    edges that decided lock order belongs to the sanitizer alone
    (docs/ANALYSIS.md, planted-defect table)."""

    @pytest.fixture()
    def sanitized(self, monkeypatch):
        monkeypatch.setenv(LOCK_SANITIZER_ENV, "1")
        graph = global_graph()
        graph.reset()
        yield graph
        graph.reset()

    def test_hub_callback_edge_and_snapshot_under_hub_lock(self, sanitized):
        from repro.db.db import DB
        from repro.devices.vfs import MemStorage
        from repro.lsm.options import Options
        from repro.replication.hub import ReplicationHub

        with DB(MemStorage(), Options()) as db:
            hub = ReplicationHub(db)
            for i in range(3):
                db.put(b"key-%d" % i, b"value")
            # The WAL listener runs under db.mutex and takes repl.hub.
            assert ("db.mutex", "repl.hub") in sanitized.edges()
            # Pinning a snapshot under the hub lock (as an ack handler
            # might) takes db.mutex the other way round.
            with pytest.raises(LockOrderViolation) as excinfo:
                with hub._cond:
                    db.snapshot()
        message = str(excinfo.value)
        assert "repl.hub -> db.mutex -> repl.hub" in message
        assert "_on_record" in message  # the establishing stack

    def test_promote_to_primary_over_faulty_storage(self, sanitized):
        from repro.db.db import DB
        from repro.devices.faults import FaultyStorage
        from repro.devices.vfs import MemStorage
        from repro.lsm.options import Options
        from repro.server.server import KVServer

        db = DB(FaultyStorage(MemStorage()), Options())
        server = KVServer(db)
        try:
            assert server.promote_to_primary() == 1
        finally:
            server.hub.shutdown()
            db.close()
        assert sanitized.violations == []
        assert ("server.promote", "devices.faults") in sanitized.edges()

    def test_snapshot_joined_follower_promotes_online(self, sanitized):
        """A served follower installs a snapshot (the follower swaps
        the server's DB) and is then promoted, which stops the follower
        under ``server.promote``: both halves of that lock order run in
        one process."""
        import time

        from repro.db.db import DB
        from repro.devices.vfs import MemStorage
        from repro.lsm.options import Options
        from repro.replication import Follower, ReplicationHub
        from repro.server.server import ServerConfig, ServerThread

        from tests.helpers import small_options

        primary = DB(MemStorage(), small_options())
        for i in range(300):
            primary.put(b"snap%04d" % i, b"v" * 40)
        primary.flush()  # before the hub: only a snapshot covers these
        storage = MemStorage()
        joined = DB(storage, Options())
        with ServerThread(
            primary, own_db=False, hub=ReplicationHub(primary)
        ) as upstream:
            follower = Follower(
                joined, storage, lambda: DB(storage, Options()),
                upstream.host, upstream.port, "joiner",
                retry_interval_s=0.05,
            )
            node = ServerThread(
                joined, ServerConfig(read_only=True), own_db=False,
                follower=follower,
            ).start()
            follower.bind_db_swap(node.server.swap_db)
            follower.start()
            try:
                deadline = time.monotonic() + 10
                while (
                    follower.db is joined
                    or follower.db.last_sequence < primary.last_sequence
                ):
                    assert time.monotonic() < deadline, "no snapshot install"
                    time.sleep(0.01)
                assert node.server.db is follower.db
                assert node.server.promote_to_primary() == 1
            finally:
                follower.stop()
                node.stop()
                follower.db.close()
        primary.close()
        assert sanitized.violations == []
        assert ("server.promote", "repl.follower") in sanitized.edges()


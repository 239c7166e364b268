"""Fixture tests: every RA rule fires on a minimal bad snippet and
stays silent on its good twin."""

import textwrap

from repro.analysis import check_source


def codes(source: str) -> set[str]:
    return {f.code for f in check_source(textwrap.dedent(source))}


# ----------------------------------------------------------------- RA101
BAD_RA101 = """
    import threading

    lock = threading.Lock()

    def work():
        lock.acquire()
        do_something()
        lock.release()
"""

GOOD_RA101_WITH = """
    import threading

    lock = threading.Lock()

    def work():
        with lock:
            do_something()
"""

GOOD_RA101_TRY = """
    import threading

    lock = threading.Lock()

    def work():
        lock.acquire()
        try:
            do_something()
        finally:
            lock.release()
"""

GOOD_RA101_INSIDE_TRY = """
    import threading

    lock = threading.Lock()

    def work():
        try:
            lock.acquire()
            do_something()
        finally:
            lock.release()
"""

GOOD_RA101_REACQUIRE = """
    import threading

    lock = threading.Lock()

    def run_unlocked():
        lock.release()
        try:
            do_something()
        finally:
            lock.acquire()
"""

GOOD_RA101_ADAPTER = """
    import threading

    class Wrapper:
        def __init__(self):
            self._inner = threading.Lock()

        def acquire(self):
            return self._inner.acquire()

        def release(self):
            self._inner.release()
"""


class TestRA101:
    def test_fires_on_raw_acquire(self):
        assert "RA101" in codes(BAD_RA101)

    def test_silent_on_with(self):
        assert "RA101" not in codes(GOOD_RA101_WITH)

    def test_silent_on_try_finally(self):
        assert "RA101" not in codes(GOOD_RA101_TRY)

    def test_silent_on_acquire_inside_try(self):
        assert "RA101" not in codes(GOOD_RA101_INSIDE_TRY)

    def test_silent_on_finally_reacquire(self):
        assert "RA101" not in codes(GOOD_RA101_REACQUIRE)

    def test_silent_on_lock_adapter_class(self):
        assert "RA101" not in codes(GOOD_RA101_ADAPTER)

    def test_fires_on_self_attribute_lock(self):
        assert "RA101" in codes(
            """
            import threading

            class Store:
                def __init__(self):
                    self._mutex = threading.RLock()

                def update(self):
                    self._mutex.acquire()
                    self.n = 1
                    self._mutex.release()
            """
        )

    def test_ignores_non_lock_release_semantics(self):
        # acquire() on something never assigned a lock constructor.
        assert "RA101" not in codes(
            """
            def f(session):
                session.acquire()
            """
        )


# ----------------------------------------------------------------- RA102
BAD_RA102 = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0

        def safe_add(self, n):
            with self._lock:
                self.total += n

        def racy_reset(self):
            self.total = 0
"""

GOOD_RA102 = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0

        def safe_add(self, n):
            with self._lock:
                self.total += n

        def safe_reset(self):
            with self._lock:
                self.total = 0
"""

GOOD_RA102_INIT_HELPER = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.seq = 0
            self._recover()

        def _recover(self):
            self.seq = 7

        def bump(self):
            with self._lock:
                self.seq += 1
"""


class TestRA102:
    def test_fires_on_mixed_guarded_unguarded_writes(self):
        assert "RA102" in codes(BAD_RA102)

    def test_silent_when_all_writes_guarded(self):
        assert "RA102" not in codes(GOOD_RA102)

    def test_init_only_helpers_are_construction(self):
        assert "RA102" not in codes(GOOD_RA102_INIT_HELPER)

    def test_silent_without_a_class_lock(self):
        assert "RA102" not in codes(
            """
            class Plain:
                def a(self):
                    self.x = 1

                def b(self):
                    self.x = 2
            """
        )


# ----------------------------------------------------------------- RA103
BAD_RA103 = """
    import time

    def span():
        t0 = time.time()
        work()
        return time.time() - t0

    def latency():
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
"""

GOOD_RA103 = """
    import time

    def span():
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0

    def timestamp():
        return time.time()
"""


class TestRA103:
    def test_fires_on_wall_clock_duration(self):
        assert "RA103" in codes(BAD_RA103)

    def test_silent_on_monotonic_durations_and_plain_timestamps(self):
        assert "RA103" not in codes(GOOD_RA103)

    def test_silent_without_perf_counter_in_module(self):
        # A module that never uses a monotonic clock is out of scope.
        assert "RA103" not in codes(
            """
            import time

            def age(t0):
                return time.time() - t0
            """
        )


# ----------------------------------------------------------------- RA104
class TestRA104:
    def test_fires_on_unnamed_thread(self):
        assert "RA104" in codes(
            """
            import threading

            t = threading.Thread(target=print)
            """
        )

    def test_silent_on_named_thread(self):
        assert "RA104" not in codes(
            """
            import threading

            t = threading.Thread(target=print, name="worker-0")
            """
        )

    def test_silent_on_kwargs_splat(self):
        assert "RA104" not in codes(
            """
            import threading

            def spawn(**kw):
                return threading.Thread(target=print, **kw)
            """
        )


# ----------------------------------------------------------------- RA105
BAD_RA105 = """
    def worker(q):
        while True:
            try:
                q.step()
            except Exception:
                continue
"""

GOOD_RA105_LOGS = """
    import logging

    def worker(q):
        while True:
            try:
                q.step()
            except Exception:
                logging.exception("step failed")
"""

GOOD_RA105_NARROW = """
    def worker(q):
        while True:
            try:
                q.step()
            except KeyError:
                continue
"""


class TestRA105:
    def test_fires_on_swallowed_broad_except_in_loop(self):
        assert "RA105" in codes(BAD_RA105)

    def test_fires_on_bare_except_pass(self):
        assert "RA105" in codes(
            """
            def worker(items):
                for item in items:
                    try:
                        item.run()
                    except:  # noqa: E722 (ruff); repro rule under test
                        pass
            """
        )

    def test_silent_when_logged(self):
        assert "RA105" not in codes(GOOD_RA105_LOGS)

    def test_silent_on_narrow_handler(self):
        assert "RA105" not in codes(GOOD_RA105_NARROW)

    def test_silent_outside_loops(self):
        assert "RA105" not in codes(
            """
            def once(q):
                try:
                    q.step()
                except Exception:
                    pass
            """
        )


# ----------------------------------------------------------------- RA106
BAD_RA106 = """
    def drain(q, stopped):
        while not stopped:
            item = q.get()
            handle(item)
"""

GOOD_RA106 = """
    import queue

    def drain(q, stopped):
        while not stopped:
            try:
                item = q.get(timeout=0.1)
            except queue.Empty:
                continue
            handle(item)
"""


class TestRA106:
    def test_fires_on_blocking_get_under_stop_flag(self):
        assert "RA106" in codes(BAD_RA106)

    def test_silent_with_timeout(self):
        assert "RA106" not in codes(GOOD_RA106)

    def test_silent_on_while_true_sentinel_loop(self):
        # No stop flag in the condition: sentinel shutdown is assumed.
        assert "RA106" not in codes(
            """
            def drain(q):
                while True:
                    item = q.get()
                    if item is None:
                        break
            """
        )

    def test_silent_on_dict_get(self):
        assert "RA106" not in codes(
            """
            def lookup(d, closed):
                while not closed:
                    value = d.get("key")
                    use(value)
            """
        )

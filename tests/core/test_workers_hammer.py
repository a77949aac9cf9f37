"""Concurrency hammer tests for the worker pool.

These pin the guarantee refresh-ahead depends on under real thread
pressure (not just single-threaded unit flows): ``try_submit`` never
blocks and never loses track of a task — every submission is either
accepted (and eventually runs) or rejected (and counted), even when
dozens of threads race a full queue.
"""

import threading
import time

from repro.core.workers import WorkerPool


def _drain(pool: WorkerPool, deadline_s: float = 10.0) -> None:
    """Wait until the pool has no queued or active tasks."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline_s:
        with pool._lock:
            if pool._queued == 0 and pool._active == 0:
                return
        time.sleep(0.005)
    raise AssertionError("pool did not drain in time")


class TestTrySubmitStorm:
    def test_accounting_exact_under_racing_submitters(self):
        """accepted + rejected == attempted, and every accepted task runs."""
        pool = WorkerPool(max_workers=2, max_queue=8, name="storm")
        gate = threading.Event()
        ran = []
        ran_lock = threading.Lock()

        def task():
            gate.wait(10)
            with ran_lock:
                ran.append(1)

        attempts_per_thread = 50
        accepted = []
        accepted_lock = threading.Lock()

        def submitter():
            ok = sum(
                1 for _ in range(attempts_per_thread) if pool.try_submit(task)
            )
            with accepted_lock:
                accepted.append(ok)

        threads = [threading.Thread(target=submitter) for _ in range(8)]
        for t in threads:
            t.start()
        gate.set()  # release the workers; queue keeps churning meanwhile
        for t in threads:
            t.join(timeout=10)
        _drain(pool)

        attempted = 8 * attempts_per_thread
        total_accepted = sum(accepted)
        rejected = pool.metrics.total(
            "repro_worker_pool_tasks_total", pool="storm", result="rejected"
        )
        assert total_accepted + rejected == attempted
        assert len(ran) == total_accepted
        pool.shutdown()

    def test_try_submit_rejects_when_queue_full(self):
        """With workers blocked, exactly max_queue submissions fit."""
        pool = WorkerPool(max_workers=1, max_queue=4, name="full")
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(10)

        assert pool.try_submit(blocker)
        assert started.wait(5)  # the single worker is now occupied
        fitted = sum(1 for _ in range(20) if pool.try_submit(lambda: None))
        assert fitted == 4  # the queue slots, no more
        rejected = pool.metrics.total(
            "repro_worker_pool_tasks_total", pool="full", result="rejected"
        )
        assert rejected == 16.0
        release.set()
        _drain(pool)
        pool.shutdown()

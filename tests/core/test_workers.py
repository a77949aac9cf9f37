"""Tests for the shared bounded worker pool (repro.core.workers)."""

import threading
import time

import pytest

from repro.core.workers import TASK_RESULTS, TaskOutcome, WorkerPool
from repro.obs import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


def make_pool(registry, **kw):
    kw.setdefault("max_workers", 4)
    kw.setdefault("max_queue", 16)
    return WorkerPool(registry=registry, **kw)


class TestScatterGather:
    def test_results_in_input_order(self, registry):
        pool = make_pool(registry)
        try:
            outcomes = pool.scatter_gather([lambda i=i: i * 10 for i in range(8)])
            assert [o.value for o in outcomes] == [i * 10 for i in range(8)]
            assert all(o.ok for o in outcomes)
        finally:
            pool.shutdown()

    def test_empty_input(self, registry):
        pool = make_pool(registry)
        try:
            assert pool.scatter_gather([]) == []
        finally:
            pool.shutdown()

    def test_slots_run_on_the_calling_thread(self, registry):
        pool = make_pool(registry)
        caller = threading.get_ident()
        outcomes = pool.scatter_gather([threading.get_ident] * 3)
        assert [o.value for o in outcomes] == [caller] * 3
        assert pool.workers_alive == 0

    def test_stream_runs_each_slot_when_asked(self, registry):
        pool = make_pool(registry)
        ran = []
        stream = pool.scatter_stream(
            [lambda i=i: ran.append(i) or i for i in range(3)]
        )
        assert ran == []  # nothing runs before the consumer asks
        assert next(stream).value == 0 and ran == [0]
        assert [o.value for o in stream] == [1, 2]

    def test_failure_isolated_per_slot(self, registry):
        pool = make_pool(registry)

        def boom():
            raise RuntimeError("widget exploded")

        try:
            outcomes = pool.scatter_gather([lambda: "a", boom, lambda: "c"])
            assert outcomes[0].value == "a" and outcomes[0].ok
            assert isinstance(outcomes[1].error, RuntimeError)
            assert not outcomes[1].ok
            assert outcomes[2].value == "c" and outcomes[2].ok
        finally:
            pool.shutdown()


class TestTrySubmit:
    def test_accepted_task_runs(self, registry):
        pool = make_pool(registry)
        done = threading.Event()
        try:
            assert pool.try_submit(done.set) is True
            assert done.wait(timeout=5.0)
        finally:
            pool.shutdown()

    def test_rejected_when_queue_full(self, registry):
        pool = make_pool(registry, max_workers=1, max_queue=1)
        gate = threading.Event()
        started = threading.Event()
        try:
            assert pool.try_submit(lambda: (started.set(), gate.wait(5.0))) is True
            assert started.wait(timeout=5.0)  # worker busy; queue empty
            assert pool.try_submit(lambda: None) is True  # fills the queue
            assert pool.try_submit(lambda: None) is False  # queue full
            assert (
                registry.total("repro_worker_pool_tasks_total", result="rejected")
                == 1
            )
        finally:
            gate.set()
            pool.shutdown()

    def test_rejected_after_shutdown(self, registry):
        pool = make_pool(registry)
        pool.shutdown()
        assert pool.try_submit(lambda: None) is False


class TestPoolBehaviour:
    def test_lazy_spawn(self, registry):
        pool = make_pool(registry, max_workers=4)
        assert pool.workers_alive == 0  # no work yet, no threads
        done = threading.Event()
        try:
            assert pool.try_submit(done.set)
            assert done.wait(timeout=5.0)
            assert 1 <= pool.workers_alive <= 4
        finally:
            pool.shutdown()

    def test_never_exceeds_max_workers(self, registry):
        pool = make_pool(registry, max_workers=2, max_queue=32)
        ran = []
        all_ran = threading.Event()

        def task(i):
            ran.append(i)
            if len(ran) == 20:
                all_ran.set()

        try:
            for i in range(20):
                assert pool.try_submit(lambda i=i: task(i))
            assert all_ran.wait(timeout=5.0)
            assert sorted(ran) == list(range(20))
            assert pool.workers_alive <= 2
        finally:
            pool.shutdown()

    def test_gauges_render_and_settle_to_zero(self, registry):
        pool = make_pool(registry)
        active = registry.get("repro_worker_pool_active")
        depth = registry.get("repro_worker_pool_queue_depth")
        try:
            assert pool.try_submit(lambda: 1) and pool.try_submit(lambda: 2)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if (
                    active.value(pool=pool.name) == 0
                    and depth.value(pool=pool.name) == 0
                ):
                    break
                time.sleep(0.01)
            text = registry.render()
            assert "repro_worker_pool_active" in text
            assert "repro_worker_pool_queue_depth" in text
            assert active.value(pool=pool.name) == 0
            assert depth.value(pool=pool.name) == 0
        finally:
            pool.shutdown()

    def test_task_results_preseeded(self, registry):
        make_pool(registry).shutdown()
        text = registry.render()
        for result in TASK_RESULTS:
            assert f'result="{result}"' in text

    def test_validation(self, registry):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0, registry=registry)
        with pytest.raises(ValueError):
            WorkerPool(max_queue=0, registry=registry)

    def test_outcome_repr_and_ok(self):
        ok = TaskOutcome(value=3)
        bad = TaskOutcome(error=ValueError("x"))
        assert ok.ok and not bad.ok

"""Bounded background worker pool, and the slot runner pages build on.

* **refresh-ahead** — :class:`~repro.core.caching.TTLCache` revalidates
  soft-expired hot keys *behind* the response, so a warm key never
  blocks a user request on a daemon RPC.  :meth:`WorkerPool.try_submit`
  hands each revalidation to a pool thread.
* **page slots** — :func:`~repro.core.pages.homepage.render_homepage`
  and the multi-section pages build their independent parts through
  :meth:`WorkerPool.scatter_gather` / :meth:`WorkerPool.scatter_stream`,
  which run every slot on the calling (request) thread, in order, with
  each slot's failure isolated from its siblings.  The request's fetch
  scopes and open span are therefore already in place for every slot.

The pool's work is visible on ``/metrics``
(``repro_worker_pool_active``, ``repro_worker_pool_queue_depth``,
``repro_worker_pool_tasks_total``).

Design notes
------------
* Threads spawn lazily, one per submission that finds no idle worker,
  up to ``max_workers`` — a dashboard that never arms a refresh never
  owns a thread.
* The queue is bounded.  :meth:`WorkerPool.try_submit` simply refuses
  when full — a dropped revalidation is harmless, the entry is still
  served until its hard TTL.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Iterator, List, Optional, Sequence

from repro.obs import MetricsRegistry

#: every value the ``result`` label of ``repro_worker_pool_tasks_total``
#: can take (pre-seeded so the family renders before any task runs)
TASK_RESULTS = (
    "ok",  # ran on a pool worker, returned
    "error",  # ran on a pool worker, raised
    "rejected",  # queue full: a try_submit task was dropped
)


class TaskOutcome:
    """Per-slot result of :meth:`WorkerPool.scatter_gather`.

    Exactly one of :attr:`value` / :attr:`error` is meaningful: a slot
    that raised has ``error`` set and ``value`` ``None``.
    """

    __slots__ = ("value", "error")

    def __init__(self, value: Any = None, error: Optional[BaseException] = None):
        self.value = value
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.error is not None:
            return f"TaskOutcome(error={self.error!r})"
        return f"TaskOutcome(value={self.value!r})"


def _run_slot(fn: Callable[[], Any]) -> TaskOutcome:
    try:
        return TaskOutcome(value=fn())
    except Exception as exc:  # noqa: BLE001 - per-slot isolation
        return TaskOutcome(error=exc)


#: queued once per worker by :meth:`WorkerPool.shutdown` (compared by
#: identity, never run)
_SHUTDOWN: Callable[[], Any] = lambda: None  # noqa: E731


class WorkerPool:
    """A bounded, lazily-spawned thread pool with queue-depth gauges.

    Thread-safe; the TTL cache's refresh-ahead path submits to it.  Its
    :meth:`scatter_gather` / :meth:`scatter_stream` run a page's slots
    on the calling thread and never touch the pool's threads.
    """

    def __init__(
        self,
        max_workers: int = 8,
        max_queue: int = 64,
        name: str = "core",
        registry: Optional[MetricsRegistry] = None,
        thread_name_prefix: str = "repro-worker",
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1: {max_workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1: {max_queue}")
        self.max_workers = max_workers
        self.max_queue = max_queue
        self.name = name
        self._thread_name_prefix = thread_name_prefix
        self._queue: "queue.Queue[Callable[[], Any]]" = queue.Queue(
            maxsize=max_queue
        )
        self._lock = threading.Lock()
        self._spawned = 0
        self._idle = 0
        self._queued = 0
        self._active = 0
        self._closed = False
        self.metrics = registry or MetricsRegistry()
        self._active_gauge = self.metrics.gauge(
            "repro_worker_pool_active",
            "Worker-pool tasks currently executing, per pool.",
            ("pool",),
        )
        self._queue_gauge = self.metrics.gauge(
            "repro_worker_pool_queue_depth",
            "Worker-pool tasks waiting for a thread, per pool.",
            ("pool",),
        )
        self._tasks = self.metrics.counter(
            "repro_worker_pool_tasks_total",
            "Worker-pool task dispositions, per pool and result.",
            ("pool", "result"),
        )
        for result in TASK_RESULTS:
            self._tasks.inc(0.0, pool=name, result=result)
        self._sync_gauges_locked()

    # -- bookkeeping ---------------------------------------------------------

    def _sync_gauges_locked(self) -> None:
        self._active_gauge.set(float(self._active), pool=self.name)
        self._queue_gauge.set(float(self._queued), pool=self.name)

    @property
    def workers_alive(self) -> int:
        """Threads currently spawned (for tests and reports)."""
        with self._lock:
            return self._spawned

    # -- submission ----------------------------------------------------------

    def _spawn_locked(self) -> None:
        self._spawned += 1
        self._idle += 1
        thread = threading.Thread(
            target=self._worker,
            name=f"{self._thread_name_prefix}-{self.name}-{self._spawned}",
            daemon=True,
        )
        thread.start()

    def _submit(self, fn: Callable[[], Any]) -> bool:
        """Enqueue ``fn``; False when the queue is full or the pool closed."""
        with self._lock:
            if self._closed:
                return False
            try:
                self._queue.put_nowait(fn)
            except queue.Full:
                return False
            self._queued += 1
            self._sync_gauges_locked()
            # spawn while accepted work outnumbers idle workers — counting
            # idle (not just "any worker") keeps a burst of submissions
            # from stranding tasks behind one not-yet-started thread
            if self._queued > self._idle and self._spawned < self.max_workers:
                self._spawn_locked()
        return True

    def try_submit(self, fn: Callable[[], Any]) -> bool:
        """Fire-and-forget submission (the refresh-ahead entry point).

        Returns False — and counts a ``rejected`` task — when the queue
        is full; the caller is expected to treat that as "not now", not
        as an error.
        """
        if not self._submit(fn):
            self._tasks.inc(pool=self.name, result="rejected")
            return False
        return True

    # -- page slots ----------------------------------------------------------

    def scatter_gather(
        self, fns: Sequence[Callable[[], Any]]
    ) -> List[TaskOutcome]:
        """Run every ``fns[i]`` on the calling thread; outcomes in input
        order.

        Each slot isolates its own failure: a raising slot yields a
        :class:`TaskOutcome` with ``error`` set and never stops its
        siblings from running.
        """
        return [_run_slot(fn) for fn in fns]

    def scatter_stream(
        self, fns: Sequence[Callable[[], Any]]
    ) -> "Iterator[TaskOutcome]":
        """:meth:`scatter_gather`, lazily: slot ``i`` runs when the
        consumer asks for outcome ``i``, so the caller can flush output
        before the first slot and between slots."""
        return (_run_slot(fn) for fn in fns)

    # -- workers -------------------------------------------------------------

    def _worker(self) -> None:
        try:
            while True:
                task = self._queue.get()
                if task is _SHUTDOWN:
                    return
                with self._lock:
                    self._idle -= 1
                    self._queued -= 1
                    self._active += 1
                    self._sync_gauges_locked()
                try:
                    task()
                    self._tasks.inc(pool=self.name, result="ok")
                except BaseException:  # noqa: BLE001 - isolated per task
                    self._tasks.inc(pool=self.name, result="error")
                finally:
                    with self._lock:
                        self._active -= 1
                        self._idle += 1
                        self._sync_gauges_locked()
        finally:
            with self._lock:
                self._spawned -= 1
                self._idle -= 1

    def shutdown(self) -> None:
        """Stop accepting work and retire every worker (best effort).

        Queued tasks already accepted still run.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            spawned = self._spawned
        for _ in range(spawned):
            self._queue.put(_SHUTDOWN)

"""Request tracing: route → cache → daemon spans on the sim clock.

Every dashboard request crosses three layers — the route handler, the
TTL cache / resilient fetch path, and (on a miss) the simulated Slurm
daemons.  :class:`Tracer` records that crossing as a tree of
:class:`Span` objects so ``/api/v1/traces/recent`` can show *where* a
request spent its time.

Two clocks appear in a span, on purpose:

* ``t_sim`` / ``sim_elapsed_s`` — the :class:`~repro.sim.clock.SimClock`
  timestamps, which carry the *simulated* daemon latencies the paper's
  load model prices;
* ``wall_ms`` — real ``time.perf_counter`` time, which is what the
  slow-request log thresholds against (the only wall time the
  reproduction ever reports).

Spans nest through a thread-local stack, so concurrent HTTP handler
threads each build their own tree; finished root spans land in a
bounded ring buffer under the tracer's lock.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.sim.clock import SimClock

logger = logging.getLogger("repro.obs.slowlog")


@dataclass
class Span:
    """One timed operation inside a request trace."""

    name: str  # "route:my_jobs", "cache:squeue", "daemon:slurmctld"
    kind: str  # "route" | "cache" | "daemon" | ...
    t_sim: float  # sim-clock timestamp at start
    wall_ms: float = 0.0  # real elapsed time, milliseconds
    sim_elapsed_s: float = 0.0  # sim-clock time that passed inside the span
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """JSON shape served by ``/api/v1/traces/recent``."""
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "t_sim": round(self.t_sim, 6),
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.sim_elapsed_s:
            out["sim_elapsed_s"] = round(self.sim_elapsed_s, 6)
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Builds span trees per thread and keeps the last N root traces.

    Parameters
    ----------
    clock:
        The simulation clock spans stamp their ``t_sim`` from.
    max_traces:
        Ring-buffer size for finished root spans.
    slow_threshold_ms:
        Root spans slower than this (wall time) are copied into
        :attr:`slow_requests` and logged via ``repro.obs.slowlog``.
    """

    def __init__(self, clock: SimClock, max_traces: int = 100,
                 slow_threshold_ms: float = 250.0):
        self.clock = clock
        self.slow_threshold_ms = slow_threshold_ms
        self._lock = threading.Lock()
        self._traces: Deque[Span] = deque(maxlen=max_traces)
        self._slow: Deque[Span] = deque(maxlen=max_traces)
        self._local = threading.local()
        self.enabled = True

    # -- span construction ---------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, kind: str = "span",
             attrs: Optional[Dict[str, Any]] = None) -> Iterator[Span]:
        """Open a span; nested calls on the same thread become children.

        When the outermost span closes, the finished tree is published
        to :meth:`recent` (and, if slow, to :attr:`slow_requests`).
        """
        if not self.enabled:
            yield Span(name=name, kind=kind, t_sim=self.clock.now())
            return
        span = Span(
            name=name, kind=kind, t_sim=self.clock.now(),
            attrs=dict(attrs) if attrs else {},
        )
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        wall_start = time.perf_counter()
        try:
            yield span
        finally:
            span.wall_ms = (time.perf_counter() - wall_start) * 1000.0
            span.sim_elapsed_s = self.clock.now() - span.t_sim
            stack.pop()
            if not stack:
                self._publish(span)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _publish(self, root: Span) -> None:
        with self._lock:
            self._traces.append(root)
            if root.wall_ms >= self.slow_threshold_ms:
                self._slow.append(root)
                logger.warning(
                    "slow request: %s took %.1f ms (threshold %.1f ms)",
                    root.name, root.wall_ms, self.slow_threshold_ms,
                )

    # -- reading -------------------------------------------------------------

    def recent(self, limit: Optional[int] = None) -> List[Span]:
        """The most recent finished traces, newest last.

        ``limit=0`` means zero traces — guarded explicitly because the
        naive ``traces[-0:]`` slice would return *everything*.
        """
        with self._lock:
            traces = list(self._traces)
        if limit is not None and limit >= 0:
            traces = traces[-limit:] if limit > 0 else []
        return traces

    @property
    def slow_requests(self) -> List[Span]:
        """Root spans that crossed :attr:`slow_threshold_ms`."""
        with self._lock:
            return list(self._slow)

    def clear(self) -> None:
        """Drop all recorded traces (not any open spans)."""
        with self._lock:
            self._traces.clear()
            self._slow.clear()


class _NullTracer:
    """A tracer that records nothing — the default wired into layers
    that may run without an observability context (bare TTLCache or
    ResilientFetcher in unit tests)."""

    enabled = False

    @contextmanager
    def span(self, name: str, kind: str = "span",
             attrs: Optional[Dict[str, Any]] = None) -> Iterator[Span]:
        yield Span(name=name, kind=kind, t_sim=0.0)

    def current(self) -> Optional[Span]:
        return None

    def recent(self, limit: Optional[int] = None) -> List[Span]:
        return []

    @property
    def slow_requests(self) -> List[Span]:
        return []


#: shared no-op tracer instance
NULL_TRACER = _NullTracer()

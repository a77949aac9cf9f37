"""The benchmark's arithmetic: percentiles, rates and span self times.

Pure functions over plain numbers, so ``perfbench/test_perfbench.py``
can check each one by hand.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: samples a percentile must leave beyond it before it is reported
MIN_BEYOND = 10


def is_ok(status: int) -> bool:
    """A successful answer for ``ok_rate``: any 2xx, or a 304."""
    return 200 <= status < 300 or status == 304


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1]: {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[max(1, rank) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - max(1, math.ceil(q * n - 1e-9))


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """The fewest samples for which ``min_beyond`` lie beyond ``q``."""
    n = min_beyond
    while beyond(n, q) < min_beyond:
        n += 1
    return n


def open_loop_latencies(due: Sequence[float], done: Sequence[float],
                        ok: Sequence[bool]) -> List[float]:
    """Latency of each open-loop request, from when it was *due* to its
    last body byte — a request held back by an earlier stall carries the
    wait.  A failed request has infinite latency: it misses any limit."""
    return [
        (d1 - d0) if good else math.inf
        for d0, d1, good in zip(due, done, ok)
    ]


def ok_rate(statuses: Iterable[int]) -> float:
    """(2xx + 304) ÷ requests attempted; 5xx, 429 and transport errors
    (recorded as 599) all count against it."""
    statuses = list(statuses)
    if not statuses:
        raise ValueError("ok_rate of no requests")
    return sum(1 for s in statuses if is_ok(s)) / len(statuses)


def capacity(statuses: Iterable[int], busy_s: float) -> float:
    """Successful responses per second of closed-loop serving time."""
    if busy_s <= 0:
        raise ValueError(f"closed loop took no time: {busy_s}")
    return sum(1 for s in statuses if is_ok(s)) / busy_s


# -- spans ---------------------------------------------------------------------

Span = Tuple[int, int, object, str, float, float, object]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may run on other threads (a homepage's widgets), so they
    are clipped to the parent's interval and overlapping children are
    counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sid, parent, _rid, _layer, start, end, _note in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _rid, _layer, start, end, _note in spans:
        clipped = [
            (max(start, c0), min(end, c1))
            for c0, c1 in children.get(sid, ())
            if c1 > start and c0 < end
        ]
        out[sid] = (end - start) - union_length(clipped)
    return out

"""P5 — single-flight coalescing protects slurmctld from dogpiles.

The paper's caching argument (§2.4) is about "repeated queries in close
succession"; the worst case of that pattern is the *stampede*: a popular
cache key expires and every concurrent viewer triggers the same backend
command at once.  Single-flight coalescing collapses the stampede to one
backend compute — the first caller leads, everyone else rides its
in-flight result.

Three checks:

* a controlled one-key stampede (leader gated on an event so every
  follower provably arrives while the compute is in flight) runs the
  backend exactly once;
* a real route stampede — N threads hit ``system_status`` the moment
  its sinfo entry expires — costs exactly one slurmctld RPC;
* a mixed-key hammer under threaded load with a real (wall-clock)
  compute cost computes each key exactly once.

Set ``COALESCING_SMOKE=1`` to run with a small thread count (CI smoke).
"""

from __future__ import annotations

import os
import threading
import time
from typing import List

from repro.core.caching import TTLCache
from repro.obs.metrics import parse_prometheus_text, samples_by_name
from repro.sim.clock import SimClock

from .conftest import fresh_world

SMOKE = os.environ.get("COALESCING_SMOKE") == "1"
STAMPEDE_THREADS = 8 if SMOKE else 32
MIXED_THREADS = 4 if SMOKE else 8
MIXED_ROUNDS = 20 if SMOKE else 80


def _waiters_total(payload: str) -> float:
    by_name = samples_by_name(parse_prometheus_text(payload))
    return sum(
        s.value for s in by_name.get("repro_cache_coalesced_waiters_total", [])
    )


def test_perf_stampede_single_compute(benchmark, report):
    """N concurrent fetches of one missing key -> exactly 1 compute."""
    dash, _, _ = fresh_world(seed=7, hours=1.0)
    cache = dash.ctx.cache
    computes: List[int] = []
    entered, release = threading.Event(), threading.Event()

    def gated():
        computes.append(1)
        entered.set()
        release.wait(30)
        return "computed-once"

    values: List[str] = []

    def fetch():
        values.append(cache.fetch("sinfo:stampede", gated))

    leader = threading.Thread(target=fetch)
    leader.start()
    assert entered.wait(30), "leader never entered the compute block"

    followers = [
        threading.Thread(target=fetch) for _ in range(STAMPEDE_THREADS - 1)
    ]
    for t in followers:
        t.start()
    # wait until every follower is provably registered on the flight
    deadline = time.time() + 30
    while (
        cache.stats.coalesced_waiters < STAMPEDE_THREADS - 1
        and time.time() < deadline
    ):
        time.sleep(0.002)
    release.set()
    leader.join(30)
    for t in followers:
        t.join(30)

    assert sum(computes) == 1, "stampede must collapse to one compute"
    assert values == ["computed-once"] * STAMPEDE_THREADS
    assert cache.stats.coalesced == STAMPEDE_THREADS - 1
    assert cache.stats.coalesced_waiters == STAMPEDE_THREADS - 1

    # the savings are visible on the live /metrics surface
    scraped = _waiters_total(dash.ctx.scrape_metrics())
    assert scraped >= STAMPEDE_THREADS - 1

    report(
        "",
        "P5: single-flight stampede collapse",
        f"{STAMPEDE_THREADS} concurrent fetches of one cold key -> "
        f"{sum(computes)} backend compute "
        f"({cache.stats.coalesced} followers coalesced)",
    )
    benchmark.pedantic(lambda: cache.fetch("sinfo:stampede", gated),
                       rounds=1, iterations=1)


def test_perf_route_stampede_one_ctld_rpc(report):
    """A real dogpile: sinfo expires, N viewers reload System Status at
    once, slurmctld sees exactly one RPC."""
    dash, directory, viewer = fresh_world(seed=11, hours=1.0)
    daemons = dash.ctx.cluster.daemons

    warm = dash.call("system_status", viewer)
    assert warm.ok
    # step past the sinfo TTL (60 s) so the entry is expired, then dogpile
    dash.ctx.cluster.advance(61.0)
    daemons.reset_counters()

    barrier = threading.Barrier(STAMPEDE_THREADS)
    responses = []
    lock = threading.Lock()

    def reload():
        barrier.wait(30)
        resp = dash.call("system_status", viewer)
        with lock:
            responses.append(resp)

    threads = [
        threading.Thread(target=reload) for _ in range(STAMPEDE_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)

    assert len(responses) == STAMPEDE_THREADS
    assert all(r.ok for r in responses)
    assert daemons.ctld.total_rpcs == 1, (
        f"expected the stampede to cost one sinfo RPC, "
        f"saw {daemons.ctld.total_rpcs}"
    )
    report(
        "",
        f"P5b: {STAMPEDE_THREADS} simultaneous System Status reloads on an "
        f"expired entry -> {daemons.ctld.total_rpcs} slurmctld RPC",
    )


def _hammer(cache: TTLCache, keys: List[str], compute_s: float) -> int:
    """Threaded mixed-key load; returns how many computes actually ran."""
    computes = []
    lock = threading.Lock()

    def compute_for(key):
        def compute():
            with lock:
                computes.append(key)
            time.sleep(compute_s)  # wall-clock backend cost
            return f"value:{key}"
        return compute

    barrier = threading.Barrier(MIXED_THREADS)

    def worker(idx):
        barrier.wait(30)
        for round_no in range(MIXED_ROUNDS):
            key = keys[(idx + round_no) % len(keys)]
            cache.fetch(key, compute_for(key))

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(MIXED_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    return len(computes)


def test_perf_mixed_key_throughput(report):
    """Under mixed-key contention, single-flight computes each key once."""
    keys = [f"squeue:user{i}" for i in range(4)]
    compute_s = 0.002

    cache = TTLCache(SimClock(), default_ttl=3600.0)
    t0 = time.perf_counter()
    computes = _hammer(cache, keys, compute_s)
    wall = time.perf_counter() - t0

    # with a long TTL each key needs exactly one compute; coalescing
    # keeps the cold start from dogpiling
    assert computes == len(keys)

    report(
        "",
        "P5c: mixed-key hammer "
        f"({MIXED_THREADS} threads x {MIXED_ROUNDS} rounds, "
        f"{len(keys)} keys, {compute_s * 1000:.0f} ms compute)",
        f"{computes} computes in {wall:.3f} s",
    )

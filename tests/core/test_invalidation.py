"""Invalidation (``TTLCache.delete``) racing the cache's compute paths.

The dangerous window: a key is deleted while a single-flight leader (or
an armed refresh-ahead revalidation) is still computing the *pre-delete*
value.  Without the per-key epoch, that compute's write would resurrect
the deleted state the moment the delete finished; these tests pin the
epoch semantics instead.
"""

import threading

import pytest

from repro.core.caching import TTLCache
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def cache(clock):
    return TTLCache(clock, default_ttl=60.0)


def inflight_gauge(cache):
    return cache.metrics.gauge("repro_cache_inflight_keys").value()


class TestInvalidate:
    def test_invalidate_drops_entry_and_counts(self, cache):
        cache.write("squeue:alice", "v")
        assert cache.delete("squeue:alice") is True
        assert cache.read("squeue:alice") is None
        assert cache.entry("squeue:alice") is None
        assert cache.delete("squeue:alice") is False
        assert cache.metrics.total(
            "repro_cache_purged_total", reason="deleted"
        ) == 1.0

    def test_next_lookup_recomputes(self, cache):
        calls = []
        cache.fetch("squeue:alice", lambda: calls.append(1) or "v1")
        cache.delete("squeue:alice")
        value = cache.fetch("squeue:alice", lambda: calls.append(1) or "v2")
        assert value == "v2" and len(calls) == 2


class TestInvalidationRacesSingleFlight:
    def test_mid_compute_invalidation_not_resurrected(self, cache):
        """The leader's write after a delete must be discarded — its
        value reflects pre-delete backend state."""
        entered = threading.Event()
        release = threading.Event()

        def compute():
            entered.set()
            assert release.wait(5.0)
            return "stale-snapshot"

        results = []
        t = threading.Thread(
            target=lambda: results.append(cache.fetch("squeue:alice", compute))
        )
        t.start()
        assert entered.wait(5.0)
        assert cache.delete("squeue:alice") is False  # no entry yet
        release.set()
        t.join(5.0)
        assert not t.is_alive()
        # the caller still gets its computed value...
        assert results == ["stale-snapshot"]
        # ...but the cache did NOT store it
        assert cache.entry("squeue:alice") is None
        assert cache.metrics.total(
            "repro_cache_stale_writes_skipped_total", source="squeue"
        ) == 1.0
        # and nothing is stranded in flight
        assert inflight_gauge(cache) == 0.0
        assert len(cache._inflight) == 0

    def test_mid_compute_invalidation_wakes_followers(self, cache):
        """A follower waiting on a deleted key's flight stops waiting and
        recomputes instead of inheriting the cancelled leader's value."""
        entered = threading.Event()
        release = threading.Event()

        def slow_compute():
            entered.set()
            assert release.wait(5.0)
            return "leader-value"

        leader_results, follower_results = [], []
        leader = threading.Thread(
            target=lambda: leader_results.append(
                cache.fetch("squeue:alice", slow_compute)
            )
        )
        leader.start()
        assert entered.wait(5.0)

        follower_started = threading.Event()

        def follow():
            follower_started.set()
            follower_results.append(
                cache.fetch("squeue:alice", lambda: "fresh-value")
            )

        follower = threading.Thread(target=follow)
        follower.start()
        assert follower_started.wait(5.0)
        # give the follower a moment to actually park on the flight
        for _ in range(100):
            if cache.metrics.total(
                "repro_cache_coalesced_waiters_total", source="squeue"
            ) >= 1.0:
                break
            threading.Event().wait(0.01)

        cache.delete("squeue:alice")
        follower.join(5.0)
        release.set()
        leader.join(5.0)
        assert not follower.is_alive() and not leader.is_alive()

        assert follower_results == ["fresh-value"]
        assert leader_results == ["leader-value"]
        # the follower's post-delete compute is the stored value
        assert cache.read("squeue:alice") == "fresh-value"
        assert inflight_gauge(cache) == 0.0

    def test_write_after_invalidation_still_possible(self, cache):
        """Only the epoch-snapshotting compute paths are fenced; a plain
        write() after the delete stores normally."""
        cache.delete("k")
        cache.write("k", "v")
        assert cache.read("k") == "v"


class TestInvalidationRacesRefreshAhead:
    def test_refresh_superseded_by_invalidation(self, cache, clock):
        """An armed revalidation whose key is deleted before it runs
        must not rewrite the entry (counted ``superseded``)."""
        captured = []
        cache.refresh_runner = lambda thunk: (captured.append(thunk) or True)
        cache.write("squeue:alice", "v1", ttl=60.0)
        clock.advance(50.0)
        result = cache.lookup(
            "squeue:alice", lambda: "v1",
            soft_ttl=48.0, refresh=lambda: "refreshed-from-old-state",
        )
        assert result.refreshing and len(captured) == 1
        # the delete lands before the pool runs the refresh
        cache.delete("squeue:alice")
        captured[0]()
        assert cache.entry("squeue:alice") is None
        assert cache.metrics.total(
            "repro_cache_refresh_ahead_total", result="superseded"
        ) == 1.0
        assert inflight_gauge(cache) == 0.0

    def test_refresh_without_invalidation_still_rewrites(self, cache, clock):
        captured = []
        cache.refresh_runner = lambda thunk: (captured.append(thunk) or True)
        cache.write("squeue:alice", "v1", ttl=60.0)
        clock.advance(50.0)
        cache.lookup("squeue:alice", lambda: "v1",
                     soft_ttl=48.0, refresh=lambda: "v2")
        captured[0]()
        assert cache.read("squeue:alice") == "v2"
        assert cache.metrics.total(
            "repro_cache_refresh_ahead_total", result="ok"
        ) == 1.0

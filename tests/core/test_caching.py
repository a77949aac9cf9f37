"""Tests for the server-side TTL cache (Rails.cache equivalent)."""

import threading
import time

import pytest

from repro.core.caching import CachePolicy, TTLCache
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def cache(clock):
    return TTLCache(clock, default_ttl=60.0)


class TestFetch:
    def test_miss_computes_and_stores(self, cache):
        calls = []
        value = cache.fetch("k", lambda: calls.append(1) or "v")
        assert value == "v"
        assert calls == [1]
        assert cache.stats.misses == 1

    def test_hit_skips_compute(self, cache):
        cache.fetch("k", lambda: "v1")
        value = cache.fetch("k", lambda: pytest.fail("must not compute"))
        assert value == "v1"
        assert cache.stats.hits == 1

    def test_expiry_recomputes(self, cache, clock):
        cache.fetch("k", lambda: "old", ttl=30)
        clock.advance(31)
        value = cache.fetch("k", lambda: "new")
        assert value == "new"
        assert cache.stats.expirations == 1

    def test_fresh_until_exactly_ttl(self, cache, clock):
        cache.fetch("k", lambda: "v", ttl=30)
        clock.advance(29.9)
        assert cache.fetch("k", lambda: "other") == "v"

    def test_per_key_ttl(self, cache, clock):
        cache.fetch("fast", lambda: 1, ttl=10)
        cache.fetch("slow", lambda: 2, ttl=1000)
        clock.advance(20)
        assert cache.read("fast") is None
        assert cache.read("slow") == 2

    def test_hit_rate(self, cache):
        cache.fetch("k", lambda: 1)
        cache.fetch("k", lambda: 1)
        cache.fetch("k", lambda: 1)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestExpiryBoundary:
    """Pin the half-open freshness boundary: an entry stored at T with
    TTL d is fresh on [T, T+d) and expired at exactly T+d.  Every
    consumer — fetch, read, stale-serving, eviction, purge — must agree
    on this instant."""

    def test_expired_at_exactly_ttl(self, cache, clock):
        cache.fetch("k", lambda: "v", ttl=30)
        clock.advance(30)  # now == stored_at + ttl, not a moment later
        entry = cache.entry("k")
        assert not entry.is_fresh(clock.now())
        # a lookup at the boundary is an expiry + miss, never a hit
        assert cache.fetch("k", lambda: "recomputed") == "recomputed"
        assert cache.stats.expirations == 1
        assert cache.stats.hits == 0

    def test_read_agrees_at_boundary(self, cache, clock):
        cache.write("k", 1, ttl=30)
        clock.advance(30)
        assert cache.read("k") is None

    def test_stale_serve_at_boundary_reports_age_equal_to_ttl(self, cache, clock):
        def boom():
            raise RuntimeError("backend down")

        cache.write("k", "old", ttl=30)
        clock.advance(30)
        value, stale_age = cache.fetch_or_stale("k", boom, stale_on=(RuntimeError,))
        assert value == "old"
        assert stale_age == pytest.approx(30.0)

    def test_purge_agrees_at_boundary(self, cache, clock):
        cache.write("k", 1, ttl=30)
        clock.advance(30)
        assert cache.purge_expired() == 1


class TestDirectAccess:
    def test_read_returns_none_for_missing(self, cache):
        assert cache.read("nope") is None

    def test_write_then_read(self, cache):
        cache.write("k", 42)
        assert cache.read("k") == 42

    def test_write_zero_ttl_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.write("k", 1, ttl=0)

    def test_default_ttl_positive_required(self, clock):
        with pytest.raises(ValueError):
            TTLCache(clock, default_ttl=0)

    def test_delete(self, cache):
        cache.write("k", 1)
        assert cache.delete("k") is True
        assert cache.entry("k") is None
        assert cache.delete("k") is False
        # the next fetch recomputes instead of serving the deleted value
        assert cache.fetch("k", lambda: 2) == 2
        cache.delete("k")
        # the epoch fence guards compute paths only: a plain write after
        # a delete stores normally
        cache.write("k", 3)
        assert cache.read("k") == 3

    def test_clear_and_len(self, cache):
        cache.write("a", 1)
        cache.write("b", 2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    def test_entry_exposes_staleness(self, cache, clock):
        cache.write("k", 1, ttl=10)
        clock.advance(25)
        entry = cache.entry("k")
        assert entry is not None
        assert not entry.is_fresh(clock.now())
        assert entry.age(clock.now()) == pytest.approx(25)

    def test_purge_expired(self, cache, clock):
        cache.write("a", 1, ttl=10)
        cache.write("b", 2, ttl=100)
        clock.advance(50)
        assert cache.purge_expired() == 1
        assert len(cache) == 1


class TestEviction:
    def test_bounded_size(self, clock):
        cache = TTLCache(clock, default_ttl=60, max_entries=5)
        for i in range(10):
            cache.write(f"k{i}", i)
        assert len(cache) == 5

    def test_evicts_closest_to_expiry(self, clock):
        cache = TTLCache(clock, default_ttl=60, max_entries=2)
        cache.write("short", 1, ttl=10)
        cache.write("long", 2, ttl=1000)
        cache.write("new", 3, ttl=100)
        assert cache.read("short") is None
        assert cache.read("long") == 2


class TestOneHotCounting:
    """Pin the one-hot ``result`` label: every lookup increments
    ``repro_cache_requests_total`` exactly once, so the family sum equals
    the number of lookups (an expired lookup used to count as both
    ``expired`` *and* ``miss``, inflating every denominator)."""

    def test_expired_lookup_counts_once(self, cache, clock):
        cache.fetch("k", lambda: "old", ttl=30)  # miss
        clock.advance(31)
        cache.fetch("k", lambda: "new")  # expired (NOT also a miss)
        assert cache.stats.expirations == 1
        assert cache.stats.misses == 1
        assert cache.stats.requests == 2

    def test_family_sum_equals_lookup_count(self, cache, clock):
        def boom():
            raise RuntimeError("down")

        lookups = 0
        cache.fetch("a", lambda: 1)  # miss
        lookups += 1
        cache.fetch("a", lambda: 1)  # hit
        lookups += 1
        cache.fetch("b", lambda: 2, ttl=10)  # miss
        lookups += 1
        clock.advance(11)
        cache.fetch("b", lambda: 3)  # expired
        lookups += 1
        cache.write("c", "old", ttl=5)
        clock.advance(6)
        cache.fetch_or_stale("c", boom)  # stale_served, exactly one count
        lookups += 1
        with pytest.raises(RuntimeError):
            cache.fetch("d", boom)  # failed miss still counts once
        lookups += 1
        stats = cache.stats
        assert stats.requests == lookups == 6
        assert (
            stats.hits + stats.misses + stats.expirations
            + stats.stale_served + stats.coalesced
        ) == lookups
        # pinned per-result counts
        assert (stats.hits, stats.misses, stats.expirations,
                stats.stale_served) == (1, 3, 1, 1)

    def test_hit_rate_uses_one_hot_denominator(self, cache, clock):
        cache.fetch("k", lambda: 1, ttl=10)  # miss
        cache.fetch("k", lambda: 1)  # hit
        clock.advance(11)
        cache.fetch("k", lambda: 2)  # expired
        assert cache.stats.hit_rate == pytest.approx(1 / 3)


class TestPurgeAccounting:
    """purge_expired/delete/clear must show up in /metrics: a purge
    counter plus a live ``repro_cache_entries`` gauge that tracks
    ``len(cache)`` instead of drifting between scrapes."""

    def _entries_gauge(self, cache):
        return cache.metrics.gauge("repro_cache_entries").value()

    def test_purge_counts_per_source(self, cache, clock):
        cache.write("squeue:a", 1, ttl=10)
        cache.write("news:b", 2, ttl=10)
        cache.write("news:c", 3, ttl=100)
        clock.advance(50)
        assert cache.purge_expired() == 2
        purged = cache.metrics.counter(
            "repro_cache_purged_total", labelnames=("source", "reason")
        )
        assert purged.value(source="squeue", reason="expired") == 1
        assert purged.value(source="news", reason="expired") == 1
        assert cache.stats.purged == 2

    def test_delete_and_clear_are_counted(self, cache):
        cache.write("k", 1)
        cache.write("j", 2)
        assert cache.delete("k") is True
        assert cache.delete("k") is False  # double delete counts once
        cache.clear()
        assert cache.stats.purged == 2

    def test_entries_gauge_tracks_len(self, cache, clock):
        assert self._entries_gauge(cache) == 0.0
        cache.write("a", 1, ttl=10)
        cache.write("b", 2, ttl=100)
        assert self._entries_gauge(cache) == 2.0 == len(cache)
        clock.advance(50)
        cache.purge_expired()
        assert self._entries_gauge(cache) == 1.0 == len(cache)
        cache.delete("b")
        assert self._entries_gauge(cache) == 0.0 == len(cache)


class TestCoalescing:
    """Single-flight request coalescing: concurrent misses on one key
    produce one compute; followers share the leader's result, degrade to
    stale when the leader overruns their budget, and never deadlock."""

    def _gated_leader(self, cache, key, value="L"):
        """Start a leader whose compute blocks until released; returns
        (thread, entered_event, release_event, results list)."""
        entered, release, results = threading.Event(), threading.Event(), []

        def compute():
            entered.set()
            assert release.wait(10)
            return value

        thread = threading.Thread(
            target=lambda: results.append(cache.fetch(key, compute))
        )
        thread.start()
        assert entered.wait(10)
        return thread, release, results

    def _await_waiters(self, cache, n, deadline_s=10.0):
        deadline = time.time() + deadline_s
        while cache.stats.coalesced_waiters < n:
            assert time.time() < deadline, "followers never registered"
            time.sleep(0.002)

    def test_stampede_runs_one_compute(self, cache):
        """8 concurrent misses on one key: exactly 1 compute, 7 followers
        served the leader's value."""
        computes = []
        leader, release, _ = self._gated_leader(cache, "k")
        values, threads = [], []
        lock = threading.Lock()

        def follower():
            value = cache.fetch("k", lambda: computes.append(1) or "F")
            with lock:
                values.append(value)

        for _ in range(7):
            t = threading.Thread(target=follower)
            t.start()
            threads.append(t)
        self._await_waiters(cache, 7)
        assert cache.metrics.gauge("repro_cache_inflight_keys").value() == 1.0
        release.set()
        leader.join(10)
        for t in threads:
            t.join(10)
        assert not computes, "a follower ran the compute block"
        assert values == ["L"] * 7
        stats = cache.stats
        assert stats.coalesced == 7 and stats.coalesced_waiters == 7
        assert stats.misses == 1
        assert stats.requests == 8
        assert cache.metrics.gauge("repro_cache_inflight_keys").value() == 0.0

    def test_follower_falls_back_to_stale_when_leader_overruns(self, cache, clock):
        cache.write("k", "stale-value", ttl=10)
        clock.advance(20)  # expired, age 20
        leader, release, results = self._gated_leader(cache, "k", value="fresh")
        try:
            lookup = cache.lookup(
                "k", lambda: pytest.fail("follower must not compute"),
                stale_on=(Exception,), follower_timeout_s=0.05,
            )
            assert lookup.result == "stale_served"
            assert lookup.value == "stale-value"
            assert lookup.stale_age_s == pytest.approx(20.0)
            assert lookup.role == "follower"
        finally:
            release.set()
            leader.join(10)
        assert results == ["fresh"]  # the slow leader still lands its value
        assert cache.read("k") == "fresh"

    def test_leader_failure_propagates_once_and_followers_degrade(self, cache, clock):
        """A failing leader: followers with a stale entry serve it; the
        compute block itself ran exactly once for the whole stampede."""
        cache.write("k", "old", ttl=5)
        clock.advance(6)
        computes = []
        entered, release = threading.Event(), threading.Event()

        def boom():
            computes.append(1)
            entered.set()
            assert release.wait(10)
            raise RuntimeError("backend down")

        leader_out = []

        def leader():
            try:
                cache.fetch_or_stale("k", boom)
                leader_out.append("served")
            except RuntimeError:
                leader_out.append("raised")

        lt = threading.Thread(target=leader)
        lt.start()
        assert entered.wait(10)
        follower_values = []
        fts = [
            threading.Thread(
                target=lambda: follower_values.append(
                    cache.fetch_or_stale("k", boom)
                )
            )
            for _ in range(4)
        ]
        for t in fts:
            t.start()
        self._await_waiters(cache, 4)
        release.set()
        lt.join(10)
        for t in fts:
            t.join(10)
        assert computes == [1], "the backend saw more than one query"
        assert leader_out == ["served"]  # leader itself degraded to stale
        assert [v for v, _ in follower_values] == ["old"] * 4
        assert all(age == pytest.approx(6.0) for _, age in follower_values)
        assert cache.stats.stale_served == 5

    def test_leader_failure_with_no_stale_raises_everywhere(self, cache):
        entered, release = threading.Event(), threading.Event()

        def boom():
            entered.set()
            assert release.wait(10)
            raise RuntimeError("down")

        outcomes = []
        lock = threading.Lock()

        def run(fn):
            try:
                fn()
                with lock:
                    outcomes.append("ok")
            except RuntimeError:
                with lock:
                    outcomes.append("raised")

        lt = threading.Thread(target=lambda: run(lambda: cache.fetch("k", boom)))
        lt.start()
        assert entered.wait(10)
        ft = threading.Thread(
            target=lambda: run(lambda: cache.fetch("k", lambda: "F"))
        )
        ft.start()
        self._await_waiters(cache, 1)
        release.set()
        lt.join(10)
        ft.join(10)
        assert outcomes == ["raised", "raised"]
        assert cache.stats.requests == 2  # miss + coalesced_failed, one-hot

    def test_reentrant_compute_on_another_key_no_deadlock(self, cache):
        def outer():
            return cache.fetch("inner", lambda: "i") + "-o"

        assert cache.fetch("outer", outer) == "i-o"
        assert cache.read("inner") == "i"

    def test_reentrant_compute_on_same_key_no_deadlock(self, cache):
        def outer():
            return cache.fetch("k", lambda: "nested")

        assert cache.fetch("k", outer) == "nested"

    def test_timed_out_follower_with_no_stale_computes_itself(self, cache):
        """Bounded wait, nothing stale: the follower stops following and
        computes on its own instead of blocking past its budget."""
        leader, release, results = self._gated_leader(cache, "k", value="slow")
        try:
            lookup = cache.lookup(
                "k", lambda: "impatient", follower_timeout_s=0.05
            )
            assert lookup.value == "impatient"
            assert lookup.result == "miss"
        finally:
            release.set()
            leader.join(10)
        assert results == ["slow"]


class TestCachePolicy:
    def test_paper_defaults(self):
        """§2.4: squeue ~30 s; announcements 30 min to 1 h."""
        p = CachePolicy()
        assert p.squeue == 30.0
        assert 1800.0 <= p.news <= 3600.0
        assert p.storage >= p.sinfo

    def test_ttl_for_known_source(self):
        assert CachePolicy().ttl_for("squeue") == 30.0

    def test_ttl_for_unknown_source_falls_back(self):
        assert CachePolicy().ttl_for("mystery") == CachePolicy().default

    def test_as_dict_has_every_source(self):
        d = CachePolicy().as_dict()
        assert set(d) == {
            "squeue", "sinfo", "sacct", "scontrol_node", "scontrol_job",
            "scontrol_assoc", "news", "storage",
        }

    def test_custom_policy(self):
        p = CachePolicy(squeue=5.0)
        assert p.ttl_for("squeue") == 5.0

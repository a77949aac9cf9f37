"""Tests for refresh-ahead (stale-while-revalidate) on the TTL cache."""

import threading

import pytest

from repro.core.caching import REFRESH_RESULTS, CachePolicy, TTLCache
from repro.core.workers import WorkerPool
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def cache(clock):
    return TTLCache(clock, default_ttl=60.0)


def captured_runner(cache):
    """Wire a runner that records refresh thunks instead of running them,
    so tests control exactly when (and whether) a revalidation executes."""
    captured = []
    cache.refresh_runner = lambda thunk: (captured.append(thunk) or True)
    return captured


def refresh_total(cache, result):
    return cache.metrics.total("repro_cache_refresh_ahead_total", result=result)


def stale_writes_skipped(cache):
    return cache.metrics.total("repro_cache_stale_writes_skipped_total")


class TestSoftTTLBoundary:
    def test_below_soft_ttl_does_not_arm(self, cache, clock):
        captured = captured_runner(cache)
        cache.write("k", "v", ttl=60.0)
        clock.advance(47.9)  # just under soft_ttl=48
        result = cache.lookup("k", lambda: "new", soft_ttl=48.0, refresh=lambda: "new")
        assert result.value == "v" and result.result == "hit"
        assert not result.refreshing
        assert captured == []

    def test_at_soft_ttl_arms_half_open(self, cache, clock):
        """age == soft_ttl is *inside* the refresh window, mirroring the
        half-open hard-expiry boundary of CacheEntry.is_fresh."""
        captured = captured_runner(cache)
        cache.write("k", "v", ttl=60.0)
        clock.advance(48.0)
        result = cache.lookup("k", lambda: "new", soft_ttl=48.0, refresh=lambda: "new")
        assert result.value == "v" and result.result == "hit"
        assert result.refreshing
        assert len(captured) == 1

    def test_no_runner_means_no_refresh(self, cache, clock):
        cache.write("k", "v", ttl=60.0)
        clock.advance(50.0)
        result = cache.lookup("k", lambda: "new", soft_ttl=48.0, refresh=lambda: "new")
        assert result.value == "v" and not result.refreshing

    def test_without_soft_ttl_behaves_as_before(self, cache, clock):
        captured = captured_runner(cache)
        cache.write("k", "v", ttl=60.0)
        clock.advance(59.0)
        assert cache.lookup("k", lambda: "new").value == "v"
        assert captured == []

    def test_hard_expiry_still_wins(self, cache, clock):
        """Past the hard TTL the lookup is a plain miss-and-recompute,
        never a refresh-ahead."""
        captured = captured_runner(cache)
        cache.write("k", "old", ttl=60.0)
        clock.advance(60.0)
        result = cache.lookup("k", lambda: "new", soft_ttl=48.0, refresh=lambda: "bg")
        assert result.value == "new" and result.result == "expired"
        assert captured == []


class TestRefreshExecution:
    def test_refresh_rewrites_entry_and_counts_ok(self, cache, clock):
        captured = captured_runner(cache)
        cache.write("k", "v1", ttl=60.0)
        clock.advance(50.0)
        cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=lambda: "v2")
        captured[0]()  # run the background revalidation
        entry = cache.entry("k")
        assert entry.value == "v2"
        assert entry.stored_at == clock.now()  # fresh hard TTL restarts now
        assert refresh_total(cache, "ok") == 1
        assert cache.metrics.total("repro_cache_served_while_refreshing_total") == 1
        # the in-flight marker is retired once the refresh lands
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 0

    def test_refresh_error_counts_and_keeps_entry(self, cache, clock):
        captured = captured_runner(cache)
        cache.write("k", "v1", ttl=60.0)
        clock.advance(50.0)

        def boom():
            raise RuntimeError("daemon down")

        cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=boom)
        captured[0]()
        assert cache.entry("k").value == "v1"  # entry untouched
        assert refresh_total(cache, "error") == 1
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 0

    def test_rejected_runner_counts_and_retires_marker(self, cache, clock):
        cache.refresh_runner = lambda thunk: False  # pool always full
        cache.write("k", "v", ttl=60.0)
        clock.advance(50.0)
        result = cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=lambda: "y")
        assert result.value == "v" and not result.refreshing
        assert refresh_total(cache, "rejected") == 1
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 0
        # a later soft-window hit may try again (marker was retired)
        cache.refresh_runner = lambda thunk: True
        result = cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=lambda: "y")
        assert result.refreshing

    def test_gate_closed_counts_paused(self, cache, clock):
        captured = captured_runner(cache)
        cache.refresh_gate = lambda: False
        cache.write("k", "v", ttl=60.0)
        clock.advance(50.0)
        result = cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=lambda: "y")
        assert result.value == "v" and not result.refreshing
        assert captured == []
        assert refresh_total(cache, "paused") == 1
        # gate reopens: next soft-window hit arms normally
        cache.refresh_gate = lambda: True
        result = cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=lambda: "y")
        assert result.refreshing and len(captured) == 1

    def test_all_results_preseeded_in_render(self, cache):
        text = cache.metrics.render()
        for result in REFRESH_RESULTS:
            assert f'result="{result}"' in text
        assert "repro_cache_served_while_refreshing_total" in text


class TestSingleFlightDedup:
    def test_second_soft_hit_does_not_rearm(self, cache, clock):
        captured = captured_runner(cache)
        cache.write("k", "v", ttl=60.0)
        clock.advance(50.0)
        first = cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=lambda: "y")
        second = cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=lambda: "y")
        assert first.refreshing and second.refreshing
        assert len(captured) == 1  # deduplicated through _inflight
        assert cache.metrics.total("repro_cache_served_while_refreshing_total") == 2

    def test_concurrent_soft_hits_arm_exactly_one(self, cache, clock):
        """Hammer: N threads in the soft window race to arm; single-flight
        guarantees at most one refresh is ever enqueued."""
        captured = []
        lock = threading.Lock()

        def runner(thunk):
            with lock:
                captured.append(thunk)
            return True

        cache.refresh_runner = runner
        cache.write("k", "v", ttl=60.0)
        clock.advance(50.0)
        barrier = threading.Barrier(8, timeout=5.0)
        results = []

        def hit():
            barrier.wait()
            results.append(
                cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=lambda: "y")
            )

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert len(results) == 8
        assert all(r.value == "v" and r.result == "hit" for r in results)
        assert len(captured) == 1

    def test_refresh_on_real_pool_single_compute(self, cache, clock):
        """End-to-end with a real WorkerPool: one refresh compute per
        soft window, value rewritten off-thread."""
        pool = WorkerPool(max_workers=2, max_queue=8, registry=cache.metrics)
        cache.refresh_runner = pool.try_submit
        computed = []
        done = threading.Event()

        def refresh():
            computed.append(1)
            done.set()
            return "v2"

        try:
            cache.write("k", "v1", ttl=60.0)
            clock.advance(50.0)
            for _ in range(5):
                cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=refresh)
            assert done.wait(timeout=5.0)
            # wait for _resolve to retire the marker before asserting
            deadline = 5.0
            while cache.metrics.get("repro_cache_inflight_keys").value() and deadline > 0:
                threading.Event().wait(0.01)
                deadline -= 0.01
            assert computed == [1]
            assert cache.entry("k").value == "v2"
        finally:
            pool.shutdown()


class TestDeleteClearCancellation:
    """Regression (issue satellite): delete()/clear() used to leave
    ``_InFlight`` records behind, stranding followers for their full
    timeout and leaking the in-flight gauge."""

    def _start_leader(self, cache, key):
        """Block a leader mid-compute on ``key``; returns (release, thread)."""
        entered = threading.Event()
        release = threading.Event()
        outcome = {}

        def compute():
            entered.set()
            release.wait(timeout=10.0)
            return "computed"

        def lead():
            try:
                outcome["value"] = cache.fetch(key, compute)
            except BaseException as exc:  # pragma: no cover - surfaced below
                outcome["error"] = exc

        t = threading.Thread(target=lead)
        t.start()
        assert entered.wait(timeout=5.0)
        return release, t, outcome

    def test_delete_wakes_follower_promptly(self, cache):
        release, leader, _ = self._start_leader(cache, "k")
        follower_done = threading.Event()
        follower_result = {}

        def follow():
            # generous timeout: before the fix the follower slept it out
            follower_result["lookup"] = cache.lookup(
                "k", lambda: "follower-computed", follower_timeout_s=30.0
            )
            follower_done.set()

        f = threading.Thread(target=follow)
        f.start()
        # wait until the follower registers on the flight
        deadline = 5.0
        while not cache._inflight.get("k") or not cache._inflight["k"].waiters:
            threading.Event().wait(0.01)
            deadline -= 0.01
            assert deadline > 0, "follower never registered"
        cache.delete("k")
        # cancelled flight: follower wakes and computes on its own, long
        # before the 30 s follower budget
        assert follower_done.wait(timeout=5.0)
        assert follower_result["lookup"].value == "follower-computed"
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 0
        release.set()
        leader.join(timeout=5.0)
        assert not leader.is_alive()
        # the follower computed after the delete, so its value is the one
        # stored; the cancelled leader's older value is discarded
        assert cache.read("k") == "follower-computed"

    def test_delete_reconciles_inflight_gauge(self, cache):
        release, leader, outcome = self._start_leader(cache, "k")
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 1
        cache.delete("k")
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 0
        release.set()
        leader.join(timeout=5.0)
        assert not leader.is_alive()
        # the leader still gets its value, but the epoch fence stops it
        # from resurrecting the key deleted mid-compute
        assert outcome == {"value": "computed"}
        assert cache.entry("k") is None
        assert stale_writes_skipped(cache) == 1
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 0

    def test_clear_cancels_every_flight(self, cache):
        rel_a, t_a, out_a = self._start_leader(cache, "a")
        rel_b, t_b, out_b = self._start_leader(cache, "b")
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 2
        cache.clear()
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 0
        rel_a.set()
        rel_b.set()
        t_a.join(timeout=5.0)
        t_b.join(timeout=5.0)
        assert not t_a.is_alive() and not t_b.is_alive()
        assert out_a == out_b == {"value": "computed"}
        # neither leader re-stores the key cleared under it
        assert cache.entry("a") is None and cache.entry("b") is None
        assert stale_writes_skipped(cache) == 2

    def test_delete_cancels_armed_refresh_marker(self, cache, clock):
        captured = captured_runner(cache)
        cache.write("k", "v", ttl=60.0)
        clock.advance(50.0)
        cache.lookup("k", lambda: "x", soft_ttl=48.0, refresh=lambda: "y")
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 1
        cache.delete("k")
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 0
        # the queued refresh still runs to completion, but its value was
        # computed before the delete, so the epoch fence discards it
        captured[0]()
        assert cache.entry("k") is None
        assert refresh_total(cache, "superseded") == 1
        assert cache.metrics.get("repro_cache_inflight_keys").value() == 0


class TestCachePolicySoftTTL:
    def test_soft_ttl_for_derives_from_base_ttl(self):
        policy = CachePolicy()
        assert policy.soft_ttl_for("sinfo") == pytest.approx(0.8 * 60.0)
        assert policy.soft_ttl_for("squeue") == pytest.approx(0.8 * 30.0)
        assert policy.soft_ttl_for("sinfo", ttl=100.0) == pytest.approx(80.0)

    def test_disabled_returns_none(self):
        policy = CachePolicy(refresh_ahead=False)
        assert policy.soft_ttl_for("sinfo") is None

    def test_validation(self):
        with pytest.raises(ValueError):
            CachePolicy(soft_ttl_fraction=0.0)
        with pytest.raises(ValueError):
            CachePolicy(soft_ttl_fraction=1.5)

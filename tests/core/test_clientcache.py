"""Tests for the IndexedDB-style client cache and stale-while-revalidate."""

import pytest

from repro.core.clientcache import ClientCache, IndexedDBStore
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


class TestIndexedDBStore:
    def test_create_and_put_get(self, clock):
        db = IndexedDBStore()
        db.create_store("s")
        db.put("s", "k", {"a": 1}, now=0.0)
        rec = db.get("s", "k")
        assert rec.value == {"a": 1}
        assert rec.stored_at == 0.0

    def test_duplicate_store_rejected(self):
        db = IndexedDBStore()
        db.create_store("s")
        with pytest.raises(ValueError):
            db.create_store("s")

    def test_missing_store_keyerror(self):
        with pytest.raises(KeyError):
            IndexedDBStore().get("nope", "k")

    def test_version_validation(self):
        with pytest.raises(ValueError):
            IndexedDBStore(version=0)

    def test_upgrade_drops_stores(self):
        db = IndexedDBStore(version=1)
        db.create_store("s")
        db.put("s", "k", 1, now=0)
        db.upgrade(2)
        assert db.version == 2
        assert not db.has_store("s")

    def test_upgrade_must_increase(self):
        db = IndexedDBStore(version=3)
        with pytest.raises(ValueError):
            db.upgrade(3)

    def test_delete_and_count(self):
        db = IndexedDBStore()
        db.create_store("s")
        db.put("s", "a", 1, now=0)
        db.put("s", "b", 2, now=0)
        assert db.count("s") == 2
        assert db.delete("s", "a") is True
        assert db.delete("s", "a") is False
        assert db.keys("s") == ["b"]


class TestClientCache:
    def test_first_fetch_hits_network(self, clock):
        cc = ClientCache(clock)
        outcome = cc.fetch("k", lambda: "fresh")
        assert outcome.served_from == "network"
        assert outcome.value == "fresh"
        assert cc.network_waits == 1

    def test_fresh_cache_serves_instantly_without_request(self, clock):
        cc = ClientCache(clock)
        cc.fetch("k", lambda: "v1", max_age_s=30)
        clock.advance(10)
        outcome = cc.fetch("k", lambda: pytest.fail("no request expected"),
                           max_age_s=30)
        assert outcome.served_from == "client-cache"
        assert outcome.value == "v1"
        assert not outcome.revalidated
        assert outcome.age_s == pytest.approx(10)

    def test_stale_cache_renders_old_and_revalidates(self, clock):
        """§2.4: instant render even when stale; refresh in background."""
        cc = ClientCache(clock)
        cc.fetch("k", lambda: "v1", max_age_s=30)
        clock.advance(100)
        outcome = cc.fetch("k", lambda: "v2", max_age_s=30)
        assert outcome.value == "v1"  # rendered immediately
        assert outcome.served_from == "client-cache"
        assert outcome.revalidated
        # the background refresh stored the new value
        next_outcome = cc.fetch("k", lambda: pytest.fail("fresh now"), max_age_s=30)
        assert next_outcome.value == "v2"

    def test_counters(self, clock):
        cc = ClientCache(clock)
        cc.fetch("k", lambda: 1, max_age_s=10)
        cc.fetch("k", lambda: 2, max_age_s=10)
        clock.advance(50)
        cc.fetch("k", lambda: 3, max_age_s=10)
        assert cc.network_waits == 1
        assert cc.instant_renders == 2
        assert cc.background_refreshes == 1

    def test_invalidate_forces_network(self, clock):
        cc = ClientCache(clock)
        cc.fetch("k", lambda: "v1")
        assert cc.invalidate("k") is True
        outcome = cc.fetch("k", lambda: "v2")
        assert outcome.served_from == "network"
        assert outcome.value == "v2"

    def test_uses_existing_store(self, clock):
        db = IndexedDBStore()
        db.create_store(ClientCache.STORE)
        cc = ClientCache(clock, db=db)
        cc.fetch("k", lambda: 1)
        assert db.count(ClientCache.STORE) == 1

    def test_keys_are_independent(self, clock):
        cc = ClientCache(clock)
        cc.fetch("a", lambda: 1)
        outcome = cc.fetch("b", lambda: 2)
        assert outcome.served_from == "network"


class TestUpgradeRecreatesStore:
    """Regression: a schema bump used to drop `api-responses` without
    recreating it, so every later read/write raised KeyError instead of
    starting cold (the onupgradeneeded contract is recreate-then-continue)."""

    def test_fetch_after_upgrade_starts_cold(self, clock):
        cc = ClientCache(clock)
        cc.fetch("k", lambda: "v1")
        cc.db.upgrade(2)
        # pre-fix: KeyError("no object store 'api-responses'")
        outcome = cc.fetch("k", lambda: "v2")
        assert outcome.served_from == "network"
        assert outcome.value == "v2"

    def test_conditional_fetch_after_upgrade(self, clock):
        cc = ClientCache(clock)
        cc.fetch_conditional("k", lambda etag: ("v1", "W1", False))
        cc.db.upgrade(5)
        outcome = cc.fetch_conditional("k", lambda etag: ("v2", "W2", False))
        assert outcome.served_from == "network"
        assert outcome.value == "v2"

    def test_invalidate_after_upgrade_is_safe(self, clock):
        cc = ClientCache(clock)
        cc.fetch("k", lambda: "v1")
        cc.db.upgrade(2)
        assert cc.invalidate("k") is False

    def test_upgrade_hook_runs_for_shared_db(self, clock):
        db = IndexedDBStore()
        cc = ClientCache(clock, db=db)
        cc.fetch("k", lambda: "v1")
        db.upgrade(2)
        # the hook recreated the store immediately, even before any access
        assert db.has_store(ClientCache.STORE)
        assert db.count(ClientCache.STORE) == 0

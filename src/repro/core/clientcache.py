"""Client-side cache — the IndexedDB layer of the paper (§2.4).

The frontend stores API responses in IndexedDB so that "the user almost
always instantly sees the full component showing near real-time data
upon opening the dashboard rather than watching a loading screen."

:class:`IndexedDBStore` models the browser store: named object stores,
keyed records, a schema version (bumping it drops old stores, like an
``onupgradeneeded`` handler that recreates them).  :class:`ClientCache`
adds the dashboard's read pattern — *stale-while-revalidate*: render the
cached copy immediately (even stale), then refresh in the background when
it is older than the component's freshness window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.clock import SimClock


@dataclass
class StoredRecord:
    key: str
    value: Any
    stored_at: float
    #: the server's ETag for this payload, when one was sent — lets a
    #: later revalidation be conditional (If-None-Match → 304, no body)
    etag: Optional[str] = None


class IndexedDBStore:
    """A minimal IndexedDB: versioned schema, named object stores."""

    def __init__(self, name: str = "dashboard-cache", version: int = 1):
        if version < 1:
            raise ValueError("IndexedDB versions start at 1")
        self.name = name
        self.version = version
        self._stores: Dict[str, Dict[str, StoredRecord]] = {}
        #: ``onupgradeneeded`` handlers: run after a schema bump drops the
        #: old stores, so owners recreate theirs and continue cold
        self._upgrade_hooks: List[Callable[["IndexedDBStore"], None]] = []

    # -- schema ---------------------------------------------------------------

    def create_store(self, store: str) -> None:
        """Create a named object store (ValueError on duplicates)."""
        if store in self._stores:
            raise ValueError(f"object store {store!r} already exists")
        self._stores[store] = {}

    def has_store(self, store: str) -> bool:
        """True if the named object store exists."""
        return store in self._stores

    def on_upgrade(self, hook: Callable[["IndexedDBStore"], None]) -> None:
        """Register an ``onupgradeneeded`` handler, called after every
        schema bump (with this store as its argument)."""
        self._upgrade_hooks.append(hook)

    def upgrade(self, new_version: int) -> None:
        """Schema bump: drop every object store, then run the registered
        ``onupgradeneeded`` hooks.  The contract is recreate-then-continue
        — cache data is disposable by design, the stores themselves are
        not, so owners that registered a hook start cold instead of
        crashing on the next access."""
        if new_version <= self.version:
            raise ValueError(
                f"new version {new_version} must exceed current {self.version}"
            )
        self.version = new_version
        self._stores.clear()
        for hook in self._upgrade_hooks:
            hook(self)

    # -- records ---------------------------------------------------------------

    def _store(self, store: str) -> Dict[str, StoredRecord]:
        try:
            return self._stores[store]
        except KeyError:
            raise KeyError(f"no object store {store!r}") from None

    def put(self, store: str, key: str, value: Any, now: float,
            etag: Optional[str] = None) -> None:
        """Insert or replace a record, stamping it with ``now``."""
        self._store(store)[key] = StoredRecord(
            key=key, value=value, stored_at=now, etag=etag
        )

    def get(self, store: str, key: str) -> Optional[StoredRecord]:
        """The stored record for ``key``, or None."""
        return self._store(store).get(key)

    def delete(self, store: str, key: str) -> bool:
        """Remove one record; returns True if it existed."""
        return self._store(store).pop(key, None) is not None

    def count(self, store: str) -> int:
        """Number of records in an object store."""
        return len(self._store(store))

    def keys(self, store: str):
        """All record keys in an object store."""
        return list(self._store(store))


@dataclass
class FetchOutcome:
    """What one widget fetch produced, for rendering and instrumentation.

    ``served_from`` is "client-cache" when the widget rendered instantly
    from IndexedDB, "network" when it had to wait for the backend.
    ``revalidated`` notes that a background refresh also ran.
    """

    value: Any
    served_from: str
    age_s: float
    revalidated: bool


class ClientCache:
    """Stale-while-revalidate reads over an :class:`IndexedDBStore`."""

    STORE = "api-responses"

    def __init__(self, clock: SimClock, db: Optional[IndexedDBStore] = None):
        self.clock = clock
        self.db = db or IndexedDBStore()
        if not self.db.has_store(self.STORE):
            self.db.create_store(self.STORE)
        # recreate-then-continue: a schema bump drops our store; the hook
        # puts it back (empty) so the next fetch starts cold instead of
        # raising KeyError
        self.db.on_upgrade(self._recreate_store)
        self.instant_renders = 0
        self.network_waits = 0
        self.background_refreshes = 0
        #: revalidations the server answered 304 (payload unchanged)
        self.not_modified = 0

    def _recreate_store(self, db: IndexedDBStore) -> None:
        if not db.has_store(self.STORE):
            db.create_store(self.STORE)

    def _ensure_store(self) -> None:
        """Belt and braces for databases shared with caches created before
        the upgrade hook existed: recreate the store on access."""
        if not self.db.has_store(self.STORE):
            self.db.create_store(self.STORE)

    def fetch(
        self,
        key: str,
        fetch_remote: Callable[[], Any],
        max_age_s: float = 30.0,
    ) -> FetchOutcome:
        """The dashboard's component-load pattern.

        * cached copy newer than ``max_age_s``: render it, no request;
        * cached but stale copy: render it **immediately** and refresh in
          the background (the user never watches a spinner);
        * nothing cached: block on the network like a first visit.
        """
        self._ensure_store()
        now = self.clock.now()
        rec = self.db.get(self.STORE, key)
        if rec is not None:
            age = now - rec.stored_at
            if age <= max_age_s:
                self.instant_renders += 1
                return FetchOutcome(
                    value=rec.value, served_from="client-cache", age_s=age,
                    revalidated=False,
                )
            # stale: show it now, revalidate behind the scenes
            self.instant_renders += 1
            self.background_refreshes += 1
            fresh = fetch_remote()
            self.db.put(self.STORE, key, fresh, self.clock.now())
            return FetchOutcome(
                value=rec.value, served_from="client-cache", age_s=age,
                revalidated=True,
            )
        self.network_waits += 1
        fresh = fetch_remote()
        self.db.put(self.STORE, key, fresh, self.clock.now())
        return FetchOutcome(
            value=fresh, served_from="network", age_s=0.0, revalidated=False
        )

    def fetch_conditional(
        self,
        key: str,
        fetch_conditional: Callable[[Optional[str]], Tuple[Any, Optional[str], bool]],
        max_age_s: float = 30.0,
    ) -> FetchOutcome:
        """:meth:`fetch`, but revalidations send the stored ETag.

        ``fetch_conditional(etag)`` must return ``(value, etag,
        not_modified)``: on a 304 the cached payload is kept (only its
        freshness stamp advances) and no body crossed the wire — the
        end-to-end completion of the §2.4 dual-layer story.
        """
        self._ensure_store()
        now = self.clock.now()
        rec = self.db.get(self.STORE, key)
        if rec is not None:
            age = now - rec.stored_at
            if age <= max_age_s:
                self.instant_renders += 1
                return FetchOutcome(
                    value=rec.value, served_from="client-cache", age_s=age,
                    revalidated=False,
                )
            # stale: show it now, revalidate (conditionally) behind the scenes
            self.instant_renders += 1
            self.background_refreshes += 1
            value, etag, not_modified = fetch_conditional(rec.etag)
            if not_modified:
                self.not_modified += 1
                # unchanged on the server: re-stamp the cached payload
                self.db.put(self.STORE, key, rec.value, self.clock.now(),
                            etag=etag or rec.etag)
            else:
                self.db.put(self.STORE, key, value, self.clock.now(), etag=etag)
            return FetchOutcome(
                value=rec.value, served_from="client-cache", age_s=age,
                revalidated=True,
            )
        self.network_waits += 1
        value, etag, _ = fetch_conditional(None)
        self.db.put(self.STORE, key, value, self.clock.now(), etag=etag)
        return FetchOutcome(
            value=value, served_from="network", age_s=0.0, revalidated=False
        )

    def invalidate(self, key: str) -> bool:
        """Drop one cached response; returns True if it existed."""
        self._ensure_store()
        return self.db.delete(self.STORE, key)

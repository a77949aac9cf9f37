"""Server-side TTL cache — the Rails in-memory cache of the paper (§2.4).

The backend "uses Ruby on Rails in-memory caching to store the responses
to all Slurm commands and external API calls, refreshing their values
periodically".  :class:`TTLCache` reproduces `Rails.cache.fetch`: look
the key up; on a miss (or expiry) run the supplied block, store the
result with the per-source TTL, and return it.

Unlike ``Rails.cache.fetch``, misses are **single-flight**: when several
handler threads miss on the same key at once, exactly one of them (the
leader) runs the compute block; the rest (followers) wait on the
leader's in-flight result instead of stampeding the backend.  A
follower's wait is bounded — past the budget it degrades to the expired
entry when one exists, so the moment a popular key expires under load
the daemons see one query, not one per concurrent request.

Hot keys additionally support **refresh-ahead** (stale-while-
revalidate): a lookup that lands between the *soft* TTL and the hard
expiry returns the cached value immediately and arms a deduplicated
background revalidation on the dashboard's worker pool (see
:mod:`repro.core.workers`), so a warm hot key never blocks a user
request on a backend RPC.  The background refresh reuses the same
per-key ``_InFlight`` machinery as coalescing — at most one compute per
key is ever in flight, whether it was started by a miss or by
refresh-ahead.

:class:`CachePolicy` centralizes the per-data-source expiration times the
paper motivates: ~30 s for ``squeue`` (changes fast, protects slurmctld)
up to 30–60 min for announcements (changes slowly).
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Type

from repro.obs import MetricsRegistry
from repro.sim.clock import SimClock


@dataclass
class CacheEntry:
    value: Any
    stored_at: float
    ttl: float
    #: monotonically-bumped write counter of the owning cache — the HTTP
    #: layer derives ETags from it, so any rewrite of the entry (even
    #: with an equal value) invalidates outstanding validators
    generation: int = 0

    def expires_at(self) -> float:
        """Absolute simulated time at which the entry expires."""
        return self.stored_at + self.ttl

    def is_fresh(self, now: float) -> bool:
        """True while ``now`` is *strictly* before the entry's expiry.

        The boundary is half-open by design: at exactly
        ``stored_at + ttl`` the entry is already expired.  Eviction
        ordering (:meth:`TTLCache._evict_one`), :meth:`TTLCache.read`,
        and the stale-serving path all share this method, so they agree
        on the instant an entry stops being fresh — a lookup at the
        boundary is a miss, and a stale serve at the boundary reports
        ``age == ttl``.
        """
        return now < self.expires_at()

    def age(self, now: float) -> float:
        """Seconds since the entry was stored."""
        return now - self.stored_at


def _source_of(key: str) -> str:
    """The data-source label for a cache key.

    :class:`~repro.core.routes.DashboardContext` namespaces every key as
    ``"<source>:<key>"``; un-namespaced keys (direct cache users, unit
    tests) are grouped under ``"default"``.
    """
    return key.split(":", 1)[0] if ":" in key else "default"


#: every value the ``result`` label of ``repro_cache_requests_total`` can
#: take.  The label is **one-hot**: each lookup increments exactly one
#: result, so summing the family counts lookups with no double counting.
LOOKUP_RESULTS = (
    "hit",  # fresh entry served
    "miss",  # no entry; this caller computed
    "expired",  # expired entry; this caller recomputed
    "stale_served",  # compute failed (or leader overran); expired entry served
    "coalesced",  # follower served the leader's in-flight result
    "coalesced_failed",  # follower inherited the leader's failure, no stale
)

#: every value the ``result`` label of ``repro_cache_refresh_ahead_total``
#: can take (one-hot per *armed* refresh decision; plain soft-window hits
#: that find a refresh already in flight are counted in
#: ``repro_cache_served_while_refreshing_total`` instead)
REFRESH_RESULTS = (
    "ok",  # background refresh ran and stored a fresh entry
    "error",  # background refresh raised; entry left as-is
    "rejected",  # worker-pool queue full; refresh dropped
    "paused",  # refresh gate closed (brownout/shed); nothing enqueued
    "superseded",  # refresh finished after the key was deleted/cleared; discarded
)


class CacheStats:
    """Read-only view of the cache/fetch counters in a metrics registry.

    Historically a plain dataclass of ad-hoc ints; the counters now live
    in the shared :class:`~repro.obs.MetricsRegistry` (per-source, and
    scraped via ``/metrics``), and this view keeps the old attribute API
    for the admin page, examples, and tests.  Each property sums the
    backing family across label sets.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()

    @property
    def hits(self) -> int:
        return int(self.registry.total("repro_cache_requests_total", result="hit"))

    @property
    def misses(self) -> int:
        return int(self.registry.total("repro_cache_requests_total", result="miss"))

    @property
    def expirations(self) -> int:
        return int(self.registry.total("repro_cache_requests_total", result="expired"))

    @property
    def stale_served(self) -> int:
        """Expired entries handed out because the backend could not answer."""
        return int(
            self.registry.total("repro_cache_requests_total", result="stale_served")
        )

    @property
    def coalesced(self) -> int:
        """Lookups served from another thread's in-flight compute."""
        return int(
            self.registry.total("repro_cache_requests_total", result="coalesced")
        )

    @property
    def coalesced_waiters(self) -> int:
        """Follower threads that waited on an in-flight compute."""
        return int(self.registry.total("repro_cache_coalesced_waiters_total"))

    @property
    def evictions(self) -> int:
        """Entries dropped to stay under ``max_entries``."""
        return int(self.registry.total("repro_cache_evictions_total"))

    @property
    def purged(self) -> int:
        """Entries removed by :meth:`TTLCache.purge_expired` / ``delete``."""
        return int(self.registry.total("repro_cache_purged_total"))

    @property
    def retries(self) -> int:
        """Fetch attempts repeated by the resilient fetch path."""
        return int(self.registry.total("repro_fetch_retries_total"))

    @property
    def breaker_opens(self) -> int:
        """Circuit-breaker transitions into the open state."""
        return int(
            self.registry.total("repro_breaker_transitions_total", to="open")
        )

    @property
    def requests(self) -> int:
        """Total cache lookups.  ``result`` is one-hot, so the family sum
        *is* the lookup count — an expired lookup no longer counts as
        both ``expired`` and ``miss``."""
        return int(self.registry.total("repro_cache_requests_total"))

    @property
    def hit_rate(self) -> float:
        """Fresh hits over all lookups (one-hot denominator)."""
        requests = self.requests
        return self.hits / requests if requests else 0.0


@dataclass
class CacheLookup:
    """What one :meth:`TTLCache.lookup` produced, with coalescing detail."""

    value: Any
    #: one of :data:`LOOKUP_RESULTS` — mirrors the counted result label
    result: str
    #: age (s) of the expired entry served, when ``result == "stale_served"``
    stale_age_s: Optional[float] = None
    #: ``"leader"`` ran the compute, ``"follower"`` waited on another
    #: thread's in-flight compute, ``None`` for fresh hits
    role: Optional[str] = None
    #: True when this lookup was served from cache while a refresh-ahead
    #: revalidation for the key is in flight (or was just armed)
    refreshing: bool = False


class _InFlight:
    """One in-flight compute: the leader's pending result for a key."""

    __slots__ = ("event", "leader_thread", "value", "exc", "waiters", "cancelled")

    #: sentinel leader id for refresh-ahead flights: the compute has been
    #: queued but no worker thread owns it yet, so no caller can match it
    #: as "their own" reentrant compute
    NO_THREAD = -1

    def __init__(self, leader_thread: int):
        self.event = threading.Event()
        self.leader_thread = leader_thread
        self.value: Any = None
        self.exc: Optional[BaseException] = None
        self.waiters = 0
        #: set by delete()/clear() when the key was removed mid-flight:
        #: followers treat the flight as leaderless and recompute instead
        #: of trusting a result for a key that no longer exists
        self.cancelled = False


class TTLCache:
    """Clock-driven TTL cache with single-flight fetch-with-block semantics.

    Thread-safe: handler threads of the HTTP server share one instance,
    so every read/write of ``_entries`` happens under a lock.  Compute
    blocks run *outside* the lock (they can be slow and may reenter the
    cache).  Unlike ``Rails.cache.fetch``, concurrent misses on one key
    are **coalesced**: the first thread becomes the leader and runs the
    compute block; followers wait on its in-flight result (bounded by
    ``follower_timeout_s``) instead of each hitting the backend, so a
    popular key expiring under load costs one backend query, not N.

    When a :attr:`refresh_runner` is wired (the dashboard wires
    its :class:`~repro.core.workers.WorkerPool`), lookups may also
    pass ``soft_ttl``/``refresh`` to get **refresh-ahead**: a fresh hit
    whose age has reached ``soft_ttl`` is served immediately and a
    single-flight background revalidation is enqueued, keyed through the
    same ``_inflight`` map so a miss-leader and a refresh task can never
    run concurrently for one key.  :attr:`refresh_gate` (when set) can
    veto arming — the dashboard closes it outside the ``normal``
    admission tier so background work never deepens an overload.

    Eviction keeps an expiry-ordered heap alongside the dict, so the
    at-capacity write path is O(log n) instead of a full O(n) scan.
    Heap entries are invalidated lazily: a popped entry is only honoured
    if the live dict still holds the same (key, expiry) pair.
    """

    def __init__(self, clock: SimClock, default_ttl: float = 60.0, max_entries: int = 10_000,
                 registry: Optional[MetricsRegistry] = None):
        if default_ttl <= 0:
            raise ValueError("default_ttl must be positive")
        self.clock = clock
        self.default_ttl = default_ttl
        self.max_entries = max_entries
        self._entries: Dict[str, CacheEntry] = {}
        #: write counter stamped onto every stored entry (under the lock),
        #: so (key, generation) uniquely names one stored value
        self._generation = 0
        #: per-key removal epoch: bumped by delete/clear.  Compute paths
        #: snapshot the epoch before running and store through
        #: :meth:`_write_if_current`, so a value computed before the key
        #: was removed can never resurrect it.
        self._epochs: Dict[str, int] = {}
        self._expiry_heap: List[Tuple[float, str]] = []
        self._inflight: Dict[str, _InFlight] = {}
        self._lock = threading.RLock()
        #: shared registry (the dashboard's) or a private one; either way
        #: lookups/evictions become first-class per-source metrics
        self.metrics = registry or MetricsRegistry()
        self._requests = self.metrics.counter(
            "repro_cache_requests_total",
            "Server-cache lookups by data source and result (one-hot).",
            ("source", "result"),
        )
        self._evicted = self.metrics.counter(
            "repro_cache_evictions_total",
            "Entries evicted to stay under max_entries, by data source.",
            ("source",),
        )
        self._purged = self.metrics.counter(
            "repro_cache_purged_total",
            "Entries dropped by purge_expired/delete/clear, by source and reason.",
            ("source", "reason"),
        )
        self._coalesced_waiters = self.metrics.counter(
            "repro_cache_coalesced_waiters_total",
            "Follower threads that waited on an in-flight compute, by source.",
            ("source",),
        )
        self._refresh_ahead = self.metrics.counter(
            "repro_cache_refresh_ahead_total",
            "Refresh-ahead arming decisions by data source and result.",
            ("source", "result"),
        )
        for result in REFRESH_RESULTS:
            self._refresh_ahead.inc(0.0, source="default", result=result)
        self._served_refreshing = self.metrics.counter(
            "repro_cache_served_while_refreshing_total",
            "Soft-expired hits served while a background refresh was in flight.",
            ("source",),
        )
        self._served_refreshing.inc(0.0, source="default")
        self._stale_write_skipped = self.metrics.counter(
            "repro_cache_stale_writes_skipped_total",
            "Computed values discarded because the key was deleted or "
            "cleared mid-compute (epoch moved between snapshot and store).",
            ("source",),
        )
        self._stale_write_skipped.inc(0.0, source="default")
        #: enqueue hook for background refreshes — callable taking a
        #: zero-arg thunk and returning True when accepted (the dashboard
        #: wires ``WorkerPool.try_submit``); None disables refresh-ahead
        self.refresh_runner: Optional[Callable[[Callable[[], None]], bool]] = None
        #: arming gate — when set and returning False, soft-expired hits
        #: are served without enqueuing a refresh (counted ``paused``);
        #: the dashboard wires ``admission.tier == "normal"``
        self.refresh_gate: Optional[Callable[[], bool]] = None
        self._inflight_gauge = self.metrics.gauge(
            "repro_cache_inflight_keys",
            "Keys with a single-flight compute currently running.",
        )
        self._inflight_gauge.set(0.0)
        self._entries_gauge = self.metrics.gauge(
            "repro_cache_entries",
            "Live entries in the server-side TTL cache.",
        )
        self._entries_gauge.set(0.0)
        self.stats = CacheStats(self.metrics)

    def _count(self, key: str, result: str) -> None:
        self._requests.inc(source=_source_of(key), result=result)

    def _sync_gauges_locked(self) -> None:
        """Keep the live-size gauges in lockstep with the dicts (called
        with the cache lock held, after any mutation)."""
        self._entries_gauge.set(float(len(self._entries)))
        self._inflight_gauge.set(float(len(self._inflight)))

    # -- Rails.cache.fetch, single-flight ------------------------------------

    def fetch(self, key: str, compute: Callable[[], Any], ttl: Optional[float] = None,
              follower_timeout_s: Optional[float] = None) -> Any:
        """Return the cached value for ``key``; on miss/expiry call
        ``compute``, store its result with ``ttl``, and return it.

        Concurrent misses coalesce: only the leader runs ``compute`` and
        followers share its result (or its exception)."""
        return self.lookup(
            key, compute, ttl=ttl, follower_timeout_s=follower_timeout_s
        ).value

    def fetch_or_stale(
        self,
        key: str,
        compute: Callable[[], Any],
        ttl: Optional[float] = None,
        stale_on: Tuple[Type[BaseException], ...] = (Exception,),
        follower_timeout_s: Optional[float] = None,
    ) -> Tuple[Any, Optional[float]]:
        """:meth:`fetch`, but degrade instead of failing when possible.

        Returns ``(value, stale_age_s)``.  ``stale_age_s`` is ``None``
        for a fresh hit or a successful compute; when ``compute`` raises
        one of ``stale_on`` and an expired entry survives, that stale
        value is returned with its age in seconds.  With no fallback
        entry the exception propagates.  Followers degrade the same way
        when their leader fails — or when it outlives
        ``follower_timeout_s`` — so a whole stampede produces at most
        one backend failure.
        """
        result = self.lookup(
            key, compute, ttl=ttl, stale_on=stale_on,
            follower_timeout_s=follower_timeout_s,
        )
        return result.value, result.stale_age_s

    def lookup(
        self,
        key: str,
        compute: Callable[[], Any],
        ttl: Optional[float] = None,
        stale_on: Tuple[Type[BaseException], ...] = (),
        follower_timeout_s: Optional[float] = None,
        soft_ttl: Optional[float] = None,
        refresh: Optional[Callable[[], Any]] = None,
    ) -> CacheLookup:
        """The full fetch path, reporting how the value was obtained.

        One miss, one compute: the first thread to miss becomes the
        *leader*, registers an in-flight marker, and runs ``compute``
        outside the lock; threads missing on the same key meanwhile
        become *followers* and wait (at most ``follower_timeout_s``
        seconds, forever when ``None``) for the leader's result.

        Followers degrade to the expired entry — when ``stale_on`` is
        non-empty and one exists — if the leader fails or overruns the
        wait budget; with nothing stale, a leader failure propagates to
        every follower, and a timed-out follower stops waiting and
        computes on its own rather than blocking past its budget.

        Each call increments ``repro_cache_requests_total`` exactly once
        (see :data:`LOOKUP_RESULTS`).  Reentrant computes are safe: a
        compute block touching a *different* key coalesces per key, and
        one re-fetching its *own* key just computes again instead of
        deadlocking on itself.

        When ``soft_ttl`` and ``refresh`` are both given, a fresh hit
        whose age has *reached* ``soft_ttl`` (half-open, mirroring
        :meth:`CacheEntry.is_fresh`: at ``age == soft_ttl`` the refresh
        is due) additionally arms a deduplicated background revalidation
        via :attr:`refresh_runner` — the hit is still served instantly,
        and ``refresh`` runs off-thread to rewrite the entry before its
        hard expiry.
        """
        flight: Optional[_InFlight] = None
        role = "leader"
        with self._lock:
            epoch = self._epochs.get(key, 0)
            entry = self._entries.get(key)
            if entry is not None and entry.is_fresh(self.clock.now()):
                refreshing = False
                if (
                    soft_ttl is not None
                    and refresh is not None
                    and entry.age(self.clock.now()) >= soft_ttl
                ):
                    refreshing = self._maybe_refresh_locked(key, refresh, ttl)
                    if refreshing:
                        self._served_refreshing.inc(source=_source_of(key))
                self._count(key, "hit")
                return CacheLookup(
                    value=entry.value, result="hit", refreshing=refreshing
                )
            had_expired = entry is not None
            flight = self._inflight.get(key)
            if flight is None:
                flight = _InFlight(threading.get_ident())
                self._inflight[key] = flight
                self._sync_gauges_locked()
            elif flight.leader_thread == threading.get_ident():
                # our own compute reentered the same key: computing
                # again is safe, waiting on ourselves never returns
                flight = None
            else:
                flight.waiters += 1
                self._coalesced_waiters.inc(source=_source_of(key))
                role = "follower"
        if role == "follower":
            assert flight is not None
            return self._await_leader(
                key, flight, compute, ttl, stale_on, follower_timeout_s, epoch
            )
        return self._lead(key, flight, compute, ttl, stale_on, had_expired, epoch)

    def _lead(
        self,
        key: str,
        flight: Optional[_InFlight],
        compute: Callable[[], Any],
        ttl: Optional[float],
        stale_on: Tuple[Type[BaseException], ...],
        had_expired: bool,
        epoch: int,
    ) -> CacheLookup:
        """Run ``compute`` as the single-flight leader (outside the lock)
        and resolve the in-flight marker for any followers."""
        role = "leader" if flight is not None else None
        try:
            value = compute()
        except BaseException as exc:
            if stale_on and isinstance(exc, stale_on):
                with self._lock:
                    entry = self._entries.get(key)
                if entry is not None:
                    self._count(key, "stale_served")
                    self._resolve(key, flight, exc=exc)
                    return CacheLookup(
                        value=entry.value,
                        result="stale_served",
                        stale_age_s=entry.age(self.clock.now()),
                        role=role,
                    )
            self._count(key, "expired" if had_expired else "miss")
            self._resolve(key, flight, exc=exc)
            raise
        # store before resolving so late followers and new arrivals see
        # the fresh entry the moment they stop being coalesced — unless
        # the key was deleted or cleared mid-compute, in which case
        # storing would resurrect a value computed before the removal
        self._write_if_current(key, value, ttl, epoch)
        result = "expired" if had_expired else "miss"
        self._count(key, result)
        self._resolve(key, flight, value=value)
        return CacheLookup(value=value, result=result, role=role)

    def _resolve(self, key: str, flight: Optional[_InFlight],
                 value: Any = None, exc: Optional[BaseException] = None) -> None:
        """Publish the leader's outcome and retire the in-flight marker."""
        if flight is None:
            return
        flight.value = value
        flight.exc = exc
        with self._lock:
            if self._inflight.get(key) is flight:
                del self._inflight[key]
            self._sync_gauges_locked()
        flight.event.set()

    # -- refresh-ahead -------------------------------------------------------

    def _maybe_refresh_locked(
        self, key: str, refresh: Callable[[], Any], ttl: Optional[float]
    ) -> bool:
        """Arm one background revalidation for ``key`` (lock held).

        Returns True when a refresh is in flight after the call — whether
        this lookup armed it or an earlier one did (dedup through the
        same ``_inflight`` map the miss path uses, so at most one compute
        per key ever runs).  The gate is consulted at *arm* time only: a
        refresh already running when the dashboard browns out is allowed
        to finish — it holds a worker-pool thread for a single attempt,
        so it is bounded anyway.
        """
        if self.refresh_runner is None:
            return False
        if key in self._inflight:
            return True  # dedup: miss-leader or earlier refresh already on it
        if self.refresh_gate is not None and not self.refresh_gate():
            self._refresh_ahead.inc(source=_source_of(key), result="paused")
            return False
        flight = _InFlight(_InFlight.NO_THREAD)
        self._inflight[key] = flight
        self._sync_gauges_locked()
        epoch = self._epochs.get(key, 0)
        accepted = self.refresh_runner(
            lambda: self._run_refresh(key, flight, refresh, ttl, epoch)
        )
        if not accepted:
            # pool saturated: retire the marker so the next soft-window
            # hit (or a real miss) can try again
            if self._inflight.get(key) is flight:
                del self._inflight[key]
            self._sync_gauges_locked()
            flight.event.set()
            self._refresh_ahead.inc(source=_source_of(key), result="rejected")
            return False
        return True

    def _run_refresh(
        self,
        key: str,
        flight: _InFlight,
        refresh: Callable[[], Any],
        ttl: Optional[float],
        epoch: int,
    ) -> None:
        """Execute one armed revalidation (on a worker-pool thread)."""
        flight.leader_thread = threading.get_ident()
        try:
            value = refresh()
        except BaseException as exc:  # noqa: BLE001 - published to followers
            self._refresh_ahead.inc(source=_source_of(key), result="error")
            self._resolve(key, flight, exc=exc)
            return
        stored = self._write_if_current(key, value, ttl, epoch)
        self._refresh_ahead.inc(
            source=_source_of(key), result="ok" if stored else "superseded"
        )
        self._resolve(key, flight, value=value)

    def _await_leader(
        self,
        key: str,
        flight: _InFlight,
        compute: Callable[[], Any],
        ttl: Optional[float],
        stale_on: Tuple[Type[BaseException], ...],
        follower_timeout_s: Optional[float],
        epoch: int,
    ) -> CacheLookup:
        """Wait (bounded) for the in-flight leader, degrading to stale or
        an independent compute rather than blocking past the budget."""
        completed = flight.event.wait(timeout=follower_timeout_s)
        if completed and flight.cancelled:
            # delete()/clear() retired the flight while we waited: the
            # leader's (eventual) result is for a key that was explicitly
            # removed, so behave as if the leader never answered —
            # recheck the entry below, then compute independently
            completed = False
        if completed and flight.exc is None:
            self._count(key, "coalesced")
            return CacheLookup(
                value=flight.value, result="coalesced", role="follower"
            )
        degradable = bool(stale_on) and (
            not completed or isinstance(flight.exc, stale_on)
        )
        with self._lock:
            entry = self._entries.get(key)
            now = self.clock.now()
            # re-snapshot: an independent compute below starts *now*, so
            # only removals landing after this point should fence it
            epoch = self._epochs.get(key, 0)
        if entry is not None:
            if entry.is_fresh(now):
                # someone (a retrying leader, a writer) refreshed the
                # entry while we waited — as good as a coalesced result
                self._count(key, "coalesced")
                return CacheLookup(
                    value=entry.value, result="coalesced", role="follower"
                )
            if degradable:
                self._count(key, "stale_served")
                return CacheLookup(
                    value=entry.value,
                    result="stale_served",
                    stale_age_s=entry.age(now),
                    role="follower",
                )
        if completed:
            assert flight.exc is not None
            self._count(key, "coalesced_failed")
            raise flight.exc
        # waited the whole budget with nothing stale to serve: stop
        # following and compute independently (counted as this lookup's
        # one result, whatever compute does)
        self._count(key, "expired" if entry is not None else "miss")
        value = compute()
        self._write_if_current(key, value, ttl, epoch)
        return CacheLookup(
            value=value,
            result="expired" if entry is not None else "miss",
            role="follower",
        )

    # -- direct access -----------------------------------------------------

    def read(self, key: str) -> Any:
        """Fresh value or None (does not count toward hit/miss stats)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.is_fresh(self.clock.now()):
                return entry.value
            return None

    def write(self, key: str, value: Any, ttl: Optional[float] = None) -> None:
        """Store ``value`` under ``key`` with the given (or default) TTL."""
        with self._lock:
            self._write_locked(key, value, ttl)

    def _write_locked(self, key: str, value: Any, ttl: Optional[float]) -> None:
        ttl = self.default_ttl if ttl is None else ttl
        if ttl <= 0:
            raise ValueError(f"ttl must be positive: {ttl}")
        if len(self._entries) >= self.max_entries and key not in self._entries:
            self._evict_one()
        self._generation += 1
        entry = CacheEntry(
            value=value, stored_at=self.clock.now(), ttl=ttl,
            generation=self._generation,
        )
        self._entries[key] = entry
        heapq.heappush(self._expiry_heap, (entry.expires_at(), key))
        # overwrites leave dead heap entries behind; rebuild before
        # the lazy skip in _evict_one degrades to a linear scan
        if len(self._expiry_heap) > 4 * max(self.max_entries, 64):
            self._rebuild_heap()
        self._sync_gauges_locked()

    def _write_if_current(
        self, key: str, value: Any, ttl: Optional[float], epoch: int
    ) -> bool:
        """Store ``value`` only if ``key`` has not been deleted or cleared
        since ``epoch`` was snapshotted; the check and the store share one
        lock hold, so a removal can never slip between them.  Returns
        whether the value was stored."""
        with self._lock:
            if self._epochs.get(key, 0) != epoch:
                self._stale_write_skipped.inc(source=_source_of(key))
                return False
            self._write_locked(key, value, ttl)
            return True

    def _cancel_flight_locked(self, key: str) -> None:
        """Retire the in-flight marker for an explicitly removed key.

        Followers wake immediately (instead of waiting out their full
        budget on a leader for a key that no longer exists) and treat the
        flight as leaderless.  The leader itself is unaware: its eventual
        ``_resolve`` is a no-op (identity mismatch), and its store is
        discarded by :meth:`_write_if_current` because the caller bumped
        the key's epoch, so the removed key is never re-stored.
        """
        flight = self._inflight.pop(key, None)
        if flight is not None:
            flight.cancelled = True
            flight.event.set()

    def delete(self, key: str) -> bool:
        """Remove one key; returns True if it existed.

        Any in-flight compute for the key is cancelled for followers and
        the ``repro_cache_inflight_keys`` gauge reconciled, so delete
        never strands waiters or leaks in-flight records."""
        with self._lock:
            existed = self._entries.pop(key, None) is not None
            self._epochs[key] = self._epochs.get(key, 0) + 1
            self._cancel_flight_locked(key)
            if existed:
                self._purged.inc(source=_source_of(key), reason="deleted")
            self._sync_gauges_locked()
            return existed

    def clear(self) -> None:
        """Drop every entry (and cancel every in-flight compute)."""
        with self._lock:
            for key in self._entries:
                self._purged.inc(source=_source_of(key), reason="cleared")
                self._epochs[key] = self._epochs.get(key, 0) + 1
            self._entries.clear()
            self._expiry_heap.clear()
            for key in list(self._inflight):
                self._epochs[key] = self._epochs.get(key, 0) + 1
                self._cancel_flight_locked(key)
            self._sync_gauges_locked()

    def entry(self, key: str) -> Optional[CacheEntry]:
        """The raw entry (fresh or stale), for staleness instrumentation."""
        with self._lock:
            return self._entries.get(key)

    def generation_of(self, key: str) -> Optional[int]:
        """The stored entry's write generation, or None when absent —
        the validator the HTTP delivery layer builds ETags from."""
        with self._lock:
            entry = self._entries.get(key)
            return entry.generation if entry is not None else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _rebuild_heap(self) -> None:
        self._expiry_heap = [
            (e.expires_at(), k) for k, e in self._entries.items()
        ]
        heapq.heapify(self._expiry_heap)

    def _evict_one(self) -> None:
        """Evict the entry closest to expiry (cheap stand-in for LRU)."""
        while self._expiry_heap:
            expires_at, key = heapq.heappop(self._expiry_heap)
            entry = self._entries.get(key)
            if entry is not None and entry.expires_at() == expires_at:
                del self._entries[key]
                self._evicted.inc(source=_source_of(key))
                self._sync_gauges_locked()
                return

    def purge_expired(self) -> int:
        """Drop expired entries; returns how many were removed.

        Each removal is counted in ``repro_cache_purged_total`` so the
        ``repro_cache_entries`` gauge and ``len(cache)`` stay auditable
        from ``/metrics`` between scrapes."""
        with self._lock:
            now = self.clock.now()
            stale = [k for k, e in self._entries.items() if not e.is_fresh(now)]
            for k in stale:
                del self._entries[k]
                self._purged.inc(source=_source_of(k), reason="expired")
            if stale:
                self._sync_gauges_locked()
            return len(stale)


@dataclass(frozen=True)
class CachePolicy:
    """Per-data-source TTLs (seconds), as chosen in the paper §2.4/§3.

    "cluster announcements ... cache the articles ... for 30 minutes to an
    hour"; "the recent jobs widget queries squeue ... we set the cache
    expiration time to around 30 seconds."
    """

    squeue: float = 30.0
    sinfo: float = 60.0
    sacct: float = 120.0
    scontrol_node: float = 60.0
    scontrol_job: float = 15.0
    scontrol_assoc: float = 300.0
    news: float = 1800.0
    storage: float = 3600.0
    default: float = 60.0
    #: per-fetch latency budget before the resilient fetch path declares a
    #: DaemonTimeoutError; generous so only injected slowdowns trip it
    timeout_default_s: float = 30.0
    #: per-source timeout overrides, e.g. ``{"squeue": 0.5}``
    timeouts_s: Mapping[str, float] = field(default_factory=dict)
    #: refresh-ahead master switch: when False no soft TTLs are computed
    #: and lookups never arm background revalidation
    refresh_ahead: bool = True
    #: soft TTL as a fraction of the hard TTL — a hot key older than
    #: ``soft_ttl_fraction × ttl`` is revalidated in the background while
    #: the cached value is still served; must satisfy 0 < f <= 1
    soft_ttl_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not (0.0 < self.soft_ttl_fraction <= 1.0):
            raise ValueError(
                f"soft_ttl_fraction must be in (0, 1]: {self.soft_ttl_fraction}"
            )

    def ttl_for(self, source: str) -> float:
        """TTL (seconds) for a named data source; unknown sources get the default."""
        return float(getattr(self, source, self.default))

    def timeout_for(self, source: str) -> float:
        """Latency budget (seconds) for one fetch of a named data source."""
        return float(self.timeouts_s.get(source, self.timeout_default_s))

    def soft_ttl_for(self, source: str, ttl: Optional[float] = None) -> Optional[float]:
        """Soft TTL (seconds) after which a hot key is revalidated in the
        background, or None when refresh-ahead is disabled.

        Derived from the *base* per-source TTL by default; pass ``ttl``
        to derive from an explicit hard TTL instead.  Kept independent of
        brownout TTL stretching on purpose: after recovery, refresh-ahead
        then naturally rewrites entries that brownout left with stretched
        expiries.
        """
        if not self.refresh_ahead:
            return None
        base = self.ttl_for(source) if ttl is None else float(ttl)
        return self.soft_ttl_fraction * base

    def as_dict(self) -> Dict[str, float]:
        """All per-source TTLs as a plain dict (for reporting)."""
        return {
            name: float(getattr(self, name))
            for name in (
                "squeue",
                "sinfo",
                "sacct",
                "scontrol_node",
                "scontrol_job",
                "scontrol_assoc",
                "news",
                "storage",
            )
        }

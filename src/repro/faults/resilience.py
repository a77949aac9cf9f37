"""The resilient fetch path: retry, circuit breaker, serve-stale.

The paper's caching tier assumes the daemons answer; this module makes
the dashboard survive when they do not.  :class:`ResilientFetcher`
wraps every data-source fetch with:

1. a per-source timeout (from :class:`~repro.core.caching.CachePolicy`),
   measured against the daemon load model's simulated RPC latency;
2. bounded retries with exponential backoff and deterministic jitter
   (seeded via :class:`~repro.sim.rng.RandomStreams`);
3. a per-daemon circuit breaker (closed → open → half-open) that fails
   fast during an outage instead of hammering a struggling daemon;
4. serve-stale fallback: when every attempt fails, the TTL cache's
   expired entry is returned and the response is flagged degraded.

Only :class:`~repro.faults.errors.DaemonError` failures are retried or
served stale — application errors (bad job id, permission denied)
propagate untouched.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.obs import NULL_TRACER
from repro.sim.clock import SimClock
from repro.sim.rng import RandomStreams

from .admission import Deadline
from .errors import (
    CircuitOpenError,
    DaemonError,
    DaemonTimeoutError,
    DeadlineExceededError,
    SourceUnavailableError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.caching import CachePolicy, TTLCache
    from repro.slurm.daemon import DaemonBus

    from .admission import AdmissionController

#: which backend service serves each cached data source; sources not
#: listed here are their own service (news, storage, ...)
SOURCE_SERVICES: Dict[str, str] = {
    "squeue": "slurmctld",
    "sinfo": "slurmctld",
    "scontrol_node": "slurmctld",
    "scontrol_job": "slurmctld",
    "scontrol_assoc": "slurmctld",
    "sacct": "slurmdbd",
    "sreport": "slurmdbd",
    "sshare": "slurmdbd",
}

#: the services the daemon bus injects faults for itself; the fetcher
#: consults the plan directly for everything else
DAEMON_SERVICES = frozenset({"slurmctld", "slurmdbd"})


def service_for_source(source: str) -> str:
    """The backend service a cached data source depends on."""
    return SOURCE_SERVICES.get(source, source)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    The jittered delay for attempt ``i`` (0-based, counting failures) is

        min(base * multiplier**i, max_delay) * (1 ± jitter)

    with the ± drawn from a named :class:`RandomStreams` stream, so the
    schedule replays exactly for a given seed.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 10.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1): {self.jitter}")

    def delay(self, attempt: int, rng) -> float:
        """Jittered delay (seconds) before retry number ``attempt``."""
        raw = min(
            self.base_delay_s * self.multiplier**attempt, self.max_delay_s
        )
        if self.jitter == 0.0:
            return raw
        spread = 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return raw * spread

    def schedule(self, rng) -> List[float]:
        """The whole backoff schedule: one delay per retry."""
        return [self.delay(i, rng) for i in range(self.max_attempts - 1)]


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning for one per-daemon circuit breaker."""

    failure_threshold: int = 5  # consecutive failures that open the circuit
    recovery_time_s: float = 60.0  # open -> half-open after this long
    half_open_successes: int = 1  # probes needed to close again


class CircuitBreaker:
    """Classic three-state circuit breaker on the sim clock.

    * **closed** — requests flow; consecutive failures are counted.
    * **open** — requests are refused instantly (:class:`CircuitOpenError`)
      until ``recovery_time_s`` has passed.
    * **half-open** — a limited number of probe requests are let through;
      success closes the circuit, failure reopens it.
    """

    def __init__(self, daemon: str, clock: SimClock, config: Optional[BreakerConfig] = None,
                 on_transition: Optional[Callable[[str, str], None]] = None):
        self.daemon = daemon
        self.clock = clock
        self.config = config or BreakerConfig()
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_successes = 0
        self.opens = 0  # lifetime count of closed/half-open -> open
        #: called as ``on_transition(daemon, new_state)`` on every state
        #: change (the fetcher wires this to the metrics registry)
        self.on_transition = on_transition

    def _transition(self, new_state: str) -> None:
        self._state = new_state
        if self.on_transition is not None:
            self.on_transition(self.daemon, new_state)

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open if time has passed."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (
            self._state == "open"
            and self.clock.now() - self._opened_at >= self.config.recovery_time_s
        ):
            self._transition("half_open")
            self._half_open_successes = 0
        return self._state

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` unless a request may proceed."""
        with self._lock:
            if self._state_locked() == "open":
                remaining = self.config.recovery_time_s - (
                    self.clock.now() - self._opened_at
                )
                raise CircuitOpenError(self.daemon, retry_after_s=max(0.0, remaining))

    def record_success(self) -> None:
        """Note a successful request (closes a half-open circuit)."""
        with self._lock:
            state = self._state_locked()
            self._consecutive_failures = 0
            if state == "half_open":
                self._half_open_successes += 1
                if self._half_open_successes >= self.config.half_open_successes:
                    self._transition("closed")

    def record_failure(self) -> bool:
        """Note a failed request; returns True if this opened the circuit."""
        with self._lock:
            state = self._state_locked()
            self._consecutive_failures += 1
            if state == "half_open" or (
                state == "closed"
                and self._consecutive_failures >= self.config.failure_threshold
            ):
                self._transition("open")
                self._opened_at = self.clock.now()
                self.opens += 1
                return True
            return False


@dataclass
class FetchOutcome:
    """What one resilient fetch produced, for the response envelope."""

    value: Any
    source: str
    degraded: bool = False
    stale_age_s: Optional[float] = None
    attempts: int = 1
    error: Optional[str] = None
    #: True when the value came straight from a fresh cache entry
    #: (``compute`` never ran) — the tracer's cache-span result
    cache_hit: bool = False
    #: True when this fetch rode another thread's in-flight compute
    #: instead of querying the backend itself (single-flight follower)
    coalesced: bool = False
    #: ``"leader"``/``"follower"`` when the lookup took part in a
    #: single-flight stampede, ``None`` otherwise — span annotation
    role: Optional[str] = None
    #: True when the hit was served while a refresh-ahead revalidation
    #: for the key is in flight — span annotation
    refreshing: bool = False


class ResilientFetcher:
    """Retry + breaker + serve-stale policy over one TTL cache.

    One instance per :class:`~repro.core.routes.DashboardContext`; it is
    thread-safe and shared by every HTTP handler thread.
    """

    def __init__(
        self,
        cache: "TTLCache",
        daemons: "DaemonBus",
        policy: "CachePolicy",
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
        seed: int = 0,
    ):
        self.cache = cache
        self.daemons = daemons
        self.policy = policy
        self.retry = retry or RetryPolicy()
        self.breaker_config = breaker or BreakerConfig()
        #: brownout controller, wired in by DashboardContext (None when the
        #: fetcher is used standalone — TTLs then stay un-stretched)
        self.controller: Optional["AdmissionController"] = None
        self.rng = RandomStreams(seed=seed)
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        #: every backoff delay slept this run, in order (determinism tests)
        self.backoff_log: List[float] = []
        #: hook invoked with each backoff delay; default is a no-op because
        #: request handling does not advance simulated time
        self.sleep: Callable[[float], None] = lambda _s: None
        #: span recorder; the dashboard context swaps in its real Tracer
        self.tracer = NULL_TRACER
        # retry/breaker activity as first-class metrics on the cache's
        # registry (shared with the dashboard when one is wired in)
        self._retries_metric = cache.metrics.counter(
            "repro_fetch_retries_total",
            "Fetch attempts repeated by the resilient fetch path.",
            ("service",),
        )
        self._transitions_metric = cache.metrics.counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker state transitions by service and new state.",
            ("service", "to"),
        )
        self._rejected_metric = cache.metrics.counter(
            "repro_admission_rejected_total",
            "Requests rejected by the admission layer, by reason.",
            ("reason",),
        )

    # -- breakers -----------------------------------------------------------

    def breaker_for(self, service: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding ``service``."""
        with self._breaker_lock:
            breaker = self._breakers.get(service)
            if breaker is None:
                breaker = CircuitBreaker(
                    service, self.cache.clock, self.breaker_config,
                    on_transition=self._record_transition,
                )
                self._breakers[service] = breaker
            return breaker

    def _record_transition(self, service: str, new_state: str) -> None:
        self._transitions_metric.inc(service=service, to=new_state)

    def breaker_states(self) -> Dict[str, str]:
        """Current state of every instantiated breaker (for /healthz)."""
        with self._breaker_lock:
            breakers = list(self._breakers.values())
        return {b.daemon: b.state for b in breakers}

    # -- the fetch path -----------------------------------------------------

    def fetch(
        self,
        source: str,
        key: str,
        compute: Callable[[], Any],
        deadline: Optional[Deadline] = None,
    ) -> FetchOutcome:
        """Fetch ``source:key`` through the cache with full resilience.

        Fresh cache hits short-circuit everything.  On miss, ``compute``
        runs under the retry/breaker/timeout policy — but only in the
        *leader* of a concurrent stampede: the cache coalesces parallel
        misses on one key into a single flight, so the breaker sees one
        failure per stampede and the daemon one query.  Followers wait
        at most the source's :meth:`CachePolicy.timeout_for` budget,
        then degrade to the expired entry when one exists.  If every
        attempt fails with a :class:`DaemonError` and an expired entry
        exists, that stale value is served and the outcome flagged
        degraded.  With no stale copy, :class:`SourceUnavailableError`
        propagates (to the leader and every follower alike).

        A ``deadline`` bounds total spend: the retry loop stops
        scheduling attempts once the remaining budget cannot cover
        another timeout + backoff, and followers never wait longer than
        the budget allows.  :class:`DeadlineExceededError` still prefers
        stale data, but with no stale copy it propagates *unwrapped* so
        the route layer can map it to 504.

        Hits past the source's soft TTL additionally arm **refresh-ahead**
        (when the cache has a worker pool wired): the hit is served
        instantly and a background revalidation — same breaker
        accounting, but its own short
        :attr:`CachePolicy.refresh_deadline_s` budget — rewrites the
        entry off-thread before it hard-expires.
        """
        service = service_for_source(source)
        full_key = f"{source}:{key}"
        ttl = self.policy.ttl_for(source)
        if self.controller is not None:
            # brownout tiers stretch freshness instead of querying backends
            ttl *= self.controller.ttl_multiplier()
        attempts = {"n": 0}

        def resilient_compute() -> Any:
            return self._compute_with_retry(
                source, service, compute, attempts, deadline
            )

        # soft TTL from the *base* TTL: brownout-stretched entries get
        # revalidated promptly once the tier (and the gate) are normal again
        soft_ttl = self.policy.soft_ttl_for(source)

        def refresh_compute() -> Any:
            # background revalidation: fresh attempt counter (breaker
            # failures count exactly once, never against the foreground
            # request) and a short dedicated budget so a sick daemon
            # fails the refresh fast instead of pinning a pool worker
            bg_attempts: Dict[str, Any] = {"n": 0}
            bg_deadline = Deadline(self.policy.refresh_deadline_s)
            with self.tracer.span(
                f"refresh:{source}", kind="refresh", attrs={"key": key}
            ):
                return self._compute_with_retry(
                    source, service, compute, bg_attempts, bg_deadline
                )

        follower_timeout = self.policy.timeout_for(source)
        if deadline is not None:
            follower_timeout = max(0.0, min(follower_timeout, deadline.remaining()))
        try:
            result = self.cache.lookup(
                full_key,
                resilient_compute,
                ttl=ttl,
                stale_on=(DaemonError,),
                follower_timeout_s=follower_timeout,
                soft_ttl=soft_ttl,
                refresh=refresh_compute,
            )
        except DeadlineExceededError:
            raise  # an exhausted budget keeps its own status code
        except DaemonError as exc:
            raise SourceUnavailableError(source, service, exc) from exc
        if result.stale_age_s is None:
            return FetchOutcome(
                value=result.value,
                source=source,
                attempts=max(1, attempts["n"]),
                cache_hit=result.result == "hit",
                coalesced=result.result == "coalesced",
                role=result.role,
                refreshing=result.refreshing,
            )
        return FetchOutcome(
            value=result.value,
            source=source,
            degraded=True,
            stale_age_s=result.stale_age_s,
            attempts=max(1, attempts["n"]),
            error=attempts.get("error"),
            role=result.role,
        )

    def _compute_with_retry(
        self,
        source: str,
        service: str,
        compute: Callable[[], Any],
        attempts: Dict[str, Any],
        deadline: Optional[Deadline] = None,
    ) -> Any:
        if deadline is not None and deadline.expired():
            self._count_rejected("deadline")
            raise DeadlineExceededError(
                service, deadline.budget_s, deadline.elapsed()
            )
        breaker = self.breaker_for(service)
        timeout_s = self.policy.timeout_for(source)
        plan = getattr(self.daemons, "faults", None)
        rng = self.rng.stream(f"backoff:{service}")
        last_exc: Optional[DaemonError] = None
        for attempt in range(self.retry.max_attempts):
            attempts["n"] = attempt + 1
            with self.tracer.span(
                f"daemon:{service}", kind="daemon",
                attrs={"source": source, "attempt": attempt + 1},
            ) as span:
                try:
                    breaker.check()
                    # daemon-backed sources are injected in the daemon layer;
                    # external services (news, storage) consult the plan here
                    if plan is not None and service not in DAEMON_SERVICES:
                        plan.check(service, self.cache.clock.now())
                    with self.daemons.measure() as probe:
                        value = compute()
                    # simulated RPC latency spends the request's budget,
                    # whether or not the attempt beat its timeout
                    if deadline is not None:
                        deadline.charge(probe.max_latency_s)
                    if probe.max_latency_s > timeout_s:
                        raise DaemonTimeoutError(
                            service, probe.max_latency_s, timeout_s
                        )
                except CircuitOpenError as exc:
                    # fast-fail: no RPC happened, nothing to count or retry
                    attempts["error"] = str(exc)
                    span.attrs["error"] = str(exc)
                    raise
                except DaemonError as exc:
                    last_exc = exc
                    attempts["error"] = str(exc)
                    span.attrs["error"] = str(exc)
                    breaker.record_failure()
                    if attempt + 1 < self.retry.max_attempts:
                        delay = self.retry.delay(attempt, rng)
                        if deadline is not None and not deadline.can_afford(
                            delay + timeout_s
                        ):
                            # the remaining budget cannot cover the backoff
                            # plus another full attempt: stop here, don't
                            # burn backoff the client would never see
                            span.attrs["deadline_exceeded"] = True
                            self._count_rejected("deadline")
                            raise DeadlineExceededError(
                                service, deadline.budget_s, deadline.elapsed()
                            ) from exc
                        self.backoff_log.append(delay)
                        self._retries_metric.inc(service=service)
                        if deadline is not None:
                            deadline.charge(delay)
                        self.sleep(delay)
                    continue
                span.attrs["rpcs"] = probe.rpcs
                span.attrs["sim_latency_s"] = round(probe.max_latency_s, 6)
            breaker.record_success()
            return value
        assert last_exc is not None
        raise last_exc

    def _count_rejected(self, reason: str) -> None:
        self._rejected_metric.inc(reason=reason)

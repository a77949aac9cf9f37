"""API route registry and dashboard context.

Paper §2.3: "Each dashboard feature consists of a frontend ERB template
file paired with one or more backend API routes. ... components can be
easily moved and modified as isolated parts."  We reproduce that 1:1
structure:

* every widget/page registers one :class:`ApiRoute` (name, path, handler,
  declared data sources — the Table 1 contract);
* :class:`RouteRegistry.call` isolates failures: a crashing handler
  yields an error response for *that* component, never an exception that
  would take down the rest of the dashboard (§2.4 Modularity);
* :class:`DashboardContext` is the backend's view of the world: the
  cluster (via its command-line layer), the news API, the storage
  database — with every external read going through the server-side
  TTL cache (§2.4 Performance).
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.auth import Directory, PermissionDenied, PermissionPolicy, Viewer
from repro.faults import (
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    DaemonError,
    Deadline,
    DeadlineExceededError,
    FetchOutcome,
    ResilientFetcher,
    RetryPolicy,
)
from repro.news.api import Article, NewsAPI
from repro.obs import Observability
from repro.ood import AppRegistry, LogStore, SessionManager
from repro.slurm.cluster import SlurmCluster
from repro.slurm.commands import (
    Sacct,
    Scontrol,
    Sinfo,
    Squeue,
    parse_sacct,
    parse_scontrol_blocks,
    parse_sinfo,
    parse_squeue,
)
from repro.slurm.model import JobState
from repro.storage.quota import DirectoryQuota, QuotaDatabase

from .caching import CachePolicy, TTLCache
from .params import ParamError
from .records import JobRecord, NodeRecord
from .workers import WorkerPool

RouteHandler = Callable[["DashboardContext", Viewer, Dict[str, Any]], Dict[str, Any]]


@dataclass(frozen=True)
class ApiRoute:
    """One backend API route, paired with one frontend component (§2.3)."""

    name: str  # "recent_jobs"
    path: str  # "/api/v1/widgets/recent_jobs"
    feature: str  # "Recent Jobs widget" — Table 1's left column
    data_sources: Tuple[str, ...]  # Table 1's right column
    handler: RouteHandler
    #: client-side freshness window suggested to the frontend (seconds)
    client_max_age_s: float = 30.0

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            raise ValueError(f"route path must start with '/': {self.path!r}")


@dataclass
class RouteResponse:
    """JSON-shaped response envelope every route returns."""

    ok: bool
    data: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    status: int = 200
    route: str = ""
    elapsed_ms: float = 0.0
    #: True when any data source behind this response was served from an
    #: expired cache entry because its backend could not answer (§2.4
    #: resilience) — or, on a 503, when the backend is known to be down
    degraded: bool = False
    #: age (s) of the oldest stale entry that fed this response
    stale_age_s: Optional[float] = None
    #: seconds after which the client should retry (503/504 only);
    #: the HTTP layer turns this into a real ``Retry-After`` header
    retry_after_s: Optional[float] = None
    #: validator derived from the cache-entry generations behind this
    #: response (set only for ok, non-degraded, fully-cached responses);
    #: the HTTP layer sends it as an ``ETag`` header.  It does not cover
    #: fields the handler computes from the sim clock (see
    #: :func:`response_etag`)
    etag: Optional[str] = None
    #: the ``(cache key, generation)`` pairs :attr:`etag` hashes — the
    #: HTTP layer re-checks them to answer ``If-None-Match`` with a 304
    #: without dispatching the route.  Never serialized into the body.
    cache_deps: Optional[Tuple[Tuple[str, int], ...]] = None

    def to_json(self) -> Dict[str, Any]:
        """The JSON envelope sent over HTTP."""
        out: Dict[str, Any] = {"ok": self.ok, "route": self.route, "status": self.status}
        out["degraded"] = self.degraded
        if self.stale_age_s is not None:
            out["stale_age_s"] = round(self.stale_age_s, 3)
        if self.retry_after_s is not None:
            out["retry_after_s"] = round(self.retry_after_s, 3)
        if self.ok:
            out["data"] = self.data
        else:
            out["error"] = self.error
        return out


@dataclass
class FetchScope:
    """Per-request record of degraded fetches, filled in by
    :meth:`DashboardContext._cached` while a route handler runs.

    A scope is opened and filled on its request's own thread; its
    mutators still take a lock, so a scope handed to another thread
    stays consistent.
    """

    degraded: bool = False
    stale_age_s: Optional[float] = None
    sources: List[str] = field(default_factory=list)
    #: cache key -> entry generation for every cached fetch this request
    #: made — the raw material of the response's ETag
    deps: Dict[str, int] = field(default_factory=dict)
    #: True when any fetch in this scope bypassed the server cache (or
    #: its entry vanished under it) — no validator can be derived then
    uncacheable: bool = False
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def note(self, outcome: FetchOutcome) -> None:
        if not outcome.degraded:
            return
        with self._lock:
            self.degraded = True
            self.sources.append(outcome.source)
            if outcome.stale_age_s is not None:
                if self.stale_age_s is None or outcome.stale_age_s > self.stale_age_s:
                    self.stale_age_s = outcome.stale_age_s

    def note_dep(self, key: str, generation: int) -> None:
        with self._lock:
            self.deps[key] = generation

    def mark_uncacheable(self) -> None:
        with self._lock:
            self.uncacheable = True


def response_etag(
    route: str,
    viewer: Viewer,
    params: Dict[str, Any],
    deps: Sequence[Tuple[str, int]],
) -> str:
    """ETag for one route response.

    Hashes the cache-entry generations the response was computed from,
    plus the route, viewer identity and params, so it changes whenever
    an entry the response read is rewritten; the validator index also
    refuses it once such an entry expires.  The sim clock is not
    hashed: fields a handler computes from ``ctx.now()`` (elapsed times,
    durations) can differ under an unchanged ETag, by less than the
    shortest TTL among the entries the response read.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(route.encode())
    h.update(f"|{viewer.username}|{int(viewer.is_admin)}".encode())
    for name in sorted(params):
        h.update(f"|{name}={params[name]!r}".encode())
    for key, generation in deps:
        h.update(f"|{key}@{generation}".encode())
    return h.hexdigest()


def _retry_after_of(exc: BaseException) -> Optional[float]:
    """The retry hint buried in a failure chain, if any.

    ``CircuitOpenError.retry_after_s`` usually arrives wrapped inside a
    :class:`SourceUnavailableError` (as its ``cause``); walking the chain
    lets the 503 carry a real ``Retry-After`` instead of dropping it.
    """
    current: Optional[BaseException] = exc
    for _ in range(5):
        if current is None:
            return None
        retry_after = getattr(current, "retry_after_s", None)
        if retry_after is not None:
            return float(retry_after)
        current = getattr(current, "cause", None)
    return None


def _error_of(exc: Exception) -> Tuple[int, str, bool, Optional[float]]:
    """Map a handler failure to ``(status, error, degraded, retry_after_s)``.

    Order matters: :class:`DeadlineExceededError` subclasses
    :class:`DaemonError`.
    """
    if isinstance(exc, PermissionDenied):
        return 403, str(exc), False, None
    if isinstance(exc, ParamError):
        # a bad query parameter is the client's mistake, not a crash
        return 400, str(exc), False, None
    if isinstance(exc, DeadlineExceededError):
        # the request's time budget ran out mid-fetch: a structured
        # 504 with a retry hint, instead of burning more backoff
        return 504, str(exc), True, exc.retry_after_s
    if isinstance(exc, DaemonError):
        # backend down, retries exhausted, nothing stale to serve —
        # a structured 503, never a traceback (§2.4 resilience)
        return 503, str(exc), True, _retry_after_of(exc)
    if isinstance(exc, KeyError):
        return 404, f"not found: {exc}", False, None
    return 500, f"{type(exc).__name__}: {exc}", False, None


class RouteRegistry:
    """All registered routes; the modular dispatch point."""

    def __init__(self) -> None:
        self._by_name: Dict[str, ApiRoute] = {}
        self._by_path: Dict[str, ApiRoute] = {}

    def register(self, route: ApiRoute) -> ApiRoute:
        """Add a route; duplicate names/paths are rejected."""
        if route.name in self._by_name:
            raise ValueError(f"duplicate route name {route.name!r}")
        if route.path in self._by_path:
            raise ValueError(f"duplicate route path {route.path!r}")
        self._by_name[route.name] = route
        self._by_path[route.path] = route
        return route

    def unregister(self, name: str) -> None:
        """Remove a component's route (used by the modularity ablation —
        a removed widget must not affect its siblings)."""
        route = self._by_name.pop(name, None)
        if route is None:
            raise KeyError(f"no route named {name!r}")
        del self._by_path[route.path]

    def get(self, name: str) -> ApiRoute:
        """Look up a route by name (KeyError if unknown)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no route named {name!r}") from None

    def by_path(self, path: str) -> Optional[ApiRoute]:
        """The route serving ``path``, or None."""
        return self._by_path.get(path)

    def all_routes(self) -> List[ApiRoute]:
        """Every registered route, in registration order."""
        return list(self._by_name.values())

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    # -- dispatch -----------------------------------------------------------

    def call(
        self,
        ctx: "DashboardContext",
        name: str,
        viewer: Viewer,
        params: Optional[Dict[str, Any]] = None,
        deadline: Optional[Deadline] = None,
    ) -> RouteResponse:
        """Invoke one route with failure isolation (§2.4 Modularity).

        Every call carries a :class:`~repro.faults.Deadline` — the
        per-route default from :meth:`CachePolicy.deadline_for` unless
        the caller (e.g. the HTTP layer honouring an
        ``X-Request-Deadline-Ms`` header) supplies one — and passes the
        admission controller's tier gate before any work runs.
        """
        params = params or {}
        route = self._by_name.get(name)
        if route is None:
            response = RouteResponse(
                ok=False, error=f"unknown route {name!r}", status=404, route=name
            )
            ctx.obs.record_route(name, response.status, 0.0, ok=False)
            return response
        admission = ctx.admission
        if admission is not None:
            decision = admission.admit_route(name)
            if not decision.allowed:
                response = RouteResponse(
                    ok=False,
                    error=decision.message,
                    status=decision.status,
                    route=name,
                    degraded=True,
                    retry_after_s=decision.retry_after_s,
                )
                with ctx.obs.tracer.span(
                    f"route:{name}", kind="route",
                    attrs={"viewer": viewer.username},
                ) as span:
                    span.attrs["status"] = response.status
                    span.attrs["admission"] = decision.reason
                ctx.obs.record_route(name, response.status, 0.0, ok=False)
                return response
        if deadline is None:
            deadline = Deadline(ctx.cache_policy.deadline_for(name))
        t0 = time.perf_counter()
        scope = ctx.begin_fetch_scope()
        ctx.begin_deadline(deadline)
        try:
            with ctx.obs.tracer.span(
                f"route:{name}", kind="route", attrs={"viewer": viewer.username}
            ) as span:
                response = self._dispatch(ctx, route, viewer, params, scope, t0)
                span.attrs["status"] = response.status
                if response.degraded:
                    span.attrs["degraded"] = True
                if response.status == 504:
                    span.attrs["deadline_exceeded"] = True
                if admission is not None:
                    tier = admission.tier
                    if tier != "normal":
                        span.attrs["tier"] = tier
        finally:
            ctx.end_deadline()
            ctx.end_fetch_scope()
        if (
            response.ok
            and not response.degraded
            and scope.deps
            and not scope.uncacheable
        ):
            # every byte of this response is backed by live cache entries:
            # derive the validator the HTTP layer serves as ETag
            response.cache_deps = tuple(sorted(scope.deps.items()))
            response.etag = response_etag(
                name, viewer, params, response.cache_deps
            )
        ctx.obs.record_route(
            name, response.status, response.elapsed_ms, ok=response.ok
        )
        return response

    @staticmethod
    def _dispatch(
        ctx: "DashboardContext",
        route: ApiRoute,
        viewer: Viewer,
        params: Dict[str, Any],
        scope: "FetchScope",
        t0: float,
    ) -> RouteResponse:
        try:
            data = route.handler(ctx, viewer, params)
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            status, error, degraded, retry_after_s = _error_of(exc)
            response = RouteResponse(
                ok=False, error=error, status=status, route=route.name,
                degraded=degraded, retry_after_s=retry_after_s,
            )
        else:
            response = RouteResponse(
                ok=True, data=data, route=route.name,
                degraded=scope.degraded, stale_age_s=scope.stale_age_s,
            )
        response.elapsed_ms = (time.perf_counter() - t0) * 1000
        return response


class DashboardContext:
    """Everything the backend routes can reach, behind the server cache.

    Each accessor runs the corresponding Slurm command / external API
    call on cache miss only, with the per-source TTLs of
    :class:`~repro.core.caching.CachePolicy` (§2.4 Performance).
    """

    def __init__(
        self,
        cluster: SlurmCluster,
        directory: Directory,
        quotas: QuotaDatabase,
        news: NewsAPI,
        cache_policy: Optional[CachePolicy] = None,
        use_server_cache: bool = True,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
        resilience_seed: int = 0,
        slow_request_ms: float = 250.0,
        max_traces: int = 100,
        admission: Optional[AdmissionConfig] = None,
    ):
        self.cluster = cluster
        self.directory = directory
        self.policy = PermissionPolicy(directory)
        self.quotas = quotas
        self.news = news
        self.cache_policy = cache_policy or CachePolicy()
        self.use_server_cache = use_server_cache
        # one registry + tracer pair shared by every layer below: the
        # cache, the resilient fetch path, and the daemon bus all report
        # into it, and /metrics scrapes it
        self.obs = Observability(
            cluster.clock, max_traces=max_traces, slow_request_ms=slow_request_ms
        )
        self.cache = TTLCache(
            cluster.clock,
            default_ttl=self.cache_policy.default,
            registry=self.obs.registry,
        )
        self.fetcher = ResilientFetcher(
            cache=self.cache,
            daemons=cluster.daemons,
            policy=self.cache_policy,
            retry=retry,
            breaker=breaker,
            seed=resilience_seed,
        )
        self.fetcher.tracer = self.obs.tracer
        # the brownout feedback loop: watches the fetcher's breakers plus
        # route p95, gates every route call, and stretches TTLs while the
        # dashboard is under distress
        self.admission = AdmissionController(
            admission or AdmissionConfig(),
            registry=self.obs.registry,
            fetcher=self.fetcher,
            clock=cluster.clock,
        )
        self.fetcher.controller = self.admission
        # bounded pool for refresh-ahead revalidation, so background work
        # can never out-grow its thread count; page slots run on the
        # request thread through its scatter_gather/scatter_stream
        self.workers = WorkerPool(registry=self.obs.registry)
        self.cache.refresh_runner = self.workers.try_submit
        # refresh-ahead arms only in the normal tier: brownout/shed means
        # the backends need less traffic, not proactive revalidation
        self.cache.refresh_gate = lambda: self.admission.tier == "normal"
        cluster.daemons.attach_metrics(self.obs.registry)
        self._scope_local = threading.local()
        self._deadline_local = threading.local()
        self.sessions = SessionManager(cluster)
        self.apps = AppRegistry()
        self.logs = LogStore()
        self._squeue = Squeue(cluster)
        self._sinfo = Sinfo(cluster)
        self._sacct = Sacct(cluster)
        self._scontrol = Scontrol(cluster)

    @property
    def clock(self):
        return self.cluster.clock

    def now(self) -> float:
        """Current simulated time (seconds since the epoch)."""
        return self.cluster.clock.now()

    # -- fetch scopes (per-request degradation tracking) ----------------------

    def _scope_stack(self) -> List[FetchScope]:
        stack = getattr(self._scope_local, "stack", None)
        if stack is None:
            stack = self._scope_local.stack = []
        return stack

    def begin_fetch_scope(self) -> FetchScope:
        """Open a per-request scope that collects degraded-fetch flags;
        the route dispatcher copies them into the response envelope."""
        scope = FetchScope()
        self._scope_stack().append(scope)
        return scope

    def end_fetch_scope(self) -> Optional[FetchScope]:
        """Close the innermost fetch scope (no-op when none is open)."""
        stack = self._scope_stack()
        return stack.pop() if stack else None

    # -- deadlines (per-request time budgets) ----------------------------------

    def _deadline_stack(self) -> List[Deadline]:
        stack = getattr(self._deadline_local, "stack", None)
        if stack is None:
            stack = self._deadline_local.stack = []
        return stack

    def begin_deadline(self, deadline: Deadline) -> Deadline:
        """Open a per-request deadline; :meth:`_cached` threads it down
        to the resilient fetch path for the duration of the request."""
        self._deadline_stack().append(deadline)
        return deadline

    def end_deadline(self) -> Optional[Deadline]:
        """Close the innermost deadline (no-op when none is open)."""
        stack = self._deadline_stack()
        return stack.pop() if stack else None

    def current_deadline(self) -> Optional[Deadline]:
        """The deadline of the request this thread is serving, if any."""
        stack = self._deadline_stack()
        return stack[-1] if stack else None

    # -- observability -------------------------------------------------------

    def breaker_report(self) -> Dict[str, str]:
        """Breaker states for ``/healthz``, mirrored into the registry's
        one-hot gauge in the same call — the single code path that keeps
        ``/healthz`` and ``/metrics`` in agreement."""
        states = self.fetcher.breaker_states()
        self.obs.set_breaker_states(states)
        return states

    def admission_report(self) -> Dict[str, Any]:
        """Admission tier + distress signals for ``/healthz``."""
        return self.admission.report()

    def refresh_gauges(self) -> None:
        """Update the scrape-time gauges (breakers, daemon rates,
        admission tier) from their live sources."""
        self.breaker_report()
        self.admission.maybe_evaluate()
        for name, snap in self.cluster.daemons.snapshot().items():
            self.obs.daemon_recent_rate.set(
                snap["recent_rate_rps"], daemon=name
            )
            self.obs.daemon_mean_latency.set(
                snap["mean_latency_s"], daemon=name
            )

    def scrape_metrics(self) -> str:
        """The full registry in Prometheus text format, gauges refreshed
        — what the ``/metrics`` endpoint serves."""
        self.refresh_gauges()
        return self.obs.registry.render()

    # -- cache plumbing ------------------------------------------------------

    def _cached(self, source: str, key: str, compute: Callable[[], Any]) -> Any:
        if not self.use_server_cache:
            for scope in self._scope_stack():
                scope.mark_uncacheable()
            return compute()
        with self.obs.tracer.span(
            f"cache:{source}", kind="cache", attrs={"key": key}
        ) as span:
            try:
                outcome = self.fetcher.fetch(
                    source, key, compute, deadline=self.current_deadline()
                )
            except Exception as exc:
                span.attrs["error"] = f"{type(exc).__name__}: {exc}"
                raise
            span.attrs["result"] = (
                "hit" if outcome.cache_hit
                else "coalesced" if outcome.coalesced
                else "stale" if outcome.degraded
                else "miss"
            )
            if outcome.role is not None:
                # which side of a single-flight stampede this fetch was on
                span.attrs["role"] = outcome.role
            if outcome.refreshing:
                # served from cache while refresh-ahead revalidates it
                span.attrs["refreshing"] = True
            if outcome.attempts > 1:
                span.attrs["attempts"] = outcome.attempts
        scopes = self._scope_stack()
        for scope in scopes:
            scope.note(outcome)
        # validator bookkeeping: tie this fetch to the generation of the
        # entry that holds the exact value served.  The identity check
        # guards the race where a concurrent writer replaced the entry
        # between our lookup and this read — then no validator is safe.
        full_key = f"{source}:{key}"
        entry = self.cache.entry(full_key)
        if entry is not None and entry.value is outcome.value:
            for scope in scopes:
                scope.note_dep(full_key, entry.generation)
        else:
            for scope in scopes:
                scope.mark_uncacheable()
        return outcome.value

    # -- Slurm data (commands -> text -> parse -> records) --------------------

    def recent_jobs_of(self, username: str) -> List[JobRecord]:
        """squeue scoped to one user (Recent Jobs widget, 30 s TTL)."""

        def compute() -> List[JobRecord]:
            out = self._squeue.run(user=username)
            return [
                JobRecord.from_squeue_row(r, self.clock)
                for r in parse_squeue(out.stdout)
            ]

        return self._cached("squeue", username, compute)

    def partition_status(self) -> List[dict]:
        """sinfo summary rows (System Status widget, 60 s TTL)."""

        def compute() -> List[dict]:
            return parse_sinfo(self._sinfo.run().stdout)

        return self._cached("sinfo", "all", compute)

    def jobs_in_scope(
        self,
        viewer: Viewer,
        start: Optional[float] = None,
        end: Optional[float] = None,
        states: Optional[Sequence[JobState]] = None,
    ) -> List[JobRecord]:
        """sacct over the viewer's privacy scope: own jobs plus jobs under
        shared accounts (§2.4); the My Jobs / Performance Metrics source."""
        accounts = self.policy.visible_accounts(viewer)
        key = f"{viewer.username}:{start}:{end}"

        def compute() -> List[JobRecord]:
            out = self._sacct.run(
                users=[viewer.username], accounts=accounts, start=start, end=end
            )
            return [
                JobRecord.from_sacct_row(r, self.clock)
                for r in parse_sacct(out.stdout)
            ]

        records = self._cached("sacct", key, compute)
        if states is not None:
            wanted = set(states)
            records = [r for r in records if r.state in wanted]
        return records

    def account_usage(self, account: str) -> List[Any]:
        """Per-user usage rollup for one account (§3.4 export).

        Priced as an ``sacct`` query against slurmdbd through the
        resilient fetch path, so exports share the cache, retry, breaker
        and **deadline** machinery instead of bypassing it — a tight
        ``X-Request-Deadline-Ms`` now yields the same structured 504
        here as on any widget route.
        """

        def compute() -> List[Any]:
            # price the slurmdbd RPC the real sacct run would cost; the
            # rollup itself aggregates the same accounting records
            self.cluster.daemons.record("sacct", "sacct")
            return self.cluster.accounting.usage_by_account(account)

        return self._cached("sacct", f"usage:{account}", compute)

    def node_records(self) -> List[NodeRecord]:
        """All nodes via scontrol show node (Cluster Status, 60 s TTL)."""

        def compute() -> List[NodeRecord]:
            out = self._scontrol.show_nodes()
            return [
                NodeRecord.from_scontrol_block(b, self.clock)
                for b in parse_scontrol_blocks(out.stdout)
            ]

        return self._cached("scontrol_node", "all", compute)

    def node_record(self, name: str) -> NodeRecord:
        """One node (Node Overview)."""
        if name not in self.cluster.nodes:
            raise KeyError(f"unknown node {name!r}")

        def compute() -> NodeRecord:
            out = self._scontrol.show_node(name)
            return NodeRecord.from_scontrol_block(
                parse_scontrol_blocks(out.stdout)[0], self.clock
            )

        return self._cached("scontrol_node", name, compute)

    def job_record(self, job_id: int) -> JobRecord:
        """One job via scontrol (live) falling back to sacct (archived)."""

        def compute() -> JobRecord:
            try:
                out = self._scontrol.show_job(job_id)
                return JobRecord.from_scontrol_block(
                    parse_scontrol_blocks(out.stdout)[0], self.clock
                )
            except KeyError:
                archived = self.cluster.accounting.get(job_id)
                if archived is None:
                    raise KeyError(f"unknown job {job_id}") from None
                # archived jobs still flow through the sacct text path
                res = self._sacct.run(users=[archived.user])
                for row in parse_sacct(res.stdout):
                    if row["JobIDRaw"] == str(job_id):
                        return JobRecord.from_sacct_row(row, self.clock)
                raise KeyError(f"unknown job {job_id}") from None

        return self._cached("scontrol_job", str(job_id), compute)

    def association_info(self, account: str) -> dict:
        """scontrol show assoc block for one account (Accounts widget)."""

        def compute() -> dict:
            out = self._scontrol.show_assoc(account)
            return parse_scontrol_blocks(out.stdout)[0]

        return self._cached("scontrol_assoc", account, compute)

    def cluster_queue(self) -> List[JobRecord]:
        """The whole live queue via squeue (shared cache entry used by the
        Accounts widget to count queued CPUs per allocation)."""

        def compute() -> List[JobRecord]:
            out = self._squeue.run(include_finished=False)
            return [
                JobRecord.from_squeue_row(r, self.clock)
                for r in parse_squeue(out.stdout)
            ]

        return self._cached("squeue", "__all__", compute)

    # -- non-Slurm data --------------------------------------------------------

    def announcements(self, limit: int = 10) -> List[Article]:
        """News API articles (30 min TTL, per §2.4's example)."""
        return self._cached("news", f"limit={limit}", lambda: self.news.fetch(limit))

    def storage_for(self, viewer: Viewer) -> List[DirectoryQuota]:
        """Quota rows for the viewer's storage scope (1 h TTL)."""
        owners = self.policy.visible_storage_owners(viewer)

        def compute() -> List[DirectoryQuota]:
            return self.quotas.directories_for(owners)

        return self._cached("storage", viewer.username, compute)


def scatter_sections(
    ctx: DashboardContext,
    sections: Sequence[Tuple[str, Callable[[], Any]]],
) -> Dict[str, Any]:
    """Build a page's independent sections in declared order.

    ``sections`` is ``(name, thunk)`` pairs; the result dict preserves
    declared order (3.7+ dicts are ordered).  Every section runs, then
    the *first* failing section in declared order re-raises and the
    route dispatcher maps it — section failures are not isolated within
    a page, only across page/widget slots.  Running the later sections
    anyway keeps their cache fills during an outage.
    """
    outcomes = ctx.workers.scatter_gather([thunk for _, thunk in sections])
    data: Dict[str, Any] = {}
    for (name, _), outcome in zip(sections, outcomes):
        if outcome.error is not None:
            raise outcome.error
        data[name] = outcome.value
    return data

"""Declarative load scenarios and deterministic trace construction.

A :class:`Scenario` describes a user population and traffic mix in the
terms the paper's deployment sees them: a Zipf-skewed set of users (a
few heavy users, a long tail — the same skew
:func:`repro.sim.rng.zipf_weights` gives synthetic job counts), a
weighted mix of page and widget routes, Poisson arrivals on the sim
clock, and optional burst windows and fault windows.

:func:`build_trace` expands a scenario into a concrete, ordered list of
:class:`PlannedRequest` — every draw comes from named
:class:`~repro.sim.rng.RandomStreams`, so the same seed always yields
the *identical* trace (same users, same routes, same per-tick counts).
Latency observed when the trace is replayed is wall-clock and may vary;
the trace itself never does.  :func:`trace_digest` hashes the trace so
reports can prove two runs replayed the same traffic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.rng import RandomStreams, zipf_weights

#: the homepage is served as HTML at "/"; everything else is JSON API
HOMEPAGE = "/"

#: route mix mirroring the paper's pages: the homepage dominates (it is
#: the landing page every session opens), followed by My Jobs, then the
#: cluster-wide views, then direct widget fetches (client refreshes)
DEFAULT_ROUTE_MIX: Tuple[Tuple[str, float], ...] = (
    (HOMEPAGE, 0.35),
    ("/api/v1/my_jobs", 0.20),
    ("/api/v1/node_overview", 0.10),
    ("/api/v1/job_overview", 0.10),
    ("/api/v1/cluster_status", 0.10),
    ("/api/v1/widgets/recent_jobs", 0.05),
    ("/api/v1/widgets/system_status", 0.05),
    ("/api/v1/widgets/accounts", 0.03),
    ("/api/v1/widgets/storage", 0.02),
)


@dataclass(frozen=True)
class RouteWeight:
    """One entry of a scenario's traffic mix."""

    path: str
    weight: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"negative route weight: {self}")


@dataclass(frozen=True)
class Burst:
    """An arrival-rate spike: multiply the Poisson rate during a window
    of simulated time (thundering herd after a maintenance email)."""

    start_s: float
    end_s: float
    multiplier: float = 5.0

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError(f"burst ends before it starts: {self}")
        if self.multiplier < 0:
            raise ValueError(f"negative burst multiplier: {self}")

    def active(self, at_s: float) -> bool:
        return self.start_s <= at_s < self.end_s


@dataclass(frozen=True)
class FaultSpec:
    """A fault window expressed in scenario-relative seconds; the
    harness converts it onto absolute sim time when the run starts."""

    service: str
    start_s: float
    end_s: float
    kind: str = "outage"  # outage | slow | flaky
    extra_latency_s: float = 0.0
    error_rate: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """A complete load-scenario description (all times in seconds).

    ``mode`` selects the client model when the trace is replayed:
    ``"open"`` fires every arrival regardless of completions (arrival
    rate is external, like real web traffic); ``"closed"`` bounds
    in-flight requests at ``clients`` (think-time users) — both replay
    the *same* planned trace, the mode only changes concurrency.
    """

    name: str
    seed: int = 0
    duration_s: float = 60.0
    tick_s: float = 1.0
    users: int = 50
    rps: float = 10.0
    zipf_s: float = 1.2
    mode: str = "open"
    clients: int = 8
    routes: Tuple[RouteWeight, ...] = tuple(
        RouteWeight(path, weight) for path, weight in DEFAULT_ROUTE_MIX
    )
    bursts: Tuple[Burst, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()
    #: override every cache TTL (seconds); None keeps the paper's
    #: per-source policy.  Fault scenarios shrink it so entries expire
    #: *during* the outage and the serve-stale path actually exercises.
    cache_ttl_s: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ValueError(f"unknown client mode {self.mode!r}")
        if self.tick_s <= 0 or self.duration_s <= 0:
            raise ValueError("duration_s and tick_s must be positive")
        if self.users <= 0 or self.clients <= 0:
            raise ValueError("users and clients must be positive")
        if not self.routes:
            raise ValueError("scenario needs at least one route")
        if not any(r.weight > 0 for r in self.routes):
            raise ValueError("route mix has zero total weight")

    @property
    def ticks(self) -> int:
        return max(1, round(self.duration_s / self.tick_s))

    def rate_multiplier(self, at_s: float) -> float:
        """Combined burst multiplier at scenario-relative time."""
        mult = 1.0
        for burst in self.bursts:
            if burst.active(at_s):
                mult *= burst.multiplier
        return mult


@dataclass(frozen=True)
class PlannedRequest:
    """One concrete request of a trace, fully determined by the seed."""

    tick: int
    at_s: float  # scenario-relative arrival time
    user: str
    path: str
    query: str = ""

    @property
    def url_path(self) -> str:
        """Path plus query string, ready to append to a base URL."""
        return f"{self.path}?{self.query}" if self.query else self.path

    def to_tuple(self) -> Tuple[int, float, str, str, str]:
        return (self.tick, self.at_s, self.user, self.path, self.query)


def user_population(scenario: Scenario) -> List[str]:
    """Synthetic usernames for the scenario's population.

    Users are generated (``load_user_000`` …) rather than taken from
    the demo directory so a scenario can model populations far larger
    than the 12 seeded accounts; unknown users authenticate fine via
    ``X-Remote-User`` and exercise the per-user cache keying the same
    way real ones do.
    """
    return [f"load_user_{i:03d}" for i in range(scenario.users)]


#: one catalog option: a query string, optionally with a user override
#: (a job's detail page is visited by the job's owner, whoever the
#: Zipf draw picked)
CatalogOption = Union[str, Tuple[str, str]]


def build_trace(
    scenario: Scenario,
    catalog: Optional[Dict[str, Sequence[CatalogOption]]] = None,
) -> List[PlannedRequest]:
    """Expand a scenario into its deterministic request trace.

    Independent named streams keep each concern's draws stable as
    scenarios evolve: changing the route mix does not reshuffle which
    user arrives when.

    ``catalog`` maps a route path to candidate query strings for routes
    with required parameters (``node_overview`` needs a node name,
    ``job_overview`` a job id); the pick per request comes from its own
    stream.  The harness derives the catalog from the seeded cluster,
    so it — and therefore the full trace — is reproducible.
    """
    streams = RandomStreams(seed=scenario.seed).fork(scenario.name)
    arrivals = streams.stream("arrivals")
    offsets = streams.stream("offsets")
    user_pick = streams.stream("users")
    route_pick = streams.stream("routes")
    param_pick = streams.stream("params")
    catalog = catalog or {}

    users = user_population(scenario)
    user_w = zipf_weights(len(users), s=scenario.zipf_s)
    paths = [r.path for r in scenario.routes]
    weights = [r.weight for r in scenario.routes]
    total_w = sum(weights)
    route_w = [w / total_w for w in weights]

    trace: List[PlannedRequest] = []
    for tick in range(scenario.ticks):
        tick_start = tick * scenario.tick_s
        lam = scenario.rps * scenario.tick_s * scenario.rate_multiplier(tick_start)
        count = int(arrivals.poisson(lam))
        if count == 0:
            continue
        tick_offsets = sorted(
            float(o) for o in offsets.uniform(0.0, scenario.tick_s, count)
        )
        tick_users = user_pick.choice(len(users), size=count, p=user_w)
        tick_routes = route_pick.choice(len(paths), size=count, p=route_w)
        for off, u, r in zip(tick_offsets, tick_users, tick_routes):
            path = paths[int(r)]
            options = catalog.get(path)
            query = ""
            user = users[int(u)]
            if options:
                picked = options[int(param_pick.integers(0, len(options)))]
                if isinstance(picked, tuple):
                    query, user = picked
                else:
                    query = picked
            trace.append(
                PlannedRequest(
                    tick=tick,
                    at_s=tick_start + off,
                    user=user,
                    path=path,
                    query=query,
                )
            )
    return trace


def trace_digest(trace: Sequence[PlannedRequest]) -> str:
    """Stable hash of a trace — two same-seed runs must agree on it."""
    payload = json.dumps(
        [req.to_tuple() for req in trace], separators=(",", ":")
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def trace_summary(trace: Sequence[PlannedRequest]) -> Dict[str, object]:
    """Counts a report records alongside the digest (human-checkable)."""
    by_route: Dict[str, int] = {}
    users = set()
    for req in trace:
        by_route[req.path] = by_route.get(req.path, 0) + 1
        users.add(req.user)
    return {
        "requests": len(trace),
        "distinct_users": len(users),
        "by_route": dict(sorted(by_route.items())),
    }


def default_scenarios(smoke: bool = False) -> List[Scenario]:
    """The standing benchmark suite: steady state, burst, fault window.

    ``smoke=True`` shrinks every population and duration so the suite
    finishes in seconds on CI while exercising every code path.
    """
    scale = 0.2 if smoke else 1.0
    duration = 12.0 if smoke else 60.0
    steady = Scenario(
        name="steady_state",
        seed=101,
        duration_s=duration,
        users=max(8, int(50 * scale)),
        rps=max(4.0, 12.0 * scale),
        mode="open",
        description="Nominal traffic: Zipf users browsing the default mix.",
    )
    burst = Scenario(
        name="burst",
        seed=202,
        duration_s=duration,
        users=max(8, int(50 * scale)),
        rps=max(3.0, 8.0 * scale),
        mode="open",
        bursts=(
            Burst(
                start_s=duration * 0.4,
                end_s=duration * 0.6,
                multiplier=6.0,
            ),
        ),
        description=(
            "Thundering herd: a 6x arrival spike mid-run (maintenance "
            "email lands, everyone opens the dashboard)."
        ),
    )
    fault_window = Scenario(
        name="fault_window",
        seed=303,
        duration_s=duration,
        users=max(8, int(40 * scale)),
        rps=max(3.0, 8.0 * scale),
        mode="closed",
        clients=6,
        faults=(
            FaultSpec(
                service="slurmctld",
                start_s=duration * 0.33,
                end_s=duration * 0.66,
                kind="outage",
            ),
        ),
        # TTLs shorter than the outage: cached entries expire while the
        # daemon is down, so recovery must come from serve-stale
        cache_ttl_s=max(1.0, duration * 0.08),
        description=(
            "ctld outage mid-run: the dashboard must degrade to stale "
            "cache serves, not 500s (closed-loop clients keep retrying)."
        ),
    )
    return [steady, burst, fault_window]

"""Workload definitions and seeded trace generation for the benchmark.

A *plan* is everything the generator will send, fixed before the server
sees a single request: per-tick lists of HTTP requests for the untimed
warm-up, the open-loop phase and the closed-loop phase, the job
submissions that arrive at each tick barrier, and the ``slurmctld``
outage window.  Every draw comes from ``random.Random`` streams seeded
by the benchmark's ``--seed``, so one seed always yields one plan
(:func:`plan_digest` proves it).  The catalog of users, nodes and jobs
the plan draws from is read from the freshly built server, whose own
build seed is fixed (:data:`BUILD_SEED`).

Draws are *stratified*: routes, users, nodes and jobs are dealt from
shuffled decks rather than drawn independently, so every run of a
workload sends the same route mix and visits every user equally often.
Seed-to-seed spread then comes from ordering, not from one seed
happening to draw twice as many homepages as another.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: seed of the dashboard the server builds (``build_demo_dashboard``);
#: fixed so every run serves the same cluster, directory and history
BUILD_SEED = 2025
BUILD_HOURS = 6.0

#: the paper's page mix: the homepage is the landing page of every
#: session, then My Jobs, the cluster-wide views and direct widget fetches
ROUTE_MIX: Tuple[Tuple[str, int], ...] = (
    ("/", 35),
    ("/api/v1/my_jobs", 20),
    ("/api/v1/node_overview", 10),
    ("/api/v1/job_overview", 10),
    ("/api/v1/cluster_status", 10),
    ("/api/v1/widgets/recent_jobs", 5),
    ("/api/v1/widgets/system_status", 5),
    ("/api/v1/widgets/accounts", 3),
    ("/api/v1/widgets/storage", 2),
)

#: what an open dashboard tab keeps fresh, in the order the tab fires
#: them: the five homepage widgets (each from its own route, §2.3) plus
#: My Jobs.  The tab re-fetches each one when its client max-age lapses
#: (:attr:`Catalog.max_age_s`), as the dashboard's client cache does.
POLL_ROUTES: Tuple[str, ...] = (
    "/api/v1/widgets/accounts",
    "/api/v1/widgets/announcements",
    "/api/v1/widgets/recent_jobs",
    "/api/v1/widgets/storage",
    "/api/v1/widgets/system_status",
    "/api/v1/my_jobs",
)
MY_JOBS_PATH = "/api/v1/my_jobs"
#: the widgets' max-ages come from the homepage manifest; My Jobs is not
#: in it, so its page's client max-age is written here
MY_JOBS_MAX_AGE_S = 60.0

#: share of ``--seconds`` given to the open-loop phase
OPEN_SHARE = 0.75

#: persistent connections (and sending threads) of the generator: two,
#: sized for a two-core machine, one core for the server and one for it
CONNECTIONS = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Every tick's requests arrive together at the tick's start (an open
    loop: they are due then whether or not earlier ones have finished)
    and the cluster steps ``sim_step_s`` at the barrier that ends it.

    Why bursts: on a persistent connection a full response that follows
    the previous one closely waits ~40 ms for the client's delayed ACK
    (the server writes headers and body separately, with Nagle on); one
    sent after the connection idled for more than that does not.  Ticks
    are spaced so each connection idles well past 40 ms between bursts:
    the first response per connection in a tick never meets the stall
    and every later full response does.  Latency percentiles then sit
    inside one of these groups instead of between them.
    """

    name: str
    #: wall length of one open-loop tick
    tick_wall_s: float
    #: simulated seconds the cluster advances at each tick barrier
    sim_step_s: float
    #: page views per tick (browse and churn)
    requests_per_tick: int = 6
    #: True: each tick :data:`CONNECTIONS` users' open tabs check their
    #: client caches and re-fetch the lapsed :data:`POLL_ROUTES` with
    #: ``If-None-Match``; False: users open pages in :data:`ROUTE_MIX`
    poll: bool = False
    #: seeded job submissions at every tick barrier
    submissions_per_tick: int = 0
    #: slurmctld outage over the middle third of the open-loop ticks
    outage: bool = False
    #: closed loop: ticks merged between two barriers, so both
    #: connections stay busy instead of idling at every tick's tail
    closed_group: int = 8
    #: HTTP statuses that are a correct answer on this workload
    expected: Tuple[int, ...] = (200,)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # 20 page views/s; 3 sim-s per tick: hits dominate (refresh-ahead
        # revalidates entries in the background), and the run spans long
        # enough for each user's sacct entry to be revalidated once
        Workload("browse", tick_wall_s=0.3, sim_step_s=3.0),
        # two of the 12 users' tabs per tick, so each tab is checked
        # every 6 ticks = 30 sim-s, the shortest client max-age; the
        # closed loop merges one such round per barrier.  Most lapsed
        # copies come back as full 200s, so a tab's four or five fetches
        # can meet the stall three or four times: 0.25 s ticks leave room
        # for that, so ticks start on time
        Workload(
            "poll", tick_wall_s=0.25, sim_step_s=5.0, poll=True,
            closed_group=6, expected=(200, 304),
        ),
        # 16.7 page views/s; 30 sim-s per tick outlives the squeue and job
        # TTLs between visits, two jobs are submitted per tick, and
        # slurmctld is down for the middle third of the open loop
        Workload(
            "churn", tick_wall_s=0.3, sim_step_s=30.0, requests_per_tick=5,
            submissions_per_tick=2, outage=True, expected=(200, 503),
        ),
    )
}


@dataclass(frozen=True)
class Request:
    """One planned GET, sent as ``X-Remote-User: user``."""

    user: str
    path: str
    query: str = ""
    #: send ``If-None-Match`` with the last ETag seen for this target
    conditional: bool = False

    @property
    def target(self) -> str:
        return f"{self.path}?{self.query}" if self.query else self.path


@dataclass(frozen=True)
class Submission:
    """One job submitted at a tick barrier (``SlurmCluster.submit``)."""

    name: str
    user: str
    account: str
    partition: str
    cpus: int
    gpus: int
    runtime_s: float
    time_limit_s: float


@dataclass(frozen=True)
class Tick:
    requests: Tuple[Request, ...]
    #: submissions made at the barrier that *ends* this tick
    submissions: Tuple[Submission, ...] = ()
    #: send ``requests[i]`` on connection ``lanes[i]``, each connection's
    #: in order; empty: each goes out on whichever connection is free first
    lanes: Tuple[int, ...] = ()
    #: ticks of the plan this one stands for (the barrier that ends it
    #: advances the cluster by ``span`` steps)
    span: int = 1


@dataclass(frozen=True)
class Catalog:
    """What the plan may name: read from the built server."""

    users: Tuple[str, ...]
    accounts: Dict[str, Tuple[str, ...]]
    nodes: Tuple[str, ...]
    #: (job id, owner) — a job page is visited by the job's owner
    jobs: Tuple[Tuple[int, str], ...]
    #: client max-age (s) of each of :data:`POLL_ROUTES`
    max_age_s: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_json(cls, doc: dict, max_age_s: Dict[str, float]) -> "Catalog":
        return cls(
            users=tuple(doc["users"]),
            accounts={u: tuple(a) for u, a in doc["accounts"].items()},
            nodes=tuple(doc["nodes"]),
            jobs=tuple((int(j), u) for j, u in doc["jobs"]),
            max_age_s=dict(max_age_s),
        )


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    warmup: Tuple[Tick, ...]
    open_ticks: Tuple[Tick, ...]
    #: closed-loop ticks, each merged from ``closed_group`` plan ticks
    closed_ticks: Tuple[Tick, ...]
    #: outage covers open-loop ticks ``[start, end)``; None when absent
    outage_ticks: Optional[Tuple[int, int]]


def _deck(rng: random.Random, items: Sequence) -> Iterator:
    """Deal ``items`` forever, reshuffling after each full pass."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _browse_ticks(
    workload: Workload, catalog: Catalog, rng: random.Random, n_ticks: int
) -> List[List[Request]]:
    routes = _deck(rng, [p for p, weight in ROUTE_MIX for _ in range(weight)])
    # one user deck per route: every page is visited by every user in
    # turn, so a run's cost does not hinge on who drew the big pages
    users = {path: _deck(rng, catalog.users) for path, _ in ROUTE_MIX}
    nodes = _deck(rng, catalog.nodes)
    jobs = _deck(rng, catalog.jobs)
    ticks = []
    for _ in range(n_ticks):
        tick = []
        for _ in range(workload.requests_per_tick):
            path = next(routes)
            if path == "/api/v1/job_overview":
                job_id, owner = next(jobs)
                tick.append(Request(owner, path, f"job_id={job_id}"))
            elif path == "/api/v1/node_overview":
                tick.append(
                    Request(next(users[path]), path, f"node={next(nodes)}")
                )
            else:
                tick.append(Request(next(users[path]), path))
        ticks.append(tick)
    return ticks


def poll_periods(workload: Workload, catalog: Catalog) -> Dict[str, int]:
    """Rounds between two fetches of each polled route: its max-age over
    the simulated length of a round, rounded up."""
    round_s = workload.sim_step_s * len(catalog.users) / CONNECTIONS
    return {
        path: max(1, math.ceil(catalog.max_age_s[path] / round_s - 1e-9))
        for path in POLL_ROUTES
    }


def _poll_ticks(
    workload: Workload, catalog: Catalog, rng: random.Random, n_ticks: int
) -> List[Tick]:
    # Every user keeps one tab open on one connection.  The tabs take
    # turns in one seeded order, one per connection each tick, so each
    # tab's client cache is checked once a round.  A check re-fetches,
    # with If-None-Match and in widget order, every route whose copy is
    # as old as its max-age; the rest render from the client cache and
    # send nothing.  All tabs open in round 0 (the warm-up), so every
    # round asks the same routes of every tab, whatever the seed.  Once
    # a round one user (a different one each round) reloads the page
    # first, so the homepage's render and fan-out run, rarely, here too.
    users = list(catalog.users)
    rng.shuffle(users)
    n = len(users)
    periods = poll_periods(workload, catalog)
    ticks = []
    for t in range(n_ticks):
        requests: List[Request] = []
        lanes: List[int] = []
        for lane in range(CONNECTIONS):
            rnd, pos = divmod(t * CONNECTIONS + lane, n)
            user = users[pos]
            tab = [
                Request(user, path, conditional=True)
                for path in POLL_ROUTES
                if rnd % periods[path] == 0
            ]
            if pos == rnd % n:
                tab.insert(0, Request(user, "/"))
            requests += tab
            lanes += [lane] * len(tab)
        ticks.append(Tick(tuple(requests), lanes=tuple(lanes)))
    return ticks


def _warmup_ticks(catalog: Catalog) -> List[List[Request]]:
    """One tick per user opening the homepage and My Jobs, filling that
    user's entries before the phases (poll warms up with its first round
    of tab refreshes instead)."""
    return [
        [Request(user, "/"), Request(user, "/api/v1/my_jobs")]
        for user in catalog.users
    ]


#: job shapes dealt to churn's submissions: (partition, cpus, gpus,
#: runtime s); every 10 submissions use each shape once
JOB_SHAPES: Tuple[Tuple[str, int, int, float], ...] = (
    ("cpu", 1, 0, 120.0), ("cpu", 2, 0, 300.0), ("cpu", 4, 0, 600.0),
    ("cpu", 8, 0, 1800.0), ("cpu", 16, 0, 3600.0), ("cpu", 1, 0, 600.0),
    ("cpu", 4, 0, 120.0), ("cpu", 8, 0, 300.0),
    ("gpu", 8, 1, 1800.0), ("gpu", 8, 1, 300.0),
)


def _submissions(
    workload: Workload, catalog: Catalog, rng: random.Random, n_ticks: int
) -> List[List[Submission]]:
    users = _deck(rng, catalog.users)
    shapes = _deck(rng, JOB_SHAPES)
    out = []
    index = 0
    for _ in range(n_ticks):
        tick = []
        for _ in range(workload.submissions_per_tick):
            user = next(users)
            partition, cpus, gpus, runtime = next(shapes)
            tick.append(
                Submission(
                    name=f"bench_{index:05d}",
                    user=user,
                    account=catalog.accounts[user][0],
                    partition=partition,
                    cpus=cpus,
                    gpus=gpus,
                    runtime_s=runtime,
                    time_limit_s=runtime * 2.0,
                )
            )
            index += 1
        out.append(tick)
    return out


def tick_counts(workload: Workload, seconds: float) -> Tuple[int, int]:
    """(open-loop ticks, closed-loop ticks) for a run measuring
    ``seconds`` at the offered rate."""
    total = max(2, round(seconds / workload.tick_wall_s))
    n_open = max(1, round(total * OPEN_SHARE))
    return n_open, max(1, total - n_open)


def _merge(ticks: Sequence[Tick]) -> Tick:
    return Tick(
        requests=tuple(r for t in ticks for r in t.requests),
        submissions=tuple(s for t in ticks for s in t.submissions),
        span=sum(t.span for t in ticks),
    )


def build_plan(workload: Workload, catalog: Catalog, seed: int,
               seconds: float) -> Plan:
    """The full request/submission plan of one run."""
    n_open, n_closed = tick_counts(workload, seconds)
    traffic_rng = random.Random(f"traffic:{workload.name}:{seed}")
    jobs_rng = random.Random(f"jobs:{workload.name}:{seed}")
    n_warm = len(catalog.users)
    if workload.poll:
        # round 0: every tab opens
        n_warm = math.ceil(n_warm / CONNECTIONS)
        ticks = _poll_ticks(
            workload, catalog, traffic_rng, n_warm + n_open + n_closed
        )
    else:
        ticks = [
            Tick(tuple(requests))
            for requests in _warmup_ticks(catalog) + _browse_ticks(
                workload, catalog, traffic_rng, n_open + n_closed
            )
        ]
    subs = _submissions(workload, catalog, jobs_rng, len(ticks))
    ticks = [
        dataclasses.replace(tick, submissions=tuple(s))
        for tick, s in zip(ticks, subs)
    ]
    closed = ticks[n_warm + n_open:]
    group = workload.closed_group
    outage = None
    if workload.outage:
        outage = (n_open // 3, max(n_open // 3 + 1, (2 * n_open) // 3))
    return Plan(
        workload=workload.name,
        seed=seed,
        warmup=tuple(ticks[:n_warm]),
        open_ticks=tuple(ticks[n_warm:n_warm + n_open]),
        closed_ticks=tuple(
            _merge(closed[i:i + group]) for i in range(0, len(closed), group)
        ),
        outage_ticks=outage,
    )


def plan_digest(plan: Plan) -> str:
    """sha256 over the canonical JSON of everything the plan sends."""
    blob = json.dumps(asdict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()

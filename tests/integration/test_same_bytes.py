"""Same request, same bytes: one differential harness over every delivery arm.

The paper's dual-layer cache (§2.4) lets the browser revalidate its
IndexedDB copy against the server, so how a response is delivered must
never change what it says.  This harness replays one fixed request list
at five sim-clock steps and asserts that every arm produces the
reference arm's status and decoded body for every request.

* **Requests.**  Every registered route path plus ``/``, for two users
  and one admin (``X-Admin: 1``), with nodes, job ids and an account
  export drawn from the seeded cluster, plus one request each that
  yields 400, 401 and 404.
* **Clock.**  The steps fall on both sides of the per-source TTLs, and
  slurmctld is down while one step replays, so serve-stale,
  ``degraded`` and 503 bodies are compared too.
* **Drain.**  After every response the worker pool is drained,
  so refresh-ahead lands at the same point on every arm.
* **Arms.**  Each runs on a fresh dashboard of one seed: HTTP identity
  (the reference), HTTP gzip decoded, in-process dispatch (``/`` from
  ``render_homepage``) on one dashboard and on two that replay at once
  on two threads, and a client that revalidates with ``If-None-Match``.
  HEAD is compared with a GET of the same request on the same server at
  the same sim instant.

Every HTTP request opens its own connection: on a keep-alive connection
each full response waits out a Nagle/delayed-ACK stall.
"""

from __future__ import annotations

import gzip
import http.client
import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

import pytest

from repro.auth import Viewer
from repro.core.dashboard import build_demo_dashboard
from repro.core.params import coerce_params
from repro.faults import FaultPlan
from repro.web.server import DashboardServer

SEED = 5
#: sim seconds the cluster advances before each replay of the list
STEPS = (0.0, 5.0, 45.0, 650.0, 1900.0)
#: the step that replays while slurmctld is down
OUTAGE_STEP = 3
ADMIN_PATH = "/api/v1/admin/overview"
EXPORT_RE = re.compile(
    r"^/api/v1/export/account_usage/(?P<account>[^/]+)\.(?P<fmt>csv|xls)$"
)


@dataclass(frozen=True)
class Req:
    target: str  # path and query, as sent on the wire
    user: Optional[str]  # None sends no X-Remote-User (the 401)
    admin: bool = False

    def headers(self) -> Dict[str, str]:
        out = {} if self.user is None else {"X-Remote-User": self.user}
        if self.admin:
            out["X-Admin"] = "1"
        return out

    def __str__(self) -> str:
        return f"{self.user}{' (admin)' if self.admin else ''} {self.target}"


Send = Callable[[Req], Optional[Tuple[int, bytes]]]
#: (step, request index) -> (status, decoded body)
Outcomes = Dict[Tuple[int, int], Tuple[int, bytes]]


def build_requests(dash, directory) -> List[Req]:
    """The fixed request list, drawn from the seeded cluster."""
    users = [u.username for u in directory.users()]
    first = users[0]
    account = next(
        a for a in directory.accounts() if a.managers and first not in a.members
    )
    manager = account.managers[0]
    admin = next(u for u in reversed(users) if u not in (first, manager))

    cluster = dash.ctx.cluster
    nodes = sorted(cluster.nodes)
    live = sorted(cluster.scheduler.jobs.values(), key=lambda j: j.job_id)
    archived = sorted(cluster.accounting.query(), key=lambda j: j.job_id)
    job_ids = (
        next(j.job_id for j in live
             if j.spec.user == first and j.state.value == "RUNNING"),
        next(j.job_id for j in live if j.state.value == "PENDING"),
        next(j.job_id for j in archived if j.user == first),
        # unknown: a 404, and a 503 while slurmctld is down (nothing stale)
        max(j.job_id for j in (*live, *archived)) + 1000,
    )
    targets = ["/", f"/api/v1/export/account_usage/{account.name}.csv"]
    for route in dash.registry.all_routes():
        if route.name == "node_overview":
            targets += [f"{route.path}?node={n}" for n in (nodes[0], nodes[-1])]
        elif route.name == "job_overview":
            targets += [f"{route.path}?job_id={j}" for j in job_ids]
        else:
            targets.append(route.path)
    viewers = ((first, False), (manager, False), (admin, True))
    return [Req(t, user, is_admin) for user, is_admin in viewers for t in targets] + [
        Req("/api/v1/widgets/recent_jobs?limit=0", first),  # 400
        Req("/api/v1/widgets/recent_jobs", None),  # 401
        Req("/api/v1/nope", first),  # 404
    ]


def world():
    """A fresh dashboard of the harness seed and its request list."""
    dash, directory, _ = build_demo_dashboard(seed=SEED)
    return dash, build_requests(dash, directory)


def drain(dash) -> None:
    """Wait until the shared worker pool is idle: queue depth, then the
    active count, both read from the ``/metrics`` gauges and both 0 on
    two readings in a row."""
    registry = dash.ctx.obs.registry
    queued = registry.get("repro_worker_pool_queue_depth")
    active = registry.get("repro_worker_pool_active")
    idle = 0
    while idle < 2:
        if queued.value(pool="core") == 0 and active.value(pool="core") == 0:
            idle += 1
            time.sleep(0)
        else:
            idle = 0
            time.sleep(0.0005)


def replay(dash, requests: List[Req], send: Send) -> Outcomes:
    """Send the list at every step; ``send`` returns the status and
    decoded body, or None for a request its arm cannot express."""
    plan = FaultPlan()
    start = dash.clock.now() + sum(STEPS[: OUTAGE_STEP + 1])
    plan.schedule_outage("slurmctld", start=start, end=start + 1.0)
    dash.inject_faults(plan)
    outcomes: Outcomes = {}
    for step, advance_s in enumerate(STEPS):
        dash.ctx.cluster.advance(advance_s)
        for index, req in enumerate(requests):
            result = send(req)
            drain(dash)
            if result is not None:
                outcomes[step, index] = result
    return outcomes


def fetch(server, req: Req, headers: Optional[Dict[str, str]] = None,
          method: str = "GET"):
    """One request on its own connection: ``(status, headers, body)``."""
    conn = http.client.HTTPConnection(*server.address, timeout=30)
    try:
        conn.request(
            method, req.target,
            headers={**req.headers(), **(headers or {}), "Connection": "close"},
        )
        resp = conn.getresponse()
        return resp.status, resp.getheaders(), resp.read()
    finally:
        conn.close()


def over_http(arm: Callable[..., Send]) -> Tuple[Outcomes, List[Req]]:
    """Replay an arm against a fresh dashboard behind its own server."""
    dash, requests = world()
    server = DashboardServer(dash, port=0).start()
    try:
        return replay(dash, requests, arm(server, dash)), requests
    finally:
        server.stop()


def mismatches(reference: Outcomes, arm: Outcomes, requests: List[Req]) -> List[str]:
    out = []
    for (step, index), (status, body) in sorted(arm.items()):
        ref_status, ref_body = reference[step, index]
        if status != ref_status:
            out.append(f"step {step}: {requests[index]}: {ref_status} -> {status}")
        elif body != ref_body:
            out.append(f"step {step}: {requests[index]}: body differs")
    return out


# -- arms ------------------------------------------------------------------


def identity(server, dash) -> Send:
    def send(req):
        status, _, body = fetch(server, req)
        return status, body

    return send


def gzipped(encoded: List[Req]) -> Callable[..., Send]:
    def arm(server, dash) -> Send:
        def send(req):
            status, headers, body = fetch(server, req, {"Accept-Encoding": "gzip"})
            if dict(headers).get("Content-Encoding") == "gzip":
                encoded.append(req)
                body = gzip.decompress(body)
            return status, body

        return send

    return arm


def in_process(dash) -> Send:
    """Dispatch without the wire.  Authentication happens on the wire
    only, so the 401 request is left out."""
    def send(req):
        if req.user is None:
            return None
        viewer = Viewer(username=req.user, is_admin=req.admin)
        parts = urlsplit(req.target)
        if parts.path == "/":
            render = dash.render_homepage(viewer)
            return 200, render.document.encode()
        export = EXPORT_RE.match(parts.path)
        if export is not None:
            response = dash.call(
                "account_usage_export", viewer,
                {"account": export["account"], "format": export["fmt"]},
            )
            if response.ok:
                return 200, response.data["content"].encode()
        else:
            params = coerce_params(parse_qsl(parts.query, keep_blank_values=True))
            response = dash.get(parts.path, viewer, params)
        status = 200 if response.ok else response.status
        return status, json.dumps(response.to_json()).encode()

    return send


def revalidating(not_modified: List[Req]) -> Callable[..., Send]:
    """A client that sends ``If-None-Match`` once it holds a validator
    and keeps its held body on a 304.

    A 304 dispatches nothing, so it would also skip the cache lookups
    and refresh-ahead the reference's GET makes.  After each 304 the
    arm therefore makes that plain GET too and discards its body: the
    server's cache then evolves as the reference's does, and any
    difference left is in the bytes the 304 handed back."""
    def arm(server, dash) -> Send:
        held: Dict[Req, Tuple[str, bytes]] = {}

        def send(req):
            etag_held = {"If-None-Match": held[req][0]} if req in held else {}
            status, headers, body = fetch(server, req, etag_held)
            if status == 304:
                not_modified.append(req)
                drain(dash)
                assert fetch(server, req)[0] == 200
                return 200, held[req][1]
            etag = dict(headers).get("ETag")
            if etag is None:
                held.pop(req, None)
            else:
                held[req] = (etag, body)
            return status, body

        return send

    return arm


def comparable(req: Req, headers) -> List[Tuple[str, str]]:
    """The headers a HEAD must repeat from its GET.  ``Date`` is left
    out.  ``Retry-After`` counts by presence only: each rejection draws
    its own jitter.  The admin overview's ``Content-Length`` is left
    out: the page reports its own sreport RPC, so no two dispatches of
    it agree on its length."""
    out = []
    for name, value in headers:
        name = name.lower()
        if name == "date":
            continue
        if name == "retry-after":
            value = "<jittered>"
        elif name == "content-length" and req.target == ADMIN_PATH:
            value = "<self-counting>"
        out.append((name, value))
    return out


def head_parity(failures: List[str]) -> Callable[..., Send]:
    """HEAD against a GET of the same request at the same sim instant.

    A first GET settles misses and refresh-ahead, so the HEAD and the
    GET after it read the same cache entries at the same generations."""
    def arm(server, dash) -> Send:
        def send(req):
            fetch(server, req)
            drain(dash)
            head = fetch(server, req, method="HEAD")
            drain(dash)
            get = fetch(server, req)
            if (head[0], comparable(req, head[1]), head[2]) != (
                get[0], comparable(req, get[1]), b""
            ):
                failures.append(f"{req}: HEAD {head[:2]} vs GET {get[:2]}")
            return get[0], get[2]

        return send

    return arm


# -- tests -----------------------------------------------------------------


@pytest.fixture(scope="module")
def reference() -> Tuple[Outcomes, List[Req]]:
    return over_http(identity)


def test_request_list_covers_every_route_path_and_the_homepage():
    dash, requests = world()
    registered = {route.path for route in dash.registry.all_routes()}
    assert registered | {"/"} <= {urlsplit(r.target).path for r in requests}


def test_reference_meets_every_status_and_a_stale_serve(reference):
    outcomes, _ = reference
    statuses = {status for status, _ in outcomes.values()}
    assert statuses >= {200, 400, 401, 403, 404, 503}
    assert 500 not in statuses  # client input is never a server fault
    assert any(
        b'"degraded": true, "stale_age_s"' in body
        for (step, _), (_, body) in outcomes.items() if step == OUTAGE_STEP
    )


def test_gzip_decodes_to_the_reference_bytes(reference):
    outcomes, requests = reference
    encoded: List[Req] = []
    arm, _ = over_http(gzipped(encoded))
    assert encoded
    assert mismatches(outcomes, arm, requests) == []


@pytest.mark.parametrize("dashboards", [1, 2], ids=["sequential", "parallel"])
def test_in_process_dispatch_matches_the_wire(reference, dashboards):
    """``parallel`` replays two fresh dashboards at once, one thread
    each.  A request runs wholly on its caller's thread, so what one
    request holds (fetch scopes, open span) must never reach
    a request of the other dashboard."""
    outcomes, requests = reference
    dashes = [world()[0] for _ in range(dashboards)]
    with ThreadPoolExecutor(max_workers=dashboards) as pool:
        arms = list(pool.map(
            lambda dash: replay(dash, requests, in_process(dash)), dashes
        ))
    for arm in arms:
        assert len(arm) == len(outcomes) - len(STEPS)  # all but the 401s
        assert mismatches(outcomes, arm, requests) == []


def test_head_repeats_get_headers_without_a_body():
    failures: List[str] = []
    arm, _ = over_http(head_parity(failures))
    assert {status for status, _ in arm.values()} >= {200, 401, 403, 404, 503}
    assert failures == []


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stale 304: response_etag hashes the route, viewer, params and "
        "(cache key, generation) pairs but not the sim clock, so a 304 "
        "hands back elapsed times and durations that a full render at "
        "that instant no longer produces"
    ),
)
def test_revalidating_client_holds_the_reference_bytes(reference):
    outcomes, requests = reference
    not_modified: List[Req] = []
    arm, _ = over_http(revalidating(not_modified))
    assert not_modified
    assert {k: status for k, (status, _) in arm.items()} == {
        k: status for k, (status, _) in outcomes.items()
    }
    assert mismatches(outcomes, arm, requests) == []

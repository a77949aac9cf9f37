"""P6 — admission control under overload (deadlines, brownout).

The resilience layers of earlier PRs protect individual fetches; this
bench checks the *admission* contract when the dashboard as a whole is
in distress: with a breaker open and the control loop in brownout,
``/healthz`` and My Jobs keep answering 200 over HTTP while expensive
routes are shed with 503 and tight client deadlines become 504s.

Set ``ADMISSION_SMOKE=1`` to run with fewer probe rounds (CI smoke).
"""

from __future__ import annotations

import json
import math
import os
import urllib.error
import urllib.request

from repro.core.caching import CachePolicy
from repro.faults import AdmissionConfig, FaultPlan
from repro.web.server import DashboardServer

from .conftest import fresh_world

SMOKE = os.environ.get("ADMISSION_SMOKE") == "1"


def _get(url, username=None, headers=None):
    all_headers = dict(headers or {})
    if username:
        all_headers["X-Remote-User"] = username
    req = urllib.request.Request(url, headers=all_headers)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read()


def test_perf_brownout_keeps_essentials_alive(report):
    """Brownout over a real socket: essential surface stays 200, the
    expensive route sheds with Retry-After, tight deadlines become 504."""
    dash, directory, viewer = fresh_world(
        seed=17,
        hours=1.0,
        cache_policy=CachePolicy(timeouts_s={"squeue": 1.0}),
        admission=AdmissionConfig(eval_interval_s=0.0),
    )
    user = viewer.username
    plan = FaultPlan()
    # news is hard-down (this is what opens a breaker and trips the
    # controller); slurmctld is merely slow — alive but over its timeout
    plan.schedule_outage("news", start=dash.clock.now(), end=math.inf)
    plan.schedule_slowdown("slurmctld", extra_latency_s=5.0)
    dash.inject_faults(plan)

    with DashboardServer(dash) as server:
        # open the news breaker: 2 calls x 3 attempts > threshold 5
        for _ in range(3):
            _get(server.url + "/api/v1/widgets/announcements", username=user)
        assert dash.ctx.fetcher.breaker_for("news").state == "open"

        # the next admission evaluation steps into brownout
        status, _, body = _get(server.url + "/healthz")
        assert status == 200
        tier = json.loads(body)["admission"]["tier"]

        statuses = {}
        for _ in range(5 if SMOKE else 20):
            for path, name in (
                ("/healthz", "healthz"),
                ("/api/v1/my_jobs", "my_jobs"),
                ("/api/v1/job_performance", "job_performance"),
            ):
                s, headers, _ = _get(server.url + path, username=user)
                statuses.setdefault(name, set()).add(s)
                if name == "job_performance" and s == 503:
                    assert int(headers["Retry-After"]) >= 1

        status, _, body = _get(server.url + "/healthz")
        assert json.loads(body)["admission"]["tier"] == "brownout"
        assert statuses["healthz"] == {200}
        assert statuses["my_jobs"] == {200}
        assert statuses["job_performance"] == {503}

        # a client-supplied 50 ms budget cannot cover the 5 s-slow daemon
        status, headers, body = _get(
            server.url + "/api/v1/widgets/recent_jobs",
            username=user,
            headers={"X-Request-Deadline-Ms": "50"},
        )
        assert status == 504
        assert int(headers["Retry-After"]) >= 1
        assert "deadline" in json.loads(body)["error"]

    report(
        "",
        "P6b: brownout over HTTP (news outage + slow slurmctld)",
        f"tier at first probe: {tier}; healthz/my_jobs stayed 200, "
        "job_performance shed 503 + Retry-After, 50 ms client deadline "
        "-> 504 + Retry-After",
    )

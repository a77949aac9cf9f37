"""P6 — admission control under overload (brownout).

The resilience layers protect individual fetches; this bench checks the
*admission* contract when the dashboard as a whole is in distress: with
a breaker open and the control loop in brownout, ``/healthz`` and My
Jobs keep answering 200 over HTTP while expensive routes are shed with
503.

Set ``ADMISSION_SMOKE=1`` to run with fewer probe rounds (CI smoke).
"""

from __future__ import annotations

import json
import math
import os
import urllib.error
import urllib.request

from repro.faults import AdmissionConfig, FaultPlan
from repro.web.server import DashboardServer

from .conftest import fresh_world

SMOKE = os.environ.get("ADMISSION_SMOKE") == "1"


def _get(url, username=None):
    headers = {"X-Remote-User": username} if username else {}
    req = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read()


def test_perf_brownout_keeps_essentials_alive(report):
    """Brownout over a real socket: essential surface stays 200, the
    expensive route sheds with Retry-After."""
    dash, directory, viewer = fresh_world(
        seed=17,
        hours=1.0,
        admission=AdmissionConfig(eval_interval_s=0.0),
    )
    user = viewer.username
    plan = FaultPlan()
    # news is hard-down: this is what opens a breaker and trips the
    # controller
    plan.schedule_outage("news", start=dash.clock.now(), end=math.inf)
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

    report(
        "",
        "P6b: brownout over HTTP (news outage)",
        f"tier at first probe: {tier}; healthz/my_jobs stayed 200, "
        "job_performance shed 503 + Retry-After",
    )

"""HTTP surface of the admission layer.

End to end over a real socket: backpressure rejections carry
``Retry-After``, HEAD mirrors GET without a body, and ``/healthz``
reports the admission tier.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import pytest

from repro.core.caching import CachePolicy
from repro.core.dashboard import build_demo_dashboard
from repro.faults import FaultPlan
from repro.web.server import DashboardServer


@pytest.fixture
def served():
    """A function-scoped server over a tiny world with a tight squeue
    timeout (the tests install faults, so nothing is shared between them)."""
    dash, directory, _ = build_demo_dashboard(
        duration_hours=0.5,
        seed=11,
        cache_policy=CachePolicy(timeouts_s={"squeue": 1.0}),
    )
    server = DashboardServer(dash).start()
    yield server, dash, directory
    server.stop()


def request(server, path, username=None, headers=None, method="GET"):
    """Issue one request; returns (status, headers, body) even on 4xx/5xx."""
    all_headers = dict(headers or {})
    if username:
        all_headers["X-Remote-User"] = username
    req = urllib.request.Request(
        server.url + path, headers=all_headers, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read()


def outage(dash, service="slurmctld"):
    plan = FaultPlan()
    plan.schedule_outage(service, start=dash.clock.now(), end=math.inf)
    dash.inject_faults(plan)


class TestMalformedQuery:
    @pytest.mark.parametrize("query", ["limit=1e999", "limit=nan", "limit=-3"])
    def test_widget_limit_is_a_400_not_a_500(self, served, query):
        server, _, directory = served
        user = directory.users()[0].username
        status, _, body = request(
            server, f"/api/v1/widgets/recent_jobs?{query}", username=user
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["ok"] is False and "limit" in payload["error"]

    def test_announcements_limit_validated_too(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        status, _, body = request(
            server, "/api/v1/widgets/announcements?limit=1e999", username=user
        )
        assert status == 400
        assert json.loads(body)["ok"] is False


class TestRetryAfterOnBreakerOpen:
    def test_open_breaker_503_carries_retry_after(self, served):
        server, dash, directory = served
        user = directory.users()[0].username
        outage(dash)
        # exhaust the breaker: 3 attempts per call, threshold 5
        for _ in range(3):
            request(server, "/api/v1/widgets/recent_jobs", username=user)
        assert dash.ctx.fetcher.breaker_for("slurmctld").state == "open"
        status, headers, body = request(
            server, "/api/v1/widgets/recent_jobs", username=user
        )
        assert status == 503
        payload = json.loads(body)
        assert payload["ok"] is False
        # the CircuitOpenError's remaining recovery time survived the
        # SourceUnavailableError wrapping and became a real header
        assert payload["retry_after_s"] > 0
        assert int(headers["Retry-After"]) >= 1


class TestHead:
    @pytest.mark.parametrize(
        "path", ["/healthz", "/api/v1/widgets/system_status"]
    )
    def test_head_mirrors_get_headers_without_body(self, served, path):
        server, _, directory = served
        user = directory.users()[0].username
        get_status, get_headers, get_body = request(server, path, username=user)
        head_status, head_headers, head_body = request(
            server, path, username=user, method="HEAD"
        )
        assert head_status == get_status == 200
        assert head_body == b""
        assert head_headers["Content-Type"] == get_headers["Content-Type"]
        assert int(head_headers["Content-Length"]) == len(get_body)

    def test_head_counts_http_metrics(self, served):
        server, dash, _ = served
        counter = dash.ctx.obs.http_requests
        before = counter.value(kind="health", status="200")
        request(server, "/healthz", method="HEAD")
        assert counter.value(kind="health", status="200") == before + 1


class TestHealthzAdmission:
    def test_reports_tier_and_signals(self, served):
        server, _, _ = served
        status, _, body = request(server, "/healthz")
        assert status == 200
        payload = json.loads(body)
        admission = payload["admission"]
        assert admission["tier"] == "normal"
        assert admission["tier_index"] == 0
        assert "signals" in admission

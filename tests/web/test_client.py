"""Tests for the browser-style client: transports + widget loads."""

import pytest

from repro.auth import Viewer
from repro.web import (
    BrowserClient,
    HttpTransport,
    InProcessTransport,
    TransportError,
)
from repro.web.server import DashboardServer


@pytest.fixture
def client_world(dash, alice_v):
    transport = InProcessTransport(dash, alice_v)
    client = BrowserClient(transport, dash.clock)
    return dash, client, transport


class TestInProcessTransport:
    def test_get(self, dash, alice_v):
        t = InProcessTransport(dash, alice_v)
        data = t.get("/api/v1/widgets/system_status", {})
        assert data["partitions"]
        assert t.requests == 1

    def test_error_raises(self, dash, alice_v):
        t = InProcessTransport(dash, alice_v)
        with pytest.raises(TransportError) as exc:
            t.get("/api/v1/node_overview", {"node": "ghost"})
        assert exc.value.status == 404


class TestBrowserClient:
    def test_first_visit_all_network(self, client_world, dash, alice_v):
        _, client, transport = client_world
        manifest = dash.call("homepage", alice_v).data
        loads = client.open_homepage(manifest)
        assert len(loads) == 5
        assert all(l.served_from == "network" for l in loads)
        assert transport.requests == 5

    def test_revisit_within_freshness_no_requests(self, client_world, dash, alice_v):
        _, client, transport = client_world
        manifest = dash.call("homepage", alice_v).data
        client.open_homepage(manifest)
        n = transport.requests
        dash.clock.advance(5)  # everything still fresh
        loads = client.open_homepage(manifest)
        assert all(l.served_from == "client-cache" for l in loads)
        assert transport.requests == n

    def test_stale_revisit_renders_instantly_and_refreshes(
        self, client_world, dash, alice_v
    ):
        _, client, transport = client_world
        manifest = dash.call("homepage", alice_v).data
        client.open_homepage(manifest)
        n = transport.requests
        dash.clock.advance(3600)  # all widgets stale now
        loads = client.open_homepage(manifest)
        # still instant (client cache), but refreshed in the background
        assert all(l.served_from == "client-cache" for l in loads)
        assert all(l.revalidated for l in loads)
        assert transport.requests == n + 5

    def test_instant_fraction(self, client_world, dash, alice_v):
        _, client, _ = client_world
        manifest = dash.call("homepage", alice_v).data
        client.open_homepage(manifest)
        client.open_homepage(manifest)
        assert client.instant_fraction == pytest.approx(0.5)

    def test_per_widget_freshness_windows(self, client_world, dash, alice_v):
        """recent_jobs (30 s window) refetches while announcements
        (300 s window) still serves from cache."""
        _, client, transport = client_world
        manifest = dash.call("homepage", alice_v).data
        client.open_homepage(manifest)
        dash.clock.advance(60)
        by_name = {w["name"]: w for w in manifest["widgets"]}
        rj = client.load("recent_jobs", by_name["recent_jobs"]["path"],
                         max_age_s=by_name["recent_jobs"]["max_age_s"])
        ann = client.load("announcements", by_name["announcements"]["path"],
                          max_age_s=by_name["announcements"]["max_age_s"])
        assert rj.revalidated  # stale at 60 s > 30 s window
        assert not ann.revalidated  # fresh at 60 s < 300 s window


class TestHttpTransport:
    def test_roundtrip_over_http(self, dash, alice_v):
        with DashboardServer(dash) as server:
            transport = HttpTransport(server.url, username="alice")
            client = BrowserClient(transport, dash.clock)
            load = client.load(
                "system_status", "/api/v1/widgets/system_status", max_age_s=60
            )
            assert load.served_from == "network"
            assert load.data["partitions"]
            load2 = client.load(
                "system_status", "/api/v1/widgets/system_status", max_age_s=60
            )
            assert load2.served_from == "client-cache"

    def test_http_error_surfaces(self, dash):
        with DashboardServer(dash) as server:
            transport = HttpTransport(server.url, username="alice")
            with pytest.raises(TransportError) as exc:
                transport.get("/api/v1/node_overview", {"node": "ghost"})
            assert exc.value.status == 404

    def test_admin_header(self, dash, jobs):
        with DashboardServer(dash) as server:
            transport = HttpTransport(server.url, username="root", is_admin=True)
            data = transport.get(
                "/api/v1/job_overview", {"job_id": jobs["private"].job_id}
            )
            assert data["header"]["name"] == "secret"

"""Tests for the HTTP JSON API server."""

import json
import urllib.error
import urllib.request

import pytest

from repro.web.server import DashboardServer, coerce_params


@pytest.fixture(scope="module")
def served():
    """A server over a small deterministic world (module-scoped: the
    HTTP tests are read-only)."""
    from repro.core.dashboard import build_demo_dashboard

    dash, directory, _ = build_demo_dashboard(duration_hours=1.0, seed=11)
    server = DashboardServer(dash).start()
    yield server, dash, directory
    server.stop()


def fetch(server, path, username=None, admin=False):
    headers = {}
    if username:
        headers["X-Remote-User"] = username
    if admin:
        headers["X-Admin"] = "1"
    req = urllib.request.Request(server.url + path, headers=headers)
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read()


class TestCoerceParams:
    def test_types(self):
        out = coerce_params(
            [("a", "1"), ("b", "1.5"), ("c", "true"), ("d", "False"), ("e", "text")]
        )
        assert out == {"a": 1, "b": 1.5, "c": True, "d": False, "e": "text"}

    def test_empty(self):
        assert coerce_params([]) == {}


class TestHttpApi:
    def test_healthz_unauthenticated(self, served):
        server, _, _ = served
        status, ctype, body = fetch(server, "/healthz")
        assert status == 200
        assert json.loads(body)["ok"]

    def test_missing_user_header_401(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(server, "/api/v1/widgets/recent_jobs")
        assert exc.value.code == 401
        payload = json.loads(exc.value.read())
        assert set(payload) == {"ok", "route", "status", "degraded", "error"}
        assert payload["status"] == 401 and payload["ok"] is False

    def test_unhandled_server_error_is_a_500_envelope(self, served, monkeypatch):
        server, dash, _ = served

        def boom():
            raise RuntimeError("healthz exploded")

        monkeypatch.setattr(dash, "healthz_payload", boom)
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(server, "/healthz")
        assert exc.value.code == 500
        payload = json.loads(exc.value.read())
        assert set(payload) == {"ok", "route", "status", "degraded", "error"}
        assert payload["status"] == 500
        assert payload["error"] == "RuntimeError: healthz exploded"

    def test_widget_route(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        status, ctype, body = fetch(server, "/api/v1/widgets/system_status",
                                    username=user)
        assert status == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["ok"]
        assert payload["data"]["partitions"]

    def test_query_params_coerced(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        status, _, body = fetch(
            server, "/api/v1/widgets/recent_jobs?limit=2", username=user
        )
        payload = json.loads(body)
        assert len(payload["data"]["jobs"]) <= 2

    def test_unknown_path_404(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(server, "/api/v1/nothing", username=user)
        assert exc.value.code == 404

    def test_homepage_html(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        status, ctype, body = fetch(server, "/", username=user)
        assert status == 200
        assert ctype.startswith("text/html")
        assert b"widget-grid" in body
        assert f"Logged in as {user}".encode() in body

    def test_error_status_propagates(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(server, "/api/v1/node_overview?node=ghost", username=user)
        assert exc.value.code == 404

    def test_double_start_rejected(self, served):
        server, _, _ = served
        with pytest.raises(RuntimeError):
            server.start()


class TestExportDownloads:
    """The Accounts widget's export URLs serve real file downloads."""

    def test_csv_download(self, served):
        server, dash, directory = served
        manager = next(
            a.managers[0] for a in directory.accounts() if a.managers
        )
        account = next(
            a.name for a in directory.accounts() if manager in a.managers
        )
        status, ctype, body = fetch(
            server, f"/api/v1/export/account_usage/{account}.csv",
            username=manager,
        )
        assert status == 200
        assert ctype == "text/csv"
        assert body.decode().splitlines()[0].startswith("account,user,")

    def test_xls_download_disposition(self, served):
        server, dash, directory = served
        manager = next(
            a.managers[0] for a in directory.accounts() if a.managers
        )
        account = next(
            a.name for a in directory.accounts() if manager in a.managers
        )
        import urllib.request

        req = urllib.request.Request(
            server.url + f"/api/v1/export/account_usage/{account}.xls",
            headers={"X-Remote-User": manager},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.headers["Content-Type"] == "application/vnd.ms-excel"
            assert "attachment" in resp.headers["Content-Disposition"]
            assert resp.read().startswith(b"<?xml")

    def test_non_manager_forbidden(self, served):
        server, dash, directory = served
        account = directory.accounts()[0]
        member = next(m for m in account.members if m not in account.managers)
        with pytest.raises(urllib.error.HTTPError) as exc:
            fetch(server, f"/api/v1/export/account_usage/{account.name}.csv",
                  username=member)
        assert exc.value.code == 403

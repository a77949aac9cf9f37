"""Server lifecycle: port-0 binding, graceful stop, rebindability.

The benchmark harness and the test suite start and stop many
DashboardServers per run, so the lifecycle guarantees — an ephemeral
port is bound and reported before ``start()`` returns, ``stop()`` is
graceful and idempotent, and a stopped address is immediately
rebindable — are load-bearing, not niceties.
"""

import urllib.error
import urllib.request

import pytest

from repro.web.server import DashboardServer, _LoadableHTTPServer


@pytest.fixture(scope="module")
def small_dash():
    from repro.core.dashboard import build_demo_dashboard

    dash, _directory, _ = build_demo_dashboard(duration_hours=1.0, seed=11)
    return dash


def _get(url, path="/healthz", timeout=10):
    with urllib.request.urlopen(url + path, timeout=timeout) as resp:
        return resp.status


class TestLifecycle:
    def test_port_zero_binds_ephemeral_and_reports_it(self, small_dash):
        with DashboardServer(small_dash, port=0) as server:
            assert server.port != 0
            assert str(server.port) in server.url
            assert _get(server.url) == 200

    def test_port_known_before_start(self, small_dash):
        """Binding happens at construction: a launcher can report the
        port without racing the accept loop."""
        server = DashboardServer(small_dash, port=0)
        try:
            assert server.port != 0
        finally:
            server.stop()

    def test_stopped_server_refuses_restart(self, small_dash):
        server = DashboardServer(small_dash, port=0).start()
        server.stop()
        with pytest.raises(RuntimeError):
            server.start()

    def test_running_tracks_lifecycle(self, small_dash):
        server = DashboardServer(small_dash, port=0)
        assert not server.running
        server.start()
        try:
            assert server.running
        finally:
            server.stop()
        assert not server.running

    def test_stop_is_idempotent(self, small_dash):
        server = DashboardServer(small_dash, port=0).start()
        server.stop()
        server.stop()  # second stop must be a no-op, not an error
        assert not server.running

    def test_stop_refuses_new_connections(self, small_dash):
        server = DashboardServer(small_dash, port=0).start()
        url = server.url
        assert _get(url) == 200
        server.stop()
        with pytest.raises((urllib.error.URLError, OSError)):
            _get(url, timeout=2)

    def test_stopped_port_immediately_rebindable(self, small_dash):
        """SO_REUSEADDR in practice: a restarted server can take over a
        just-vacated port without waiting out TIME_WAIT."""
        first = DashboardServer(small_dash, port=0).start()
        port = first.port
        first.stop()
        second = DashboardServer(small_dash, port=port).start()
        try:
            assert second.port == port
            assert _get(second.url) == 200
        finally:
            second.stop()

    def test_double_start_rejected(self, small_dash):
        server = DashboardServer(small_dash, port=0).start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_context_manager_round_trip(self, small_dash):
        with DashboardServer(small_dash, port=0) as server:
            assert server.running
        assert not server.running


class TestListenerTuning:
    def test_listener_hardening_flags(self):
        """A load generator fans many concurrent sockets into the
        server; the stdlib defaults (backlog 5, no reuse) would drop
        connections under exactly that load."""
        assert _LoadableHTTPServer.request_queue_size >= 64
        assert _LoadableHTTPServer.allow_reuse_address is True
        assert _LoadableHTTPServer.daemon_threads is True

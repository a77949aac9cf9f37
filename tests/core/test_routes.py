"""Tests for the route registry, failure isolation, and cached context."""

import pytest

from repro.auth import PermissionDenied, Viewer
from repro.core.params import ParamError
from repro.core.routes import ApiRoute, RouteRegistry
from repro.faults import CircuitOpenError, DaemonError, SourceUnavailableError


def make_route(name="w", path=None, handler=None, feature="W"):
    return ApiRoute(
        name=name,
        path=path or f"/api/v1/{name}",
        feature=feature,
        data_sources=("test",),
        handler=handler or (lambda ctx, viewer, params: {"ok": True}),
    )


class TestRegistry:
    def test_register_and_get(self):
        reg = RouteRegistry()
        reg.register(make_route("a"))
        assert reg.get("a").path == "/api/v1/a"
        assert "a" in reg
        assert reg.by_path("/api/v1/a").name == "a"

    def test_duplicate_name_rejected(self):
        reg = RouteRegistry()
        reg.register(make_route("a"))
        with pytest.raises(ValueError):
            reg.register(make_route("a", path="/api/v1/other"))

    def test_duplicate_path_rejected(self):
        reg = RouteRegistry()
        reg.register(make_route("a"))
        with pytest.raises(ValueError):
            reg.register(make_route("b", path="/api/v1/a"))

    def test_path_must_be_absolute(self):
        with pytest.raises(ValueError):
            make_route("a", path="api/v1/a")

    def test_unregister(self):
        reg = RouteRegistry()
        reg.register(make_route("a"))
        reg.unregister("a")
        assert "a" not in reg
        assert reg.by_path("/api/v1/a") is None
        with pytest.raises(KeyError):
            reg.unregister("a")


#: every handler failure the dispatcher maps, as
#: (exception, status, error text, degraded, retry_after_s)
_UNAVAILABLE = SourceUnavailableError(
    "squeue", "slurmctld", CircuitOpenError("slurmctld", retry_after_s=7.0)
)
DISPATCH_MAPPINGS = [
    pytest.param(PermissionDenied("nope"), 403, "nope", False, None,
                 id="403-permission-denied"),
    pytest.param(ParamError("bad limit"), 400, "bad limit", False, None,
                 id="400-param-error"),
    pytest.param(_UNAVAILABLE, 503, str(_UNAVAILABLE), True, 7.0,
                 id="503-chained-hint"),
    pytest.param(DaemonError("slurmctld", "down"), 503, "down", True, None,
                 id="503-no-hint"),
    pytest.param(KeyError("job 999"), 404, "not found: 'job 999'", False,
                 None, id="404-key-error"),
    pytest.param(ZeroDivisionError("division by zero"), 500,
                 "ZeroDivisionError: division by zero", False, None,
                 id="500-other"),
]


class TestDispatchIsolation:
    """§2.4 Modularity: a broken component must not take others down."""

    @pytest.mark.parametrize(
        "exc,status,error,degraded,retry_after_s", DISPATCH_MAPPINGS
    )
    def test_error_mapping(
        self, dash, alice_v, exc, status, error, degraded, retry_after_s
    ):
        def handler(ctx, viewer, params):
            raise exc

        dash.registry.register(make_route("failing", handler=handler))
        resp = dash.registry.call(dash.ctx, "failing", alice_v)
        assert not resp.ok and resp.data is None
        assert resp.status == status
        assert resp.error == error
        assert resp.degraded is degraded
        assert resp.retry_after_s == retry_after_s
        assert resp.elapsed_ms >= 0

    def test_unknown_route_404(self, dash, alice_v):
        resp = dash.registry.call(dash.ctx, "ghost", alice_v)
        assert resp.status == 404

    def test_success_envelope(self, dash, alice_v):
        resp = dash.call("system_status", alice_v)
        assert resp.ok and resp.status == 200
        js = resp.to_json()
        assert set(js) == {"ok", "route", "status", "degraded", "data"}
        assert js["ok"] is True and js["degraded"] is False
        assert resp.elapsed_ms >= 0

    def test_error_envelope_has_no_data(self, dash, alice_v):
        resp = dash.registry.call(dash.ctx, "ghost", alice_v)
        js = resp.to_json()
        assert set(js) == {"ok", "route", "status", "degraded", "error"}
        assert js["error"]


class TestContextCaching:
    """The server-side cache protects the daemons (§2.4 Performance)."""

    def test_squeue_cached_within_ttl(self, dash, alice_v):
        ctld = dash.ctx.cluster.daemons.ctld
        before = ctld.rpcs_by_kind.get("squeue", 0)
        dash.ctx.recent_jobs_of("alice")
        dash.ctx.recent_jobs_of("alice")
        dash.ctx.recent_jobs_of("alice")
        assert ctld.rpcs_by_kind.get("squeue", 0) == before + 1

    def test_squeue_refetches_after_ttl(self, dash, alice_v):
        ctld = dash.ctx.cluster.daemons.ctld
        dash.ctx.recent_jobs_of("alice")
        before = ctld.rpcs_by_kind.get("squeue", 0)
        dash.ctx.clock.advance(dash.ctx.cache_policy.squeue + 1)
        dash.ctx.recent_jobs_of("alice")
        assert ctld.rpcs_by_kind.get("squeue", 0) == before + 1

    def test_cache_keys_are_per_user(self, dash):
        ctld = dash.ctx.cluster.daemons.ctld
        before = ctld.rpcs_by_kind.get("squeue", 0)
        dash.ctx.recent_jobs_of("alice")
        dash.ctx.recent_jobs_of("bob")
        assert ctld.rpcs_by_kind.get("squeue", 0) == before + 2

    def test_news_cached_long(self, dash, alice_v):
        api = dash.ctx.news
        before = api.request_count
        dash.ctx.announcements()
        dash.ctx.announcements()
        assert api.request_count == before + 1
        dash.ctx.clock.advance(1801)
        dash.ctx.announcements()
        assert api.request_count == before + 2

    def test_disable_server_cache(self, world):
        dash = world[0]
        dash.ctx.use_server_cache = False
        api = dash.ctx.news
        before = api.request_count
        dash.ctx.announcements()
        dash.ctx.announcements()
        assert api.request_count == before + 2

    def test_storage_scoped_and_cached(self, dash, alice_v, dave_v):
        alice_dirs = dash.ctx.storage_for(alice_v)
        assert {d.path for d in alice_dirs} == {
            "/home/alice",
            "/scratch/anvil/alice",
            "/depot/physics-lab",
        }
        dave_dirs = dash.ctx.storage_for(dave_v)
        assert {d.path for d in dave_dirs} == {"/home/dave"}

    def test_job_record_falls_back_to_accounting(self, dash, jobs, alice_v):
        """After MinJobAge purges ctld memory, the sacct path serves it."""
        old = jobs["low_eff"]
        dash.ctx.clock.advance(600)  # past min_job_age for early jobs
        rec = dash.ctx.job_record(old.job_id)
        assert rec.job_id == old.job_id
        assert rec.state.name == "COMPLETED"

    def test_job_record_unknown_raises(self, dash):
        with pytest.raises(KeyError):
            dash.ctx.job_record(999_999)

    def test_node_record_unknown_raises(self, dash):
        with pytest.raises(KeyError):
            dash.ctx.node_record("ghost")

"""HTTP delivery layer: conditional GET, gzip, streamed homepage.

End to end over a real socket where possible: an unchanged widget costs
a 304 with zero render work and zero body bytes, gzip and the streamed
homepage negotiate and frame their responses as advertised, and the
wire-layer bugfix sweep (export deadlines, Content-Disposition hygiene,
blank/duplicate query params) stays fixed.  That every delivery arm
yields the same decoded bytes is checked once, for every route, by
``tests/integration/test_same_bytes.py``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.caching import CachePolicy, TTLCache
from repro.core.clientcache import ClientCache
from repro.core.dashboard import build_demo_dashboard
from repro.core.params import ParamError, coerce_params
from repro.faults import FaultPlan
from repro.sim.clock import SimClock
from repro.web.client import BrowserClient, HttpTransport, InProcessTransport
from repro.web.delivery import (
    ValidatorIndex,
    content_disposition,
    gzip_accepted,
    if_none_match_values,
    is_compressible,
)
from repro.web.server import DashboardServer

WIDGET = "/api/v1/widgets/system_status"


@pytest.fixture
def served():
    """Function-scoped server over a tiny world (tests install faults
    and advance the clock, so nothing is shared)."""
    dash, directory, _ = build_demo_dashboard(
        duration_hours=0.5,
        seed=11,
        cache_policy=CachePolicy(timeouts_s={"squeue": 1.0, "sacct": 1.0}),
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


def route_calls(dash, route):
    """Total dispatches of one route (any status) — the render-work meter."""
    return dash.ctx.obs.route_requests.total(route=route)


# ---------------------------------------------------------------------------
# generation tags (the validator substrate)


class TestGenerationTags:
    def test_every_write_bumps_the_generation(self):
        cache = TTLCache(SimClock())
        assert cache.generation_of("k") is None
        cache.write("k", 1)
        first = cache.generation_of("k")
        cache.write("k", 1)  # same value: still a new validator
        assert cache.generation_of("k") > first

    def test_generations_are_cache_wide_monotonic(self):
        cache = TTLCache(SimClock())
        cache.write("a", 1)
        cache.write("b", 2)
        assert cache.generation_of("b") > cache.generation_of("a")


# ---------------------------------------------------------------------------
# conditional GET over the wire


class TestConditionalGet:
    def test_repeat_fetch_is_a_304_with_zero_render_and_zero_body(self, served):
        server, dash, directory = served
        user = directory.users()[0].username
        status, headers, body = request(server, WIDGET, username=user)
        assert status == 200
        etag = headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')
        before = route_calls(dash, "system_status")
        nm_before = dash.ctx.obs.http_not_modified.value(kind="api")
        status, headers, body = request(
            server, WIDGET, username=user, headers={"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag
        assert headers.get("Content-Length") is None
        # zero render work: the route was never dispatched
        assert route_calls(dash, "system_status") == before
        assert dash.ctx.obs.http_not_modified.value(kind="api") == nm_before + 1
        assert dash.ctx.obs.http_bytes_saved.value(reason="not_modified") > 0

    def test_etag_is_stable_across_cache_hits(self, served):
        server, dash, directory = served
        user = directory.users()[0].username
        _, h1, _ = request(server, WIDGET, username=user)
        _, h2, _ = request(server, WIDGET, username=user)
        assert h1["ETag"] == h2["ETag"]

    def test_expired_cache_entry_falls_through_to_a_full_200(self, served):
        server, dash, directory = served
        user = directory.users()[0].username
        _, headers, _ = request(server, WIDGET, username=user)
        dash.clock.advance(3600)  # far past the sinfo TTL
        status, h2, body = request(
            server, WIDGET, username=user,
            headers={"If-None-Match": headers["ETag"]},
        )
        assert status == 200 and body
        assert h2["ETag"] != headers["ETag"]  # recompute → new generation

    def test_rewritten_cache_entry_invalidates_the_validator(self, served):
        server, dash, directory = served
        user = directory.users()[0].username
        _, headers, _ = request(server, WIDGET, username=user)
        # rewrite the backing entry in place — even an equal value must
        # invalidate outstanding validators (the generation bumps)
        entry = dash.ctx.cache.entry("sinfo:all")
        dash.ctx.cache.write("sinfo:all", entry.value)
        status, _, body = request(
            server, WIDGET, username=user,
            headers={"If-None-Match": headers["ETag"]},
        )
        assert status == 200 and body

    def test_etags_differ_per_viewer(self, served):
        server, dash, directory = served
        users = [u.username for u in directory.users()[:2]]
        _, h1, _ = request(server, WIDGET, username=users[0])
        _, h2, _ = request(server, WIDGET, username=users[1])
        assert h1["ETag"] != h2["ETag"]

    def test_mismatched_validator_is_a_full_200(self, served):
        server, dash, directory = served
        user = directory.users()[0].username
        request(server, WIDGET, username=user)
        status, _, body = request(
            server, WIDGET, username=user,
            headers={"If-None-Match": '"stale-validator"'},
        )
        assert status == 200 and body


class TestValidatorIndexUnit:
    def test_lru_eviction_bounds_the_index(self):
        index = ValidatorIndex(max_entries=2)
        cache = TTLCache(SimClock())
        cache.write("k", 1)
        deps = (("k", cache.generation_of("k")),)
        for key in ("a", "b", "c"):
            index.record(key, f"etag-{key}", deps, 10)
        assert len(index) == 2
        assert index.validate("a", '"etag-a"', cache, 0.0) is None
        assert index.validate("c", '"etag-c"', cache, 0.0) is not None

    def test_if_none_match_parsing(self):
        assert if_none_match_values('"a", W/"b" , *') == ("a", "b", "*")
        assert if_none_match_values(None) == ()


# ---------------------------------------------------------------------------
# gzip negotiation


class TestGzip:
    def test_negotiated_gzip_is_smaller_and_varies(self, served):
        server, dash, directory = served
        user = directory.users()[0].username
        _, _, plain = request(server, WIDGET, username=user)
        status, headers, body = request(
            server, WIDGET, username=user,
            headers={"Accept-Encoding": "gzip"},
        )
        assert status == 200
        assert headers["Content-Encoding"] == "gzip"
        assert headers["Vary"] == "Accept-Encoding"
        assert len(body) < len(plain)
        assert dash.ctx.obs.http_bytes_saved.value(reason="gzip") > 0

    def test_no_accept_encoding_gets_identity_with_vary(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        status, headers, body = request(server, WIDGET, username=user)
        assert status == 200
        assert headers.get("Content-Encoding") is None
        assert headers["Vary"] == "Accept-Encoding"
        json.loads(body)  # plain JSON

    def test_gzip_q0_is_a_refusal(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        _, headers, body = request(
            server, WIDGET, username=user,
            headers={"Accept-Encoding": "gzip;q=0"},
        )
        assert headers.get("Content-Encoding") is None
        json.loads(body)

    def test_small_bodies_skip_compression(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        # a 404 error envelope is well under the size threshold
        status, headers, _ = request(
            server, "/api/v1/nope", username=user,
            headers={"Accept-Encoding": "gzip"},
        )
        assert status == 404
        assert headers.get("Content-Encoding") is None
        assert headers.get("Vary") is None

    def test_negotiation_parser(self):
        assert gzip_accepted("gzip")
        assert gzip_accepted("br, gzip;q=0.5")
        assert gzip_accepted("*")
        assert not gzip_accepted(None)
        assert not gzip_accepted("identity")
        assert not gzip_accepted("gzip;q=0")
        assert not gzip_accepted("*;q=0")
        assert gzip_accepted("*;q=0, gzip;q=1")

    def test_compressibility_policy(self):
        assert is_compressible("text/html; charset=utf-8")
        assert is_compressible("application/json")
        assert not is_compressible("application/vnd.ms-excel")


# ---------------------------------------------------------------------------
# streamed homepage


class TestStreamedHomepage:
    def test_streamed_homepage_is_chunked_in_either_encoding(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        status, headers, _ = request(server, "/", username=user)
        assert status == 200
        assert headers["Transfer-Encoding"] == "chunked"
        assert headers.get("Content-Length") is None
        assert headers.get("Content-Encoding") is None
        status, headers, _ = request(
            server, "/", username=user, headers={"Accept-Encoding": "gzip"}
        )
        assert status == 200
        assert headers["Content-Encoding"] == "gzip"
        assert headers["Transfer-Encoding"] == "chunked"
        assert headers["Vary"] == "Accept-Encoding"

    def test_widget_failure_degrades_one_slot_not_the_stream(self, served):
        server, dash, directory = served
        user = directory.users()[0].username
        plan = FaultPlan()
        plan.schedule_outage("news", start=0.0, end=float("inf"))
        dash.inject_faults(plan)
        status, _, body = request(server, "/", username=user)
        html = body.decode()
        assert status == 200
        assert html.rstrip().endswith("</html>")
        assert "temporarily unavailable" in html


# ---------------------------------------------------------------------------
# HEAD parity


class TestHeadParity:
    def test_head_mirrors_get_headers_without_a_body(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        _, get_headers, body = request(server, WIDGET, username=user)
        status, head_headers, head_body = request(
            server, WIDGET, username=user, method="HEAD"
        )
        assert status == 200 and head_body == b""
        assert head_headers["Content-Length"] == str(len(body))
        for name in ("Content-Type", "ETag", "Vary"):
            assert head_headers[name] == get_headers[name]

    def test_head_mirrors_gzip_negotiation(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        _, get_headers, body = request(
            server, WIDGET, username=user, headers={"Accept-Encoding": "gzip"}
        )
        _, head_headers, head_body = request(
            server, WIDGET, username=user,
            headers={"Accept-Encoding": "gzip"}, method="HEAD",
        )
        assert head_body == b""
        assert head_headers["Content-Encoding"] == "gzip"
        assert head_headers["Content-Length"] == str(len(body))

    def test_head_conditional_is_a_304(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        _, headers, _ = request(server, WIDGET, username=user)
        status, h304, body = request(
            server, WIDGET, username=user,
            headers={"If-None-Match": headers["ETag"]}, method="HEAD",
        )
        assert status == 304 and body == b""
        assert h304["ETag"] == headers["ETag"]

    def test_head_homepage_streams_no_body_and_renders_nothing(self, served):
        server, dash, directory = served
        user = directory.users()[0].username
        before = route_calls(dash, "system_status")
        status, headers, body = request(server, "/", username=user, method="HEAD")
        assert status == 200 and body == b""
        assert headers["Transfer-Encoding"] == "chunked"
        # the widget generator was never advanced: zero render work
        assert route_calls(dash, "system_status") == before


# ---------------------------------------------------------------------------
# bugfix sweep: export deadlines


class TestExportDeadline:
    def _manager_and_account(self, directory):
        manager = next(
            a.managers[0] for a in directory.accounts() if a.managers
        )
        account = next(
            a.name for a in directory.accounts() if manager in a.managers
        )
        return manager, account

    @pytest.mark.parametrize("raw", ["soon", "", "-5", "0", "nan", "inf"])
    def test_malformed_deadline_is_a_400_on_export_urls(self, served, raw):
        server, _, directory = served
        manager, account = self._manager_and_account(directory)
        status, _, body = request(
            server, f"/api/v1/export/account_usage/{account}.csv",
            username=manager, headers={"X-Request-Deadline-Ms": raw},
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["ok"] is False
        assert "X-Request-Deadline-Ms" in payload["error"]

    def test_exhausted_deadline_is_a_504_with_retry_after(self, served):
        server, dash, directory = served
        manager, account = self._manager_and_account(directory)
        plan = FaultPlan()
        plan.schedule_slowdown("slurmdbd", extra_latency_s=5.0)
        dash.inject_faults(plan)
        status, headers, body = request(
            server, f"/api/v1/export/account_usage/{account}.csv",
            username=manager, headers={"X-Request-Deadline-Ms": "2000"},
        )
        assert status == 504
        payload = json.loads(body)
        assert payload["ok"] is False and "deadline" in payload["error"]
        assert int(headers["Retry-After"]) >= 1

    def test_generous_deadline_still_downloads(self, served):
        server, _, directory = served
        manager, account = self._manager_and_account(directory)
        status, headers, body = request(
            server, f"/api/v1/export/account_usage/{account}.csv",
            username=manager, headers={"X-Request-Deadline-Ms": "30000"},
        )
        assert status == 200
        assert "attachment" in headers["Content-Disposition"]
        assert body.decode().splitlines()[0].startswith("account,user,")


# ---------------------------------------------------------------------------
# bugfix sweep: Content-Disposition hygiene


class TestContentDisposition:
    def test_plain_filename_round_trips(self):
        assert (
            content_disposition("chem_usage.csv")
            == 'attachment; filename="chem_usage.csv"'
        )

    def test_quotes_are_escaped(self):
        header = content_disposition('a"b.csv')
        assert header == 'attachment; filename="a\\"b.csv"'

    def test_backslashes_are_escaped_before_quotes(self):
        header = content_disposition('a\\"b.csv')
        assert header == 'attachment; filename="a\\\\\\"b.csv"'

    def test_control_characters_are_stripped(self):
        header = content_disposition("evil\r\nX-Injected: 1\x7f.csv")
        assert "\r" not in header and "\n" not in header and "\x7f" not in header
        assert header == 'attachment; filename="evilX-Injected: 1.csv"'


# ---------------------------------------------------------------------------
# bugfix sweep: query-param hygiene


class TestParamHygiene:
    def test_blank_value_is_a_structured_400(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        status, _, body = request(server, WIDGET + "?limit=", username=user)
        assert status == 400
        payload = json.loads(body)
        assert payload["ok"] is False and "blank" in payload["error"]

    def test_duplicate_key_is_a_structured_400(self, served):
        server, _, directory = served
        user = directory.users()[0].username
        status, _, body = request(
            server, "/api/v1/my_jobs?limit=1&limit=999", username=user
        )
        assert status == 400
        payload = json.loads(body)
        assert payload["ok"] is False and "duplicate" in payload["error"]

    def test_coerce_params_rejects_blank_and_duplicate(self):
        with pytest.raises(ParamError):
            coerce_params([("limit", "")])
        with pytest.raises(ParamError):
            coerce_params([("limit", "1"), ("limit", "2")])
        assert coerce_params([("limit", "5")]) == {"limit": 5}


# ---------------------------------------------------------------------------
# client-side: the browser honors ETags end to end


class TestClientConditional:
    def test_http_transport_revalidates_with_304(self, served):
        server, dash, directory = served
        user = directory.users()[0].username
        transport = HttpTransport(server.url, user)
        browser = BrowserClient(transport, dash.clock)
        first = browser.load("system_status", WIDGET, max_age_s=5.0)
        assert first.served_from == "network"
        # stale client-side, still fresh server-side (sinfo TTL is 60 s)
        dash.clock.advance(10)
        second = browser.load("system_status", WIDGET, max_age_s=5.0)
        assert second.served_from == "client-cache" and second.revalidated
        assert transport.not_modified == 1
        assert browser.cache.not_modified == 1
        assert second.data == first.data

    def test_in_process_transport_models_the_same_contract(self, served):
        _, dash, directory = served
        from repro.auth import Viewer

        user = directory.users()[0].username
        transport = InProcessTransport(dash, Viewer(username=user))
        browser = BrowserClient(transport, dash.clock)
        browser.load("system_status", WIDGET, max_age_s=5.0)
        dash.clock.advance(10)
        outcome = browser.load("system_status", WIDGET, max_age_s=5.0)
        assert outcome.revalidated
        assert transport.not_modified == 1
        assert browser.cache.not_modified == 1

    def test_changed_payload_replaces_the_cached_record(self):
        clock = SimClock()
        cache = ClientCache(clock)
        payloads = iter([({"v": 1}, "e1", False), ({"v": 2}, "e2", False)])

        def fetch(etag):
            return next(payloads)

        first = cache.fetch_conditional("k", fetch, max_age_s=5.0)
        assert first.value == {"v": 1}
        clock.advance(10)
        stale = cache.fetch_conditional("k", fetch, max_age_s=5.0)
        # stale-while-revalidate renders the old copy, stores the new one
        assert stale.value == {"v": 1} and stale.revalidated
        fresh = cache.fetch_conditional("k", fetch, max_age_s=5.0)
        assert fresh.value == {"v": 2}
        assert cache.db.get(cache.STORE, "k").etag == "e2"

#!/usr/bin/env python3
"""CI smoke check for the observability surface.

Boots the demo dashboard behind the real HTTP server, drives every
registered route over the network, then scrapes ``/metrics`` and fails
(exit 1) if any handled route is missing from the
``repro_route_requests_total`` exposition.  Also sanity-checks that the
payload parses as Prometheus text, that ``/healthz`` agrees with the
breaker gauges, that ``/api/v1/traces/recent`` returns trace trees, and
that the single-flight coalescing families
(``repro_cache_coalesced_waiters_total``, ``repro_cache_inflight_keys``,
``repro_cache_purged_total``) are exposed with live values after a
controlled one-key stampede, and that the refresh-ahead / worker-pool
families (``repro_cache_refresh_ahead_total``,
``repro_cache_served_while_refreshing_total``,
``repro_worker_pool_active``, ``repro_worker_pool_queue_depth``) are
exposed after one forced background revalidation on the live pool, and
that the HTTP delivery families (``repro_http_not_modified_total``,
``repro_http_bytes_saved_total``) are exposed with a live 304 counted
after one conditional-GET revalidation over the wire, and that the
epoch-fence family (``repro_cache_stale_writes_skipped_total``) is
pre-seeded.  Runs on the default build.

Run:  python tools/metrics_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import List

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.dashboard import build_demo_dashboard  # noqa: E402
from repro.obs.metrics import (  # noqa: E402
    parse_prometheus_text,
    samples_by_name,
)
from repro.web.server import DashboardServer  # noqa: E402


def get(url: str, username: str | None = None, admin: bool = False) -> bytes:
    headers = {}
    if username:
        headers["X-Remote-User"] = username
    if admin:
        headers["X-Admin"] = "1"
    req = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.read()
    except urllib.error.HTTPError as exc:
        # error envelopes still count the route — that's the point
        return exc.read()


def drive_conditional_get(server, user: str, failures: List[str]) -> None:
    """Revalidate one widget over the wire so the delivery families
    (``repro_http_not_modified_total``, ``repro_http_bytes_saved_total``)
    carry a live 304 in the scrape."""
    url = server.url + "/api/v1/widgets/system_status"
    req = urllib.request.Request(url, headers={"X-Remote-User": user})
    with urllib.request.urlopen(req, timeout=10) as resp:
        etag = resp.headers.get("ETag")
        body = resp.read()
    if not etag:
        failures.append("conditional-GET smoke: widget response had no ETag")
        return
    if not body:
        failures.append("conditional-GET smoke: full widget response was empty")
        return
    revalidate = urllib.request.Request(
        url, headers={"X-Remote-User": user, "If-None-Match": etag}
    )
    try:
        with urllib.request.urlopen(revalidate, timeout=10) as resp:
            failures.append(
                "conditional-GET smoke: revalidation returned "
                f"{resp.status}, expected 304"
            )
    except urllib.error.HTTPError as exc:
        if exc.code != 304:
            failures.append(
                f"conditional-GET smoke: revalidation returned {exc.code}, "
                "expected 304"
            )
        elif exc.read():
            failures.append(
                "conditional-GET smoke: 304 response carried a body"
            )


def drive_coalescing(dash, failures: List[str]) -> None:
    """Force one deterministic single-flight stampede on the live cache
    so the coalescing families carry non-zero values in the scrape."""
    cache = dash.ctx.cache
    entered, release = threading.Event(), threading.Event()
    values: List[str] = []

    def gated() -> str:
        entered.set()
        release.wait(10)
        return "leader-value"

    leader = threading.Thread(
        target=lambda: values.append(cache.fetch("smoke:stampede", gated))
    )
    leader.start()
    if not entered.wait(10):
        failures.append("coalescing smoke: leader compute never started")
        release.set()
        leader.join(10)
        return
    follower = threading.Thread(
        target=lambda: values.append(
            cache.fetch("smoke:stampede", lambda: "follower-computed")
        )
    )
    follower.start()
    deadline = time.time() + 10
    while (
        cache.metrics.total("repro_cache_coalesced_waiters_total") < 1
        and time.time() < deadline
    ):
        time.sleep(0.005)
    release.set()
    leader.join(10)
    follower.join(10)
    if values != ["leader-value", "leader-value"]:
        failures.append(
            f"coalescing smoke: follower did not ride the leader ({values})"
        )
    # exercise the purge accounting family too
    cache.delete("smoke:stampede")


def drive_refresh_ahead(dash, failures: List[str]) -> None:
    """Force one refresh-ahead revalidation on the live worker pool so
    the refresh/pool families carry non-zero values in the scrape."""
    cache = dash.ctx.cache
    done = threading.Event()

    def recompute() -> str:
        done.set()
        return "revalidated"

    cache.write("smoke:refresh", "warm", ttl=1000.0)
    # soft_ttl=0: age 0 is already inside the (half-open) soft window,
    # so this hit arms a background refresh immediately
    result = cache.lookup(
        "smoke:refresh",
        lambda: "warm",
        ttl=1000.0,
        soft_ttl=0.0,
        refresh=recompute,
    )
    if result.result != "hit" or not result.refreshing:
        failures.append(
            "refresh-ahead smoke: soft-window hit did not arm a refresh "
            f"({result.result}, refreshing={result.refreshing})"
        )
        return
    if not done.wait(10):
        failures.append(
            "refresh-ahead smoke: background refresh never ran on the pool"
        )
        return
    deadline = time.time() + 10
    while (
        cache.metrics.total("repro_cache_refresh_ahead_total", result="ok") < 1
        and time.time() < deadline
    ):
        time.sleep(0.005)
    if cache.read("smoke:refresh") != "revalidated":
        failures.append(
            "refresh-ahead smoke: refresh ran but never rewrote the entry"
        )
    cache.delete("smoke:refresh")


def main() -> int:
    dash, directory, _ = build_demo_dashboard(duration_hours=1.0, seed=3)
    server = DashboardServer(dash).start()
    failures: List[str] = []
    try:
        user = directory.users()[0].username
        manager = next(
            (a.managers[0] for a in directory.accounts() if a.managers), user
        )

        handled = []
        for route in dash.registry.all_routes():
            if route.name == "account_usage_export":
                # the export route is addressed via its download URL
                account = next(
                    a.name for a in directory.accounts() if a.managers
                )
                path = f"/api/v1/export/account_usage/{account}.csv"
                get(server.url + path, username=manager)
            else:
                get(server.url + route.path, username=user, admin=True)
            handled.append(route.name)
        print(f"drove {len(handled)} routes over HTTP")

        drive_coalescing(dash, failures)
        drive_refresh_ahead(dash, failures)
        drive_conditional_get(server, user, failures)

        payload = get(server.url + "/metrics").decode()
        try:
            by_name = samples_by_name(parse_prometheus_text(payload))
        except ValueError as exc:
            print(f"FAIL: /metrics is not valid exposition text: {exc}")
            return 1

        exposed = {
            s.labeldict.get("route", "")
            for s in by_name.get("repro_route_requests_total", [])
        }
        for name in handled:
            if name not in exposed:
                failures.append(
                    f"route {name!r} handled but absent from "
                    "repro_route_requests_total"
                )

        for family in (
            "repro_route_latency_seconds_bucket",
            "repro_cache_requests_total",
            "repro_http_requests_total",
            "repro_breaker_state",
            "repro_daemon_rpcs_total",
            "repro_command_runs_total",
            "repro_cache_entries",
            "repro_cache_coalesced_waiters_total",
            "repro_cache_inflight_keys",
            "repro_cache_purged_total",
            # admission layer: pre-seeded at startup so the families
            # render even before any rejection happens
            "repro_admission_rejected_total",
            "repro_brownout_tier",
            # refresh-ahead + worker pool: pre-seeded/gauged at startup
            # and driven live by drive_refresh_ahead above
            "repro_cache_refresh_ahead_total",
            "repro_cache_served_while_refreshing_total",
            "repro_worker_pool_active",
            "repro_worker_pool_queue_depth",
            "repro_worker_pool_tasks_total",
            # HTTP delivery: pre-seeded at startup and driven live by
            # drive_conditional_get above
            "repro_http_not_modified_total",
            "repro_http_bytes_saved_total",
            # epoch fence on delete/clear: pre-seeded at startup
            "repro_cache_stale_writes_skipped_total",
        ):
            if family not in by_name:
                failures.append(f"family {family!r} missing from /metrics")

        waiters = sum(
            s.value
            for s in by_name.get("repro_cache_coalesced_waiters_total", [])
        )
        if waiters < 1:
            failures.append(
                "repro_cache_coalesced_waiters_total is zero after the "
                "controlled stampede"
            )

        served = sum(
            s.value
            for s in by_name.get(
                "repro_cache_served_while_refreshing_total", []
            )
        )
        if served < 1:
            failures.append(
                "repro_cache_served_while_refreshing_total is zero after "
                "the forced refresh-ahead"
            )

        revalidations = sum(
            s.value
            for s in by_name.get("repro_http_not_modified_total", [])
        )
        if revalidations < 1:
            failures.append(
                "repro_http_not_modified_total is zero after the "
                "conditional-GET revalidation"
            )

        health = json.loads(get(server.url + "/healthz"))
        payload2 = get(server.url + "/metrics").decode()
        gauges = samples_by_name(parse_prometheus_text(payload2)).get(
            "repro_breaker_state", []
        )
        one_hot = {
            (s.labeldict["service"], s.labeldict["state"]): s.value
            for s in gauges
        }
        for service, state in health.get("breakers", {}).items():
            if one_hot.get((service, state)) != 1.0:
                failures.append(
                    f"/healthz says {service}={state} but the "
                    "repro_breaker_state gauge disagrees"
                )

        tier_gauge = samples_by_name(parse_prometheus_text(payload2)).get(
            "repro_brownout_tier", []
        )
        admission = health.get("admission", {})
        if not tier_gauge:
            failures.append("repro_brownout_tier gauge missing from /metrics")
        elif admission.get("tier_index") != int(tier_gauge[0].value):
            failures.append(
                f"/healthz admission tier_index={admission.get('tier_index')} "
                f"but repro_brownout_tier gauge is {tier_gauge[0].value}"
            )

        traces = json.loads(get(server.url + "/api/v1/traces/recent"))
        if not traces.get("traces"):
            failures.append("/api/v1/traces/recent returned no traces")
        elif not any(
            t.get("kind") == "route" for t in traces["traces"]
        ):
            failures.append("no route-kind spans in /api/v1/traces/recent")
    finally:
        server.stop()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(f"OK: all {len(handled)} handled routes present in /metrics; "
          "healthz/metrics breakers agree; traces flowing")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Replay a scenario's trace against a real HTTP dashboard.

The harness stands up a populated dashboard, starts the threaded HTTP
server, and replays the scenario's deterministic trace tick by tick:
every request of a tick fires (bounded by the client model), the tick
drains completely, and only then does the sim clock advance — so the
clock never moves under an in-flight handler and cache TTL behaviour
is reproducible.

Two clocks coexist deliberately.  Arrivals, TTL expiry, fault windows,
and admission tiers live on the *sim* clock (deterministic); request
latency is *wall* clock (it measures this machine).  Reports therefore
split the two: trace counts and digests must match run to run, latency
quantiles may not.
"""

from __future__ import annotations

import gzip
import os
import platform
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.auth import Viewer
from repro.core.caching import CachePolicy
from repro.core.dashboard import build_demo_dashboard
from repro.faults import FaultPlan
from repro.web.server import DashboardServer

from .scenarios import (
    PlannedRequest,
    Scenario,
    build_trace,
    trace_digest,
    trace_summary,
)

#: synthetic status for requests that died below HTTP (socket errors)
TRANSPORT_ERROR_STATUS = 599


def bench_environment() -> Dict[str, Any]:
    """Machine facts recorded alongside every ``achieved_wall`` figure.

    Sim-side numbers (trace digests, hit rates, shed counts) compare
    across any two machines; wall-clock throughput does not.
    """
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }

#: statuses that mean "the admission layer shed this request"
SHED_STATUSES = (429, 503, 504)


@dataclass
class RequestOutcome:
    """What one replayed request observed (wall-clock side)."""

    planned: PlannedRequest
    status: int
    latency_s: float
    body_bytes: int


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1]: {q}")
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def request_catalog(dash, limit: int = 25) -> Dict[str, List[Any]]:
    """Query-string candidates for routes with required parameters.

    Derived from the seeded cluster (sorted, truncated), so the same
    scenario seed always yields the same catalog — and the same trace.
    Job-detail entries carry the job owner's username: a job page is
    visited by whoever submitted the job (anyone else gets a 403 by
    design, which is privacy policy, not load).
    """
    cluster = dash.ctx.cluster
    nodes = sorted(cluster.nodes)[:limit]
    jobs = cluster.scheduler.jobs
    job_ids = sorted(jobs)[:limit]
    return {
        "/api/v1/node_overview": [f"node={name}" for name in nodes],
        "/api/v1/job_overview": [
            (f"job_id={jid}", jobs[jid].spec.user) for jid in job_ids
        ],
    }


def _fire(url: str, req: PlannedRequest, timeout_s: float) -> RequestOutcome:
    """Issue one HTTP request, never raising: transport failures become
    status 599 so the report can count them honestly."""
    request = urllib.request.Request(
        url + req.url_path, headers={"X-Remote-User": req.user}
    )
    t0 = time.perf_counter()
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as resp:
            body = resp.read()
            status = resp.status
    except urllib.error.HTTPError as exc:
        body = exc.read()
        status = exc.code
    except (urllib.error.URLError, OSError):
        body = b""
        status = TRANSPORT_ERROR_STATUS
    return RequestOutcome(
        planned=req,
        status=status,
        latency_s=time.perf_counter() - t0,
        body_bytes=len(body),
    )


class _MetricProbe:
    """Before/after snapshots of the counters a scenario reports."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        self._before: Dict[str, float] = {}

    def _totals(self) -> Dict[str, float]:
        reg = self._ctx.obs.registry
        return {
            "cache_lookups": reg.total("repro_cache_requests_total"),
            "cache_hits": reg.total("repro_cache_requests_total", result="hit"),
            "cache_stale_served": reg.total(
                "repro_cache_requests_total", result="stale_served"
            ),
            "cache_coalesced": reg.total(
                "repro_cache_requests_total", result="coalesced"
            ),
            "admission_rejected": reg.total("repro_admission_rejected_total"),
            "ctld_rpcs": float(self._ctx.cluster.daemons.ctld.total_rpcs),
            "dbd_rpcs": float(self._ctx.cluster.daemons.dbd.total_rpcs),
        }

    def start(self) -> None:
        self._before = self._totals()

    def deltas(self) -> Dict[str, float]:
        after = self._totals()
        return {k: after[k] - self._before.get(k, 0.0) for k in after}


def run_scenario(
    scenario: Scenario,
    *,
    request_timeout_s: float = 30.0,
    open_loop_workers: int = 32,
) -> Dict[str, Any]:
    """Replay one scenario end to end; returns its BENCH record.

    The returned dict is one element of ``BENCH_load.json``'s
    ``scenarios`` array (see :mod:`repro.load.report` for the schema).
    """
    cache_policy = None
    if scenario.cache_ttl_s is not None:
        ttl = scenario.cache_ttl_s
        cache_policy = CachePolicy(
            squeue=ttl, sinfo=ttl, sacct=ttl, scontrol_node=ttl,
            scontrol_job=ttl, scontrol_assoc=ttl, news=ttl, storage=ttl,
            default=ttl,
        )
    dash, _directory, _ = build_demo_dashboard(
        seed=scenario.seed,
        cache_policy=cache_policy,
    )
    trace = build_trace(scenario, catalog=request_catalog(dash))
    clock = dash.clock
    run_start = clock.now()

    if scenario.faults:
        plan = FaultPlan(seed=scenario.seed)
        for spec in scenario.faults:
            plan.add(_window_from_spec(spec, run_start))
        dash.inject_faults(plan)

    workers = scenario.clients if scenario.mode == "closed" else open_loop_workers
    outcomes: List[RequestOutcome] = []
    outcome_lock = threading.Lock()
    probe = _MetricProbe(dash.ctx)

    by_tick: Dict[int, List[PlannedRequest]] = {}
    for req in trace:
        by_tick.setdefault(req.tick, []).append(req)

    wall_start = time.perf_counter()
    with DashboardServer(dash) as server:
        url = server.url
        probe.start()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for tick in range(scenario.ticks):
                batch = by_tick.get(tick, ())
                futures = [
                    pool.submit(_fire, url, req, request_timeout_s)
                    for req in batch
                ]
                # tick barrier: drain every request before the clock
                # moves, so TTL expiry and fault windows are exact
                for future in futures:
                    outcome = future.result()
                    with outcome_lock:
                        outcomes.append(outcome)
                clock.advance(scenario.tick_s)
        deltas = probe.deltas()
    wall_elapsed = time.perf_counter() - wall_start

    return _scenario_record(
        scenario, trace, outcomes, deltas, dash, run_start, wall_elapsed
    )


def _window_from_spec(spec, run_start: float):
    from repro.faults.plan import FaultWindow

    return FaultWindow(
        service=spec.service,
        start=run_start + spec.start_s,
        end=run_start + spec.end_s,
        kind=spec.kind,
        extra_latency_s=spec.extra_latency_s,
        error_rate=spec.error_rate,
    )


def _scenario_record(
    scenario: Scenario,
    trace: List[PlannedRequest],
    outcomes: List[RequestOutcome],
    deltas: Dict[str, float],
    dash,
    run_start: float,
    wall_elapsed: float,
) -> Dict[str, Any]:
    latencies = sorted(o.latency_s for o in outcomes)
    statuses: Dict[str, int] = {}
    for o in outcomes:
        key = str(o.status)
        statuses[key] = statuses.get(key, 0) + 1

    ok = sum(n for code, n in statuses.items() if code.startswith("2"))
    shed_http = sum(statuses.get(str(code), 0) for code in SHED_STATUSES)
    # unexpected server errors only: deliberate backpressure responses
    # (429/503/504) are shed, not failure, and 599 is client transport
    errors_5xx = sum(
        n for code, n in statuses.items()
        if code.startswith("5")
        and int(code) not in SHED_STATUSES
        and int(code) != TRANSPORT_ERROR_STATUS
    )
    completed = len(outcomes)
    lookups = deltas["cache_lookups"]

    tiers = [
        [round(at - run_start, 3), tier]
        for at, tier in dash.ctx.admission.tier_history()
        if at >= run_start
    ] or [[0.0, "normal"]]

    return {
        "name": scenario.name,
        "description": scenario.description,
        "seed": scenario.seed,
        "mode": scenario.mode,
        "duration_s": scenario.duration_s,
        "users": scenario.users,
        "trace": {"digest": trace_digest(trace), **trace_summary(trace)},
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50) * 1000, 3),
            "p95": round(percentile(latencies, 0.95) * 1000, 3),
            "p99": round(percentile(latencies, 0.99) * 1000, 3),
            "mean": round(
                (sum(latencies) / len(latencies) * 1000) if latencies else 0.0, 3
            ),
            "max": round((latencies[-1] * 1000) if latencies else 0.0, 3),
        },
        "rps": {
            # offered load per *sim* second — deterministic, trace-derived
            "offered_sim": round(len(trace) / scenario.duration_s, 3),
            # achieved throughput per *wall* second — machine-dependent
            "achieved_wall": round(
                completed / wall_elapsed if wall_elapsed > 0 else 0.0, 3
            ),
        },
        "requests": {"planned": len(trace), "completed": completed, "ok": ok},
        "statuses": dict(sorted(statuses.items())),
        "ctld_rpcs": deltas["ctld_rpcs"],
        "ctld_rpcs_per_request": round(
            deltas["ctld_rpcs"] / completed if completed else 0.0, 4
        ),
        "cache": {
            "lookups": lookups,
            "hits": deltas["cache_hits"],
            "hit_rate": round(
                deltas["cache_hits"] / lookups if lookups else 0.0, 4
            ),
            "stale_served": deltas["cache_stale_served"],
            "coalesced": deltas["cache_coalesced"],
        },
        "shed": {
            "admission_rejected": deltas["admission_rejected"],
            "http_429_503_504": shed_http,
            "http_5xx": errors_5xx,
            "transport_errors": statuses.get(str(TRANSPORT_ERROR_STATUS), 0),
            "rate": round(shed_http / completed if completed else 0.0, 4),
        },
        "admission_tiers": tiers,
        "lock": dash.ctx.cache.lock_stats(),
    }


# -- HTTP delivery: conditional GET / gzip / streaming A/B -------------------


def delivery_ab(
    *,
    seed: int = 77,
    user: str = "alice",
    widget: str = "/api/v1/widgets/system_status",
) -> Dict[str, Any]:
    """The BENCH file's ``delivery`` section.

    Measures, against one fresh dashboard over real HTTP:

    * **not_modified** — the byte and render savings of a conditional
      re-fetch of an unchanged widget (full body vs a 304's zero body,
      and proof that no route dispatch ran during the 304);
    * **gzip** — negotiated compression savings, with the decoded bytes
      proven identical to the identity response;
    * **streamed homepage** — the chunked streamed document proven
      byte-identical to the sequential batch render.
    """

    dash, _directory, _ = build_demo_dashboard(seed=seed)

    with DashboardServer(dash) as server:

        def fetch(path: str, headers: Optional[Dict[str, str]] = None):
            req = urllib.request.Request(
                server.url + path,
                headers={"X-Remote-User": user, **(headers or {})},
            )
            try:
                with urllib.request.urlopen(req, timeout=30) as resp:
                    return resp.status, resp.headers, resp.read()
            except urllib.error.HTTPError as exc:
                return exc.code, exc.headers, exc.read()

        # A: first fetch pays the full render + full body
        _, headers, full_body = fetch(widget)
        etag = headers["ETag"]
        renders_before = dash.ctx.obs.route_requests.total(route="system_status")
        # B: conditional re-fetch of the unchanged widget
        status_304, _, body_304 = fetch(widget, {"If-None-Match": etag})
        renders_during_304 = (
            dash.ctx.obs.route_requests.total(route="system_status")
            - renders_before
        )

        _, _, gz_widget = fetch(widget, {"Accept-Encoding": "gzip"})

        _, _, streamed = fetch("/")
        batch = dash.render_homepage(
            Viewer(username=user), parallel=False
        ).document.encode()
        _, _, gz_home = fetch("/", {"Accept-Encoding": "gzip"})

    widget_identical = gzip.decompress(gz_widget) == full_body
    home_identical = gzip.decompress(gz_home) == streamed
    return {
        "seed": seed,
        "widget": widget,
        "not_modified": {
            "status": status_304,
            "full_body_bytes": len(full_body),
            "revalidation_body_bytes": len(body_304),
            "bytes_saved": len(full_body) - len(body_304),
            "render_calls_during_304": renders_during_304,
        },
        "gzip": {
            "widget_identity_bytes": len(full_body),
            "widget_gzip_bytes": len(gz_widget),
            "homepage_identity_bytes": len(streamed),
            "homepage_gzip_bytes": len(gz_home),
            "savings_ratio": round(
                1.0 - (len(gz_widget) + len(gz_home))
                / (len(full_body) + len(streamed)),
                4,
            ),
        },
        "streamed_homepage_identical": streamed == batch,
        "decoded_identical": widget_identical and home_identical,
    }


def run_suite(
    scenarios: Sequence[Scenario],
    *,
    smoke: bool = False,
    include_delivery: bool = True,
    progress: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run scenarios plus the delivery comparison into one BENCH doc."""
    records = []
    for scenario in scenarios:
        if progress is not None:
            progress(f"scenario {scenario.name} ...")
        records.append(run_scenario(scenario))
    doc: Dict[str, Any] = {
        "schema_version": 1,
        "kind": "repro-load-bench",
        "smoke": bool(smoke),
        "environment": bench_environment(),
        "scenarios": records,
    }
    if include_delivery:
        if progress is not None:
            progress("HTTP delivery A/B ...")
        doc["delivery"] = delivery_ab()
    return doc

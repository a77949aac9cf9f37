#!/usr/bin/env python3
"""Generate docs/API.md from the package's docstrings.

Walks every module under ``repro``, collecting public classes and
functions (honouring ``__all__`` where defined) and their first
docstring paragraph into a browsable Markdown reference.
:func:`render` returns that text without touching the file.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import sys


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    para = doc.split("\n\n")[0].replace("\n", " ").strip()
    return para


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        # only members actually defined in this package
        mod = getattr(obj, "__module__", "") or ""
        if not mod.startswith("repro"):
            continue
        if mod != module.__name__:
            continue  # re-exports documented at their home module
        out.append((name, obj))
    return out


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(…)"


def render_module(module) -> list[str]:
    lines: list[str] = []
    members = public_members(module)
    if not members and not (module.__doc__ or "").strip():
        return lines
    lines.append(f"### `{module.__name__}`\n")
    mod_doc = first_paragraph(module)
    if mod_doc:
        lines.append(mod_doc + "\n")
    for name, obj in members:
        if inspect.isclass(obj):
            lines.append(f"- **class `{name}`** — {first_paragraph(obj)}")
            methods = [
                (m, fn)
                for m, fn in inspect.getmembers(obj, inspect.isfunction)
                if not m.startswith("_") and fn.__qualname__.startswith(obj.__name__)
            ]
            for m, fn in methods:
                lines.append(
                    f"  - `{m}{signature_of(fn)}` — {first_paragraph(fn)}"
                )
        elif inspect.isfunction(obj):
            lines.append(
                f"- **`{name}{signature_of(obj)}`** — {first_paragraph(obj)}"
            )
        else:
            lines.append(f"- **`{name}`** — constant")
    lines.append("")
    return lines


# Hand-authored prose sections, stitched into the generated reference.
# Edit these HERE (not in docs/API.md — the whole file is regenerated).
DEGRADED_MODE_SECTION = """\
## Degraded mode & fault injection

The dashboard never lets a sick daemon take a page down with it. Every
cached data source is fetched through `repro.faults.ResilientFetcher`,
which layers four defences in front of the simulated daemons:

1. **Per-source timeouts** — `CachePolicy.timeout_for(source)` bounds how
   long one fetch may spend in daemon RPCs; beyond it the attempt fails
   with `DaemonTimeoutError`.
2. **Bounded retries** — up to `RetryPolicy.max_attempts` tries, back
   to back: daemon latency is simulated and request handling never
   advances the sim clock, so a delay between tries would change
   nothing the daemons see.
3. **A per-daemon circuit breaker** — after
   `BreakerConfig.failure_threshold` consecutive failures the breaker
   opens and fetches fail fast (`CircuitOpenError`) until
   `recovery_time_s` elapses on the sim clock; a half-open probe then
   decides between closing and reopening. Live breaker states are
   exposed on `/healthz`.
4. **Serve-stale fallback** — when every attempt fails,
   `TTLCache.fetch_or_stale` returns the last expired value instead of
   the error. The response is flagged `"degraded": true` with
   `"stale_age_s"` set, and homepage widgets render a degraded banner
   over the cached data.
5. **Single-flight coalescing** — concurrent misses on one cache key
   collapse to a single backend compute. The first caller becomes the
   *leader* and runs the compute outside the cache lock; every
   concurrent *follower* blocks on the leader's in-flight result
   (bounded by the source's `CachePolicy.timeout_for` budget) instead
   of dogpiling slurmctld. If the leader fails, exactly one structured
   error propagates and followers degrade to the stale entry when one
   exists; a follower that outwaits its budget falls back to stale, or
   computes independently as a last resort. Reentrant fetches from
   inside a compute block never deadlock — the leader thread computes
   directly.

   Every key also carries a *removal epoch* that `TTLCache.delete` and
   `TTLCache.clear` bump. The single-flight leader, refresh-ahead
   revalidations and coalesced followers all snapshot the epoch before
   computing and store through an atomic check-and-write, so a compute
   that raced a delete or clear is discarded
   (`repro_cache_stale_writes_skipped_total`, refresh result
   `superseded`) instead of re-storing the removed key.

With a cold cache (nothing to serve stale) the route returns a
structured `503` JSON envelope — never a traceback. `CacheStats` counts
`stale_served`, `coalesced`, `retries`, `breaker_opens`, `evictions`,
and `purged` so the degradation is observable.

Faults are injected, not mocked: build a `repro.faults.FaultPlan`
(outage / slowdown / flakiness windows on the sim clock, per service or
`"*"`), then `dashboard.inject_faults(plan)`. The daemon layer itself
raises `DaemonUnavailableError` / adds latency, so everything above it —
commands, caches, routes, HTML — experiences the failure end to end.
See `examples/chaos_day.py` for a scripted outage-and-recovery run and
`tests/faults/` for the fault-matrix suite.
"""


OBSERVABILITY_SECTION = """\
## Observability

Every layer reports into one `repro.obs.MetricsRegistry` (counters,
gauges, fixed-bucket latency histograms) paired with a `repro.obs.Tracer`
that keeps the last N request traces as route → cache → daemon span
trees on the sim clock. The metric families:

| family | labels | source |
| --- | --- | --- |
| `repro_route_requests_total` | `route`, `status` | every route invocation |
| `repro_route_errors_total` | `route` | error envelopes (status ≥ 400) |
| `repro_route_latency_seconds` | `route` | route latency histogram |
| `repro_http_requests_total` | `kind`, `status` | HTTP server, by endpoint kind |
| `repro_cache_requests_total` | `source`, `result` | TTL cache lookups; `result` is one-hot (`hit` / `miss` / `expired` / `stale_served` / `coalesced` / `coalesced_failed`), so the family sum is the lookup count |
| `repro_cache_evictions_total` | `source` | capacity evictions |
| `repro_cache_purged_total` | `source`, `reason` | entries dropped outside lookups (`expired` / `deleted` / `cleared`) |
| `repro_cache_coalesced_waiters_total` | `source` | followers that joined a single-flight leader (backend computes avoided) |
| `repro_cache_inflight_keys` | — | keys with a compute currently in flight (gauge) |
| `repro_cache_stale_writes_skipped_total` | `source` | epoch-fenced writes discarded after a delete or clear |
| `repro_cache_entries` | — | live cache size (scrape-time gauge) |
| `repro_fetch_retries_total` | `service` | resilient-fetch retries |
| `repro_breaker_transitions_total` | `service`, `to` | circuit-breaker state changes |
| `repro_breaker_state` | `service`, `state` | one-hot current state |
| `repro_daemon_rpcs_total` | `daemon`, `kind` | simulated daemon RPCs |
| `repro_daemon_rpcs_failed_total` | `daemon` | injected-fault RPC failures |
| `repro_daemon_rpc_latency_seconds` | `daemon` | simulated RPC latency |
| `repro_command_runs_total` | `command`, `outcome` | Slurm command wrappers |
| `repro_daemon_recent_rate_rps`, `repro_daemon_mean_latency_seconds` | `daemon` | scrape-time gauges |

HTTP surface (both unauthenticated, like `/healthz`):

* **`GET /metrics`** — Prometheus text exposition
  (`text/plain; version=0.0.4`), gauges refreshed at scrape time.
  `/healthz` and the `repro_breaker_state` gauge report through the
  same `DashboardContext.breaker_report()` call, so they cannot
  disagree.
* **`GET /api/v1/traces/recent?limit=N`** — the last N root traces as
  JSON span trees (`t_sim`, `sim_elapsed_s`, `wall_ms`, attrs such as
  cache `result` and daemon `attempt`).

Requests whose wall time exceeds `slow_request_ms` (default 250 ms,
settable on `DashboardContext`) land in the tracer's slow-request log
and a `repro.obs.slowlog` warning. `CacheStats` is a read-only view
over these counters, so legacy readers and `/metrics` always agree.
`tools/obs_report.py` renders a scraped payload as an operator report
(top routes by p95, per-source hit rates, breaker states);
`tools/metrics_smoke.py` is the CI gate that fails if any handled
route is missing from the exposition.
"""


ADMISSION_SECTION = """\
## Overload & admission control

Resilience (above) protects individual fetches; the admission layer in
`repro.faults.admission` bounds what the dashboard accepts *in total*
when the daemons are struggling:

**Brownout control** — an `AdmissionController` feedback loop scores
distress from breaker states (+2 open, +1 half-open) and the
aggregate route p95, then steps the dashboard
`normal → brownout → shed` one tier per evaluation (rate-limited on
sim time, with a `min_dwell_s` before stepping back down).
*Brownout* stretches every TTL by `brownout_ttl_multiplier` and
disables the expensive routes (`503` + `Retry-After`), with a
site-wide banner on the homepage. *Shed* rejects everything except
the essential routes — `/healthz`, `/metrics`, the homepage, and
My Jobs stay alive throughout.

Rejections never count against the circuit breakers (they are not
backend failures). `/healthz` reports the current tier and the signals
behind it. A request carries no time budget: a fetch is bounded by its
per-source timeout and retry count, and no route answers `504`. A
client's `X-Request-Deadline-Ms` header is ignored like any other
unknown header, whatever its value. The metric families:

| family | labels | source |
| --- | --- | --- |
| `repro_admission_rejected_total` | `reason` (`brownout` / `shed`) | every admission rejection |
| `repro_brownout_tier` | — | current tier index (0/1/2, gauge) |
| `repro_brownout_transitions_total` | `to` | tier transitions |

`tools/obs_report.py` renders these families as operator sections
(tier and transitions, rejections by reason) next to its breaker
table; `benchmarks/test_perf_admission.py` pins the brownout surface
over HTTP (set `ADMISSION_SMOKE=1` for the CI-sized run).
"""


REFRESH_AHEAD_SECTION = """\
## Refresh-ahead

The caching layer (`repro.core.caching`) and a bounded worker pool
(`repro.core.workers.WorkerPool`) together take backend RPCs off the
request path entirely:

1. **Refresh-ahead (stale-while-revalidate)** — every cached source has
   a *soft* TTL at `CachePolicy.soft_ttl_fraction` (default 0.8) of its
   hard TTL, derived from the base TTL so brownout stretching never
   delays revalidation after recovery (disable with
   `refresh_ahead=False`). A lookup landing between the soft TTL and
   hard expiry is served from cache immediately and arms **one**
   deduplicated background revalidation — refreshes share the same
   per-key single-flight map as miss coalescing, so a miss-leader and a
   refresh can never compute concurrently. The background refresh runs
   on the worker pool under the same breaker accounting as a
   foreground fetch, but makes a single attempt, never a retry. In steady
   state a hot key costs **zero on-request RPCs**: users always read
   the cache, and the cache rewrites itself behind them.
2. **Load-awareness** — arming is gated on the admission tier: outside
   `normal` the gate closes and soft-window hits are served without
   enqueuing (counted `paused`), so background work never deepens a
   brownout. A full pool queue likewise just drops the revalidation
   (counted `rejected`) — the entry is still valid until its hard TTL.

The metric families:

| family | labels | source |
| --- | --- | --- |
| `repro_cache_refresh_ahead_total` | `source`, `result` (`ok` / `error` / `rejected` / `paused`) | every refresh-ahead arming decision |
| `repro_cache_served_while_refreshing_total` | `source` | soft-window hits served while a refresh was in flight |
| `repro_worker_pool_active` | `pool` | tasks currently executing (gauge) |
| `repro_worker_pool_queue_depth` | `pool` | tasks waiting for a thread (gauge) |
| `repro_worker_pool_tasks_total` | `pool`, `result` (`ok` / `error` / `rejected`) | every task disposition |

`tools/obs_report.py` renders both families as operator sections;
`benchmarks/test_perf_refresh_ahead.py` proves the two claims — zero
on-request RPCs on a hot key, and refresh-ahead halting under brownout
(set `REFRESH_AHEAD_SMOKE=1` for the CI-sized run).
"""


DELIVERY_SECTION = """\
## HTTP delivery

The wire layer (`repro.web.server` + `repro.web.delivery`) stops
re-sending bytes the client already holds and stops buffering pages the
client could start parsing:

1. **Conditional GET** — every cache write bumps a monotonic per-entry
   *generation* (`TTLCache.generation_of`). A route render records
   which cache entries it read (`FetchScope.note_dep`), and a
   fully-cached, non-degraded response gets an `ETag` derived from the
   route, viewer, params, and those `(key, generation)` pairs. The
   server keeps a bounded per-`(viewer, path, query)` `ValidatorIndex`;
   a request presenting `If-None-Match` whose every dependency is still
   fresh at the same generation is answered `304 Not Modified` with
   **zero route renders and zero body bytes**. Any upstream rewrite —
   even to an equal value — bumps the generation and invalidates the
   validator, so a `304` is never served after a cache entry the
   response read has been rewritten or has expired. The `ETag` does not
   hash the sim clock: fields a handler computes from it (`elapsed`,
   durations, wait times) can lag a fresh render by less than the
   shortest TTL among the entries the response read.
2. **gzip** — negotiated from `Accept-Encoding` q-values; compressible
   bodies (HTML, JSON, CSV, SVG) at or above 500 bytes are compressed
   deterministically (`mtime=0`), swapped in only when actually
   smaller, and always carry `Vary: Accept-Encoding`. HEAD answers
   with exactly the headers GET would send, minus the body.
3. **Streamed homepage** — `GET /` renders through
   `Dashboard.stream_homepage`: the page shell is rendered once around
   sentinel slot tokens, the shell head flushes immediately as the
   first `Transfer-Encoding: chunked` chunk, and the five widget
   routes then run one at a time on the request thread, each slot
   flushed as soon as it is rendered (optionally gzip-compressed
   mid-stream with per-chunk flushes). The assembled stream is
   byte-identical to the batch render, and per-widget failure
   isolation is unchanged.
4. **Client revalidation** — `BrowserClient` stores each response's
   `ETag` in its simulated IndexedDB record; a stale-while-revalidate
   refresh sends `If-None-Match` and a `304` just re-stamps the stored
   record instead of re-downloading the body.

The metric families:

| family | labels | source |
| --- | --- | --- |
| `repro_http_not_modified_total` | `kind` | requests answered `304` |
| `repro_http_bytes_saved_total` | `reason` (`not_modified` / `gzip`) | body bytes not sent on the wire |

`tests/integration/test_same_bytes.py` replays one request list over
every route through each delivery arm (identity, gzip decoded,
in-process dispatch, HEAD against GET, and a client that revalidates
with `If-None-Match`) and asserts the same status and decoded body for
every request; the revalidating arm is a strict `xfail` for the lagging
`304` above. `tools/metrics_smoke.py` drives one live `304` over the
wire and fails if the delivery families are missing from `/metrics`.
"""


def render() -> str:
    """The full text of docs/API.md (imports the package, writes nothing)."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(repo / "src"))
    import repro

    lines = [
        "# API reference",
        "",
        "_Generated by `python tools/gen_api_docs.py` — edit prose sections in the generator, not here._",
        "",
        first_paragraph(repro),
        "",
        DEGRADED_MODE_SECTION,
        OBSERVABILITY_SECTION,
        ADMISSION_SECTION,
        REFRESH_AHEAD_SECTION,
        DELIVERY_SECTION,
    ]
    seen = set()
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."),
        key=lambda i: i.name,
    ):
        if info.name in seen or info.name.endswith("__main__"):
            continue
        seen.add(info.name)
        module = importlib.import_module(info.name)
        lines.extend(render_module(module))
    return "\n".join(lines) + "\n"


def main() -> int:
    out = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text(render())
    print(f"wrote {out} ({out.stat().st_size:,} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

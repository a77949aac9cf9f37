#!/usr/bin/env python3
"""Summarise a scraped ``/metrics`` payload as an operator report.

Reads Prometheus text exposition (a file, stdin, or a live scrape with
``--url``) and prints:

* top routes by estimated p95 latency (from the fixed-bucket
  histograms), with request counts and error counts;
* cache hit rates per source (hit / miss / expired / stale-served);
* refresh-ahead activity per source (background revalidations and hits
  served while one was in flight) plus worker-pool occupancy;
* circuit-breaker states and transition counts;
* the admission tier and its lifetime transitions, and admission
  rejections by reason (brownout / shed);
* daemon RPC volume and failures.

Run::

    python tools/obs_report.py metrics.txt
    curl -s localhost:8080/metrics | python tools/obs_report.py
    python tools/obs_report.py --url http://localhost:8080/metrics
"""

from __future__ import annotations

import argparse
import math
import pathlib
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.faults.admission import REJECT_REASONS, TIERS  # noqa: E402
from repro.obs.metrics import (  # noqa: E402
    Sample,
    parse_prometheus_text,
    quantile_from_buckets,
    samples_by_name,
)


def _histogram_series(
    bucket_samples: List[Sample], label: str
) -> Dict[str, Tuple[List[float], List[float]]]:
    """Group ``*_bucket`` samples by one label into (bounds, counts)."""
    grouped: Dict[str, List[Tuple[float, float]]] = {}
    for sample in bucket_samples:
        key = sample.labeldict.get(label, "")
        le = sample.labeldict.get("le", "")
        try:
            bound = math.inf if le == "+Inf" else float(le)
        except ValueError:  # partial scrape: bucket row without a bound
            continue
        grouped.setdefault(key, []).append((bound, sample.value))
    out: Dict[str, Tuple[List[float], List[float]]] = {}
    for key, pairs in grouped.items():
        pairs.sort()
        out[key] = ([b for b, _ in pairs], [c for _, c in pairs])
    return out


def _sum_where(samples: List[Sample], **labels: str) -> float:
    return sum(
        s.value for s in samples
        if all(s.labeldict.get(k) == v for k, v in labels.items())
    )


def route_table(by_name) -> List[dict]:
    """Per-route latency quantiles and volumes, sorted by p95 desc."""
    series = _histogram_series(
        by_name.get("repro_route_latency_seconds_bucket", []), "route"
    )
    requests = by_name.get("repro_route_requests_total", [])
    errors = by_name.get("repro_route_errors_total", [])
    rows = []
    for route, (bounds, counts) in series.items():
        count = counts[-1] if counts else 0
        # a histogram with zero observations has no quantiles — report
        # None (rendered "n/a") instead of a misleading 0.0, so mid-run
        # scrapes of pre-registered-but-unused routes read honestly
        rows.append({
            "route": route,
            "requests": _sum_where(requests, route=route),
            "errors": _sum_where(errors, route=route),
            "p50_ms": (
                quantile_from_buckets(bounds, counts, 0.50) * 1000
                if count else None
            ),
            "p95_ms": (
                quantile_from_buckets(bounds, counts, 0.95) * 1000
                if count else None
            ),
            "observations": count,
        })
    rows.sort(
        key=lambda r: r["p95_ms"] if r["p95_ms"] is not None else -1.0,
        reverse=True,
    )
    return rows


def _fmt(value, width: int, decimals: int = 1) -> str:
    """Right-aligned number, or ``n/a`` when the value is unknown."""
    if value is None:
        return f"{'n/a':>{width}}"
    return f"{value:>{width}.{decimals}f}"


def cache_table(by_name) -> List[dict]:
    """Per-source cache hit rates, sorted by request volume desc.

    The ``result`` label is one-hot (each lookup increments exactly one
    result), so the per-source lookup count is simply the family sum —
    the old ``hits + misses + expired`` arithmetic both overcounted
    (expired lookups also counted as misses) and undercounted (stale
    serves and coalesced followers were invisible).
    """
    samples = by_name.get("repro_cache_requests_total", [])
    waiters = by_name.get("repro_cache_coalesced_waiters_total", [])
    sources = sorted({s.labeldict.get("source", "") for s in samples})
    rows = []
    for source in sources:
        hits = _sum_where(samples, source=source, result="hit")
        lookups = _sum_where(samples, source=source)
        coalesced = _sum_where(samples, source=source, result="coalesced")
        rows.append({
            "source": source,
            "lookups": lookups,
            "hit_rate": hits / lookups if lookups else 0.0,
            "hits": hits,
            "misses": _sum_where(samples, source=source, result="miss"),
            "expired": _sum_where(samples, source=source, result="expired"),
            "stale_served": _sum_where(
                samples, source=source, result="stale_served"
            ),
            "coalesced": coalesced,
            # every coalesced waiter is a backend compute the
            # single-flight path avoided
            "saved_computes": _sum_where(waiters, source=source),
        })
    rows.sort(key=lambda r: r["lookups"], reverse=True)
    return rows


def refresh_table(by_name) -> List[dict]:
    """Per-source refresh-ahead activity, sorted by armed volume desc."""
    armed = by_name.get("repro_cache_refresh_ahead_total", [])
    served = by_name.get("repro_cache_served_while_refreshing_total", [])
    sources = sorted(
        {s.labeldict.get("source", "") for s in armed}
        | {s.labeldict.get("source", "") for s in served}
    )
    rows = []
    for source in sources:
        total = _sum_where(armed, source=source)
        row = {
            "source": source,
            "ok": _sum_where(armed, source=source, result="ok"),
            "error": _sum_where(armed, source=source, result="error"),
            "rejected": _sum_where(armed, source=source, result="rejected"),
            "paused": _sum_where(armed, source=source, result="paused"),
            "served_while_refreshing": _sum_where(served, source=source),
            "total": total,
        }
        if row["total"] or row["served_while_refreshing"]:
            rows.append(row)
    rows.sort(key=lambda r: r["total"], reverse=True)
    return rows


def pool_table(by_name) -> List[dict]:
    """Worker-pool occupancy and lifetime task dispositions."""
    active = by_name.get("repro_worker_pool_active", [])
    depth = by_name.get("repro_worker_pool_queue_depth", [])
    tasks = by_name.get("repro_worker_pool_tasks_total", [])
    pools = sorted(
        {s.labeldict.get("pool", "") for s in active}
        | {s.labeldict.get("pool", "") for s in tasks}
    )
    return [
        {
            "pool": pool,
            "active": _sum_where(active, pool=pool),
            "queued": _sum_where(depth, pool=pool),
            "ok": _sum_where(tasks, pool=pool, result="ok"),
            "error": _sum_where(tasks, pool=pool, result="error"),
            "rejected": _sum_where(tasks, pool=pool, result="rejected"),
        }
        for pool in pools
    ]


def breaker_table(by_name) -> List[dict]:
    """Current one-hot breaker state plus lifetime transition counts."""
    states = by_name.get("repro_breaker_state", [])
    transitions = by_name.get("repro_breaker_transitions_total", [])
    services = sorted({s.labeldict.get("service", "") for s in states})
    rows = []
    for service in services:
        current = next(
            (
                s.labeldict.get("state", "unknown") for s in states
                if s.labeldict.get("service") == service and s.value == 1.0
            ),
            "unknown",
        )
        rows.append({
            "service": service,
            "state": current,
            "opens": _sum_where(transitions, service=service, to="open"),
            "transitions": _sum_where(transitions, service=service),
        })
    return rows


def tier_line(by_name) -> str:
    """Current tier from the ``repro_brownout_tier`` gauge."""
    gauges = by_name.get("repro_brownout_tier", [])
    if not gauges:
        return "(no brownout tier gauge in payload)"
    index = int(gauges[0].value)
    name = TIERS[index] if 0 <= index < len(TIERS) else f"unknown({index})"
    return f"admission tier: {name} (gauge={index})"


def transition_lines(by_name) -> List[str]:
    transitions = by_name.get("repro_brownout_transitions_total", [])
    if not transitions:
        return ["(no tier transitions recorded)"]
    return [
        f"  -> {s.labeldict.get('to', '?'):<10} {s.value:.0f}x"
        for s in sorted(transitions, key=lambda s: s.labeldict.get("to", ""))
    ]


def rejection_table(by_name) -> Dict[str, float]:
    """Admission rejections per reason (every reason, zero if absent)."""
    rejected = by_name.get("repro_admission_rejected_total", [])
    return {
        reason: _sum_where(rejected, reason=reason)
        for reason in REJECT_REASONS
    }


def daemon_table(by_name) -> List[dict]:
    rpcs = by_name.get("repro_daemon_rpcs_total", [])
    failed = by_name.get("repro_daemon_rpcs_failed_total", [])
    daemons = sorted({s.labeldict.get("daemon", "") for s in rpcs})
    return [
        {
            "daemon": daemon,
            "rpcs": _sum_where(rpcs, daemon=daemon),
            "failed": _sum_where(failed, daemon=daemon),
        }
        for daemon in daemons
    ]


def render_report(payload: str, top: int = 10) -> str:
    # lenient: a scrape taken mid-run (or truncated by a dying process)
    # may end in half a line — drop what cannot parse, report the rest
    by_name = samples_by_name(parse_prometheus_text(payload, lenient=True))
    lines: List[str] = []

    lines.append(f"== Top routes by p95 latency (top {top}) ==")
    routes = route_table(by_name)
    if routes:
        lines.append(
            f"{'route':<24} {'reqs':>6} {'errs':>5} {'p50 ms':>8} {'p95 ms':>8}"
        )
        for row in routes[:top]:
            lines.append(
                f"{row['route']:<24} {row['requests']:>6.0f} "
                f"{row['errors']:>5.0f} {_fmt(row['p50_ms'], 8)} "
                f"{_fmt(row['p95_ms'], 8)}"
            )
    else:
        lines.append("(no route histograms in payload)")

    lines.append("")
    lines.append("== Cache hit rate per source ==")
    caches = cache_table(by_name)
    if caches:
        lines.append(
            f"{'source':<16} {'lookups':>8} {'hit rate':>9} "
            f"{'stale served':>13} {'coalesced':>10}"
        )
        for row in caches:
            lines.append(
                f"{row['source']:<16} {row['lookups']:>8.0f} "
                f"{row['hit_rate']:>8.1%} {row['stale_served']:>13.0f} "
                f"{row['coalesced']:>10.0f}"
            )
        saved = sum(r["saved_computes"] for r in caches)
        if saved:
            lines.append(
                f"single-flight coalescing absorbed {saved:.0f} "
                "stampeding lookups (backend computes avoided)"
            )
    else:
        lines.append("(no cache counters in payload)")

    refreshes = refresh_table(by_name)
    if refreshes:
        lines.append("")
        lines.append("== Refresh-ahead (stale-while-revalidate) ==")
        lines.append(
            f"{'source':<16} {'ok':>6} {'error':>6} {'rejected':>9} "
            f"{'paused':>7} {'served-while':>13}"
        )
        for row in refreshes:
            lines.append(
                f"{row['source']:<16} {row['ok']:>6.0f} {row['error']:>6.0f} "
                f"{row['rejected']:>9.0f} {row['paused']:>7.0f} "
                f"{row['served_while_refreshing']:>13.0f}"
            )

    pools = pool_table(by_name)
    if pools:
        lines.append("")
        lines.append("== Worker pools ==")
        for row in pools:
            lines.append(
                f"{row['pool']:<16} active={row['active']:.0f} "
                f"queued={row['queued']:.0f} ok={row['ok']:.0f} "
                f"error={row['error']:.0f} rejected={row['rejected']:.0f}"
            )

    lines.append("")
    lines.append("== Circuit breakers ==")
    breakers = breaker_table(by_name)
    if breakers:
        for row in breakers:
            lines.append(
                f"{row['service']:<16} {row['state']:<10} "
                f"opens={row['opens']:.0f} transitions={row['transitions']:.0f}"
            )
    else:
        lines.append("(no breaker gauges in payload)")

    lines.append("")
    lines.append("== Admission tier ==")
    lines.append(tier_line(by_name))
    lines.extend(transition_lines(by_name))

    lines.append("")
    lines.append("== Rejections by reason ==")
    rejections = rejection_table(by_name)
    for reason in REJECT_REASONS:
        lines.append(f"{reason:<10} {rejections[reason]:>8.0f}")
    lines.append(f"{'total':<10} {sum(rejections.values()):>8.0f}")

    daemons = daemon_table(by_name)
    if daemons:
        lines.append("")
        lines.append("== Daemon RPCs ==")
        for row in daemons:
            lines.append(
                f"{row['daemon']:<16} rpcs={row['rpcs']:.0f} "
                f"failed={row['failed']:.0f}"
            )
    return "\n".join(lines)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "payload", nargs="?", default="-",
        help="file with Prometheus text exposition ('-' for stdin)",
    )
    parser.add_argument(
        "--url", help="scrape this /metrics URL instead of reading a file"
    )
    parser.add_argument(
        "--top", type=int, default=10, help="routes to show (default 10)"
    )
    opts = parser.parse_args(argv)

    if opts.url:
        import urllib.request

        with urllib.request.urlopen(opts.url, timeout=10) as resp:
            text = resp.read().decode()
    elif opts.payload == "-":
        text = sys.stdin.read()
    else:
        text = pathlib.Path(opts.payload).read_text()

    print(render_report(text, top=opts.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Job Performance Metrics app (paper §5, Figure 4a).

Aggregate metrics over a selectable time range: total job count, average
queue wait, mean job duration, total wall time, plus the mean time/CPU/
memory efficiencies.  Ranges span "the last 24 hours to all time", plus a
custom date range.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.auth import Viewer
from repro.sim.clock import duration_hms

from ..efficiency import mean_efficiency
from ..params import ParamError
from ..rendering import card, el
from ..routes import ApiRoute, DashboardContext

#: named ranges the UI offers (label -> seconds back from now; None = all)
TIME_RANGES: Dict[str, Optional[float]] = {
    "24h": 24 * 3600.0,
    "7d": 7 * 86400.0,
    "30d": 30 * 86400.0,
    "90d": 90 * 86400.0,
    "all": None,
}


def resolve_range(
    ctx: DashboardContext, params: Dict[str, Any]
) -> Tuple[Optional[float], Optional[float], str]:
    """Resolve the requested range to (start, end, label).

    ``range`` names one of :data:`TIME_RANGES`; ``start``/``end`` (ISO
    strings) select a custom range, which wins if present.
    """
    now = ctx.now()
    if "start" in params or "end" in params:
        try:
            start, end = (
                ctx.clock.parse_iso(str(params[k])) if k in params else None
                for k in ("start", "end")
            )
        except ValueError:
            raise ParamError(
                "custom range start/end must be ISO timestamps "
                "(YYYY-MM-DDTHH:MM:SS)"
            ) from None
        if start is not None and end is not None and end < start:
            raise ParamError("custom range ends before it starts")
        return start, end, "custom"
    name = str(params.get("range", "7d"))
    if name not in TIME_RANGES:
        raise ParamError(
            f"unknown range {name!r}; expected one of {sorted(TIME_RANGES)}"
        )
    back = TIME_RANGES[name]
    return (None, None, name) if back is None else (now - back, None, name)


def job_performance_data(
    ctx: DashboardContext, viewer: Viewer, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Route handler: the §5 aggregate metric summary."""
    now = ctx.now()
    start, end, label = resolve_range(ctx, params)
    records = ctx.jobs_in_scope(viewer, start=start, end=end)
    # metrics describe the viewer's own jobs; the group view stays in My Jobs
    own = [r for r in records if r.user == viewer.username]

    started = [r for r in own if r.start_time is not None]
    waits = [r.wait_time(now) for r in own]
    durations = [r.elapsed(now) for r in started]
    total_wall = sum(durations)
    metrics = {
        "job_count": len(own),
        "avg_queue_wait": duration_hms(sum(waits) / len(waits)) if waits else "n/a",
        "avg_queue_wait_s": round(sum(waits) / len(waits), 1) if waits else None,
        "mean_duration": (
            duration_hms(total_wall / len(durations)) if durations else "n/a"
        ),
        "mean_duration_s": (
            round(total_wall / len(durations), 1) if durations else None
        ),
        "total_wall_time": duration_hms(total_wall),
        "total_wall_time_s": round(total_wall, 1),
        "total_cpu_hours": round(sum(r.cpu_hours(now) for r in own), 2),
        "total_gpu_hours": round(sum(r.gpu_hours(now) for r in own), 2),
        "mean_time_efficiency": _pct(mean_efficiency(own, now, "time")),
        "mean_cpu_efficiency": _pct(mean_efficiency(own, now, "cpu")),
        "mean_memory_efficiency": _pct(mean_efficiency(own, now, "memory")),
    }
    return {
        "range": label,
        "available_ranges": list(TIME_RANGES),
        "metrics": metrics,
    }


def _pct(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value * 100, 1)


def render_job_performance(data: Dict[str, Any]):
    """Frontend: metric cards + range selector (Figure 4a)."""
    m = data["metrics"]
    selector = el(
        "div",
        *[
            el(
                "button",
                label,
                cls="btn range-option" + (" active" if label == data["range"] else ""),
                data_range=label,
            )
            for label in data["available_ranges"]
        ],
        el("button", "Custom…", cls="btn range-option", data_range="custom"),
        cls="range-selector",
        role="group",
        aria_label="Time range",
    )
    cards = [
        card("Total jobs", str(m["job_count"])),
        card("Average queue wait", m["avg_queue_wait"]),
        card("Mean job duration", m["mean_duration"]),
        card("Total wall time", m["total_wall_time"]),
        card(
            "Efficiency",
            el("div", f"Time: {_fmt_pct(m['mean_time_efficiency'])}"),
            el("div", f"CPU: {_fmt_pct(m['mean_cpu_efficiency'])}"),
            el("div", f"Memory: {_fmt_pct(m['mean_memory_efficiency'])}"),
        ),
        card(
            "Usage",
            el("div", f"CPU hours: {m['total_cpu_hours']:g}"),
            el("div", f"GPU hours: {m['total_gpu_hours']:g}"),
        ),
    ]
    return el(
        "section",
        el("header", el("h3", "Job Performance Metrics"), selector, cls="page-header"),
        el("div", *cards, cls="metric-cards"),
        cls="page page-job-performance",
    )


def _fmt_pct(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:g}%"


ROUTE = ApiRoute(
    name="job_performance",
    path="/api/v1/job_performance",
    feature="Job Performance Metrics",
    data_sources=("sacct (Slurm)",),
    handler=job_performance_data,
    client_max_age_s=300.0,
)

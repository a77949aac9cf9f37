"""My Jobs app (paper §4, Figure 3).

The job-accounting page that replaces Open OnDemand's Active Jobs app:

* a table of **all** the viewer's jobs and their groups' jobs — every
  state, not just queued — with QoS, start/end times, wait time, and
  (toggleable) time/CPU/memory efficiency columns;
* expandable per-job details (requested memory, GPU hours, allocated
  CPUs, session id, nodes);
* friendly explanations next to obscure Slurm reasons ("AssocGrpCpuLimit");
* efficiency warnings for over-requested jobs;
* the two §4.2 charts: job-state distribution and GPU-hour distribution,
  both grouped by user.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.auth import Viewer
from repro.sim.clock import duration_hms
from repro.slurm import reasons as R
from repro.slurm.hostlist import compress_hostlist
from repro.slurm.model import JobState, format_memory

from ..charts import gpu_hour_distribution, job_state_distribution
from ..colors import job_state_color, job_state_label
from ..efficiency import compute_efficiency, efficiency_warnings
from ..params import ParamError, flag_param, number_param
from ..records import JobRecord
from ..rendering import badge, data_table, el, tooltip_span
from ..routes import ApiRoute, DashboardContext


def my_jobs_data(
    ctx: DashboardContext, viewer: Viewer, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Route handler for the job table + charts."""
    now = ctx.now()
    start = number_param(params, "start")
    end = number_param(params, "end")
    state_filter: Optional[str] = params.get("state")
    search: str = str(params.get("search", "")).lower()
    show_efficiency = flag_param(params, "efficiency")
    # experimental (§4.1: "currently underway"): GPU efficiency from the
    # telemetry collector rather than Slurm accounting
    show_gpu_efficiency = flag_param(params, "gpu_efficiency")

    records = ctx.jobs_in_scope(viewer, start=start, end=end)
    if state_filter:
        try:
            wanted = JobState(state_filter)
        except ValueError:
            raise ParamError(f"unknown state filter {state_filter!r}") from None
        records = [r for r in records if r.state is wanted]
    if search:
        records = [
            r
            for r in records
            if search in r.name.lower()
            or search in r.user.lower()
            or search in r.display_id
        ]
    records.sort(key=lambda r: -r.submit_time)

    rows = [
        _job_row(
            ctx,
            r,
            now,
            show_efficiency=show_efficiency,
            show_gpu_efficiency=show_gpu_efficiency,
        )
        for r in records
    ]
    state_chart = job_state_distribution(records)
    gpu_chart = gpu_hour_distribution(records, now)
    return {
        "jobs": rows,
        "total": len(rows),
        "efficiency_enabled": show_efficiency,
        "gpu_efficiency_enabled": show_gpu_efficiency,
        "charts": {
            "state_distribution": state_chart.to_chartjs(),
            "gpu_hours": gpu_chart.to_chartjs(),
        },
    }


def _job_row(
    ctx: DashboardContext,
    rec: JobRecord,
    now: float,
    show_efficiency: bool,
    show_gpu_efficiency: bool = False,
) -> Dict[str, Any]:
    reason_info = R.explain(rec.reason)
    eff = compute_efficiency(rec, now)
    session_id = ""
    if rec.is_interactive:
        # resolve the OOD session id from job provenance (sacct text does
        # not carry it; the paper's backend asks OOD, as we do here)
        internal = ctx.cluster.accounting.get(rec.job_id)
        if internal is None:
            try:
                internal = ctx.cluster.scheduler.job(rec.job_id)
            except KeyError:
                internal = None
        if internal is not None and internal.spec.interactive is not None:
            session_id = internal.spec.interactive.session_id
    warnings = [
        {"kind": w.kind, "used_pct": round(w.used_pct, 1), "message": w.message}
        for w in efficiency_warnings(rec, now, eff)
    ]
    row: Dict[str, Any] = {
        "job_id": rec.display_id,
        "name": rec.name,
        "user": rec.user,
        "account": rec.account,
        "partition": rec.partition,
        "qos": rec.qos,
        "state": rec.state.value,
        "state_label": job_state_label(rec.state),
        "state_color": job_state_color(rec.state),
        "reason": rec.reason,
        "reason_friendly": (
            reason_info.friendly if rec.state is JobState.PENDING else ""
        ),
        "submit_time": ctx.clock.isoformat(rec.submit_time),
        "start_time": (
            ctx.clock.isoformat(rec.start_time) if rec.start_time is not None else ""
        ),
        "end_time": (
            ctx.clock.isoformat(rec.end_time) if rec.end_time is not None else ""
        ),
        "wait_time": duration_hms(rec.wait_time(now)),
        "elapsed": duration_hms(rec.elapsed(now)),
        "warnings": warnings,
        "overview_url": f"/jobs/{rec.job_id}",
        "details": {
            "requested_memory": format_memory(rec.req.mem_mb),
            "allocated_cpus": rec.req.cpus,
            "requested_nodes": rec.req.nodes,
            "gpu_hours": round(rec.gpu_hours(now), 2),
            "nodes": compress_hostlist(rec.nodes) if rec.nodes else "",
            "session_id": session_id,
            "interactive_app": rec.interactive_app or "",
            "exit_code": rec.exit_code,
            "time_limit": duration_hms(rec.time_limit),
        },
    }
    if show_efficiency:
        row["efficiency"] = {
            "time": eff.format("time"),
            "cpu": eff.format("cpu"),
            "memory": eff.format("memory"),
        }
        if show_gpu_efficiency:
            gpu_eff = ctx.cluster.gpu_telemetry.efficiency(rec.job_id)
            row["efficiency"]["gpu"] = (
                "n/a" if gpu_eff is None else f"{gpu_eff * 100:.0f}%"
            )
    return row


def render_my_jobs(data: Dict[str, Any]):
    """Frontend: the Figure 3 table (+ charts are consumed by Chart.js)."""
    headers = [
        "Job ID",
        "Name",
        "User",
        "QoS",
        "State",
        "Submitted",
        "Started",
        "Ended",
        "Wait",
    ]
    if data["efficiency_enabled"]:
        headers += ["Time eff.", "CPU eff.", "Mem eff."]
    rows = []
    row_attrs = []
    for job in data["jobs"]:
        state_cell = el(
            "td",
            badge(job["state_label"], job["state_color"]),
            (
                tooltip_span(job["reason"], job["reason_friendly"])
                if job["reason_friendly"]
                else None
            ),
        )
        cells: List[object] = [
            el("td", el("a", job["job_id"], href=job["overview_url"])),
            job["name"],
            job["user"],
            job["qos"],
            state_cell,
            job["submit_time"],
            job["start_time"],
            job["end_time"],
            job["wait_time"],
        ]
        if data["efficiency_enabled"]:
            eff = job["efficiency"]
            cells += [eff["time"], eff["cpu"], eff["memory"]]
        rows.append(cells)
        row_attrs.append(
            {
                "data-job-id": job["job_id"],
                "class": "job-row"
                + (" has-warnings" if job["warnings"] else ""),
            }
        )
    warning_banners = [
        el(
            "div",
            w["message"],
            cls="alert alert-warning efficiency-warning",
            role="alert",
        )
        for job in data["jobs"]
        for w in job["warnings"]
    ]
    return el(
        "section",
        el(
            "header",
            el("h3", "My Jobs"),
            el(
                "button",
                "Toggle Efficiency Data",
                cls="btn toggle-efficiency"
                + (" active" if data["efficiency_enabled"] else ""),
                aria_pressed="true" if data["efficiency_enabled"] else "false",
            ),
            cls="page-header",
        ),
        *warning_banners[:10],
        data_table(headers, rows, cls="my-jobs-table", row_attrs=row_attrs),
        el("div", cls="chart", id="state-distribution-chart", data_chart="state"),
        el("div", cls="chart", id="gpu-hours-chart", data_chart="gpu"),
        cls="page page-my-jobs",
    )


ROUTE = ApiRoute(
    name="my_jobs",
    path="/api/v1/my_jobs",
    feature="My Jobs",
    data_sources=("sacct (Slurm)",),
    handler=my_jobs_data,
    client_max_age_s=60.0,
)

"""Job Overview page (paper §7, Figure 4d).

Single-job deep dive: a large header with the color-coded state, a
timeline (submitted -> eligible -> started -> ended), then tabs:

* **overview** — Job Information / Resources / Time / Efficiency cards;
* **session** — only for Open OnDemand interactive jobs: app name with a
  relaunch link, session id, working-directory link, connect controls;
* **output / error** — the job's logs, last 1000 lines with line numbers,
  permission-checked against the submitting user, with a files-app link
  to the full file;
* **job array** — only for array members: sibling tasks with states.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.auth import Viewer
from repro.ood import files_app_url
from repro.sim.clock import duration_hms
from repro.slurm import reasons as R
from repro.slurm.model import JobState, format_memory

from ..colors import job_state_color, job_state_label
from ..efficiency import compute_efficiency
from ..params import ParamError, positive_int_param
from ..records import JobRecord
from ..rendering import badge, card, data_table, el, tabs, timeline
from ..routes import ApiRoute, DashboardContext, scatter_sections


def job_overview_data(
    ctx: DashboardContext, viewer: Viewer, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Route handler: everything the Job Overview page shows for one job."""
    job_id = positive_int_param(params, "job_id")
    if job_id is None:
        raise ParamError("missing required parameter 'job_id'")
    rec = ctx.job_record(job_id)

    # privacy: the page itself is visible to the submitter and group
    # members (like My Jobs rows); logs are gated separately below.
    internal = _internal_job(ctx, job_id)
    if internal is not None and not ctx.policy.can_see_job(viewer, internal):
        from repro.auth import PermissionDenied

        raise PermissionDenied(
            f"user {viewer.username!r} may not view job {job_id}"
        )

    now = ctx.now()
    tz_offset = params.get("tz_offset_minutes", 0)
    if (
        isinstance(tz_offset, bool)
        or not isinstance(tz_offset, int)
        or not -24 * 60 <= tz_offset <= 24 * 60
    ):
        raise ParamError(
            "query param 'tz_offset_minutes' must be an integer in "
            f"[-1440, 1440], got {tz_offset!r}"
        )
    # the six sections only depend on the record fetched above
    return scatter_sections(
        ctx,
        (
            ("header", lambda: _header(ctx, rec)),
            ("timeline", lambda: _timeline(ctx, rec, tz_offset)),
            ("overview", lambda: _overview_cards(ctx, rec, now)),
            ("session", lambda: _session_tab(ctx, rec, internal)),
            ("logs", lambda: _log_tabs(ctx, viewer, rec, internal, now)),
            ("array", lambda: _array_tab(ctx, rec)),
        ),
    )


def _internal_job(ctx: DashboardContext, job_id: int):
    try:
        return ctx.cluster.scheduler.job(job_id)
    except KeyError:
        return ctx.cluster.accounting.get(job_id)


def _header(ctx: DashboardContext, rec: JobRecord) -> Dict[str, Any]:
    reason = rec.reason
    return {
        "job_id": rec.display_id,
        "name": rec.name,
        "state": rec.state.value,
        "state_label": job_state_label(rec.state),
        "state_color": job_state_color(rec.state),
        "reason": reason if reason not in ("None", "") else "",
        "reason_friendly": (
            R.explain(reason).friendly
            if rec.state is JobState.PENDING and reason not in ("None", "")
            else ""
        ),
    }


def _timeline(
    ctx: DashboardContext, rec: JobRecord, tz_offset_minutes: int = 0
) -> Dict[str, Any]:
    """§7: submitted, eligible, started, ended markers, "adjusted for the
    user's local timezone" via the viewer-supplied offset."""

    def fmt(t):
        if t is None:
            return None
        if tz_offset_minutes:
            return ctx.clock.isoformat_tz(t, tz_offset_minutes)
        return ctx.clock.isoformat(t)

    events = []
    for label, t in (
        ("Submitted", rec.submit_time),
        ("Eligible", rec.eligible_time),
        ("Started", rec.start_time),
        ("Ended", rec.end_time),
    ):
        events.append(
            {"label": label, "time": fmt(t), "reached": t is not None}
        )
    return {
        "events": events,
        "color": job_state_color(rec.state),
        "tz_offset_minutes": tz_offset_minutes,
    }


def _overview_cards(ctx: DashboardContext, rec: JobRecord, now: float) -> Dict[str, Any]:
    eff = compute_efficiency(rec, now)
    return {
        "job_information": {
            "name": rec.name,
            "user": rec.user,
            "account": rec.account,
            "partition": rec.partition,
            "qos": rec.qos,
            "exit_code": rec.exit_code,
        },
        "resources": {
            "cpus": rec.req.cpus,
            "nodes": rec.req.nodes,
            "memory": format_memory(rec.req.mem_mb),
            "gpus": rec.req.gpus,
            "node_links": [
                {"name": n, "overview_url": f"/nodes/{n}"} for n in rec.nodes
            ],
        },
        "time": {
            "wall_time": duration_hms(rec.elapsed(now)),
            "time_limit": duration_hms(rec.time_limit),
            "time_remaining": (
                duration_hms(max(0.0, rec.time_limit - rec.elapsed(now)))
                if rec.state is JobState.RUNNING
                else None
            ),
            "cpu_time": duration_hms(rec.total_cpu_seconds),
            "queue_wait": duration_hms(rec.wait_time(now)),
        },
        "efficiency": {
            "time": eff.format("time"),
            "cpu": eff.format("cpu"),
            "memory": eff.format("memory"),
        },
    }


def _session_tab(
    ctx: DashboardContext, rec: JobRecord, internal
) -> Optional[Dict[str, Any]]:
    """Session tab data, or None for plain batch jobs (§7)."""
    if internal is None or internal.spec.interactive is None:
        return None
    info = internal.spec.interactive
    session = ctx.sessions.session_for_job(internal)
    connect = ctx.sessions.connect_url(session) if session else None
    app = ctx.apps.get(info.app_name) if info.app_name in ctx.apps else None
    return {
        "app": info.app_name,
        "app_title": app.title if app else info.app_name,
        "relaunch_url": app.form_url if app else "",
        "session_id": info.session_id,
        "working_dir": info.working_dir,
        "working_dir_url": files_app_url(info.working_dir),
        "connect_url": connect,
        "state": ctx.sessions.card_state(session) if session else "Completed",
    }


def _log_tabs(
    ctx: DashboardContext,
    viewer: Viewer,
    rec: JobRecord,
    internal,
    now: float,
) -> Dict[str, Any]:
    """Output/error tabs: tail of each log, or an access notice.

    Log visibility inherits file permissions: only the submitting user
    (§7) — group members can see the page but not the log contents.
    """
    if internal is None:
        return {"available": False, "reason": "log files no longer on disk"}
    if not ctx.policy.can_read_job_logs(viewer, internal):
        return {
            "available": False,
            "reason": f"permission denied: logs belong to {rec.user}",
        }
    out: Dict[str, Any] = {"available": True}
    for stream, path_fn in (("out", ctx.logs.stdout_path), ("err", ctx.logs.stderr_path)):
        lines, first_no, total = ctx.logs.tail(internal, stream, now)
        out[stream] = {
            "path": path_fn(internal),
            "full_file_url": files_app_url(path_fn(internal)),
            "first_line_number": first_no,
            "total_lines": total,
            "truncated": total > len(lines),
            "lines": lines,
        }
    return out


def _array_tab(ctx: DashboardContext, rec: JobRecord) -> Optional[Dict[str, Any]]:
    """Array tab: sibling tasks; None when the job is not part of an array."""
    if not rec.is_array_task:
        return None
    now = ctx.now()
    tasks = []
    siblings = ctx.cluster.accounting.jobs_of_array(rec.array_job_id)
    seen = {j.job_id for j in siblings}
    for job in ctx.cluster.scheduler.visible_jobs():
        if job.array_job_id == rec.array_job_id and job.job_id not in seen:
            siblings.append(job)
    siblings.sort(key=lambda j: j.array_task_id or 0)
    for job in siblings:
        tasks.append(
            {
                "job_id": job.display_id,
                "task_id": job.array_task_id,
                "state": job.state.value,
                "state_color": job_state_color(job.state),
                "submit_time": ctx.clock.isoformat(job.submit_time),
                "end_time": (
                    ctx.clock.isoformat(job.end_time)
                    if job.end_time is not None
                    else ""
                ),
                "nodes": ",".join(job.nodes),
                "elapsed": duration_hms(job.elapsed(now)),
                "overview_url": f"/jobs/{job.job_id}",
            }
        )
    return {"array_job_id": rec.array_job_id, "tasks": tasks}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_job_overview(data: Dict[str, Any]):
    """Frontend: header + timeline + tab panes (Figure 4d)."""
    header = data["header"]
    head = el(
        "header",
        el("h2", f"Job {header['job_id']}: {header['name']}", cls="job-title"),
        badge(header["state_label"], header["state_color"]),
        (
            el("span", f"({header['reason']})", title=header["reason_friendly"],
               cls="job-reason")
            if header["reason"]
            else None
        ),
        cls="page-header job-header",
    )
    tl = timeline(
        [
            (ev["label"], ev["time"] or "—", ev["reached"])
            for ev in data["timeline"]["events"]
        ],
        data["timeline"]["color"],
    )
    panes = [("Overview", _render_overview_cards(data["overview"]))]
    if data["session"] is not None:
        panes.append(("Session", _render_session(data["session"])))
    logs = data["logs"]
    if logs["available"]:
        panes.append(("Output", _render_log(logs["out"])))
        panes.append(("Error", _render_log(logs["err"])))
    else:
        panes.append(("Output", el("div", logs["reason"], cls="log-unavailable")))
    if data["array"] is not None:
        panes.append(("Job array", _render_array(data["array"])))
    return el(
        "section",
        head,
        tl,
        tabs(panes),
        cls="page page-job-overview",
    )


def _render_overview_cards(ov: Dict[str, Any]):
    info = ov["job_information"]
    res = ov["resources"]
    tm = ov["time"]
    eff = ov["efficiency"]
    node_links = [
        el("a", n["name"], href=n["overview_url"], cls="node-link")
        for n in res["node_links"]
    ]
    return el(
        "div",
        card(
            "Job Information",
            el("div", f"Name: {info['name']}"),
            el("div", f"User: {info['user']}"),
            el("div", f"Allocation: {info['account']}"),
            el("div", f"Partition: {info['partition']}"),
            el("div", f"QoS: {info['qos']}"),
        ),
        card(
            "Resources",
            el("div", f"CPUs: {res['cpus']}"),
            el("div", f"Nodes: {res['nodes']}"),
            el("div", f"Memory: {res['memory']}"),
            el("div", f"GPUs: {res['gpus']}") if res["gpus"] else None,
            el("div", "Allocated nodes: ", *node_links) if node_links else None,
        ),
        card(
            "Time",
            el("div", f"Wall time: {tm['wall_time']}"),
            el("div", f"Time limit: {tm['time_limit']}"),
            (
                el("div", f"Time remaining: {tm['time_remaining']}")
                if tm["time_remaining"]
                else None
            ),
            el("div", f"CPU time: {tm['cpu_time']}"),
        ),
        card(
            "Efficiency",
            el("div", f"CPU efficiency: {eff['cpu']}"),
            el("div", f"Memory efficiency: {eff['memory']}"),
            el("div", f"Time efficiency: {eff['time']}"),
        ),
        cls="card-row overview-cards",
    )


def _render_session(sess: Dict[str, Any]):
    body = [
        el("div", "App: ", el("a", sess["app_title"], href=sess["relaunch_url"])),
        el("div", f"Session ID: {sess['session_id']}"),
        el(
            "div",
            "Working directory: ",
            el("a", sess["working_dir"], href=sess["working_dir_url"]),
        ),
        el("div", f"State: {sess['state']}"),
    ]
    if sess["connect_url"]:
        body.append(
            el("a", "Connect", href=sess["connect_url"], cls="btn btn-connect")
        )
    return el("div", *body, cls="session-tab")


def _render_log(log: Dict[str, Any]):
    gutter_start = log["first_line_number"]
    lines = [
        el(
            "div",
            el("span", str(gutter_start + i), cls="line-number"),
            el("span", line, cls="line-text"),
            cls="log-line",
        )
        for i, line in enumerate(log["lines"])
    ]
    notice = None
    if log["truncated"]:
        notice = el(
            "div",
            f"Showing the most recent {len(log['lines'])} of "
            f"{log['total_lines']} lines.",
            cls="log-truncation-notice",
        )
    return el(
        "div",
        el("a", "Open full file", href=log["full_file_url"], cls="full-file-link"),
        notice,
        el(
            "div",
            *lines,
            cls="log-view",
            role="log",
            data_autoscroll="bottom",
            tabindex="0",
        ),
        cls="log-tab",
    )


def _render_array(arr: Dict[str, Any]):
    return data_table(
        ["Task", "State", "Submitted", "Ended", "Nodes", "Elapsed"],
        [
            [
                el("td", el("a", t["job_id"], href=t["overview_url"])),
                el("td", el("span", t["state"], cls=f"text-{t['state_color']}")),
                t["submit_time"],
                t["end_time"],
                t["nodes"],
                t["elapsed"],
            ]
            for t in arr["tasks"]
        ],
        cls="array-table",
    )


ROUTE = ApiRoute(
    name="job_overview",
    path="/api/v1/job_overview",
    feature="Job Overview",
    data_sources=("scontrol show job (Slurm)",),
    handler=job_overview_data,
    client_max_age_s=15.0,
)

"""Node Overview page (paper §6.1, Figure 4c).

A full look at one node: a status card (state + last-active timestamp)
and a resource-usage card (CPU / GPU / memory with bars) on top, and two
tabs below — node configuration details straight from ``scontrol show
node``, and the jobs currently running on the node.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.auth import Viewer
from repro.sim.clock import duration_hms
from repro.slurm.model import NodeState, format_memory

from ..colors import node_state_color, utilization_color
from ..params import ParamError
from ..records import NodeRecord
from ..rendering import card, data_table, el, progress_bar, tabs
from ..routes import ApiRoute, DashboardContext, scatter_sections

#: scontrol fields surfaced in the details tab, in display order
DETAIL_FIELDS = (
    ("NodeName", "Node name"),
    ("Arch", "Architecture"),
    ("CoresPerSocket", "Cores per socket"),
    ("Sockets", "Sockets"),
    ("CPUTot", "Total CPUs"),
    ("RealMemory", "Real memory (MB)"),
    ("Gres", "Generic resources"),
    ("AvailableFeatures", "Available features"),
    ("OS", "Operating system"),
    ("Version", "Slurmd version"),
    ("BootTime", "Boot time"),
    ("Partitions", "Partitions"),
)


def node_overview_data(
    ctx: DashboardContext, viewer: Viewer, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Route handler: cards + tabs for one node (``params['node']``)."""
    name = params.get("node")
    if not name:
        raise ParamError("missing required parameter 'node'")
    rec = ctx.node_record(str(name))
    now = ctx.now()
    # the four blocks derive independently from the record fetched above
    data = scatter_sections(
        ctx,
        (
            ("status", lambda: _status_card(ctx, rec)),
            ("usage", lambda: _usage_card(rec)),
            ("details", lambda: _details(rec)),
            ("running_jobs", lambda: _running_jobs(ctx, rec, now)),
        ),
    )
    return {"node": rec.name, **data}


def _status_card(ctx: DashboardContext, rec: NodeRecord) -> Dict[str, Any]:
    state = NodeState(rec.state)
    return {
        "state": rec.state,
        "state_color": node_state_color(state),
        "online": state.is_online,
        "reason": rec.reason,
        "last_active": (
            ctx.clock.isoformat(rec.last_busy) if rec.last_busy is not None else "n/a"
        ),
    }


def _usage_card(rec: NodeRecord) -> Dict[str, Any]:
    return {
        "cpu": {
            "used": rec.cpus_alloc,
            "total": rec.cpus_total,
            "fraction": round(rec.cpu_fraction, 4),
            "color": utilization_color(rec.cpu_fraction),
            "load": rec.cpu_load,
        },
        "memory": {
            "used_mb": rec.memory_alloc_mb,
            "total_mb": rec.memory_total_mb,
            "display": f"{format_memory(rec.memory_alloc_mb)} / "
            f"{format_memory(rec.memory_total_mb)}",
            "fraction": round(rec.memory_fraction, 4),
            "color": utilization_color(rec.memory_fraction),
        },
        "gpu": (
            {
                "used": rec.gpus_alloc,
                "total": rec.gpus_total,
                "model": rec.gres_model,
                "fraction": round(rec.gpu_fraction, 4),
                "color": utilization_color(rec.gpu_fraction),
            }
            if rec.gpu_fraction is not None
            else None
        ),
    }


def _details(rec: NodeRecord) -> List[Dict[str, Any]]:
    return [
        {"field": label, "value": rec.raw.get(key, "")}
        for key, label in DETAIL_FIELDS
        if rec.raw.get(key) not in (None, "", "(null)")
    ]


def _running_jobs(
    ctx: DashboardContext, rec: NodeRecord, now: float
) -> List[Dict[str, Any]]:
    running = []
    for job in ctx.cluster.scheduler.jobs_on_node(rec.name):
        running.append(
            {
                "job_id": job.display_id,
                "name": job.name,
                "user": job.user,
                "partition": job.partition,
                "state": job.state.value,
                "allocated_memory": format_memory(
                    job.req.mem_mb // max(1, job.req.nodes)
                ),
                "allocated_cpus": -(-job.req.cpus // max(1, job.req.nodes)),
                "elapsed": duration_hms(job.elapsed(now)),
                "overview_url": f"/jobs/{job.job_id}",
            }
        )
    return running


def render_node_overview(data: Dict[str, Any]):
    """Frontend: two cards on top, two tabs below (Figure 4c)."""
    status = data["status"]
    usage = data["usage"]
    status_body = [
        el(
            "div",
            el("span", status["state"], cls=f"node-state text-{status['state_color']}"),
        ),
        el("div", f"Last active: {status['last_active']}"),
    ]
    if status["reason"]:
        status_body.append(el("div", f"Reason: {status['reason']}", cls="text-muted"))
    usage_body: List[object] = [
        el("div", f"CPUs: {usage['cpu']['used']}/{usage['cpu']['total']} "
                  f"(load {usage['cpu']['load']:g})"),
        progress_bar(usage["cpu"]["fraction"], label="CPU usage"),
        el("div", f"Memory: {usage['memory']['display']}"),
        progress_bar(usage["memory"]["fraction"], label="Memory usage"),
    ]
    if usage["gpu"] is not None:
        usage_body.append(
            el(
                "div",
                f"GPUs ({usage['gpu']['model']}): "
                f"{usage['gpu']['used']}/{usage['gpu']['total']}",
            )
        )
        usage_body.append(progress_bar(usage["gpu"]["fraction"], label="GPU usage"))

    details_tab = data_table(
        ["Field", "Value"],
        [[d["field"], d["value"]] for d in data["details"]],
        cls="node-details",
        sortable=False,
    )
    jobs_tab = data_table(
        ["Job", "Name", "User", "Partition", "State", "CPUs", "Memory", "Elapsed"],
        [
            [
                el("td", el("a", j["job_id"], href=j["overview_url"])),
                j["name"],
                j["user"],
                j["partition"],
                j["state"],
                str(j["allocated_cpus"]),
                j["allocated_memory"],
                j["elapsed"],
            ]
            for j in data["running_jobs"]
        ],
        cls="node-running-jobs",
    )
    return el(
        "section",
        el("header", el("h3", f"Node {data['node']}"), cls="page-header"),
        el(
            "div",
            card("Status", *status_body, cls="status-card"),
            card("Resource usage", *usage_body, cls="usage-card"),
            cls="card-row",
        ),
        tabs([("Node details", details_tab), ("Running jobs", jobs_tab)]),
        cls="page page-node-overview",
    )


ROUTE = ApiRoute(
    name="node_overview",
    path="/api/v1/node_overview",
    feature="Node Overview",
    data_sources=("scontrol show node (Slurm)",),
    handler=node_overview_data,
    client_max_age_s=30.0,
)

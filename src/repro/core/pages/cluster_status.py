"""Cluster Status app (paper §6, Figure 4b).

An interactive view of every node on the cluster, replacing manual
``scontrol show node`` runs.  Two modes:

* **grid view** — one color-coded square per node (green in-use, faded
  green idle, yellow drained, orange maintenance, red down), hover for
  CPU/memory usage and partitions, click through to Node Overview;
* **list view** — a sortable, searchable table of name, state,
  partitions, CPU load, memory load.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.auth import Viewer
from repro.slurm.model import NodeState

from ..colors import node_state_color
from ..params import ParamError, flag_param
from ..records import NodeRecord
from ..rendering import data_table, el, node_grid_cell
from ..routes import ApiRoute, DashboardContext

#: list-view columns that may be sorted, mapping to row keys
SORTABLE_COLUMNS = {
    "name": "name",
    "state": "state",
    "cpu_load": "cpu_fraction",
    "memory_load": "memory_fraction",
}


def cluster_status_data(
    ctx: DashboardContext, viewer: Viewer, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Route handler: per-node cells/rows for both view modes."""
    search = str(params.get("search", "")).lower()
    sort_by = str(params.get("sort", "name"))
    descending = flag_param(params, "desc")
    if sort_by not in SORTABLE_COLUMNS:
        raise ParamError(
            f"cannot sort by {sort_by!r}; expected one of {sorted(SORTABLE_COLUMNS)}"
        )

    nodes = ctx.node_records()
    cells = [_node_cell(rec) for rec in nodes]
    if search:
        cells = [
            c
            for c in cells
            if search in c["name"].lower()
            or search in c["state"].lower()
            or any(search in p.lower() for p in c["partitions"])
        ]
    key = SORTABLE_COLUMNS[sort_by]
    cells.sort(key=lambda c: c[key], reverse=descending)

    state_counts: Dict[str, int] = {}
    for rec in nodes:
        state_counts[rec.state] = state_counts.get(rec.state, 0) + 1
    return {
        "nodes": cells,
        "total": len(nodes),
        "shown": len(cells),
        "state_counts": state_counts,
        "modes": ["grid", "list"],
    }


def _node_cell(rec: NodeRecord) -> Dict[str, Any]:
    state = NodeState(rec.state)
    tooltip = (
        f"{rec.name}: {rec.cpus_alloc}/{rec.cpus_total} CPUs, "
        f"{rec.memory_alloc_mb}/{rec.memory_total_mb} MB"
    )
    if rec.gpus_total:
        tooltip += f", {rec.gpus_alloc}/{rec.gpus_total} GPUs"
    tooltip += f" — partitions: {', '.join(rec.partitions)}"
    return {
        "name": rec.name,
        "state": rec.state,
        "color": node_state_color(state),
        "cpu_fraction": round(rec.cpu_fraction, 4),
        "memory_fraction": round(rec.memory_fraction, 4),
        "cpu_load": rec.cpu_load,
        "cpus": f"{rec.cpus_alloc}/{rec.cpus_total}",
        "memory": f"{rec.memory_alloc_mb}/{rec.memory_total_mb} MB",
        "gpus": f"{rec.gpus_alloc}/{rec.gpus_total}" if rec.gpus_total else "",
        "partitions": rec.partitions,
        "tooltip": tooltip,
        "overview_url": f"/nodes/{rec.name}",
    }


def render_cluster_status_grid(data: Dict[str, Any]):
    """Frontend grid view: color-coded node cells (§6)."""
    cells = [
        node_grid_cell(n["name"], n["color"], n["tooltip"], n["overview_url"])
        for n in data["nodes"]
    ]
    legend = el(
        "div",
        *[
            el("span", f"{state}: {count}", cls="legend-item")
            for state, count in sorted(data["state_counts"].items())
        ],
        cls="grid-legend",
    )
    return el(
        "section",
        el("header", el("h3", "Cluster Status"), _mode_switch("grid"), cls="page-header"),
        legend,
        el("div", *cells, cls="node-grid", role="grid"),
        cls="page page-cluster-status",
    )


def render_cluster_status_list(data: Dict[str, Any]):
    """Frontend list view: sortable/searchable table (§6)."""
    headers = ["Node", "State", "Partitions", "CPU load", "Memory load"]
    rows = []
    for n in data["nodes"]:
        rows.append(
            [
                el("td", el("a", n["name"], href=n["overview_url"])),
                el("td", el("span", n["state"], cls=f"text-{n['color']}")),
                ", ".join(n["partitions"]),
                f"{n['cpu_fraction'] * 100:.0f}% ({n['cpus']} CPUs)",
                f"{n['memory_fraction'] * 100:.0f}%",
            ]
        )
    search_bar = el(
        "input",
        type="search",
        placeholder="Filter nodes by name, state, or partition",
        cls="node-search",
        aria_label="Filter nodes",
    )
    return el(
        "section",
        el("header", el("h3", "Cluster Status"), _mode_switch("list"), cls="page-header"),
        search_bar,
        data_table(headers, rows, cls="node-list"),
        cls="page page-cluster-status",
    )


def _mode_switch(active: str):
    return el(
        "div",
        el("button", "Grid", cls="btn" + (" active" if active == "grid" else "")),
        el("button", "List", cls="btn" + (" active" if active == "list" else "")),
        cls="mode-switch",
        role="group",
        aria_label="View mode",
    )


ROUTE = ApiRoute(
    name="cluster_status",
    path="/api/v1/cluster_status",
    feature="Cluster Status",
    data_sources=("scontrol show node (Slurm)",),
    handler=cluster_status_data,
    client_max_age_s=60.0,
)

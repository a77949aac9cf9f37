"""Account-usage export (paper §3.4).

"there is a dropdown for each account to allow users to export the
breakdown of account usage by user into an Excel or CSV file" — used by
group managers to spot members using more than their share.

CSV is plain RFC-4180-ish; the "Excel" flavour is SpreadsheetML 2003 XML,
which Excel opens natively and which we can emit without dependencies.
Both are manager-gated by :class:`~repro.auth.PermissionPolicy`.
"""

from __future__ import annotations

import csv
import io
from typing import List
from xml.sax.saxutils import escape as xml_escape

from repro.auth import Viewer
from repro.slurm.accounting import UsageRollup

from .params import ParamError
from .routes import ApiRoute, DashboardContext

CSV_HEADERS = [
    "account",
    "user",
    "job_count",
    "cpu_hours",
    "gpu_hours",
    "wall_hours",
]


def usage_rows(ctx: DashboardContext, viewer: Viewer, account: str) -> List[UsageRollup]:
    """Manager-gated per-user usage breakdown for one account.

    The rollup read goes through the context's resilient fetch path
    (:meth:`~repro.core.routes.DashboardContext.account_usage`), so an
    export shares the cache, retries, breaker and serve-stale of every
    other route instead of silently bypassing them.
    """
    ctx.policy.require_export_access(viewer, account)
    return ctx.account_usage(account)


def export_csv(ctx: DashboardContext, viewer: Viewer, account: str) -> str:
    """CSV rendition of the §3.4 breakdown."""
    rows = usage_rows(ctx, viewer, account)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADERS)
    for r in rows:
        writer.writerow(
            [
                r.account,
                r.user,
                r.job_count,
                f"{r.cpu_hours:.2f}",
                f"{r.gpu_hours:.2f}",
                f"{r.wall_hours:.2f}",
            ]
        )
    return buf.getvalue()


def export_excel_xml(ctx: DashboardContext, viewer: Viewer, account: str) -> str:
    """SpreadsheetML 2003 rendition (opens directly in Excel)."""
    rows = usage_rows(ctx, viewer, account)
    cells_header = "".join(
        f'<Cell><Data ss:Type="String">{xml_escape(h)}</Data></Cell>'
        for h in CSV_HEADERS
    )
    body_rows = []
    for r in rows:
        body_rows.append(
            "<Row>"
            f'<Cell><Data ss:Type="String">{xml_escape(r.account)}</Data></Cell>'
            f'<Cell><Data ss:Type="String">{xml_escape(r.user)}</Data></Cell>'
            f'<Cell><Data ss:Type="Number">{r.job_count}</Data></Cell>'
            f'<Cell><Data ss:Type="Number">{r.cpu_hours:.2f}</Data></Cell>'
            f'<Cell><Data ss:Type="Number">{r.gpu_hours:.2f}</Data></Cell>'
            f'<Cell><Data ss:Type="Number">{r.wall_hours:.2f}</Data></Cell>'
            "</Row>"
        )
    return (
        '<?xml version="1.0"?>\n'
        '<Workbook xmlns="urn:schemas-microsoft-com:office:spreadsheet" '
        'xmlns:ss="urn:schemas-microsoft-com:office:spreadsheet">'
        f'<Worksheet ss:Name="{xml_escape(account)} usage"><Table>'
        f"<Row>{cells_header}</Row>"
        + "".join(body_rows)
        + "</Table></Worksheet></Workbook>"
    )


def export_route_handler(ctx: DashboardContext, viewer: Viewer, params: dict) -> dict:
    """Route handler: export payload as JSON-wrapped text."""
    account = params.get("account")
    if not account:
        raise ParamError("missing required parameter 'account'")
    fmt = str(params.get("format", "csv"))
    if fmt == "csv":
        content, mime = export_csv(ctx, viewer, str(account)), "text/csv"
    elif fmt in ("xls", "xlsx", "excel"):
        content, mime = (
            export_excel_xml(ctx, viewer, str(account)),
            "application/vnd.ms-excel",
        )
    else:
        raise ParamError(f"unknown export format {fmt!r}")
    return {
        "account": account,
        "format": fmt,
        "mime_type": mime,
        "filename": f"{account}_usage.{ 'csv' if fmt == 'csv' else 'xls' }",
        "content": content,
    }


ROUTE = ApiRoute(
    name="account_usage_export",
    path="/api/v1/export/account_usage",
    feature="Accounts widget (export)",
    data_sources=("sacct (Slurm)",),
    handler=export_route_handler,
    client_max_age_s=0.001,  # exports are never client-cached
)

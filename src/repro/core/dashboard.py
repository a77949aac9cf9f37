"""The Dashboard facade: wiring the whole paper's system together.

:class:`Dashboard` builds the context (cluster + directory + storage +
news behind the server cache) and registers every component route —
five widgets, five apps/pages, and the export endpoint — reproducing the
full Figure 1 architecture in one object.  :func:`build_demo_dashboard`
stands up a populated instance in one call for examples, tests and
benchmarks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.auth import Directory, Viewer
from repro.faults import AdmissionConfig, BreakerConfig, FaultPlan, RetryPolicy
from repro.news.api import NewsAPI, seed_news
from repro.slurm.cluster import SlurmCluster
from repro.slurm.workload import WorkloadConfig, populated_cluster
from repro.storage.quota import (
    QuotaDatabase,
    provision_standard_layout,
    randomize_usage,
)

from .caching import CachePolicy
from .export import ROUTE as EXPORT_ROUTE
from .pages import ALL_PAGE_ROUTES
from .pages.homepage import (
    HomepageRender,
    render_homepage,
    render_homepage_shell,
    stream_homepage,
)
from .routes import DashboardContext, RouteRegistry, RouteResponse
from .widgets import ALL_WIDGET_ROUTES


class Dashboard:
    """A fully wired dashboard instance over one cluster."""

    def __init__(
        self,
        cluster: SlurmCluster,
        directory: Directory,
        quotas: Optional[QuotaDatabase] = None,
        news: Optional[NewsAPI] = None,
        cache_policy: Optional[CachePolicy] = None,
        use_server_cache: bool = True,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
        admission: Optional[AdmissionConfig] = None,
    ):
        if quotas is None:
            quotas = QuotaDatabase()
            provision_standard_layout(
                quotas,
                [u.username for u in directory.users()],
                [a.name for a in directory.accounts()],
                cluster_name=cluster.name,
            )
            randomize_usage(quotas, seed=0)
        if news is None:
            news = NewsAPI(cluster.clock)
            seed_news(news, cluster=cluster.name)
        self.ctx = DashboardContext(
            cluster=cluster,
            directory=directory,
            quotas=quotas,
            news=news,
            cache_policy=cache_policy,
            use_server_cache=use_server_cache,
            retry=retry,
            breaker=breaker,
            admission=admission,
        )
        self.registry = RouteRegistry()
        for route in (*ALL_WIDGET_ROUTES, *ALL_PAGE_ROUTES, EXPORT_ROUTE):
            self.registry.register(route)

    # -- request API ---------------------------------------------------------

    def call(
        self,
        name: str,
        viewer: Viewer,
        params: Optional[Dict[str, Any]] = None,
    ) -> RouteResponse:
        """Invoke one component route (with failure isolation)."""
        return self.registry.call(self.ctx, name, viewer, params)

    def get(
        self,
        path: str,
        viewer: Viewer,
        params: Optional[Dict[str, Any]] = None,
    ) -> RouteResponse:
        """Invoke by URL path (what the HTTP layer does)."""
        route = self.registry.by_path(path)
        if route is None:
            return RouteResponse(ok=False, error=f"no route at {path!r}", status=404)
        return self.registry.call(self.ctx, route.name, viewer, params)

    # -- page rendering ---------------------------------------------------------

    def render_homepage(self, viewer: Viewer) -> HomepageRender:
        """Fetch every widget and render the full homepage (Figure 2),
        one widget route after another on the calling thread."""
        return render_homepage(self.ctx, self.registry, viewer)

    def stream_homepage(self, viewer: Viewer):
        """Stream the homepage in document-order chunks: the static shell
        first, then each widget slot as soon as it is rendered.  The
        concatenated chunks match :meth:`render_homepage`'s document (the
        HTTP layer serves this under chunked transfer encoding)."""
        return stream_homepage(self.ctx, self.registry, viewer)

    def render_homepage_shell(self, viewer: Viewer) -> str:
        """Render the instant shell with loading placeholders (§2.3)."""
        return render_homepage_shell(viewer.username).render()

    # -- fault injection -------------------------------------------------------

    def inject_faults(self, plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
        """Install a chaos schedule on the cluster's daemons (``None``
        removes it).  Returns the plan for chaining."""
        self.ctx.cluster.daemons.install_faults(plan)
        return plan

    # -- introspection -------------------------------------------------------

    def healthz_payload(self) -> Dict[str, Any]:
        """The ``/healthz`` body: breaker states per backend (for
        operators watching a degraded cluster recover; the same call
        mirrors the states into the /metrics gauge) and the admission
        tier + signals — stays live even while the dashboard is
        shedding load."""
        return {
            "ok": True,
            "service": "repro-dashboard",
            "breakers": self.ctx.breaker_report(),
            "admission": self.ctx.admission_report(),
        }

    def feature_table(self) -> List[Dict[str, str]]:
        """Regenerate the paper's Table 1 from the registered routes."""
        rows = []
        for route in self.registry.all_routes():
            if route.name in (
                "homepage",
                "account_usage_export",
                "admin_overview",
                "news_page",
                "my_sessions",
            ):
                continue  # Table 1 lists exactly the paper's ten features
            rows.append(
                {
                    "feature": route.feature,
                    "data_sources": ", ".join(route.data_sources),
                }
            )
        return rows

    @property
    def clock(self):
        return self.ctx.clock


def build_demo_dashboard(
    seed: int = 2025,
    duration_hours: float = 6.0,
    workload: Optional[WorkloadConfig] = None,
    cache_policy: Optional[CachePolicy] = None,
    use_server_cache: bool = True,
    admission: Optional[AdmissionConfig] = None,
):
    """One-call demo instance: populated cluster + directory + dashboard.

    Returns ``(dashboard, directory, workload_result)``.
    """
    cluster, directory, result = populated_cluster(
        seed=seed,
        duration_hours=duration_hours,
        config=workload or WorkloadConfig(seed=seed),
    )
    dash = Dashboard(
        cluster,
        directory,
        cache_policy=cache_policy,
        use_server_cache=use_server_cache,
        admission=admission,
    )
    return dash, directory, result

"""The federated dashboard facade.

:class:`FederatedDashboard` duck-types :class:`~repro.core.dashboard.Dashboard`
for the HTTP layer — same ``ctx``/``get``/``call``/``stream_homepage``/
``healthz_payload`` surface — so :class:`~repro.web.server.DashboardServer`
serves a federation with zero server changes.  Routing rules:

* Federated paths (``/api/v1/federation/*`` and ``/``) fan out across
  every member with per-cluster failure isolation and the quorum
  semantics of :mod:`repro.federation.pages`.
* Any other API path routes to one member: the ``?cluster=<name>``
  query parameter selects it (structured 404 for an unknown name), and
  a plain path without a selector goes to the *default* member (the
  first one registered) — so a federation of one behaves like the
  single-cluster dashboard.
* Member responses come back with their validators *namespaced*
  (``anvil/squeue:alice``) and their ETags re-derived with the cluster
  name mixed in, so the server's validator index can never confuse two
  members' entries.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterator, List, Optional

from repro.auth import Viewer
from repro.core.routes import RouteResponse
from repro.faults import Deadline, FaultPlan

from .context import FederatedContext
from .metrics import namespace_key
from .pages import (
    FEDERATED_HANDLERS,
    FEDERATION_PREFIX,
    FederatedHomepageRender,
    render_federated_homepage,
    stream_federated_homepage,
)
from .registry import ClusterRegistry


def _namespaced_etag(cluster: str, etag: str) -> str:
    """A member ETag re-derived under its cluster namespace — two
    members producing byte-identical responses still get distinct
    federated validators."""
    h = hashlib.blake2b(digest_size=16)
    h.update(cluster.encode())
    h.update(b"|")
    h.update(etag.encode())
    return h.hexdigest()


def namespace_response(cluster: str, response: RouteResponse) -> RouteResponse:
    """Rewrite a member response's validator onto the federated keyspace
    (body untouched)."""
    if response.cache_deps:
        response.cache_deps = tuple(
            (namespace_key(cluster, key), gen) for key, gen in response.cache_deps
        )
    if response.etag:
        response.etag = _namespaced_etag(cluster, response.etag)
    return response


class FederatedDashboard:
    """N member dashboards behind one serving surface."""

    def __init__(
        self,
        registry: ClusterRegistry,
        worker_pool_size: int = 8,
        worker_queue_max: int = 64,
    ):
        self.registry = registry
        self.ctx = FederatedContext(
            registry,
            worker_pool_size=worker_pool_size,
            worker_queue_max=worker_queue_max,
        )

    # -- request API ---------------------------------------------------------

    def call(
        self,
        name: str,
        viewer: Viewer,
        params: Optional[Dict[str, Any]] = None,
        deadline: Optional[Deadline] = None,
    ) -> RouteResponse:
        """Invoke a route by name: federated rollups by their own names,
        member routes by the usual names (``cluster`` param selects the
        member; default member otherwise)."""
        params = dict(params or {})
        handler = FEDERATED_HANDLERS.get(name)
        if handler is not None:
            params.pop("cluster", None)
            return handler(self.ctx, viewer, params, deadline=deadline)
        member, error = self._select_member(params)
        if error is not None:
            self.ctx.obs.record_route(name, error.status, 0.0, ok=False)
            return error
        response = member.dashboard.call(name, viewer, params, deadline=deadline)
        return namespace_response(member.name, response)

    def get(
        self,
        path: str,
        viewer: Viewer,
        params: Optional[Dict[str, Any]] = None,
        deadline: Optional[Deadline] = None,
    ) -> RouteResponse:
        """Invoke by URL path (what the HTTP layer does)."""
        params = dict(params or {})
        if path.startswith(FEDERATION_PREFIX):
            name = "federation_" + path[len(FEDERATION_PREFIX):].strip("/")
            handler = FEDERATED_HANDLERS.get(name)
            if handler is None:
                return RouteResponse(
                    ok=False, error=f"no route at {path!r}", status=404
                )
            params.pop("cluster", None)
            return handler(self.ctx, viewer, params, deadline=deadline)
        member, error = self._select_member(params)
        if error is not None:
            self.ctx.obs.record_route(path, error.status, 0.0, ok=False)
            return error
        response = member.dashboard.get(path, viewer, params, deadline=deadline)
        return namespace_response(member.name, response)

    def _select_member(self, params: Dict[str, Any]):
        """Resolve the ``cluster`` selector out of the query params."""
        selector = params.pop("cluster", None)
        if selector is None:
            return self.registry.default, None
        member = self.registry.get(str(selector))
        if member is None:
            return None, RouteResponse(
                ok=False,
                error=(
                    f"unknown cluster {selector!r}; "
                    f"federation members: {', '.join(self.registry.names)}"
                ),
                status=404,
            )
        return member, None

    # -- page rendering ------------------------------------------------------

    def render_homepage(self, viewer: Viewer) -> FederatedHomepageRender:
        """Batch-render the federated homepage (one column per member)."""
        return render_federated_homepage(self.ctx, viewer)

    def stream_homepage(self, viewer: Viewer) -> Iterator[str]:
        """Stream the federated homepage: shell first, one column per
        member cluster as each fan-out worker completes."""
        return stream_federated_homepage(self.ctx, viewer)

    # -- fault injection ------------------------------------------------------

    def inject_faults(
        self, cluster: str, plan: Optional[FaultPlan]
    ) -> Optional[FaultPlan]:
        """Install a chaos schedule on one member (``None`` removes it)."""
        return self.registry.inject_faults(cluster, plan)

    # -- introspection -------------------------------------------------------

    def healthz_payload(self) -> Dict[str, Any]:
        """Per-cluster health: each member's breaker states and admission
        tier under its own key, plus federation quorum at the top."""
        clusters: Dict[str, Any] = {}
        for member in self.registry:
            clusters[member.name] = {
                "breakers": member.ctx.breaker_report(),
                "admission": member.ctx.admission_report(),
            }
        return {
            "ok": True,
            "service": "repro-dashboard",
            "federation": {
                "clusters_total": len(self.registry),
                "default": self.registry.default.name,
            },
            "clusters": clusters,
        }

    @property
    def clock(self):
        return self.ctx.clock

    def advance(self, seconds: float) -> int:
        """Run every member's simulation forward together."""
        return self.registry.advance(seconds)


def build_demo_federation(
    names: "List[str]" = ("anvil", "bell", "negishi"),
    seed: int = 2025,
    duration_hours: float = 2.0,
    cache_policy=None,
    admission=None,
):
    """One-call demo federation: N populated member clusters behind one
    :class:`FederatedDashboard`.  Member seeds derive from ``seed`` so
    the clusters carry distinct (but deterministic) workloads.

    Returns ``(federated_dashboard, registry)``.
    """
    registry = ClusterRegistry()
    for i, name in enumerate(names):
        registry.add_cluster(
            name,
            seed=seed + i,
            duration_hours=duration_hours,
            cache_policy=cache_policy,
            admission=admission,
        )
    return FederatedDashboard(registry), registry

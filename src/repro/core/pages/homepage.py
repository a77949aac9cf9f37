"""Dashboard homepage (paper §3, Figure 2).

Assembles the five widgets into one page.  Crucially it does *not* wait
for any widget's data: the page shell renders immediately with loading
placeholders, and each widget is populated from its own API route (§2.3)
— that is what :func:`render_homepage_shell` vs :func:`render_homepage`
model.  Widget failures degrade to an inline error block instead of
taking the page down (§2.4 Modularity).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.auth import Viewer

from ..rendering import (
    RawHTML,
    brownout_banner,
    el,
    loading_placeholder,
    page_shell,
    render_document,
)
from ..routes import ApiRoute, DashboardContext, RouteRegistry, RouteResponse
from ..widgets import ALL_WIDGET_ROUTES, WIDGET_RENDERERS
from ..workers import TaskOutcome

#: widget order on the homepage (Figure 2 layout)
HOMEPAGE_WIDGETS = tuple(route.name for route in ALL_WIDGET_ROUTES)


def homepage_data(
    ctx: DashboardContext, viewer: Viewer, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Route handler: the homepage *manifest* — which widgets to load and
    from where.  Widget payloads come from the individual routes."""
    return {
        "username": viewer.username,
        "widgets": [
            {"name": r.name, "path": r.path, "max_age_s": r.client_max_age_s}
            for r in ALL_WIDGET_ROUTES
        ],
    }


def render_homepage_shell(username: str):
    """The instantly-served page: chrome + a loading placeholder per
    widget (§2.3: 'the dashboard to load instantly and display a loading
    animation')."""
    slots = [
        el(
            "div",
            loading_placeholder(name),
            cls="widget-slot",
            data_widget=name,
        )
        for name in HOMEPAGE_WIDGETS
    ]
    return page_shell("homepage", username, el("div", *slots, cls="widget-grid"))


def _render_slot(
    name: str, outcome: TaskOutcome
) -> Tuple[Any, Optional[str], Optional[float]]:
    """Render one widget slot from its route call's outcome.

    Returns ``(slot_element, failure, stale_age_s)`` — the single code
    path both the batch render and the streamed render fill slots
    through, so the two can never drift apart byte-wise.
    ``registry.call`` already catches handler errors; an escape from the
    dispatch itself is synthesized into that slot's 500 envelope rather
    than breaking its siblings.
    """
    if outcome.error is None:
        response = outcome.value
    else:
        response = RouteResponse(
            ok=False,
            error=f"{type(outcome.error).__name__}: {outcome.error}",
            status=500,
            route=name,
        )
    failure: Optional[str] = None
    stale_age: Optional[float] = None
    if response.ok:
        data = response.data
        if response.degraded:
            # serve-stale path: the widget renders its cached payload
            # under a degraded banner (§2.4 resilience)
            stale_age = response.stale_age_s or 0.0
            data = {**data, "_degraded": {"stale_age_s": stale_age}}
        body = WIDGET_RENDERERS[name](data)
    else:
        failure = response.error or "unknown error"
        body = el(
            "div",
            f"The {name.replace('_', ' ')} widget is temporarily unavailable.",
            cls="widget-error alert alert-danger",
            role="alert",
        )
    return el("div", body, cls="widget-slot", data_widget=name), failure, stale_age


def render_homepage(
    ctx: DashboardContext,
    registry: RouteRegistry,
    viewer: Viewer,
) -> "HomepageRender":
    """Fetch every widget through its route and render the filled page.

    A failing widget renders an error block in its slot; the others are
    unaffected — the modularity contract the benchmarks verify.  The
    widget routes run one after another on the calling thread.
    """
    with ctx.obs.tracer.span(
        "page:homepage", kind="page", attrs={"viewer": viewer.username}
    ):
        outcomes = ctx.workers.scatter_gather(
            [partial(registry.call, ctx, name, viewer) for name in HOMEPAGE_WIDGETS]
        )
    slots = []
    failures: Dict[str, str] = {}
    degraded: Dict[str, float] = {}
    for name, outcome in zip(HOMEPAGE_WIDGETS, outcomes):
        slot, failure, stale_age = _render_slot(name, outcome)
        if failure is not None:
            failures[name] = failure
        if stale_age is not None:
            degraded[name] = stale_age
        slots.append(slot)
    tier = ctx.admission.tier
    page = page_shell(
        "homepage",
        viewer.username,
        brownout_banner(tier) if tier != "normal" else None,
        el("div", *slots, cls="widget-grid"),
    )
    return HomepageRender(page=page, failures=failures, degraded=degraded, tier=tier)


#: sentinel marking where one widget slot lands in the streamed document;
#: NUL can never appear in rendered (escaped) HTML, so splitting on it is safe
_SLOT_TOKEN = "\x00widget-slot:{name}\x00"


def _streaming_segments(username: str, tier: str) -> List[str]:
    """The homepage document split around its widget slots.

    Renders the full page *once* with a sentinel where each slot goes,
    then splits on the sentinels: ``segments[0]`` is the shell up to the
    first slot, ``segments[i]`` the static HTML between slot ``i-1`` and
    slot ``i``, and the last segment everything after the final slot.
    Interleaving the real slot HTML back between the segments reproduces
    the batch render byte-for-byte.
    """
    placeholders = [
        RawHTML(_SLOT_TOKEN.format(name=name)) for name in HOMEPAGE_WIDGETS
    ]
    page = page_shell(
        "homepage",
        username,
        brownout_banner(tier) if tier != "normal" else None,
        el("div", *placeholders, cls="widget-grid"),
    )
    document = render_document("HPC Dashboard", page)
    segments: List[str] = []
    rest = document
    for name in HOMEPAGE_WIDGETS:
        head, rest = rest.split(_SLOT_TOKEN.format(name=name), 1)
        segments.append(head)
    segments.append(rest)
    return segments


def stream_homepage(
    ctx: DashboardContext, registry: RouteRegistry, viewer: Viewer
) -> Iterator[str]:
    """Stream the homepage: shell first, then each widget slot as soon
    as it is rendered.

    Yields the document in chunks — the static shell up to the first
    slot before any widget runs, then each slot plus its trailing static
    HTML in :data:`HOMEPAGE_WIDGETS` order, each widget's route called
    only when its chunk is asked for.  Time-to-first-byte therefore does
    not wait for any widget.

    The concatenated chunks are byte-identical to
    ``render_homepage(...).document`` rendered at the same instant, with
    one documented divergence: the admission tier (brownout banner) is
    sampled *before* the widgets run — the shell must flush before any
    widget completes — while the batch render samples it after.
    """
    with ctx.obs.tracer.span(
        "page:homepage", kind="page",
        attrs={"viewer": viewer.username, "streamed": True},
    ):
        tier = ctx.admission.tier
        segments = _streaming_segments(viewer.username, tier)
        outcomes = ctx.workers.scatter_stream(
            [partial(registry.call, ctx, name, viewer) for name in HOMEPAGE_WIDGETS]
        )
        yield segments[0]
        for i, (name, outcome) in enumerate(zip(HOMEPAGE_WIDGETS, outcomes)):
            slot, _, _ = _render_slot(name, outcome)
            yield slot.render() + segments[i + 1]


class HomepageRender:
    """Rendered homepage plus which widgets failed or degraded."""

    def __init__(
        self,
        page,
        failures: Dict[str, str],
        degraded: Dict[str, float] | None = None,
        tier: str = "normal",
    ):
        self.page = page
        self.failures = failures
        #: widget name -> stale age (s) for widgets served from stale cache
        self.degraded = degraded or {}
        #: admission tier at render time ("normal", "brownout", "shed")
        self.tier = tier

    @property
    def html(self) -> str:
        return self.page.render()

    @property
    def document(self) -> str:
        """Complete standalone HTML document (with the stylesheet)."""
        from ..rendering import render_document

        return render_document("HPC Dashboard", self.page)

    @property
    def ok(self) -> bool:
        return not self.failures


ROUTE = ApiRoute(
    name="homepage",
    path="/api/v1/homepage",
    feature="Dashboard homepage",
    data_sources=("dashboard manifest",),
    handler=homepage_data,
    client_max_age_s=3600.0,
)

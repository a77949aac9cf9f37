"""Full news listing — the Announcements widget's "view all news at the
click of a button ... navigate to a list of all cluster-related
articles" (§3.1).

Same accordion layout and color/past styling as the widget, but over
the complete article history, with a category filter.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.auth import Viewer
from repro.news.api import Category

from ..colors import announcement_color, announcement_style
from ..params import ParamError
from ..rendering import accordion, el
from ..routes import ApiRoute, DashboardContext


def news_page_data(
    ctx: DashboardContext, viewer: Viewer, params: Dict[str, Any]
) -> Dict[str, Any]:
    """Route handler: every article, newest first, optional category."""
    category = params.get("category")
    cat: Category | None = None
    if category:
        try:
            cat = Category(str(category))
        except ValueError:
            raise ParamError(
                f"unknown category {category!r}; expected one of "
                f"{[c.value for c in Category]}"
            ) from None
    now = ctx.now()
    articles = sorted(ctx.news.all_articles(), key=lambda a: -a.posted_at)
    if cat is not None:
        articles = [a for a in articles if a.category is cat]
    return {
        "articles": [
            {
                "id": a.article_id,
                "title": a.title,
                "body": a.body,
                "category": a.category.value,
                "color": announcement_color(a.category),
                "style": announcement_style(a, now),
                "posted_at": ctx.clock.isoformat(a.posted_at),
                "starts_at": ctx.clock.isoformat(a.starts_at)
                if a.starts_at is not None
                else None,
                "ends_at": ctx.clock.isoformat(a.ends_at)
                if a.ends_at is not None
                else None,
            }
            for a in articles
        ],
        "categories": [c.value for c in Category],
        "filter": cat.value if cat else None,
    }


def render_news_page(data: Dict[str, Any]):
    """Frontend: category filter buttons + the full accordion."""
    filters = el(
        "div",
        el(
            "button",
            "All",
            cls="btn filter-option" + ("" if data["filter"] else " active"),
        ),
        *[
            el(
                "button",
                c.capitalize(),
                cls="btn filter-option"
                + (" active" if data["filter"] == c else ""),
                data_category=c,
            )
            for c in data["categories"]
        ],
        cls="category-filter",
        role="group",
        aria_label="Filter by category",
    )
    items = [
        (
            art["title"],
            art["body"],
            {
                "color": art["color"],
                "style": art["style"],
                "subtitle": art["posted_at"]
                + (
                    f" — window {art['starts_at']} to {art['ends_at']}"
                    if art["starts_at"]
                    else ""
                ),
            },
        )
        for art in data["articles"]
    ]
    return el(
        "section",
        el("header", el("h3", "Cluster News"), filters, cls="page-header"),
        accordion(items),
        cls="page page-news",
    )


ROUTE = ApiRoute(
    name="news_page",
    path="/api/v1/news",
    feature="News page (all articles)",
    data_sources=("API call to RCAC news page",),
    handler=news_page_data,
    client_max_age_s=600.0,
)

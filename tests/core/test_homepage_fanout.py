"""Parallel homepage fan-out must preserve the sequential contract.

Regression suite for the scatter-gather rendering path: same slot
order, same failure isolation and ``HomepageRender`` shape as the
historic sequential widget walk.  Same bytes on a healthy homepage is
an arm of ``tests/integration/test_same_bytes.py``.
"""

import dataclasses

from repro.core.pages.homepage import HOMEPAGE_WIDGETS, HomepageRender


def _swap_handler(dash, name, handler):
    """Re-register widget ``name`` with a replacement handler."""
    route = next(r for r in dash.registry.all_routes() if r.name == name)
    dash.registry.unregister(name)
    dash.registry.register(dataclasses.replace(route, handler=handler))
    return route


class TestByteIdentical:
    def test_slot_order_is_declared_order(self, dash, alice_v):
        html = dash.render_homepage(alice_v).html
        positions = [html.index(f'data-widget="{n}"') for n in HOMEPAGE_WIDGETS]
        assert positions == sorted(positions)


class TestFailureIsolation:
    def test_one_raising_widget_fails_only_its_slot(self, dash, alice_v):
        victim = HOMEPAGE_WIDGETS[1]

        def boom(ctx, viewer, params):
            raise RuntimeError("widget exploded in worker")

        original = _swap_handler(dash, victim, boom)
        try:
            render = dash.render_homepage(alice_v, parallel=True)
            assert set(render.failures) == {victim}
            assert "widget exploded in worker" in render.failures[victim]
            assert "temporarily unavailable" in render.html
            # siblings all rendered: every slot still present, in order
            for name in HOMEPAGE_WIDGETS:
                assert f'data-widget="{name}"' in render.html
        finally:
            dash.registry.unregister(victim)
            dash.registry.register(original)

    def test_failure_page_matches_sequential_failure_page(self, dash, alice_v):
        victim = HOMEPAGE_WIDGETS[0]

        def boom(ctx, viewer, params):
            raise ValueError("deterministic failure")

        original = _swap_handler(dash, victim, boom)
        try:
            seq = dash.render_homepage(alice_v, parallel=False)
            par = dash.render_homepage(alice_v, parallel=True)
            assert par.html == seq.html
            assert par.failures == seq.failures
        finally:
            dash.registry.unregister(victim)
            dash.registry.register(original)


class TestRenderShape:
    def test_homepage_render_fields_unchanged(self, dash, alice_v):
        render = dash.render_homepage(alice_v, parallel=True)
        assert isinstance(render, HomepageRender)
        assert render.failures == {}
        assert render.degraded == {}
        assert render.tier == "normal"
        assert render.ok

    def test_tier_survives_parallel_path(self, dash, alice_v):
        dash.ctx.admission.force_tier("brownout")
        try:
            render = dash.render_homepage(alice_v, parallel=True)
            assert render.tier == "brownout"
            assert "degraded mode" in render.html or "brownout" in render.html
        finally:
            dash.ctx.admission.force_tier("normal")

    def test_fanout_uses_worker_pool(self, dash, alice_v):
        """The parallel path actually dispatches onto the shared pool."""
        before = dash.ctx.obs.registry.total(
            "repro_worker_pool_tasks_total", result="ok"
        )
        dash.render_homepage(alice_v, parallel=True)
        after = dash.ctx.obs.registry.total(
            "repro_worker_pool_tasks_total", result="ok"
        )
        assert after - before >= len(HOMEPAGE_WIDGETS) - 1

    def test_page_span_records_parallel_flag(self, dash, alice_v):
        dash.render_homepage(alice_v, parallel=True)
        spans = [
            s
            for root in dash.ctx.obs.tracer.recent()
            for s in root.walk()
            if s.name == "page:homepage"
        ]
        assert spans and spans[-1].attrs.get("parallel") is True

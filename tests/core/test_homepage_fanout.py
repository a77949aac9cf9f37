"""The homepage's widget slots: declared order, per-slot failure
isolation and the ``HomepageRender`` shape.  Same bytes on the wire and
in process is checked by ``tests/integration/test_same_bytes.py``.
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
            raise RuntimeError("widget exploded")

        original = _swap_handler(dash, victim, boom)
        try:
            render = dash.render_homepage(alice_v)
            assert set(render.failures) == {victim}
            assert "widget exploded" in render.failures[victim]
            assert "temporarily unavailable" in render.html
            # siblings all rendered: every slot still present, in order
            for name in HOMEPAGE_WIDGETS:
                assert f'data-widget="{name}"' in render.html
        finally:
            dash.registry.unregister(victim)
            dash.registry.register(original)


class TestRenderShape:
    def test_homepage_render_fields_unchanged(self, dash, alice_v):
        render = dash.render_homepage(alice_v)
        assert isinstance(render, HomepageRender)
        assert render.failures == {}
        assert render.degraded == {}
        assert render.tier == "normal"
        assert render.ok

    def test_tier_survives_parallel_path(self, dash, alice_v):
        dash.ctx.admission.force_tier("brownout")
        try:
            render = dash.render_homepage(alice_v)
            assert render.tier == "brownout"
            assert "degraded mode" in render.html or "brownout" in render.html
        finally:
            dash.ctx.admission.force_tier("normal")

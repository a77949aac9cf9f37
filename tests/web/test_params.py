"""Regression tests for query-string coercion and integer-param validation.

``coerce_params`` used to convert ``nan``/``inf``/``1e309`` into float
NaN/Infinity, which ``json.dumps`` then emitted as bare ``NaN`` —
invalid JSON that breaks every spec-compliant client.

A second leak: ``coerce_params`` maps ``"true"`` to Python ``True``, and
``isinstance(True, int)`` holds — so ``?limit=true`` silently reached
``Tracer.recent`` as ``limit=1`` (and ``?limit=0`` as a slice over the
whole buffer).  Integer query params now reject booleans and non-positive
values with a structured 400.
"""

from __future__ import annotations

import json

import pytest

from repro.web.server import ParamError, coerce_params, positive_int_param


class TestCoerceParams:
    def test_basic_types(self):
        out = coerce_params(
            [("a", "1"), ("b", "2.5"), ("c", "true"), ("d", "False"), ("e", "text"),
             ("search", "007")]
        )
        assert out == {
            "a": 1, "b": 2.5, "c": True, "d": False, "e": "text", "search": "007",
        }
        assert isinstance(out["a"], int)

    @pytest.mark.parametrize(
        "raw",
        ["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "1e309", "-1e309"],
    )
    def test_non_finite_floats_stay_strings(self, raw):
        out = coerce_params([("limit", raw)])
        assert out["limit"] == raw
        assert isinstance(out["limit"], str)

    def test_payload_with_rejected_values_is_valid_json(self):
        out = coerce_params([("a", "nan"), ("b", "inf"), ("c", "3.5")])
        text = json.dumps(out)
        assert json.loads(text) == {"a": "nan", "b": "inf", "c": 3.5}
        assert "NaN" not in text and "Infinity" not in text

    def test_finite_scientific_notation_still_floats(self):
        out = coerce_params([("x", "1e3"), ("y", "-2.5e-4")])
        assert out == {"x": 1000.0, "y": -0.00025}

    @pytest.mark.parametrize(
        "raw",
        [
            # regression: int()/float() accept PEP 515 underscores, so
            # "1_000" silently became the number 1000
            "1_000", "1_0", "_1", "1_", "1_000.5", "1_0e2",
            # regression: int()/float() strip surrounding whitespace, so
            # " 42 " silently became the number 42
            " 42", "42 ", " 42 ", "\t7", "3.5\n", " 1e3 ",
        ],
    )
    def test_underscore_and_whitespace_stay_strings(self, raw):
        out = coerce_params([("limit", raw)])
        assert out["limit"] == raw
        assert isinstance(out["limit"], str)

    def test_padded_booleans_stay_strings(self):
        # only the exact spellings are booleans; padding keeps them raw
        out = coerce_params([("flag", " true "), ("other", "TRUE")])
        assert out["flag"] == " true "
        assert out["other"] is True

    def test_plain_numbers_still_coerce(self):
        out = coerce_params([("a", "1000"), ("b", "42"), ("c", "1e3")])
        assert out == {"a": 1000, "b": 42, "c": 1000.0}

    def test_huge_int_is_fine(self):
        # int() has no overflow; only the float path can go non-finite
        out = coerce_params([("n", "9" * 400)])
        assert out["n"] == int("9" * 400)
        json.dumps(out)

class TestPositiveIntParam:
    def test_absent_is_none(self):
        assert positive_int_param({}, "limit") is None

    def test_plain_int_passes(self):
        assert positive_int_param({"limit": 5}, "limit") == 5

    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_rejected(self, value):
        # isinstance(True, int) is True in Python; ?limit=true must NOT
        # silently mean limit=1
        with pytest.raises(ParamError):
            positive_int_param({"limit": value}, "limit")

    @pytest.mark.parametrize("value", [0, -1, -100])
    def test_zero_and_negative_rejected(self, value):
        # limit=0 would slice as traces[-0:] == everything; negatives
        # slice from the wrong end
        with pytest.raises(ParamError):
            positive_int_param({"limit": value}, "limit")

    @pytest.mark.parametrize("value", [2.5, "ten", None.__class__])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ParamError):
            positive_int_param({"limit": value}, "limit")

    def test_maximum_enforced_when_given(self):
        assert positive_int_param({"n": 10}, "n", maximum=10) == 10
        with pytest.raises(ParamError):
            positive_int_param({"n": 11}, "n", maximum=10)


class TestTracesLimitOverHttp:
    """End to end on /api/v1/traces/recent: bad limits are structured
    400s, good limits bound the response."""

    def _get(self, dash, query):
        import urllib.error
        import urllib.request

        from repro.web.server import DashboardServer

        with DashboardServer(dash) as server:
            try:
                with urllib.request.urlopen(
                    f"{server.url}/api/v1/traces/recent?{query}", timeout=10
                ) as resp:
                    return resp.status, json.loads(resp.read())
            except urllib.error.HTTPError as err:
                return err.code, json.loads(err.read())

    @pytest.mark.parametrize("query", [
        "limit=true", "limit=false", "limit=-1", "limit=0", "limit=2.5",
    ])
    def test_bad_limit_is_structured_400(self, dash, query):
        status, payload = self._get(dash, query)
        assert status == 400
        assert payload["ok"] is False
        assert "limit" in payload["error"]

    def test_good_limit_bounds_traces(self, dash, alice_v):
        for _ in range(3):
            dash.call("recent_jobs", alice_v)
        status, payload = self._get(dash, "limit=2")
        assert status == 200
        assert payload["ok"] is True
        assert len(payload["traces"]) == 2

    def test_absent_limit_still_works(self, dash, alice_v):
        dash.call("recent_jobs", alice_v)
        status, payload = self._get(dash, "")
        assert status == 200 and payload["ok"] is True
        assert payload["traces"]


class TestHostileParamsOverHttp:
    @pytest.mark.parametrize("query", ["limit=nan", "limit=1e309", "start=inf"])
    def test_hostile_params_over_http_yield_valid_json(self, dash, query):
        """End to end: non-finite query values must never poison a
        response — whatever the status, the body is spec-valid JSON."""
        import urllib.error
        import urllib.request

        from repro.web.server import DashboardServer

        path = "/api/v1/widgets/recent_jobs" if "limit" in query else "/api/v1/my_jobs"
        with DashboardServer(dash) as server:
            req = urllib.request.Request(
                f"{server.url}{path}?{query}",
                headers={"X-Remote-User": "alice"},
            )
            try:
                with urllib.request.urlopen(req, timeout=10) as resp:
                    body = resp.read().decode()
            except urllib.error.HTTPError as err:  # error envelope, not a crash
                body = err.read().decode()
        # json.loads is lenient about NaN (Python extension), so assert on
        # the wire text itself
        assert "NaN" not in body and "Infinity" not in body
        json.loads(body)

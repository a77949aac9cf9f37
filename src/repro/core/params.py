"""Query-parameter coercion and validation shared by the HTTP layer and
the route handlers.

The wire format only carries strings; :func:`coerce_params` types them
conservatively (ints, finite floats, booleans, else strings; free text
stays exactly as sent), and :func:`positive_int_param`,
:func:`number_param` and :func:`flag_param` validate the ``?limit=N``,
``?start=<timestamp>`` and ``?desc=true`` shapes.
Validation failures raise :class:`ParamError`, which the route
dispatcher and the HTTP server both render as a structured 400 — a bad
query string must never surface as a 500.

Historically these helpers lived in :mod:`repro.web.server`; they moved
here so widget handlers can validate their own params without importing
the HTTP layer (``repro.web.server`` re-exports them for backward
compatibility).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional


class ParamError(ValueError):
    """A query parameter failed validation — rendered as a structured 400."""


def coerce_params(pairs) -> Dict[str, Any]:
    """Type query-string values: ints, finite floats, booleans, else strings.

    ``search``, the one free-text param, skips typing and stays exactly
    as sent.

    Values like ``nan``, ``inf`` or ``1e309`` *parse* as floats but must
    stay strings: a NaN/Infinity that reaches a response payload makes
    ``json.dumps`` emit literals no JSON parser accepts.

    Python's ``int()``/``float()`` are also looser than the wire format:
    they accept ``_`` digit separators (``"1_000"`` -> 1000) and
    surrounding whitespace (``" 42 "`` -> 42).  Neither spelling is a
    number in a query string, so any value containing an underscore or
    whitespace skips numeric coercion and stays a string.

    Malformed *shapes* are the client's mistake and raise
    :class:`ParamError` (a structured 400) instead of being papered over:
    a blank value (``?limit=``, which ``parse_qsl`` silently dropped
    before callers passed ``keep_blank_values``) and a duplicate key
    (where last-one-wins would let ``?limit=1&limit=999`` smuggle the
    second value past anything that audited the first).
    """
    out: Dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ParamError(f"duplicate query param {key!r}")
        if value == "":
            raise ParamError(f"query param {key!r} has a blank value")
        if key == "search":
            # the pages match it as text: ``?search=007`` is not the int 7
            out[key] = value
            continue
        if value.lower() in ("true", "false"):
            out[key] = value.lower() == "true"
            continue
        if "_" in value or any(ch.isspace() for ch in value):
            out[key] = value
            continue
        try:
            out[key] = int(value)
            continue
        except ValueError:
            pass
        try:
            number = float(value)
            if math.isfinite(number):
                out[key] = number
                continue
        except ValueError:
            pass
        out[key] = value
    return out


def positive_int_param(
    params: Dict[str, Any], name: str, maximum: Optional[int] = None
) -> Optional[int]:
    """The value of an integer query param that must be >= 1 (or absent).

    ``coerce_params`` maps ``"true"``/``"false"`` to booleans, and
    ``isinstance(True, int)`` holds in Python — so a naive ``isinstance``
    check silently reads ``?limit=true`` as ``limit=1``.  Booleans,
    non-integers, zero and negative values are all rejected with a
    :class:`ParamError` instead of leaking into slicing arithmetic.
    """
    value = params.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParamError(
            f"query param {name!r} must be a positive integer, got {value!r}"
        )
    if value < 1:
        raise ParamError(
            f"query param {name!r} must be >= 1, got {value}"
        )
    if maximum is not None and value > maximum:
        raise ParamError(
            f"query param {name!r} must be <= {maximum}, got {value}"
        )
    return value


def number_param(params: Dict[str, Any], name: str) -> Optional[float]:
    """The value of a numeric query param, such as an epoch timestamp,
    as a float, or None when absent.

    An int comes back as the equal float, so ``?start=0`` and
    ``?start=0.0`` build one cache key.  A boolean (``?start=true``) or
    a string ``coerce_params`` could not read as a finite number is
    rejected with a :class:`ParamError`, never compared against a float
    downstream.
    """
    value = params.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParamError(
            f"query param {name!r} must be a number, got {value!r}"
        )
    return float(value)


def flag_param(params: Dict[str, Any], name: str) -> bool:
    """The value of a boolean query flag, or False when absent.

    Only ``true``/``false`` (which ``coerce_params`` types as booleans)
    are flags; anything else — ``?desc=1``, ``?desc=maybe`` — raises
    :class:`ParamError` instead of reading as True for being non-empty.
    """
    value = params.get(name)
    if value is None:
        return False
    if not isinstance(value, bool):
        raise ParamError(
            f"query param {name!r} must be true or false, got {value!r}"
        )
    return value

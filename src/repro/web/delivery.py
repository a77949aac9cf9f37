"""HTTP delivery-layer helpers: validators, negotiation, header hygiene.

The delivery layer takes the paper's §2.4 dual-layer caching story onto
the wire.  This module holds the policy pieces the request handler
composes:

* :class:`ValidatorIndex` — the server-side ETag book-keeping that lets
  a repeat poll of an unchanged widget be answered ``304 Not Modified``
  with **zero render work and zero body bytes**.  Each recorded response
  remembers the cache entries (and their write *generations*, see
  :meth:`repro.core.caching.TTLCache.generation_of`) it was computed
  from; a conditional GET revalidates by checking those entries are
  still present, fresh, and un-rewritten — never by re-running the
  route handler.
* ``Accept-Encoding`` negotiation and the compressibility policy for
  gzip responses (body bytes saved are recorded to
  ``repro_http_bytes_saved_total``).
* RFC 6266 ``Content-Disposition`` filename sanitisation — download
  filenames derive from URL path segments, so quotes and control
  characters must never reach the header line.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sim.rng import RandomStreams

#: bodies smaller than this are not worth a gzip member (header + CRC
#: overhead ≈ 25 bytes, and tiny JSON rarely deflates well)
GZIP_MIN_BYTES = 500

#: content-type prefixes that compress well (text-shaped payloads)
_COMPRESSIBLE_PREFIXES = (
    "text/",
    "application/json",
    "application/javascript",
    "image/svg",
)


def is_compressible(content_type: str) -> bool:
    """True for text-shaped content types worth gzipping."""
    ctype = content_type.split(";", 1)[0].strip().lower()
    return ctype.startswith(_COMPRESSIBLE_PREFIXES)


def gzip_accepted(accept_encoding: Optional[str]) -> bool:
    """Parse an ``Accept-Encoding`` header: does the client take gzip?

    Honors q-values — ``gzip;q=0`` (and ``*;q=0`` without a gzip entry)
    is a refusal, not an acceptance.  An absent header means "identity
    only" per RFC 9110 §12.5.3's conservative reading for proxies.
    """
    if not accept_encoding:
        return False
    wildcard: Optional[bool] = None
    for part in accept_encoding.split(","):
        token, _, params = part.partition(";")
        coding = token.strip().lower()
        if coding not in ("gzip", "x-gzip", "*"):
            continue
        q = 1.0
        for param in params.split(";"):
            name, _, value = param.partition("=")
            if name.strip().lower() == "q":
                try:
                    q = float(value.strip())
                except ValueError:
                    q = 0.0
        if coding == "*":
            wildcard = q > 0.0
        else:
            return q > 0.0  # an explicit gzip entry beats the wildcard
    if wildcard is not None:
        return wildcard
    return False


def quote_etag(etag: str) -> str:
    """Wrap a raw validator in the quoted form the header field uses."""
    return f'"{etag}"'


def if_none_match_values(header: Optional[str]) -> Tuple[str, ...]:
    """Raw validators listed in an ``If-None-Match`` header.

    Strips quotes and weakness prefixes (a weak validator still matches
    for 304 purposes per RFC 9110 §13.1.2's weak comparison).  ``*``
    comes through verbatim.
    """
    if not header:
        return ()
    values = []
    for part in header.split(","):
        tag = part.strip()
        if tag.startswith(("W/", "w/")):
            tag = tag[2:]
        if len(tag) >= 2 and tag[0] == '"' and tag[-1] == '"':
            tag = tag[1:-1]
        if tag:
            values.append(tag)
    return tuple(values)


def content_disposition(filename: str) -> str:
    """An ``attachment`` Content-Disposition with the filename made safe
    per RFC 6266: control characters stripped (CR/LF would split the
    header), backslash and double-quote escaped (a bare quote would
    terminate the quoted-string early and inject whatever follows)."""
    safe = "".join(c for c in filename if ord(c) >= 0x20 and ord(c) != 0x7F)
    safe = safe.replace("\\", "\\\\").replace('"', '\\"')
    return f'attachment; filename="{safe}"'


class RetryJitter:
    """Deterministic seeded jitter for ``Retry-After`` hints.

    Every rejection or outage (503/504) used to carry the *same*
    retry budget, so every rejected client slept the same interval and
    re-stampeded the recovering daemon in lockstep.  Each call draws the
    next value from one seeded :class:`~repro.sim.rng.RandomStreams`
    stream and spreads the hint across ``[hint, hint * (1 + spread))`` —
    concurrent rejections get *different* hints, and a run with the same
    seed replays the exact same sequence of hints.

    Jitter applies to the header hint only; the JSON body's
    ``retry_after_s`` stays the route layer's un-jittered budget.
    """

    def __init__(self, seed: int = 0, spread: float = 0.5):
        if spread < 0:
            raise ValueError(f"spread must be >= 0: {spread}")
        self.spread = spread
        self._rng = RandomStreams(seed=seed).stream("retry-after")
        self._lock = threading.Lock()

    def jitter(self, retry_after_s: float) -> float:
        """The jittered hint for one rejected request (thread-safe)."""
        with self._lock:
            draw = float(self._rng.random())
        return retry_after_s * (1.0 + self.spread * draw)


def request_cache_key(
    username: str, is_admin: bool, path: str, query: str
) -> str:
    """The canonical viewer+route identity of one GET request: the key
    the :class:`ValidatorIndex` records and revalidates ETags under."""
    return f"{username}|{int(is_admin)}|{path}?{query}"


@dataclass(frozen=True)
class ValidatorRecord:
    """What the server remembers about one ETagged response."""

    etag: str
    #: the cache entries the response was computed from, as
    #: ``(full_key, generation)`` pairs
    deps: Tuple[Tuple[str, int], ...]
    #: body bytes the matching 304 keeps off the wire
    body_len: int


class ValidatorIndex:
    """ETag validators for recently served responses, by request key.

    Bounded LRU, thread-safe.  :meth:`validate` is the 304 decision: the
    presented ``If-None-Match`` must name the recorded ETag *and* every
    cache entry the response depended on must still be present, fresh,
    and at the same write generation.  Anything else — evicted entry,
    expired TTL, concurrent rewrite — falls through to a full dispatch,
    so a 304 is never served after an entry the response read has been
    rewritten or has expired.  Fields the handler computed from the sim
    clock are not covered: a 304 keeps the client's copy of them, which
    lags a fresh render by less than the shortest TTL among those
    entries.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        self.max_entries = max_entries
        self._records: "OrderedDict[str, ValidatorRecord]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def record(
        self,
        request_key: str,
        etag: str,
        deps: Tuple[Tuple[str, int], ...],
        body_len: int,
    ) -> None:
        """Remember the validator just sent for ``request_key``."""
        with self._lock:
            self._records[request_key] = ValidatorRecord(
                etag=etag, deps=deps, body_len=body_len
            )
            self._records.move_to_end(request_key)
            while len(self._records) > self.max_entries:
                self._records.popitem(last=False)

    def validate(
        self, request_key: str, if_none_match: Optional[str], cache, now: float
    ) -> Optional[ValidatorRecord]:
        """The record to answer 304 with, or None for a full dispatch."""
        with self._lock:
            record = self._records.get(request_key)
            if record is not None:
                self._records.move_to_end(request_key)
        if record is None:
            return None
        presented = if_none_match_values(if_none_match)
        if record.etag not in presented and "*" not in presented:
            return None
        for full_key, generation in record.deps:
            entry = cache.entry(full_key)
            if (
                entry is None
                or not entry.is_fresh(now)
                or entry.generation != generation
            ):
                return None
        return record


__all__ = [
    "GZIP_MIN_BYTES",
    "RetryJitter",
    "ValidatorIndex",
    "ValidatorRecord",
    "content_disposition",
    "gzip_accepted",
    "if_none_match_values",
    "is_compressible",
    "quote_etag",
    "request_cache_key",
]

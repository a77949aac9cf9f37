"""Browser-style dashboard client: fetch + IndexedDB caching.

Models the paper's frontend behaviour (§2.3/§2.4): each widget fetches
its API route, stores the response in IndexedDB, and on later visits
renders instantly from the client cache (refreshing stale data in the
background).  Two transports are provided:

* :class:`InProcessTransport` — calls the Dashboard directly (used by
  tests and benchmarks; zero network noise);
* :class:`HttpTransport` — real HTTP against a
  :class:`~repro.web.server.DashboardServer`.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Tuple

from repro.auth import Viewer
from repro.core.clientcache import ClientCache, FetchOutcome, IndexedDBStore
from repro.core.dashboard import Dashboard
from repro.sim.clock import SimClock


class TransportError(RuntimeError):
    """A failed fetch (non-2xx or unreachable backend)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class Transport(Protocol):
    def get(self, path: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Fetch a route; returns the ``data`` payload or raises
        :class:`TransportError`."""


class InProcessTransport:
    """Directly drives a Dashboard instance (the default for tests)."""

    def __init__(self, dashboard: Dashboard, viewer: Viewer):
        self.dashboard = dashboard
        self.viewer = viewer
        self.requests = 0
        self.not_modified = 0

    def get(self, path: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch a route in-process; raises TransportError on failure."""
        data, _, _ = self.get_conditional(path, params)
        return data

    def get_conditional(
        self, path: str, params: Dict[str, Any], etag: Optional[str] = None
    ) -> Tuple[Optional[Dict[str, Any]], Optional[str], bool]:
        """Conditional fetch: ``(data, etag, not_modified)``.

        In-process there is no wire to save bytes on, but the 304
        contract is modeled the same way: an unchanged validator returns
        ``(None, etag, True)`` so :class:`~repro.core.clientcache.ClientCache`
        exercises the identical revalidation path as over HTTP.
        """
        self.requests += 1
        response = self.dashboard.get(path, self.viewer, params)
        if not response.ok:
            raise TransportError(response.status, response.error or "error")
        if etag is not None and response.etag == etag:
            self.not_modified += 1
            return None, etag, True
        assert response.data is not None
        return response.data, response.etag, False


class HttpTransport:
    """Real HTTP against the stdlib server."""

    def __init__(self, base_url: str, username: str, is_admin: bool = False,
                 timeout_s: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.username = username
        self.is_admin = is_admin
        self.timeout_s = timeout_s
        self.requests = 0
        self.not_modified = 0

    def get(self, path: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Fetch a route over HTTP; raises TransportError on failure."""
        data, _, _ = self.get_conditional(path, params)
        return data

    def get_conditional(
        self, path: str, params: Dict[str, Any], etag: Optional[str] = None
    ) -> Tuple[Optional[Dict[str, Any]], Optional[str], bool]:
        """Conditional fetch: ``(data, etag, not_modified)``.

        Sends ``If-None-Match`` when a validator is known; a 304 reply
        (which ``urllib`` surfaces as an :class:`~urllib.error.HTTPError`)
        returns ``(None, etag, True)`` with zero body bytes read.
        """
        self.requests += 1
        query = urllib.parse.urlencode(params)
        url = f"{self.base_url}{path}" + (f"?{query}" if query else "")
        req = urllib.request.Request(url, headers={"X-Remote-User": self.username})
        if self.is_admin:
            req.add_header("X-Admin", "1")
        if etag is not None:
            req.add_header("If-None-Match", f'"{etag}"')
        try:
            with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
                payload = json.loads(resp.read())
                fresh_etag = _raw_etag(resp.headers.get("ETag"))
        except urllib.error.HTTPError as exc:
            if exc.code == 304:  # not an error: the cached payload stands
                self.not_modified += 1
                return None, _raw_etag(exc.headers.get("ETag")) or etag, True
            try:
                detail = json.loads(exc.read()).get("error", str(exc))
            except Exception:  # noqa: BLE001
                detail = str(exc)
            raise TransportError(exc.code, detail) from exc
        if not payload.get("ok"):
            raise TransportError(payload.get("status", 500), payload.get("error", ""))
        return payload["data"], fresh_etag, False


def _raw_etag(header: Optional[str]) -> Optional[str]:
    """Strip the quoted form off an ``ETag`` response header."""
    if header is None:
        return None
    tag = header.strip()
    if len(tag) >= 2 and tag[0] == '"' and tag[-1] == '"':
        tag = tag[1:-1]
    return tag or None


@dataclass
class WidgetLoad:
    """Result of loading one widget in the simulated browser."""

    name: str
    data: Dict[str, Any]
    served_from: str  # "client-cache" | "network"
    age_s: float
    revalidated: bool


class BrowserClient:
    """The simulated browser: client cache + transport + widget loads."""

    def __init__(
        self,
        transport: Transport,
        clock: SimClock,
        db: Optional[IndexedDBStore] = None,
    ):
        self.transport = transport
        self.cache = ClientCache(clock, db=db)
        self.loads: List[WidgetLoad] = []

    def load(
        self,
        name: str,
        path: str,
        params: Optional[Dict[str, Any]] = None,
        max_age_s: float = 30.0,
    ) -> WidgetLoad:
        """Load one component the way the frontend does (§2.4): IndexedDB
        first, network on miss, stale-while-revalidate in between.
        Transports that support conditional fetches revalidate with
        ``If-None-Match``, so an unchanged widget costs a 304 and no body."""
        params = params or {}
        key = path + "?" + json.dumps(params, sort_keys=True)
        conditional = getattr(self.transport, "get_conditional", None)
        if conditional is not None:
            outcome: FetchOutcome = self.cache.fetch_conditional(
                key,
                fetch_conditional=lambda etag: conditional(path, params, etag),
                max_age_s=max_age_s,
            )
        else:  # custom get-only transports keep the unconditional path
            outcome = self.cache.fetch(
                key,
                fetch_remote=lambda: self.transport.get(path, params),
                max_age_s=max_age_s,
            )
        load = WidgetLoad(
            name=name,
            data=outcome.value,
            served_from=outcome.served_from,
            age_s=outcome.age_s,
            revalidated=outcome.revalidated,
        )
        self.loads.append(load)
        return load

    def open_homepage(self, manifest: Dict[str, Any]) -> List[WidgetLoad]:
        """Load every widget listed in the homepage manifest (the real
        frontend fires these fetches concurrently on page load)."""
        return [
            self.load(w["name"], w["path"], max_age_s=w["max_age_s"])
            for w in manifest["widgets"]
        ]

    @property
    def instant_fraction(self) -> float:
        """Fraction of loads served instantly from the client cache —
        the §2.4 'almost always instantly sees the full component' claim."""
        if not self.loads:
            return 0.0
        instant = sum(1 for l in self.loads if l.served_from == "client-cache")
        return instant / len(self.loads)
